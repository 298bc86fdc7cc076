"""Ordered map over forked worker processes.

``map_ordered(fn, items)`` returns ``[fn(item) for item in items]``. On
more than one CPU it forks one worker per item and leaves the sharing of the
CPUs to the OS scheduler; a caller that wants fewer workers passes fewer,
larger items. Workers inherit ``fn``, whatever it closes over and the items
through the fork, so nothing is pickled on the way in; each result, or the
exception that replaced it, comes back pickled through the worker's own
pipe. On one CPU, or where ``os.fork`` does not exist, the map runs in this
process. There is no setting: the result is the same for any worker count.

Workers are forked rather than spawned because they need the caller's
arrays and closures: a spawned worker would re-import the package and
unpickle its inputs. The package starts no threads of its own, and each
worker leaves through ``os._exit``, so it never runs the parent's cleanup.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from collections.abc import Callable, Iterable
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(n_items: int) -> int:
    """How many CPUs ``n_items`` items can keep busy; 1 means that
    ``map_ordered`` runs them in this process."""
    return max(1, min(n_items, cpu_count())) if hasattr(os, "fork") else 1


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(item) for item in items]``, computed in forked workers.

    If items raise, the exception of the first one in item order is raised
    here, after every worker has been killed and reaped; no worker outlives
    the call.
    """
    items = list(items)
    if worker_count(len(items)) == 1:
        return [fn(item) for item in items]
    pids: list[int] = []
    pipes = []
    try:
        for item in items:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _work(fn, item, write_fd)
            os.close(write_fd)  # so that only the worker holds it
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        # Messages are read as they come. Once an item fails, no later result
        # is used, so those workers stop at once and leave the CPUs to the rest.
        messages: dict[int, tuple] = {}
        end = len(items)
        while pending := [pipes[i] for i in range(end) if i not in messages]:
            for i in map(pipes.index, select.select(pending, [], [])[0]):
                if i >= end:
                    continue  # its worker was stopped
                try:
                    messages[i] = pickle.load(pipes[i])
                except EOFError:
                    error = RuntimeError(f"worker process {pids[i]} exited without a result")
                    messages[i] = (False, error)
                if not messages[i][0]:
                    end = i
                    for pid in pids[i + 1:]:
                        os.kill(pid, signal.SIGKILL)
        if end < len(items):
            raise messages[end][1]
        return [messages[i][1] for i in range(end)]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # a no-op on a worker that has exited
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _work(fn, item, write_fd: int) -> None:
    """A worker's whole life: write ``(True, fn(item))``, or ``(False,
    exception)``, then exit. It never returns, so the caller's frames,
    ``finally`` blocks and exit handlers do not run twice."""
    code = 1
    try:
        try:
            message = (True, fn(item))
        except Exception as e:
            message = (False, e)
        with open(write_fd, "wb") as out:
            out.write(pickle.dumps(message))
        code = 0
    finally:
        os._exit(code)
