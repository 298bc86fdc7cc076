"""Ordered map over forked worker processes.

``map_ordered(fn, items)`` returns ``[fn(item) for item in items]``. It
forks one worker per item, up to the number of CPUs this process may run
on, and deals the items out round-robin. Workers inherit ``fn``, whatever
it closes over and the items through the fork, so nothing is pickled on the
way in; each result, or the exception that replaced it, comes back pickled
through the worker's own pipe. With one worker, or where ``os.fork`` does
not exist, the map runs in this process. There is no setting: the result
is the same for any worker count.

Workers are forked rather than spawned because they need the caller's
arrays and closures: a spawned worker would re-import the package and
unpickle its inputs. The package starts no threads of its own, and each
worker leaves through ``os._exit``, so it never runs the parent's cleanup.
"""

from __future__ import annotations

import os
import pickle
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
    """How many workers ``map_ordered`` uses for ``n_items`` items."""
    return max(1, min(n_items, cpu_count())) if hasattr(os, "fork") else 1


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(item) for item in items]``, computed in forked workers.

    Results are read in item order. If items raise, the exception of the
    first one in that order is raised here, after every worker has been
    killed and reaped; no worker outlives the call.
    """
    items = list(items)
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    pids: list[int] = []
    pipes = []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _work(fn, items[w::workers], write_fd)
            os.close(write_fd)  # so that only the worker holds it
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        results = []
        for i in range(len(items)):
            try:
                ok, value = pickle.load(pipes[i % workers])
            except EOFError:
                raise RuntimeError(f"worker process {pids[i % workers]} exited without a result")
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # a no-op on a worker that has exited
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _work(fn, items, write_fd: int) -> None:
    """A worker's whole life: write ``(True, fn(item))`` for each item in
    turn, or ``(False, exception)`` and stop, then exit. It never returns,
    so the caller's frames, ``finally`` blocks and exit handlers do not run
    twice."""
    code = 1
    try:
        with open(write_fd, "wb") as out:
            for item in items:
                try:
                    message = (True, fn(item))
                except Exception as e:
                    message = (False, e)
                out.write(pickle.dumps(message))
                out.flush()
                if not message[0]:
                    break
        code = 0
    finally:
        os._exit(code)
