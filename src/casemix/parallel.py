"""Forked worker processes: ``start`` one call, or ``map_ordered`` over items.

``start(fn)`` runs ``fn()`` in a forked worker and returns its ``Task`` at
once; ``task.join()`` gives the result or raises the error. ``map_ordered(fn,
items)`` returns ``[fn(item) for item in items]`` from one task per item and
leaves the sharing of the CPUs to the OS scheduler; a caller that wants fewer
workers passes fewer, larger items. Workers inherit ``fn``, whatever it
closes over and the items through the fork, so nothing is pickled on the
way in; each result, or the exception that replaced it, comes back pickled
through the worker's own pipe. On one CPU, or where ``os.fork`` does not
exist, each call runs in this process as it is started. There is no
setting: the result is the same for any worker count.

Workers are forked rather than spawned because they need the caller's
arrays and closures: a spawned worker would re-import the package and
unpickle its inputs. The package starts no threads of its own, and each
worker leaves through ``os._exit``, so it never runs the parent's cleanup
nor flushes the parent's buffered output. A worker prints nothing: what it
has to say goes back in its result.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from collections.abc import Callable, Iterable
from functools import partial
from typing import Generic, TypeVar

from .errors import WorkerLostError

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


class Task(Generic[R]):
    """One call of a function: made in a forked worker, or in this process
    when the task is created. ``join`` or ``kill`` reaps the worker."""

    def __init__(self, fn: Callable[[], R], fork: bool):
        self._pid: int | None = None  # the worker's, until it is reaped
        self._message: tuple | None = None  # (True, result) or (False, exception)
        if not fork:
            self._message = _call(fn)
            return
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            _work(fn, write_fd)
        os.close(write_fd)  # so that only the worker holds it
        self._pid, self._pipe = pid, os.fdopen(read_fd, "rb")

    def fileno(self) -> int:
        """The worker's pipe, for ``select``, while the task is not ``done``."""
        return self._pipe.fileno()

    @property
    def done(self) -> bool:
        """Whether the result or the error is known, so that ``join`` will not wait."""
        return self._message is not None

    @property
    def failed(self) -> bool:
        return self._message is not None and not self._message[0]

    def _receive(self) -> None:
        """Wait for the worker's message. A worker that exits without one,
        killed by the OOM killer say, has failed with ``WorkerLostError``."""
        try:
            self._message = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):  # its pipe closed early
            _, status = os.waitpid(self._pid, 0)
            self._message = (False, _lost(self._pid, status))
            self._pid = None
            self._pipe.close()

    def join(self) -> R:
        """The call's result, or raise its exception; the worker is reaped
        either way. A task may be joined again, with the same outcome."""
        try:
            if self._message is None:
                self._receive()
        finally:
            self.kill()
        ok, value = self._message
        if not ok:
            raise value
        return value

    def kill(self) -> None:
        """Stop the worker if it still runs and reap it; a no-op once it is reaped."""
        if self._pid is not None:  # its pid may belong to another process once reaped
            os.kill(self._pid, signal.SIGKILL)  # a no-op on a worker that has exited
            os.waitpid(self._pid, 0)
            self._pid = None
            self._pipe.close()


def start(fn: Callable[[], R]) -> Task[R]:
    """Start ``fn()`` in a forked worker and return its task, or, on one CPU,
    make the call now. The caller must ``join`` or ``kill`` the task."""
    return Task(fn, worker_count(2) > 1)


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(item) for item in items]``, computed in forked workers.

    If items raise, the exception of the first one in item order is raised
    here, after every worker has been killed and reaped; no worker outlives
    the call. A worker that exits without a result counts as an item that
    raised ``WorkerLostError``.
    """
    items = list(items)
    fork = worker_count(len(items)) > 1
    tasks: list[Task[R]] = []
    try:
        for item in items:
            tasks.append(Task(partial(fn, item), fork))
            if tasks[-1].failed:  # made in this process: no later item runs
                break
        # Messages are read as they come. Once an item fails, no later result
        # is used, so those workers stop at once and leave the CPUs to the rest.
        end = len(tasks)
        while pending := [task for task in tasks[:end] if not task.done]:
            for task in select.select(pending, [], [])[0]:
                i = tasks.index(task)
                if i < end:  # else its worker was stopped
                    task._receive()
                    if task.failed:
                        end = i + 1
                        for later in tasks[end:]:
                            later.kill()
        return [task.join() for task in tasks[:end]]
    finally:
        for task in tasks:
            task.kill()


def _lost(pid: int, status: int) -> WorkerLostError:
    """The error for worker ``pid``, gone without a result; ``status`` is
    what ``waitpid`` reported for it."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        how = f"was killed by signal {-code} ({signal.strsignal(-code)})"
    else:
        how = f"exited with status {code}"
    return WorkerLostError(f"worker process {pid} {how} without a result")


def _call(fn: Callable[[], R]) -> tuple:
    """``(True, fn())``, or ``(False, exception)`` if it raised one."""
    try:
        return True, fn()
    except Exception as e:
        return False, e


def _work(fn, write_fd: int) -> None:
    """A worker's whole life: write ``_call(fn)`` to ``write_fd``, then
    exit. It never returns, so the caller's frames, ``finally`` blocks and
    exit handlers do not run twice."""
    code = 1
    try:
        message = _call(fn)
        with open(write_fd, "wb") as out:
            out.write(pickle.dumps(message))
        code = 0
    finally:
        os._exit(code)
