"""The one persistent local process pool.

Every local fan-out runs on this pool: the chunks of a multi-round
simulate call (:mod:`repro.simulation.engine`) and the variants of a
:class:`~repro.experiments.backends.ProcessBackend` sweep.  The pool is
sized to the CPUs this process may run on and starts on first use with
the **fork** start method.  A forked worker inherits the parent's
imported modules and starts in milliseconds; a spawn or forkserver
worker re-imports the parent's ``__main__`` instead, which re-runs any
script that lacks a ``__main__`` guard inside every worker.

:func:`run_groups` splits its items into contiguous groups, submits one
task per group and returns the results in item order, so a caller that
folds them reproduces its serial fold exactly.  A worker killed mid-call
breaks the executor: the call discards it, starts a fresh pool and runs
once more (tasks are pure functions of their input, so the retry cannot
change a result).  A second break propagates.

No nesting: inside any multiprocessing child — a pool worker, or a
:class:`~repro.cluster.transports.LocalProcessFleet` shard worker —
:func:`can_fan_out` is false, and :func:`run_groups` runs its groups
in-process, one after another, and returns the serial result.  A forked
worker holds a copy of the parent's executor whose threads did not
survive the fork; submitting into it would wait forever.  Workers keep
the module state of the moment they were forked for as long as the pool
lives, patched attributes included: code that patches what workers run
starts the pool first.

Most processes never fan out (the service's small misses, one-round
runs), so :mod:`multiprocessing` is imported on first use, not with
this module.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import threading
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

__all__ = ["usable_cpus", "can_fan_out", "contiguous_groups", "run_groups"]

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _in_child() -> bool:
    import multiprocessing

    return multiprocessing.parent_process() is not None


def can_fan_out() -> bool:
    """Whether work here may fan out: two usable CPUs, and not a child process."""
    return not _in_child() and usable_cpus() >= 2


def contiguous_groups(items: Sequence[T], groups: int) -> List[List[T]]:
    """``items`` in at most ``groups`` contiguous runs, sizes differing by one at most."""
    groups = max(1, min(groups, len(items)))
    size, extra = divmod(len(items), groups)
    split: List[List[T]] = []
    start = 0
    for index in range(groups):
        stop = start + size + (index < extra)
        split.append(list(items[start:stop]))
        start = stop
    return split


class _LocalPool:
    """A lazily started fork-context executor, replaced when it breaks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _current(self) -> concurrent.futures.ProcessPoolExecutor:
        import multiprocessing

        with self._lock:
            if self._executor is None:
                self._executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=usable_cpus(),
                    mp_context=multiprocessing.get_context("fork"),
                )
            return self._executor

    def _discard(self, executor: concurrent.futures.ProcessPoolExecutor) -> None:
        # Concurrent callers may all see one break; only the first replaces it.
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def run(self, fn: Callable[[List[T]], List[R]], parts: List[List[T]]) -> List[R]:
        try:
            return self._run_once(fn, parts)
        except concurrent.futures.BrokenExecutor:
            return self._run_once(fn, parts)

    def _run_once(
        self, fn: Callable[[List[T]], List[R]], parts: List[List[T]]
    ) -> List[R]:
        executor = self._current()
        try:
            futures = [executor.submit(fn, part) for part in parts]
            return [result for future in futures for result in future.result()]
        except concurrent.futures.BrokenExecutor:  # BrokenProcessPool
            self._discard(executor)
            raise

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


_POOL = _LocalPool()
# Join the workers while the interpreter is whole: an executor collected
# during module teardown fails in its own weakref callback.
atexit.register(_POOL.shutdown)


def run_groups(
    fn: Callable[[List[T]], List[R]], items: Sequence[T], groups: int
) -> Tuple[List[R], int]:
    """Run ``fn`` over ``items`` in ``groups`` contiguous groups on the pool.

    ``fn`` takes one group and returns one result per item; it and the
    items must pickle, and a group pickles its items together, so
    objects they share (a chunk's plan and population) travel once per
    task.  Returns the results in item order and the number of
    processes the groups spread across.  Inside a multiprocessing child
    the groups run here, serially, on one process.
    """
    parts = contiguous_groups(items, groups)
    if _in_child():
        return [result for part in parts for result in fn(part)], 1
    return _POOL.run(fn, parts), min(len(parts), usable_cpus())
