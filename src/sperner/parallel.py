"""Deterministic process-pool mapping.

Results come back in input order regardless of scheduling, so any code
built on parallel_map produces identical output at any worker count.
The pool forks its workers, whatever the global start method, so they
inherit the caller's memory: a table the caller built is not rebuilt.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: int = 1) -> list[R]:
    """Order-preserving map, fanned out over forked processes when
    workers > 1; the workers inherit the caller's memory."""
    seq: Sequence[T] = list(items)
    if workers <= 1 or len(seq) <= 1:
        return [fn(x) for x in seq]
    # imported here: the pool machinery (multiprocessing, pickle, socket)
    # would otherwise load on every CLI start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # sperner starts no thread, so a CLI run forks safely; Python 3.12+
    # warns when a caller's own threads make a fork unsafe
    with ProcessPoolExecutor(max_workers=min(workers, len(seq)),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, seq))
