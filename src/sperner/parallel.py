"""Deterministic process-pool mapping.

Results come back in input order regardless of scheduling, so any code
built on parallel_map produces identical output at any worker count.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 workers: int = 1) -> list[R]:
    """Order-preserving map, fanned out over processes when workers > 1."""
    seq: Sequence[T] = list(items)
    if workers <= 1 or len(seq) <= 1:
        return [fn(x) for x in seq]
    # imported here: the pool machinery (multiprocessing, pickle, socket)
    # would otherwise load on every CLI start
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(seq))) as pool:
        return list(pool.map(fn, seq))
