"""Exact difference functions behind the shadow/shade counting bounds,
plus the catalogue of inequality checks built on them.

term_gain(n, r)           = C(n,r-1) - C(n,r)             (0 when r > n)
damped_term_gain(n, r, k) = C(n,r-1) - k/(k+1) * C(n,r)   (0 when r > n)

Both measure how much a single cascade term grows or shrinks when a
shadow/shade is taken; the damped variant subtracts the local counting
bound's share instead of the full term.  Everything is exact, with no
floating point.  The catalogue's checks compare integers: the damped
gain scaled by k+1, and lemma 3.2's identity multiplied out by r.  Of
the package's functions only damped_term_gain, the shade table and the
local counting bounds return a Fraction.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:
    # fractions loads decimal and numbers; the functions that build a
    # Fraction import it when called, so a CLI start does not pay for it
    from fractions import Fraction


def _check_positive(**kwargs: int) -> None:
    for name, v in kwargs.items():
        if v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v}")


def term_gain(n: int, r: int) -> int:
    """C(n,r-1) - C(n,r) if r <= n, else 0."""
    _check_positive(n=n, r=r)
    if r > n:
        return 0
    return comb(n, r - 1) - comb(n, r)


def _scaled_damped_gain(n: int, r: int, k: int) -> int:
    """(k+1) * damped_term_gain(n, r, k): (k+1)*C(n,r-1) - k*C(n,r) if
    r <= n, else 0."""
    if r > n:
        return 0
    return (k + 1) * comb(n, r - 1) - k * comb(n, r)


def damped_term_gain(n: int, r: int, k: int) -> Fraction:
    """C(n,r-1) - k/(k+1)*C(n,r) if r <= n, else 0; exact rational."""
    from fractions import Fraction
    _check_positive(n=n, r=r, k=k)
    return Fraction(_scaled_damped_gain(n, r, k), k + 1)


def hockey_stick(r: int, k: int) -> int:
    """C(r,0) + C(r+1,1) + ... + C(r+k,k), summed term by term; catalogue
    check 3.5 compares it with C(r+k+1,k)."""
    if r < 0 or k < 0:
        raise ValueError("hockey stick needs r, k >= 0")
    return sum(comb(r + i, i) for i in range(k + 1))


# ---------------------------------------------------------------------------
# check catalogue


class CheckReport(NamedTuple):
    check_id: str
    description: str
    limit: int
    instances: int
    violations: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


# Each checker yields (params, ok); params identify the violating instance.
Checker = Callable[[int], Iterator[tuple[tuple, bool]]]


def _check_3_2(limit: int):
    # term_gain(n,r) == C(n,r-1) * (2r-1-n)/r, multiplied out by r
    for n in range(1, limit + 1):
        for r in range(1, n + 1):
            yield (n, r), r * term_gain(n, r) == comb(n, r - 1) * (2 * r - 1 - n)


def _check_3_3(limit: int):
    # sign of term_gain(n,r) matches the position of r vs (n+1)/2
    for n in range(1, limit + 1):
        for r in range(1, n + 1):
            d = term_gain(n, r)
            if 2 * r > n + 1:
                ok = d > 0
            elif 2 * r == n + 1:
                ok = d == 0
            else:
                ok = d < 0
            yield (n, r), ok


def _check_3_4(limit: int):
    # term_gain(i,r) >= term_gain(j-2+r,r) for r <= i <= j-2+r
    for j in range(2, limit + 1):
        for r in range(1, j):
            floor_value = term_gain(j - 2 + r, r)
            for i in range(r, j - 2 + r + 1):
                yield (j, r, i), term_gain(i, r) >= floor_value


def _check_3_5(limit: int):
    # hockey stick identity
    for r in range(0, limit + 1):
        for k in range(0, limit + 1):
            yield (r, k), hockey_stick(r, k) == comb(r + k + 1, k)


def _check_3_6(limit: int):
    # sum_{r=1..j} term_gain(j-2+r, r) == 1
    for j in range(2, limit + 1):
        total = sum(term_gain(j - 2 + r, r) for r in range(1, j + 1))
        yield (j,), total == 1


def _check_3_7(limit: int):
    # odd n: term_gain(i, ceil(n/2)+1) >= 2 for ceil(n/2)+1 <= i <= n
    for n in range(3, limit + 1, 2):
        r = (n + 1) // 2 + 1
        for i in range(r, n + 1):
            yield (n, i), term_gain(i, r) >= 2


# The damped checks compare D = _scaled_damped_gain = (k+1) *
# damped_term_gain at one k, so each claim is multiplied out by k+1.


def _check_3_10(limit: int):
    # damped_term_gain(i,j,k) - damped_term_gain(i+1,j,k) >= 1/2
    for k in range(2, limit + 1):
        for j in range(1, k + 1):
            for i in range(2 * j - 1, 2 * k):
                gap = _scaled_damped_gain(i, j, k) - _scaled_damped_gain(i + 1, j, k)
                yield (k, j, i), 2 * gap >= k + 1


def _check_3_11(limit: int):
    # damped_term_gain(i,r,k) >= damped_term_gain(k-1+r,r,k)
    for k in range(2, limit + 1):
        for r in range(1, k):
            floor_value = _scaled_damped_gain(k - 1 + r, r, k)
            for i in range(r, k - 1 + r + 1):
                yield (k, r, i), _scaled_damped_gain(i, r, k) >= floor_value


def _check_3_12(limit: int):
    # damped_term_gain(k-1+r,r,k) < 0
    for k in range(2, limit + 1):
        for r in range(1, k):
            yield (k, r), _scaled_damped_gain(k - 1 + r, r, k) < 0


def _check_3_13(limit: int):
    # sum_{r=1..k} damped_term_gain(k-1+r,r,k) == k/(k+1)
    for k in range(2, limit + 1):
        total = sum(_scaled_damped_gain(k - 1 + r, r, k) for r in range(1, k + 1))
        yield (k,), total == k


CHECKS: dict[str, tuple[str, int, Checker]] = {
    "3.2": ("term_gain(n,r) == C(n,r-1)*(2r-1-n)/r", 40, _check_3_2),
    "3.3": ("sign of term_gain matches r vs (n+1)/2", 40, _check_3_3),
    "3.4": ("term_gain(i,r) >= term_gain(j-2+r,r) on r <= i <= j-2+r", 20, _check_3_4),
    "3.5": ("hockey stick: sum C(r+i,i) == C(r+k+1,k)", 30, _check_3_5),
    "3.6": ("sum_{r<=j} term_gain(j-2+r,r) == 1", 30, _check_3_6),
    "3.7": ("odd n: term_gain(i, ceil(n/2)+1) >= 2", 25, _check_3_7),
    "3.10": ("damped gain drops by >= 1/2 per step in i", 20, _check_3_10),
    "3.11": ("damped_term_gain(i,r,k) >= damped_term_gain(k-1+r,r,k)", 20, _check_3_11),
    "3.12": ("damped_term_gain(k-1+r,r,k) < 0", 20, _check_3_12),
    "3.13": ("sum damped_term_gain(k-1+r,r,k) == k/(k+1)", 20, _check_3_13),
}


def check_lemma(check_id: str, limit: int | None = None) -> CheckReport:
    """Run one catalogue check up to the given parameter limit.

    Returns a structured report; the violations list pinpoints every
    offending parameter tuple rather than collapsing to a boolean.  A
    limit that leaves the check no instance raises ValueError, so a pass
    always checked something.
    """
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; "
                         f"known: {', '.join(CHECKS)}")
    description, default_limit, checker = CHECKS[check_id]
    limit = default_limit if limit is None else limit
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    instances = 0
    violations = []
    for params, ok in checker(limit):
        instances += 1
        if not ok:
            violations.append(params)
    if not instances:
        raise ValueError(f"check {check_id} has no instance up to limit {limit}")
    return CheckReport(check_id, description, limit, instances, tuple(violations))


def check_all(limit: int | None = None) -> list[CheckReport]:
    return [check_lemma(cid, limit) for cid in CHECKS]
