"""Push a family's members into the middle band of the Boolean lattice
while preserving its size, the antichain property, and cross-intersection
with a partner family.

One "up" step removes every member of the minimum rank i and replaces it
with an equal number of (i+1)-sets drawn from the shade of the removed
members; "down" steps are the mirror image via shadows.  The replacements
are the first sets of that pool in squashed order, which makes traces
deterministic; a pool smaller than the removed rank fails loudly
(SelectionError) instead of backtracking.

No candidate needs filtering, by Sperner's shadow argument.  A shade set
c of a removed member d contains d, so c meets every partner member that
d met.  Nor is c comparable with a retained member r: c inside r puts d
inside r, and r inside c forces r = c (retained ranks exceed rank i),
which again contains d; either breaks the antichain.  A shadow set of a
removed top-rank member is likewise comparable with no retained member,
and it meets every partner member once those all have size >= n/2, as
down steps start only above the band, so the shadow set has more than
n/2 elements.  The counting bound (n-i)/(i+1) >= 1 below the band, and
its mirror above it, keep every pool at least as large as the rank it
replaces.  The all-pairs audit in ``verifier.normalization_pair_sweep``
checks the outcome independently at every n <= 5 instead of trusting it.

The kernel works on member tuples sorted by (rank, colex), the order
``Family.members`` keeps, so the minimum and maximum rank are the first
and last member.  A step's pool is the set of covers (up) or facets
(down) of the removed members, read from the generators behind
``cascade.shade`` and ``cascade.shadow``, and the greedy choice is its
least masks: on one rank integer order is squashed order.  It keeps no
per-n state, so pushes run at every ground size ``Family`` accepts.  The
partner is read only to validate the input and, before a down step, to
check its member sizes.  The ``Family`` functions are thin wrappers that
call the kernel and build a ``Family`` only for a result that moved;
``normalize_to_middle`` and ``normalize_pair`` share one memoized full
push per ``Family`` object, kept in that object's instance dict: an
all-pairs audit that passes the same objects pushes each family once and
never hashes one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .cascade import _covers, _facets
from .ground import Family, is_antichain, is_cross_intersecting, sort_members


class Step(NamedTuple):
    direction: str               # "up" | "down"
    rank: int                    # rank whose members were replaced
    removed: tuple[int, ...]
    inserted: tuple[int, ...]


class NormalizationTrace(NamedTuple):
    steps: tuple[Step, ...]
    final: Family


class SelectionError(RuntimeError):
    """Raised when a replacement step cannot find enough candidates."""

    def __init__(self, direction: str, rank: int, needed: int, found: int):
        self.direction = direction
        self.rank = rank
        self.needed = needed
        self.found = found
        super().__init__(
            f"selection failure pushing {direction} from rank {rank}: "
            f"needed {needed} replacement sets, the pool holds only {found}")


def middle_band(n: int) -> tuple[int, int]:
    """Target rank band (lo, hi) = [ceil(n/2), ceil(n/2) + 1], capped at n."""
    lo = (n + 1) // 2
    return lo, min(lo + 1, n)


# ---------------------------------------------------------------------------
# the kernel: sorted member tuples


def _step(n: int, members: tuple[int, ...],
          up: bool) -> tuple[Step, tuple[int, ...]]:
    """Replace every member of the minimum (up) or maximum (down) rank by
    the first shade (shadow) sets in squashed order; too small a pool
    raises SelectionError."""
    if up:
        rank = members[0].bit_count()
        cut = bisect_right(members, rank, key=int.bit_count)
        doomed, retained = members[:cut], members[cut:]
    else:
        rank = members[-1].bit_count()
        cut = bisect_left(members, rank, key=int.bit_count)
        doomed, retained = members[cut:], members[:cut]
    pool = sorted({c for m in doomed
                   for c in (_covers(m, n) if up else _facets(m))})
    need = len(doomed)
    direction = "up" if up else "down"
    if len(pool) < need:
        raise SelectionError(direction, rank, need, len(pool))
    inserted = tuple(pool[:need])
    return (Step(direction, rank, doomed, inserted),
            sort_members(retained + inserted))


def _settle(n: int, members: tuple[int, ...], up: bool, bound: int,
            rounds: int) -> tuple[list[Step], tuple[int, ...]]:
    """Up steps until the minimum rank reaches bound, or down steps until
    the maximum rank does, at most `rounds` of them.  Each step moves the
    extreme rank one toward the band, so n steps always suffice: n steps
    that leave it short raise RuntimeError, whatever the round limit."""
    steps: list[Step] = []
    while members and (members[0].bit_count() < bound if up
                       else members[-1].bit_count() > bound):
        if len(steps) == n:
            raise RuntimeError(f"{'up' if up else 'down'} phase failed to "
                               f"terminate within {n} rounds")
        if len(steps) == rounds:
            break
        step, members = _step(n, members, up)
        steps.append(step)
    return steps, members


def _push(n: int, members: tuple[int, ...]
          ) -> tuple[list[Step], tuple[int, ...]]:
    """Up steps to the band floor, then down steps to its ceiling."""
    lo, hi = middle_band(n)
    up, members = _settle(n, members, True, lo, n)
    down, members = _settle(n, members, False, hi, n)
    return up + down, members


# ---------------------------------------------------------------------------
# Family wrappers


def _validate(f: Family, partner: Family) -> None:
    """Every entry point's input check: one ground size, f an antichain,
    f and partner cross-intersecting, the partner an antichain, in turn."""
    if f.n != partner.n:
        raise ValueError("family and partner live over different ground sizes")
    if not is_antichain(f):
        raise ValueError("input family is not an antichain")
    if not is_cross_intersecting(f, partner):
        raise ValueError("family and partner are not cross-intersecting")
    if not is_antichain(partner):
        raise ValueError("partner family is not an antichain")


def _check_partner_sizes(f: Family, partner: Family) -> None:
    """If f reaches above the band, its down steps need every partner
    member to have size >= n/2; that is what keeps cross-intersection
    automatic after them."""
    _, hi = middle_band(f.n)
    if not f.members or f.members[-1].bit_count() <= hi:
        return
    # members of size below n/2 form a prefix of the sorted partner
    small = bisect_left(partner.members, (f.n + 1) // 2, key=int.bit_count)
    if small:
        raise ValueError(
            "push down needs every partner member to have size >= n/2; "
            f"{small} partner member(s) are smaller")


def _trace(f: Family, steps: list[Step],
           members: tuple[int, ...]) -> NormalizationTrace:
    return NormalizationTrace(tuple(steps),
                              Family(f.n, members) if steps else f)


# the instance-dict key of a family's memoized full push
_PUSHED = "_pushed"


def _normalized(f: Family) -> NormalizationTrace:
    """The full push of f, stored on f and returned by identity on every
    later call.  The memo is per object: an equal family built apart is
    pushed apart, to an equal trace.  Storing it leaves f's equality,
    hash, order and repr alone, which read only n and members.  A push
    that raises stores nothing and raises again on the next call."""
    fields = f.__dict__
    trace = fields.get(_PUSHED)
    if trace is None:
        trace = fields[_PUSHED] = _trace(f, *_push(f.n, f.members))
    return trace


def push_up_min_rank(f: Family, partner: Family) -> NormalizationTrace:
    """The push's up phase cut to one round: if the minimum rank i sits
    below the band floor, replace all rank-i members with shade sets.
    Identity trace otherwise."""
    _validate(f, partner)
    lo, _ = middle_band(f.n)
    return _trace(f, *_settle(f.n, f.members, True, lo, 1))


def push_down_max_rank(f: Family, partner: Family) -> NormalizationTrace:
    """The push's down phase cut to one round: if the maximum rank j sits
    above the band ceiling, replace all rank-j members with shadow sets.
    A real step requires every partner member to have size >= n/2."""
    _validate(f, partner)
    _check_partner_sizes(f, partner)
    _, hi = middle_band(f.n)
    return _trace(f, *_settle(f.n, f.members, False, hi, 1))


def normalize_to_middle(f: Family, partner: Family) -> NormalizationTrace:
    """Repeated up steps, then repeated down steps, until every member of
    f sits inside the middle band.  The partner is left untouched; a
    family reaching above the band therefore requires all partner members
    to have size >= n/2 already (see push_down_max_rank)."""
    _validate(f, partner)
    _check_partner_sizes(f, partner)
    return _normalized(f)


def normalize_pair(a: Family, b: Family, validate: bool = True
                   ) -> tuple[NormalizationTrace, NormalizationTrace]:
    """Normalize both families of a cross-intersecting antichain pair.

    No step reads the partner, so each side is pushed on its own.  The
    result is the one of raising both sides to the band floor first and
    lowering them afterwards, the order under which every down step sees
    partner members of size >= n/2 and so stays cross-intersecting.

    The pushes are memoized on the Family objects (see _normalized):
    each object passed in is pushed once, and every later call with it
    returns that same trace object.  Equal families built apart each keep
    their own, equal, trace.  With `validate` (the default) the pair is
    checked before the memo is read; the all-pairs audit passes False,
    since its pairs are crossing antichains by construction.  A hit is
    two instance-dict reads, so no family is hashed or compared."""
    if validate:
        _validate(a, b)
    try:
        return a.__dict__[_PUSHED], b.__dict__[_PUSHED]
    except KeyError:
        return _normalized(a), _normalized(b)
