"""Bit-mask subsets of {1,...,n} and immutable set families.

Element i of the ground set maps to bit i-1, so every subset of a ground
set with n <= 60 fits in a machine word and the basic predicates reduce
to single bit operations.  Families keep their members sorted by
(cardinality, colex), which makes equality canonical and output stable.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import combinations, compress, count
from pathlib import Path
from typing import Iterable, Iterator, Sequence

MAX_GROUND = 60        # keeps every C(n,k) inside 64-bit range
MAX_MATERIALIZE = 20   # largest n for which whole levels may be materialized
COMPACT_LIMIT = 9      # compact "134" notation needs single-digit elements


def check_ground(n: int) -> int:
    """Validate a ground-set size, returning it unchanged."""
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be in 1..{MAX_GROUND}, got {n}")
    return n


def check_mask(x: int, n: int) -> int:
    if x < 0 or x >> n:
        raise ValueError(f"set {x} uses elements outside 1..{n}")
    return x


def mask_of(elements: Iterable[int]) -> int:
    """Bit mask of a collection of distinct 1-indexed elements."""
    m = 0
    for e in elements:
        if e < 1:
            raise ValueError(f"elements are 1-indexed, got {e}")
        bit = 1 << (e - 1)
        if m & bit:
            raise ValueError(f"set repeats an element: {e}")
        m |= bit
    return m


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, items: Sequence | None = None) -> Iterator:
    """An iterator over items[j] for each set bit j of mask, ascending;
    without items, over the indices j themselves.  The whole scan runs in
    C: bin() writes the digits, translate turns them into one flag byte
    per bit, lowest first, and compress picks the flagged entries of
    items (or of count()).  So no Python step runs per bit, set or not,
    and a caller that wants items[j] indexes nothing.  compress stops at
    the shorter of its inputs, so a mask wider than items is refused
    rather than cut."""
    if mask < 0:
        raise ValueError(f"a set mask is non-negative, got {mask}")
    width = mask.bit_length()
    if items is None:
        items = count()
    elif width > len(items):
        raise ValueError(f"mask has {width} bits, wider than its "
                         f"{len(items)} items")
    return compress(items, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))


def elements_of(mask: int) -> tuple[int, ...]:
    """1-indexed elements of a mask, ascending."""
    return tuple(b + 1 for b in _bits(mask))


def independent(x: int, y: int) -> bool:
    """True iff neither set contains the other; equal sets are dependent."""
    return bool(x & ~y) and bool(y & ~x)


def _parse_int(text: str) -> int:
    """An optional '-' then ASCII digits; int() alone would also take a
    '+', underscores and non-ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_set(text: str, n: int | None = None) -> int:
    """Parse a set literal: "{1,3,4}", "{}" or - on small grounds - "134"."""
    s = text.strip()
    if s.startswith("{"):
        if not s.endswith("}"):
            raise ValueError(f"unterminated set literal: {text!r}")
        body = s[1:-1].strip()
        items = body.split(",") if body else []
        if not all(p.strip() for p in items):
            raise ValueError(f"set literal has an empty item: {text!r}")
        try:
            elems = [_parse_int(p.strip()) for p in items]
        except ValueError:
            raise ValueError(f"cannot parse set literal: {text!r}") from None
    else:
        if n is not None and n > COMPACT_LIMIT:
            raise ValueError(f"compact notation needs n <= {COMPACT_LIMIT}: {text!r}")
        if not (s.isascii() and s.isdigit()):
            raise ValueError(f"cannot parse set literal: {text!r}")
        elems = [int(c) for c in s]
    mask = mask_of(elems)
    if n is not None and mask >> n:
        raise ValueError(f"set {s} uses elements outside 1..{n}")
    return mask


def format_set(mask: int, compact: bool = False) -> str:
    """Render a mask as "{1,3,4}", or as "134" when compact is requested."""
    elems = elements_of(mask)
    if compact:
        if any(e > COMPACT_LIMIT for e in elems):
            raise ValueError("compact notation needs single-digit elements")
        return "".join(str(e) for e in elems)
    return "{" + ",".join(str(e) for e in elems) + "}"


def sort_members(masks: Iterable[int]) -> tuple[int, ...]:
    """Masks in (cardinality, colex) order, the order of Family.members."""
    # integer order on equal-size masks is colex order, and the sort by
    # cardinality is stable
    return tuple(sorted(sorted(masks), key=int.bit_count))


@total_ordering
class Family:
    """A duplicate-free collection of subsets over a fixed ground size.

    Immutable after construction; members are kept sorted by
    (cardinality, colex) so equal families compare equal, and families
    order by (n, members).
    """

    # _pushed is normalize._normalized's memo; nothing else writes it
    __slots__ = ("n", "members", "_pushed")

    n: int
    members: tuple[int, ...]

    def __init__(self, n: int, members: tuple[int, ...]) -> None:
        check_ground(n)
        if members and (min(members) < 0 or max(members) >> n):
            for m in members:  # names the first member out of range
                check_mask(m, n)
        if len(set(members)) != len(members):
            raise ValueError("family members must be pairwise distinct")
        # written past the __setattr__ that refuses every later assignment
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", sort_members(members))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: Family is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: Family is immutable")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__, which the refusing
        # __setattr__ would stop; the memo is not carried over
        return type(self), (self.n, self.members)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, members={self.members!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.members == other.members

    def __lt__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.members) < (other.n, other.members)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> Family:
        """A mask given more than once is kept once: shadow and shade union
        overlapping facet and cover lists this way."""
        return cls(n, tuple(set(masks)))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> Family:
        """Pairwise distinct sets, each listing an element at most once."""
        return cls(n, tuple(mask_of(s) for s in sets))

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Members as ascending element tuples (for JSON and printing)."""
        return tuple(elements_of(m) for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __hash__(self) -> int:
        return hash((self.n, self.members))


def is_antichain(f: Family) -> bool:
    """True iff no member contains another.

    Members are sorted by cardinality and distinct, so only an earlier
    member can lie inside a later one.
    """
    members = f.members
    for i, y in enumerate(members):
        for x in members[:i]:
            if not x & ~y:
                return False
    return True


def is_cross_intersecting(a: Family, b: Family) -> bool:
    """True iff every member of a meets every member of b (vacuously true
    when either family is empty)."""
    if a.n != b.n:
        raise ValueError("families live over different ground sizes")
    return all(x & y for x in a.members for y in b.members)


def full_level(n: int, k: int) -> Family:
    """All C(n,k) k-subsets of {1..n}, listed in squashed order."""
    check_ground(n)
    if not 0 <= k <= n:
        raise ValueError(f"level {k} out of range for n={n}")
    if n > MAX_MATERIALIZE:
        raise ValueError(
            f"refusing to materialize a level at n={n} > {MAX_MATERIALIZE}")
    masks = sorted(mask_of(c) for c in combinations(range(1, n + 1), k))
    return Family(n, tuple(masks))


def format_family(f: Family) -> str:
    """Family file format: 'n=<int>' header, then one set per line."""
    return "\n".join([f"n={f.n}"] + [format_set(m) for m in f.members]) + "\n"


def parse_family(text: str) -> Family:
    """Inverse of format_family; '#' starts a comment, blank lines ignored."""
    n: int | None = None
    masks = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise ValueError("family file must start with an 'n=<int>' header")
            try:
                n = _parse_int(line[2:].strip())
            except ValueError:
                raise ValueError(f"family file header must be 'n=<int>', "
                                 f"got {line!r}") from None
            n = check_ground(n)
            continue
        masks.append(parse_set(line, n))
    if n is None:
        raise ValueError("family file has no 'n=<int>' header")
    return Family(n, tuple(masks))


def read_family(path: str | Path) -> Family:
    return parse_family(Path(path).read_text())
