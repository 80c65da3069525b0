"""Correctness checks for the benchmark's operations, computed apart from
sperner: closed forms with ``math.comb``, published Dedekind numbers,
and antichain / cross-intersection counts from this file's own
enumeration.  Each check returns a list of problems; empty means pass.

Subsets of {1..n} are bit masks (element i is bit i-1); a family of
subsets is in turn a bit mask over the 2**n subset indices.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb
from pathlib import Path

# Dedekind numbers M(n): antichains of the power set of {1..n} (OEIS A000372).
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}


# ---------------------------------------------------------------------------
# own set-family arithmetic


def mask(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def is_antichain(sets: list[int]) -> bool:
    return all(a == b or (a & ~b and b & ~a) for a in sets for b in sets) \
        and len(set(sets)) == len(sets)


def cross_intersect(a: list[int], b: list[int]) -> bool:
    return all(x & y for x in a for y in b)


@lru_cache(maxsize=None)
def _comparable(n: int) -> tuple[int, ...]:
    """Per subset x: the family mask of subsets comparable to x (x too)."""
    size = 1 << n
    return tuple(sum(1 << y for y in range(size) if x & y in (x, y))
                 for x in range(size))


def antichains(n: int) -> list[int]:
    """Every antichain of {1..n} as a family mask (the empty one too)."""
    comp = _comparable(n)
    out = []

    def grow(family: int, allowed: int) -> None:
        out.append(family)
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            x = low.bit_length() - 1
            grow(family | low, allowed & ~comp[x])

    grow(0, (1 << (1 << n)) - 1)
    return out


def count_within(n: int, within: int, memo: dict[int, int]) -> int:
    """Antichains whose members all lie in the family mask ``within``:
    those without its lowest subset x, plus those with x and nothing
    comparable to it (x is minimal in ``within``, as a subset of x has a
    smaller index)."""
    if within == 0:
        return 1
    got = memo.get(within)
    if got is None:
        low = within & -within
        got = (count_within(n, within ^ low, memo)
               + count_within(n, within & ~_comparable(n)[low.bit_length() - 1],
                              memo))
        memo[within] = got
    return got


@lru_cache(maxsize=None)
def _meets(n: int) -> tuple[int, ...]:
    """Per subset x: the family mask of subsets meeting x."""
    size = 1 << n
    return tuple(sum(1 << y for y in range(size) if x & y) for x in range(size))


def transversal(n: int, family: int) -> int:
    """Family mask of the subsets meeting every member of ``family``."""
    meets = _meets(n)
    out = (1 << (1 << n)) - 1
    while family:
        low = family & -family
        family ^= low
        out &= meets[low.bit_length() - 1]
    return out


def crossing_pair_count(n: int, within: int) -> int:
    """Unordered cross-intersecting pairs {A, B} of antichains whose
    members lie in ``within``; A = B allowed, the empty antichain included."""
    memo: dict[int, int] = {}
    ordered = diagonal = 0
    for a in antichains(n):
        if a & ~within:
            continue
        t = transversal(n, a) & within
        ordered += count_within(n, t, memo)
        diagonal += not (a & ~t)
    return (ordered + diagonal) // 2


def band(n: int, lo: int, hi: int) -> int:
    return sum(1 << x for x in range(1 << n) if lo <= x.bit_count() <= hi)


# ---------------------------------------------------------------------------
# theorems


def optimum(n: int) -> int:
    if n % 2:
        return 2 * comb(n, (n + 1) // 2)
    return comb(n, n // 2) + comb(n, n // 2 + 1)


def _schema_problems(payload: dict, schema_path: Path) -> list[str]:
    import jsonschema

    schema = json.loads(schema_path.read_text())
    validator = jsonschema.Draft202012Validator(schema)
    return [f"schema: {e.message}" for e in validator.iter_errors(payload)]


def _pair_problems(pairs, n: int, size: int, what: str) -> list[str]:
    out = []
    for a_sets, b_sets in pairs:
        a = [mask(s) for s in a_sets]
        b = [mask(s) for s in b_sets]
        if not (is_antichain(a) and is_antichain(b)):
            out.append(f"{what} pair side is not an antichain: {a_sets} {b_sets}")
        elif not cross_intersect(a, b):
            out.append(f"{what} pair is not cross-intersecting: {a_sets} {b_sets}")
        elif len(a) + len(b) != size:
            out.append(f"{what} pair has |A|+|B|={len(a) + len(b)}, not {size}")
        elif any(not 1 <= e <= n for s in a_sets + b_sets for e in s):
            out.append(f"{what} pair uses elements outside 1..{n}")
    return out


def census_problems(payload: dict, n: int, schema_path: Path) -> list[str]:
    """theorem-1.4 / 1.5 / 1.6 JSON at ground size n."""
    out = _schema_problems(payload, schema_path)
    if out:
        return out
    best = optimum(n)
    # ordered optimal pairs: (L, L) for odd n, (lo, hi) and (hi, lo) for
    # even n; deleting one set from one side of one of them gives every
    # optimum-1 pair, best per ordered optimal pair
    ordered_optimal = 1 if n % 2 else 2
    expect = {"n": n, "optimum": best, "formula_value": best, "match": True}
    out += [f"{k}={payload.get(k)!r}, expected {v!r}"
            for k, v in expect.items() if payload.get(k) != v]
    counts = payload.get("counts", {})
    if counts.get("ordered_optimum") != ordered_optimal:
        out.append(f"ordered_optimum={counts.get('ordered_optimum')}, "
                   f"expected {ordered_optimal}")
    if counts.get("ordered_near") != ordered_optimal * best:
        out.append(f"ordered_near={counts.get('ordered_near')}, "
                   f"expected {ordered_optimal * best}")
    if payload.get("incomplete"):
        out.append("census marked incomplete")
    if not payload["optimal_pairs"]:
        out.append("no optimal pairs listed")
    out += _pair_problems(payload["optimal_pairs"], n, best, "optimal")
    out += _pair_problems(payload["near_optimal_pairs"], n, best - 1, "near-optimal")
    char = payload.get("characterization")
    if char is not None:
        if char["expected_ordered"] != ordered_optimal * best \
                or char["found_ordered"] != char["expected_ordered"] \
                or char.get("missing") or char.get("unexpected"):
            out.append(f"characterization mismatch: {char['expected_ordered']} "
                       f"expected, {char['found_ordered']} found")
    return out


def lemma_3_15_problems(payload: dict) -> list[str]:
    expect = {"scanned": DEDEKIND[4], "classes_found": 4, "oversize": 0, "match": True}
    return [f"{k}={payload.get(k)!r}, expected {v!r}"
            for k, v in expect.items() if payload.get(k) != v]


def sweep_instances(target: str) -> int:
    if target == "lemma-3.8":   # odd n <= 13, level ceil(n/2)+1, every m
        return sum(comb(n, (n + 1) // 2 + 1) for n in range(3, 14, 2))
    # lemma-3.14: even 6 <= n <= 12, level n/2, 1 <= m < C(n, n/2) - 1
    return sum(comb(n, n // 2) - 2 for n in range(6, 13, 2))


def sweep_problems(payload: dict, target: str) -> list[str]:
    want = sweep_instances(target)
    out = []
    if payload.get("instances") != want:
        out.append(f"{target}: {payload.get('instances')} instances, expected {want}")
    if payload.get("violations") or payload.get("passed") is not True:
        out.append(f"{target}: violations {payload.get('violations')}")
    return out


LEMMA_IDS = ("3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.10", "3.11", "3.12", "3.13")


def lemmas_problems(payload: list) -> list[str]:
    out = []
    ids = tuple(r.get("id") for r in payload)
    if ids != LEMMA_IDS:
        out.append(f"lemma ids {ids}, expected {LEMMA_IDS}")
    for r in payload:
        if r.get("violations") or r.get("passed") is not True or r.get("instances", 0) < 1:
            out.append(f"lemma {r.get('id')} failed: {r.get('violations')}")
    return out


# ---------------------------------------------------------------------------
# normalization


@lru_cache(maxsize=None)
def normalization_expected(n: int) -> dict[str, int]:
    """antichains, crossing pairs and moved pairs (a member of rank
    outside the middle band [ceil(n/2), ceil(n/2)+1]) at ground size n."""
    full = (1 << (1 << n)) - 1
    lo = (n + 1) // 2
    crossing = crossing_pair_count(n, full)
    return {"antichains": len(antichains(n)),
            "crossing_pairs": crossing,
            "moved_pairs": crossing - crossing_pair_count(n, band(n, lo, lo + 1))}


def normalization_problems(payload: dict, n: int) -> list[str]:
    want = dict(normalization_expected(n), n=n, selection_failures=0,
                violations=0, match=True)
    if want["antichains"] != DEDEKIND[n]:
        return [f"own enumeration found {want['antichains']} antichains"]
    return [f"{k}={payload.get(k)!r}, expected {v!r}"
            for k, v in want.items() if payload.get(k) != v]


def sample_crossing_pairs(n: int, rng, count: int) -> list[tuple[list[int], list[int]]]:
    """``count`` random cross-intersecting antichain pairs, as member lists."""
    fams = antichains(n)
    out = []
    while len(out) < count:
        a, b = rng.choice(fams), rng.choice(fams)
        a_sets = [x for x in range(1 << n) if a >> x & 1]
        b_sets = [x for x in range(1 << n) if b >> x & 1]
        if cross_intersect(a_sets, b_sets):
            out.append((a_sets, b_sets))
    return out


def normalized_pair_problems(n: int, before: tuple[list[int], list[int]],
                             after: tuple[list[int], list[int]]) -> list[str]:
    """normalize_pair's outputs keep sizes, stay antichains, still
    cross-intersect, and sit in the middle band."""
    lo = (n + 1) // 2
    (a0, b0), (a1, b1) = before, after
    ok = (len(a1) == len(a0) and len(b1) == len(b0)
          and is_antichain(a1) and is_antichain(b1) and cross_intersect(a1, b1)
          and all(lo <= x.bit_count() <= lo + 1 for x in a1 + b1))
    return [] if ok else [f"normalize_pair({a0}, {b0}) gave ({a1}, {b1})"]


# ---------------------------------------------------------------------------
# enumeration


def enumeration_problems(results: dict) -> list[str]:
    out = []
    for route in ("mask_tuples", "oracle"):
        for n, want in DEDEKIND.items():
            got = results[route].get(str(n))
            if got != want:
                out.append(f"{route} n={n}: {got}, expected {want}")
    if results["enumerate_antichains_5"] != DEDEKIND[5]:
        out.append(f"enumerate_antichains(5): {results['enumerate_antichains_5']}")
    if not results["band_walk"] or results["band_walk"] != results["at_least_14"]:
        out.append(f"min_size=14 walk {results['band_walk']}, unpruned walk "
                   f"{results['at_least_14']}")
    return out
