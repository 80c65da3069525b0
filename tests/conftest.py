import os
from pathlib import Path

from hypothesis import settings

from sperner.ground import Family

# fixed seed / derandomized runs so the suite is reproducible everywhere
settings.register_profile("fixed", settings(derandomize=True, max_examples=100))
settings.load_profile("fixed")

SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env() -> dict[str, str]:
    """os.environ with this checkout's sources first on PYTHONPATH, for a
    fresh interpreter that must import this package and no other copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fam(n, *sets):
    return Family.from_sets(n, sets)


def greedy_antichain(n, masks):
    """The family of the masks, each kept when incomparable with every
    mask kept before it; comparability by plain bit tests."""
    kept = []
    for m in masks:
        if all(m & ~o and o & ~m for o in kept):
            kept.append(m)
    return Family.from_masks(n, kept)


def rank_set(f):
    """The member sizes of a family, as a set."""
    return {m.bit_count() for m in f.members}


def with_oversize_family(monkeypatch):
    """Make the enumeration behind lemma 3.15's scan also yield a 5-member
    family that holds a 1-set; returns that family."""
    from sperner import verifier
    walk = verifier.enumerate_antichains
    oversize = fam(4, (1,), (2,), (3,), (4,), (2, 3))

    def padded(n):
        yield from walk(n)
        yield oversize

    monkeypatch.setattr(verifier, "enumerate_antichains", padded)
    return oversize
