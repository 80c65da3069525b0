import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sperner.ground import Family

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, stdout=subprocess.PIPE, timeout=120):
    """A fresh interpreter run on args, with this checkout's sources first
    on PYTHONPATH so it imports this package and no other copy; its output
    is captured as text, and a run past the timeout fails the test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    try:
        return subprocess.run([sys.executable, *args], env=env, text=True,
                              stdout=stdout, stderr=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"python {shlex.join(args)} did not return within "
                    f"{timeout} s")


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
