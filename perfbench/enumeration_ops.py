"""One round of the ``enumeration`` workload in its own process.

    python3 perfbench/enumeration_ops.py [TRACE_JSON OP_ID]

Calls sperner's public enumerators, each entry of ``OPERATIONS`` in
table order: the Dedekind counts at n = 1..6 through
``antichain_mask_tuples`` and through ``count_antichains_oracle``,
``enumerate_antichains(5)``, and the n = 6 ``min_size=14`` walk.  The
order is fixed because the calls share one process, where an earlier
call's heap could move a later one's time.  Prints one JSON object with
every count and, while the unpruned n = 6 walk runs, the number of
antichains with at least 14 members.  With TRACE_JSON the calls run
under the tracer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BAND_MIN = 14   # pairs within 1 of the n=6 optimum 35 have sides >= 34 - C(6,3)


def _walk(verifier, n: int, results: dict) -> None:
    count = big = 0
    for members in verifier.antichain_mask_tuples(range(1 << n)):
        count += 1
        big += len(members) >= BAND_MIN
    results["mask_tuples"][str(n)] = count
    if n == 6:
        results["at_least_14"] = big


def _oracle(verifier, n: int, results: dict) -> None:
    results["oracle"][str(n)] = verifier.count_antichains_oracle(n)


def _families(verifier, results: dict) -> None:
    results["enumerate_antichains_5"] = sum(1 for _ in verifier.enumerate_antichains(5))


def _band(verifier, results: dict) -> None:
    results["band_walk"] = sum(
        1 for _ in verifier.antichain_mask_tuples(range(64), min_size=BAND_MIN))


OPERATIONS = {
    **{f"walk{n}": (lambda v, r, n=n: _walk(v, n, r)) for n in range(1, 7)},
    **{f"oracle{n}": (lambda v, r, n=n: _oracle(v, n, r)) for n in range(1, 7)},
    "families5": _families,
    "band14": _band,
}


def main(argv: list[str]) -> int:
    tracer = None
    if argv:
        trace_path, op_id = argv
        from tracer import Tracer, install

        tracer = Tracer(op_id)
        install(tracer, Path(trace_path).parent)
    import sperner.verifier as verifier

    results: dict = {"mask_tuples": {}, "oracle": {}, "enumerate_antichains_5": None,
                     "band_walk": None, "at_least_14": None}
    for operation in OPERATIONS.values():
        if tracer is None:
            operation(verifier, results)
        else:
            with tracer.span("op"):
                operation(verifier, results)
    print(json.dumps(results))
    if tracer is not None:
        Path(trace_path).write_text(json.dumps(tracer.snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
