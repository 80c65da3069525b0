"""Compare two result sets of the benchmark, per workload and end-to-end
metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --append-to`` writes (untraced runs
are used).  Runs are paired by time, as the choosing-metrics guide
(section 8) asks: for each workload, the runs of both files sorted by
start, taken two at a time, must each be one base and one change run,
with each side running first in half the pairs (to within one).  For
every workload and metric it prints both sets' median and quartiles and
a verdict, with the bounds of BENCHMARK.json:

- failing: a run of either set is not correct, or the change fails a
  larger share of its attempted operations than the base; no speed
  verdict is given;
- improved: at least MIN_PAIRS alternating pairs, the change wins at
  least 9/10 of them (ties count for neither), and the medians differ,
  in its favour, by more than the base's quartile distance;
- unresolved: either set's quartile distance, as a share of its median,
  exceeds the bound, and not every change run beats every base run;
- worse: the change's median is worse than the base's by more than the
  bound;
- within bound: otherwise.

It also prints the pairing and the attempted and failed operations of
both sets.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if not run.get("trace"):
                runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def alternating_pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """(base, change) pairs of runs made one after the other, each side
    first in half the pairs; empty when the sets were not run that way."""
    if len(base) != len(change):
        return []
    runs = sorted([(r, 0) for r in base] + [(r, 1) for r in change],
                  key=lambda t: t[0]["started"])
    pairs, base_first = [], 0
    for (first, side), (second, other) in zip(runs[::2], runs[1::2]):
        if side == other:
            return []
        pairs.append((first, second) if side == 0 else (second, first))
        base_first += side == 0
    if abs(2 * base_first - len(pairs)) > 1:
        return []
    return pairs


def failing(base: list[dict], change: list[dict]) -> bool:
    def failed_share(runs):
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

    return (not all(r["correct"] for r in base + change)
            or failed_share(change) > failed_share(base))


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> str:
    def better(x: float, y: float) -> bool:   # x better than y
        return x < y if lower_is_better else x > y

    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(better(c, b) for b, c in pairs)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and better(cmed, bmed) \
            and abs(cmed - bmed) > bq3 - bq1:
        return "improved"
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    every_better = all(better(c, b) for b in base for c in change)
    if spread > bound and not every_better:
        return "unresolved"
    worse_by = (cmed - bmed) if lower_is_better else (bmed - cmed)
    if worse_by > bound * abs(bmed):
        return "worse"
    return "within bound"


def compare(base_path: Path, change_path: Path) -> str:
    spec = json.loads(BENCHMARK.read_text())
    base, change = load(base_path), load(change_path)
    lines = [f"{'workload':<14} {'metric':<12} {'base q1/med/q3':<30} "
             f"{'change q1/med/q3':<30} verdict"]
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        pairs = alternating_pairs(b_runs, c_runs)
        fails = failing(b_runs, c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            p = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in pairs]
            v = "failing" if fails else \
                verdict(b, c, p, metric["bound"], metric["better"] == "lower")
            fmt = "/".join(f"{q:.4g}" for q in quartiles(b))
            fmt_c = "/".join(f"{q:.4g}" for q in quartiles(c))
            lines.append(f"{workload:<14} {name:<12} {fmt:<30} {fmt_c:<30} {v}")
        lines.append(f"{workload:<14} alternating pairs={len(pairs)}"
                     + ("" if len(pairs) >= MIN_PAIRS else
                        f" (fewer than {MIN_PAIRS}: no improved verdict)"))
        for label, runs in (("base", b_runs), ("change", c_runs)):
            lines.append(
                f"{workload:<14} {label} runs={len(runs)} "
                f"attempted={sum(r['attempted'] for r in runs)} "
                f"failed={sum(r['failed'] for r in runs)} "
                f"all correct={all(r['correct'] for r in runs)}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(compare(Path(argv[0]), Path(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
