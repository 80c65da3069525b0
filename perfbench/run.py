"""The sperner benchmark: one workload per run, its operations in fresh
processes, outputs checked against computations made apart from sperner.

    python3 perfbench/run.py --workload {theorems,normalization,enumeration}
        --seed N --seconds S --trace {0,1} [--append-to FILE]

Runs whole rounds of the workload's operations until S seconds have
passed (at least one round).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which hold the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  ``--append-to`` also appends that object,
tagged with workload, seed and the run's start and end (seconds since
the epoch), to a JSON-lines file that ``perfbench/compare.py`` reads.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import enumeration_ops
from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "census.schema.json"
WORK = BENCH / ".work"

SETUP_IMPORTS = 7          # fresh interpreters timed per run for setup_s
PROCESS_TIMEOUT = 150.0    # seconds before an operation's process is killed
SAMPLE_PAIRS = 200         # normalize_pair re-checks per normalization run
PROBE_LOOP = 6000          # iterations of the speed probe's loop
PROBE_NOMINAL = 0.0005     # probe CPU seconds that define one reference second
SAMPLE_PERIOD = 0.05       # seconds between probes

THEOREM_TARGETS = (
    *((f"verify theorem-1.4 --n {n}", n) for n in (3, 4, 5, 6)),
    *((f"verify theorem-1.5 --n {n}", n) for n in (3, 5)),
    *((f"verify theorem-1.6 --n {n}", n) for n in (4, 6)),
    ("verify lemma-3.15", None),
    ("sweep lemma-3.8", None),
    ("sweep lemma-3.14", None),
    ("lemmas check", None),
)
NORMALIZATION_N = 5
NORMALIZATION_ARGS = f"verify normalization --n {NORMALIZATION_N} --workers 2"


class SpeedProbe:
    """One background thread per CPU, pinned to it, that times a fixed
    pure-Python loop of integer and bit operations in its own CPU time
    every SAMPLE_PERIOD seconds.

    A shared host's speed drifts by 25% and more over tens of seconds
    (other tenants share its cores), and CPU time drifts with it.  Timings
    are therefore reported in probe-normalized seconds ("reference
    seconds"): measured seconds times PROBE_NOMINAL over the mean probe
    time during the measured window.  They compare runs of this benchmark
    with each other; they are not the seconds a program takes on any
    given host, and the ratio between the two differs by workload.  The
    mean, not the median, since a process's time grows with the average
    slowdown over its life.  Each probe costs about 1.3% of its CPU."""

    def __init__(self, cpus: set[int]) -> None:
        self.samples: list[tuple[float, float]] = []   # (end, probe CPU seconds)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(cpu,), daemon=True)
                         for cpu in sorted(cpus)]

    def _loop(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        while not self._stop.is_set():
            begin = time.thread_time()
            x = 0
            for i in range(PROBE_LOOP):
                x = (x ^ i * 2654435761) & 0xFFFFFFFF
            self.samples.append((perf_counter(), time.thread_time() - begin))
            self._stop.wait(SAMPLE_PERIOD)

    def __enter__(self) -> SpeedProbe:
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def factor(self, start: float, end: float) -> float:
        """PROBE_NOMINAL over the mean probe time within [start, end],
        widened by one probe period on each side."""
        return PROBE_NOMINAL / statistics.mean(
            c for t, c in self.samples
            if start - SAMPLE_PERIOD <= t <= end + SAMPLE_PERIOD)


@dataclass
class Outcome:
    start: float
    end: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_process(argv: list[str], work: Path) -> Outcome:
    """Run one process to its exit; wall, CPU (its reaped children, such
    as pool workers, included) and peak RSS come from wait4."""
    env = {k: v for k, v in os.environ.items() if k != "SPERNER_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       proc.returncode, out.read().decode(), err.read().decode())


def measure_setup(work: Path) -> list[Outcome]:
    """Fresh interpreters importing sperner.cli; one untimed import first
    writes the bytecode cache."""
    argv = [sys.executable, "-c", "import sperner.cli"]
    run_process(argv, work)
    runs = [run_process(argv, work) for _ in range(SETUP_IMPORTS)]
    for got in runs:
        if got.code:
            raise RuntimeError(f"import sperner.cli failed: {got.stderr}")
    return runs


# ---------------------------------------------------------------------------
# workloads: each yields operations; an operation is (label, argv, check)
# where check(stdout) returns a list of problems


def _cli(args: str, trace: Path | None, op_id: str) -> list[str]:
    if trace is None:
        return [sys.executable, "-m", "sperner.cli", *args.split(), "--format", "json"]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(trace), op_id, "--",
            *args.split(), "--format", "json"]


def _theorem_check(args: str, n: int | None):
    def check(stdout: str) -> list[str]:
        payload = json.loads(stdout)
        if args.startswith("verify theorem"):
            return checks.census_problems(payload, n, SCHEMA)
        if args == "verify lemma-3.15":
            return checks.lemma_3_15_problems(payload)
        if args.startswith("sweep"):
            return checks.sweep_problems(payload, args.split()[1])
        return checks.lemmas_problems(payload)
    return check


class Workload:
    """Operations of one round, plus checks that need the whole round."""

    ops_per_process = 1
    single_cpu = True    # False when an operation runs processes in parallel

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def operations(self, trace_dir: Path | None, round_no: int):
        raise NotImplementedError

    def after(self) -> list[str]:
        """Checks run once, outside the timed rounds."""
        return []

    def trace_problems(self, layers: dict, outputs: list[str]) -> list[str]:
        """Traced counts against the program's own reports."""
        return []


class Theorems(Workload):
    def operations(self, trace_dir, round_no):
        targets = list(THEOREM_TARGETS)
        self.rng.shuffle(targets)
        for args, n in targets:
            op_id = f"r{round_no}-{args.replace(' ', '_')}"
            trace = trace_dir / f"{op_id}.json" if trace_dir else None
            yield op_id, _cli(args, trace, op_id), _theorem_check(args, n), trace

    def trace_problems(self, layers, outputs):
        lemmas = [json.loads(o) for o in outputs if o.startswith("[")]
        instances = sum(r["instances"] for report in lemmas for r in report)
        if lemmas and layers["differences.instances"] != instances:
            return [f"differences.instances {layers['differences.instances']} != "
                    f"{instances} reported by lemmas check"]
        return []


class Normalization(Workload):
    single_cpu = False

    def operations(self, trace_dir, round_no):
        op_id = f"r{round_no}-normalization"
        trace = trace_dir / f"{op_id}.json" if trace_dir else None
        yield (op_id, _cli(NORMALIZATION_ARGS, trace, op_id),
               lambda out: checks.normalization_problems(json.loads(out), NORMALIZATION_N),
               trace)

    def after(self):
        sys.path.insert(0, str(SRC))
        from sperner.ground import Family
        from sperner.normalize import normalize_pair

        n = NORMALIZATION_N
        problems = []
        for a, b in checks.sample_crossing_pairs(n, self.rng, SAMPLE_PAIRS):
            try:
                ta, tb = normalize_pair(Family.from_masks(n, a), Family.from_masks(n, b))
            except Exception as exc:  # any failure of the program is a finding
                problems.append(f"normalize_pair({a}, {b}) raised {exc!r}")
                continue
            problems += checks.normalized_pair_problems(
                n, (a, b), (list(ta.final.members), list(tb.final.members)))
        return problems

    def trace_problems(self, layers, outputs):
        want = checks.normalization_expected(NORMALIZATION_N)
        got = (layers["normalize.pair_calls"], layers["verifier.crossing_pairs"],
               layers["verifier.moved_pairs"])
        expect = (want["crossing_pairs"], want["crossing_pairs"], want["moved_pairs"])
        return [] if not outputs or got == expect else [f"traced pair counts {got}, expected {expect}"]


class Enumeration(Workload):
    ops_per_process = len(enumeration_ops.OPERATIONS)

    def operations(self, trace_dir, round_no):
        op_id = f"r{round_no}-enumeration"
        argv = [sys.executable, str(BENCH / "enumeration_ops.py")]
        trace = None
        if trace_dir:
            trace = trace_dir / f"{op_id}.json"
            argv += [str(trace), op_id]
        yield op_id, argv, lambda out: checks.enumeration_problems(json.loads(out)), trace

    def trace_problems(self, layers, outputs):
        if not outputs:
            return []
        results = json.loads(outputs[0])
        want = sum(checks.DEDEKIND.values()) + checks.DEDEKIND[5] + results["band_walk"]
        if layers["verifier.antichains"] != want:
            return [f"verifier.antichains {layers['verifier.antichains']} != {want}"]
        return []


WORKLOADS = {"theorems": Theorems, "normalization": Normalization,
             "enumeration": Enumeration}


# ---------------------------------------------------------------------------
# running a workload


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload](random.Random(seed))
    cpus = os.sched_getaffinity(0)
    if wl.single_cpu:
        # operations, their children and the probe share one CPU, so the
        # probe sees the contention the operations see
        cpus = {min(cpus)}
        os.sched_setaffinity(0, cpus)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        with SpeedProbe(cpus) as probe:
            return _run(wl, workload, seconds, trace, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl: Workload, workload: str, seconds: float, trace: bool, work: Path,
         probe: SpeedProbe) -> dict:
    setup = [] if trace else measure_setup(work)
    problems: list[str] = []
    attempted = failed = 0
    rounds: list[dict] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        round_no = len(rounds)
        trace_dir = work / f"round{round_no}" if trace else None
        if trace_dir:
            trace_dir.mkdir()
        outcomes, outputs, snapshots = [], [], []
        round_start = perf_counter()
        for op_id, argv, check, trace_path in wl.operations(trace_dir, round_no):
            attempted += wl.ops_per_process
            got = run_process(argv, work)
            outcomes.append(got)
            if got.code:
                failed += wl.ops_per_process
                print(f"{op_id} failed: exit code {got.code}: {got.stderr.strip()[-500:]}",
                      file=sys.stderr)
                continue
            found = output_problems(got.stdout, check)
            if found:
                # a wrong result is a failed operation, and clears correct
                failed += wl.ops_per_process
                problems += [f"{op_id}: {p}" for p in found]
                continue
            outputs.append(got.stdout)
            if trace_path:
                snapshots.append(json.loads(trace_path.read_text()))
        entry = {"outcomes": outcomes, "window": (round_start, perf_counter())}
        if trace:
            merged = merge_snapshots(snapshots)
            entry["layers"] = layer_metrics(merged)
            problems += wl.trace_problems(entry["layers"], outputs)
            (WORK / f"trace-{workload}.json").write_text(json.dumps(merged))
        rounds.append(entry)
    problems += wl.after()
    probe.stop()
    metrics = per_layer(rounds, probe, problems) if trace else end_to_end(setup, rounds, probe)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def output_problems(stdout: str, check) -> list[str]:
    """The check's problems with an operation's output; an output the
    check cannot read (not JSON, wrong shape) is one problem too."""
    try:
        return check(stdout)
    except Exception:  # any malformed output fails the operation, not the run
        return [f"unreadable output: {traceback.format_exc(limit=2).strip()}"]


def round_times(rounds: list[dict], probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Per round: wall and CPU seconds of its processes, in reference seconds."""
    verify, cpu = [], []
    for i, r in enumerate(rounds):
        verify.append(sum(o.wall * probe.factor(o.start, o.end) for o in r["outcomes"]))
        cpu.append(sum(o.cpu * probe.factor(o.start, o.end) for o in r["outcomes"]))
        wall = sum(o.wall for o in r["outcomes"])
        print(f"round {i}: {wall:.3f} s wall, {sum(o.cpu for o in r['outcomes']):.3f} s "
              f"CPU measured; speed factor {verify[-1] / wall:.4f}", file=sys.stderr)
    return verify, cpu


def end_to_end(setup: list[Outcome], rounds: list[dict], probe: SpeedProbe) -> dict:
    """Medians over rounds, each process's times in reference seconds."""
    verify, cpu = round_times(rounds, probe)
    return {
        "setup_s": {"value": statistics.median(o.wall * probe.factor(o.start, o.end)
                                               for o in setup), "unit": "s"},
        "verify_s": {"value": statistics.median(verify), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
        "peak_rss_mb": {"value": max(o.rss_mb for r in rounds for o in r["outcomes"]),
                        "unit": "MB"},
    }


def merge_snapshots(snapshots: list[dict]) -> dict:
    tracer = Tracer()
    for snap in snapshots:
        tracer.merge(snap)
    return tracer.snapshot()


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith(".s")


def per_layer(rounds: list[dict], probe: SpeedProbe, problems: list[str]) -> dict:
    """Median over rounds, times in reference seconds; counts must repeat
    exactly from round to round."""
    round_times(rounds, probe)
    out = {}
    for name in rounds[0]["layers"]:
        values = [r["layers"][name] for r in rounds]
        if is_time(name):
            values = [v * probe.factor(*r["window"]) for v, r in zip(values, rounds)]
            out[name] = {"value": statistics.median(values), "unit": "s"}
            continue
        if len(set(values)) > 1:
            problems.append(f"count {name} differs between rounds: {values}")
        out[name] = {"value": values[0], "unit": "count"}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append-to", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    if not (SRC / "sperner" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"no sperner sources under {SRC}", file=sys.stderr)
        return 2
    started = time.time()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.append_to:
        with args.append_to.open("a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "started": started,
                                 "ended": time.time(), **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
