"""Aggregating span tracer that wraps sperner's public entry points from
outside the program.

Every wrapped call (or generator resume) is a span with a name and a
parent, the span open when it started.  Hot entry points run millions of
times, so spans are aggregated per (name, parent name) into calls,
yielded items, total seconds and self seconds (total minus the time of
child spans).  Cold entry points (the ones named in ``COLD``) are also
kept whole: span id, name, parent id, operation id, start and end.

Worker processes of a forked pool inherit the wrappers; each worker
starts from zero and writes its aggregates to ``<trace dir>/worker-<pid>
.json`` when it exits, and the parent merges those files.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import functools
import inspect
import json
import multiprocessing.util
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute) of every wrapped entry point; layer = module name.
ENTRY_POINTS = {
    "ground": ("independent", "is_antichain", "is_cross_intersecting"),
    "squashed": ("squash_compare", "rank", "unrank", "level_masks",
                 "first_segment", "last_segment", "segment"),
    "cascade": ("shadow", "shade", "new_shadow", "new_shade", "cascade",
                "kkt_shadow_bound", "shade_of_last_bound", "local_shade_bound",
                "local_shadow_bound", "shade_table", "kkt_oracle_mismatches",
                "window_minimality_report"),
    "differences": ("term_gain", "damped_term_gain", "hockey_stick",
                    "check_lemma", "check_all"),
    "normalize": ("push_up_min_rank", "push_down_max_rank",
                  "normalize_to_middle", "normalize_pair"),
    "verifier": ("antichain_mask_tuples", "enumerate_antichains",
                 "count_antichains_oracle", "middle_band_antichains",
                 "canonical_family_key", "canonical_pair_key", "canonical_pair",
                 "max_cross_sum", "extremal_report", "near_extremal_report",
                 "size4_antichain_classes_report", "sweep_shadow_excess",
                 "normalization_pair_sweep", "sweep_last_shade_margin"),
    "parallel": ("parallel_map",),
}
FAMILY = "ground.Family"
COLD = {"op", "verifier.max_cross_sum", "verifier.extremal_report",
        "verifier.near_extremal_report", "verifier.size4_antichain_classes_report",
        "verifier.sweep_shadow_excess", "verifier.normalization_pair_sweep",
        "verifier.sweep_last_shade_margin", "verifier.count_antichains_oracle",
        "differences.check_lemma", "differences.check_all",
        "parallel.parallel_map", "parallel.pool"}

ENUMERATORS = ("verifier.antichain_mask_tuples", "verifier.middle_band_antichains")
CANONICAL_KEYS = ("verifier.canonical_family_key", "verifier.canonical_pair_key")
PREDICATES = tuple(f"ground.{a}" for a in ENTRY_POINTS["ground"])


class Tracer:
    """Span aggregates, whole cold spans and named counters of one process."""

    def __init__(self, op_id: str = "") -> None:
        self.op_id = op_id
        self.aggregates: dict[str, dict[str, list]] = {}  # name -> parent -> [calls, items, total, self]
        self.spans: list[list] = []     # [id, name, parent id, op id, start, end]
        self.counters: dict[str, float] = {}
        self.stack: list[list] = [[0.0, "root", 0]]   # [child seconds, name, span id]
        self.trace_dir: Path | None = None

    # -- recording ---------------------------------------------------------

    def _by_parent(self, name: str) -> dict[str, list]:
        return self.aggregates.setdefault(name, {})

    def _add(self, by_parent: dict[str, list], parent: str, calls: int, items: int,
             total: float, own: float) -> None:
        agg = by_parent.setdefault(parent, [0, 0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += items
        agg[2] += total
        agg[3] += own

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str):
        """Context manager for a cold span opened by the benchmark itself."""
        return _Span(self, name)

    def wrap(self, name: str, fn, on_result=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        by_parent = self._by_parent(name)
        stack = self.stack
        cold = name in COLD

        # the hot path: inlined rather than calling _add, since it runs
        # tens of millions of times in a traced normalization audit
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name, 0]
            if cold:
                frame[2] = self._open(name, parent)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                agg = by_parent.get(parent[1])
                if agg is None:
                    agg = by_parent[parent[1]] = [0, 0, 0.0, 0.0]
                agg[0] += 1
                agg[2] += elapsed
                agg[3] += elapsed - frame[0]
                if cold:
                    self.spans[frame[2] - 1][5] = end
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """Each resume of the generator is a span; items are counted."""
        by_parent = self._by_parent(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            items, total, own = 0, 0.0, 0.0
            parent_name = stack[-1][1]
            try:
                while True:
                    parent = stack[-1]
                    frame = [0.0, name, 0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - start
                        stack.pop()
                        parent[0] += elapsed
                        total += elapsed
                        own += elapsed - frame[0]
                    items += 1
                    yield item
            finally:
                self._add(by_parent, parent_name, 1, items, total, own)

        return traced

    def _open(self, name: str, parent: list) -> int:
        self.spans.append([len(self.spans) + 1, name, parent[2], self.op_id,
                           perf_counter(), None])
        return len(self.spans)

    # -- worker processes --------------------------------------------------

    def _after_fork(self) -> None:
        """Runs in each new pool worker: start from zero, flush at exit."""
        for by_parent in self.aggregates.values():
            by_parent.clear()
        self.spans.clear()
        self.counters.clear()
        del self.stack[1:]
        self.stack[0][0] = 0.0
        multiprocessing.util.Finalize(None, self._flush_worker, exitpriority=100)

    def _flush_worker(self) -> None:
        path = self.trace_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def merge_workers(self) -> None:
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            self.merge(json.loads(path.read_text()))
            path.unlink()

    # -- serialisation -----------------------------------------------------

    def snapshot(self) -> dict:
        return {"aggregates": self.aggregates, "spans": self.spans,
                "counters": self.counters}

    def merge(self, snap: dict) -> None:
        for name, by_parent in snap["aggregates"].items():
            mine = self._by_parent(name)
            for parent, agg in by_parent.items():
                self._add(mine, parent, *agg)
        offset = len(self.spans)
        for span in snap["spans"]:
            parent = span[2] + offset if span[2] else 0
            self.spans.append([span[0] + offset, span[1], parent, *span[3:]])
        for name, v in snap["counters"].items():
            self.count(name, v)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        parent = self.tracer.stack[-1]
        self.frame = [0.0, self.name, self.tracer._open(self.name, parent)]
        self.parent = parent
        self.tracer.stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        self.tracer.stack.pop()
        elapsed = end - self.start
        self.parent[0] += elapsed
        self.tracer._add(self.tracer._by_parent(self.name), self.parent[1], 1, 0,
                         elapsed, elapsed - self.frame[0])
        self.tracer.spans[self.frame[2] - 1][5] = end


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _pool_class(tracer: Tracer):
    """ProcessPoolExecutor that records its worker count and idle time.

    Idle time is workers x pool lifetime minus the CPU the workers used,
    read from this process's reaped-children rusage around the pool."""

    class TracedPool(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._trace_span = tracer.span("parallel.pool").__enter__()
            self._trace_cpu = _children_cpu()

        def shutdown(self, wait=True, **kwargs):
            workers = len(self._processes or ())
            super().shutdown(wait, **kwargs)
            if self._trace_span is None:
                return
            span, self._trace_span = self._trace_span, None
            span.__exit__(None, None, None)
            lifetime = tracer.spans[span.frame[2] - 1]
            cpu = _children_cpu() - self._trace_cpu
            tracer.count("parallel.workers", workers)
            tracer.count("parallel.idle_s",
                         workers * (lifetime[5] - lifetime[4]) - cpu)

    return TracedPool


def _count_instances(tracer: Tracer, report) -> None:
    tracer.count("differences.instances", report.instances)


def _count_sweep(tracer: Tracer, report) -> None:
    tracer.count("verifier.crossing_pairs", report.crossing_pairs)
    tracer.count("verifier.moved_pairs", report.moved_pairs)


ON_RESULT = {"differences.check_lemma": _count_instances,
             "verifier.normalization_pair_sweep": _count_sweep}


def install(tracer: Tracer, trace_dir: Path) -> None:
    """Wrap every entry point in every sperner module that binds it.

    A module that did ``from .ground import is_antichain`` holds its own
    reference, so each original is replaced wherever it is bound; the
    modules are reached through sys.modules because the package attribute
    ``sperner.cascade`` is the function, not the module."""
    import sperner.cli  # noqa: F401  (imports every module)

    tracer.trace_dir = trace_dir
    modules = [m for name, m in sys.modules.items()
               if name == "sperner" or name.startswith("sperner.")]
    for layer, attrs in ENTRY_POINTS.items():
        home = sys.modules[f"sperner.{layer}"]
        for attr in attrs:
            original = getattr(home, attr)
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, original, ON_RESULT.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    family = sys.modules["sperner.ground"].Family
    family.__init__ = tracer.wrap(FAMILY, family.__init__)
    pool = _pool_class(tracer)
    sys.modules["sperner.parallel"].ProcessPoolExecutor = pool
    concurrent.futures.ProcessPoolExecutor = pool
    multiprocessing.util.register_after_fork(tracer, Tracer._after_fork)


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one trace snapshot."""
    agg = snap["aggregates"]

    def field(names, index, parent=None):
        total = 0
        for name in names:
            for par, values in agg.get(name, {}).items():
                if parent is None or par == parent:
                    total += values[index]
        return total

    def layer(prefix):
        return [name for name in agg if name.startswith(prefix + ".")]

    calls, items, total, own = 0, 1, 2, 3
    counters = snap["counters"]
    return {
        "ground.family_new": field([FAMILY], calls),
        "ground.family_s": field([FAMILY], total),
        "ground.predicate_calls": field(PREDICATES, calls),
        "ground.predicate_s": field(PREDICATES, total),
        "normalize.pair_calls": field(["normalize.normalize_pair"], calls),
        "normalize.pair_s": field(["normalize.normalize_pair"], own),
        "verifier.sweep_s": field(["verifier.normalization_pair_sweep"], total),
        "verifier.crossing_pairs": counters.get("verifier.crossing_pairs", 0),
        "verifier.moved_pairs": counters.get("verifier.moved_pairs", 0),
        "verifier.antichains": field(ENUMERATORS, items),
        "verifier.enumerate_s": field(
            ENUMERATORS + ("verifier.enumerate_antichains",), own),
        "verifier.oracle_s": field(["verifier.count_antichains_oracle"], total),
        "verifier.census_candidates": field(ENUMERATORS, items,
                                            parent="verifier.max_cross_sum"),
        "verifier.census_s": field(["verifier.max_cross_sum"], own),
        "verifier.canonical_calls": field(CANONICAL_KEYS, calls),
        "verifier.canonical_s": field(
            CANONICAL_KEYS + ("verifier.canonical_pair",), own),
        "cascade.calls": field(layer("cascade"), calls),
        "cascade.s": field(layer("cascade"), own),
        "squashed.calls": field(layer("squashed"), calls),
        "squashed.s": field(layer("squashed"), own),
        "differences.instances": counters.get("differences.instances", 0),
        "differences.s": field(layer("differences"), own),
        "parallel.workers": counters.get("parallel.workers", 0),
        "parallel.idle_s": counters.get("parallel.idle_s", 0.0),
    }
