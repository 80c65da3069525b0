"""Command-line front end: order listing, shadow/shade queries, cascade
display, the inequality-check catalogue, normalization, sweeps, and the
exhaustive theorem verifications, with text/json/csv output.  Each
handler calls its layers through their lazy modules, so a process runs
only the layers its command calls."""

from __future__ import annotations

import argparse
import os
import sys

from . import cascade, differences, ground, normalize, squashed, verifier

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141   # 128 + SIGPIPE, as a shell reports a killed writer


def _emit(args, payload, lines=(), table=None, csv_table=None, verdict=None,
          indent=None) -> int:
    """Write one result to stdout in the chosen format; return its exit code.

    `payload` is a function of no arguments that builds the JSON
    document; it is called only for JSON, so text and CSV skip its cost.
    In text, `table` (headers, rows) is laid out in aligned columns above
    `lines`; without a table, a `verdict` closes the lines with PASS or
    FAIL (a table carries its own status column).  CSV writes
    `csv_table`, by default `table`.  A false verdict exits
    EXIT_CLAIM_FAILED, anything else EXIT_OK."""
    if args.format == "json":
        import json
        print(json.dumps(payload(), indent=indent))
    elif args.format == "csv":
        import csv
        headers, rows = csv_table or table
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
    else:
        if table is not None:
            headers, rows = table
            widths = [max(map(len, column)) for column in zip(headers, *rows)]
            aligned = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                       for row in (headers, *rows)]
            lines = aligned + list(lines)
        elif verdict is not None:
            lines = [*lines, "PASS" if verdict else "FAIL"]
        for line in lines:
            print(line)
    return EXIT_OK if verdict is None or verdict else EXIT_CLAIM_FAILED


# ---------------------------------------------------------------------------
# handlers


def _cmd_order(args) -> int:
    fam = _segment_or_file(args)
    return _emit(args, lambda: {"n": args.n, "k": args.k, "sets": fam.sets()},
                 map(ground.format_set, fam.members))


def _segment_or_file(args):
    """The Family read from --family, the --first or --last segment of
    level k, or the whole level; at most one of the three options."""
    given = [flag for flag, value in (("--family", args.family),
                                      ("--first", args.first),
                                      ("--last", args.last))
             if value is not None]
    if len(given) > 1:
        raise ValueError(f"{' and '.join(given)} are mutually exclusive")
    if args.family is not None:
        if args.n is not None or args.k is not None:
            raise ValueError("--family and positional n and k are mutually exclusive")
        return ground.read_family(args.family)
    if args.n is None or args.k is None:
        raise ValueError("give either --family or both n and k")
    if args.first is not None:
        return squashed.first_segment(args.n, args.k, args.first)
    if args.last is not None:
        return squashed.last_segment(args.n, args.k, args.last)
    return ground.full_level(args.n, args.k)


def _cmd_shadow(args) -> int:
    fam = _segment_or_file(args)
    if args.command == "shadow":
        out = cascade.new_shadow(fam) if args.new else cascade.shadow(fam)
    else:
        out = cascade.new_shade(fam) if args.new else cascade.shade(fam)
    return _emit(args, lambda: {"n": fam.n, "size": len(out), "sets": out.sets()},
                 map(ground.format_set, out.members))


def _cmd_cascade(args) -> int:
    rep = cascade.cascade(args.m, args.k)
    return _emit(args, lambda: {"m": args.m, "k": args.k,
                                "terms": [list(t) for t in rep.terms]},
                 [str(rep)])


def _cmd_table1(args) -> int:
    rows = cascade.shade_table(4)
    cells = [[str(r.m), ground.format_set(r.last_set, compact=True),
              " ".join(ground.format_set(s, compact=True)
                       for s in r.new_shade) or "-",
              str(r.shade_size)] for r in rows]
    headers = ["m", "last_set", "new_shade", "shade_size"]
    return _emit(
        args,
        lambda: [{"m": r.m,
                  "last_set": list(ground.elements_of(r.last_set)),
                  "new_shade": [list(ground.elements_of(s))
                                for s in r.new_shade],
                  "shade_size": r.shade_size,
                  "bound": [r.bound.numerator, r.bound.denominator]}
                 for r in rows],
        table=(headers + ["bound"],
               [c + [str(r.bound)] for c, r in zip(cells, rows)]),
        csv_table=(headers + ["lemma_1_9_bound_num", "lemma_1_9_bound_den"],
                   [c + [str(r.bound.numerator), str(r.bound.denominator)]
                    for c, r in zip(cells, rows)]))


def _cmd_lemmas(args) -> int:
    # an unknown --id is refused by check_lemma, so CHECKS stays the one
    # list of ids and building the parser does not run differences
    reports = (differences.check_all(args.max) if args.id is None
               else [differences.check_lemma(args.id, args.max)])
    rows = [[r.check_id, str(r.limit), str(r.instances),
             str(len(r.violations)), "pass" if r.passed else "FAIL"]
            for r in reports]
    return _emit(args,
                 lambda: [{"id": r.check_id, "description": r.description,
                           "limit": r.limit, "instances": r.instances,
                           "violations": [list(v) for v in r.violations],
                           "passed": r.passed} for r in reports],
                 [f"  violation {r.check_id}: {v}"
                  for r in reports for v in r.violations],
                 table=(["id", "limit", "instances", "violations", "status"],
                        rows),
                 verdict=all(r.passed for r in reports))


def _cmd_normalize(args) -> int:
    fam = ground.read_family(args.family)
    partner = (ground.Family(fam.n, ()) if args.partner is None
               else ground.read_family(args.partner))
    try:
        trace = normalize.normalize_to_middle(fam, partner)
    except normalize.SelectionError as exc:
        print(f"selection failure: {exc}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    steps = [f"step {i}: {s.direction} from rank {s.rank}: "
             f"removed {' '.join(map(ground.format_set, s.removed))}; "
             f"inserted {' '.join(map(ground.format_set, s.inserted))}"
             for i, s in enumerate(trace.steps, 1)]
    return _emit(args,
                 lambda: {
                     "ok": True,
                     "steps": [{"direction": s.direction, "rank": s.rank,
                                "removed": list(map(ground.elements_of, s.removed)),
                                "inserted": list(map(ground.elements_of, s.inserted))}
                               for s in trace.steps],
                     "final": trace.final.sets()},
                 [*(steps or ["no steps needed"]), "final:",
                  *ground.format_family(trace.final).splitlines()])


def _cmd_lemma_3_15(args) -> int:
    report = verifier.size4_antichain_classes_report()
    return _emit(args,
                 lambda: {"scanned": report["scanned"],
                          "eligible": report["eligible"],
                          "oversize": len(report["oversize"]),
                          "classes_found": len(report["found_classes"]),
                          "match": report["match"]},
                 [f"antichains scanned: {report['scanned']}; with a 1-set or "
                  f"3-set: {report['eligible']}; size-4 classes: "
                  f"{len(report['found_classes'])} (expected 4)"],
                 verdict=report["match"])


def _cmd_normalization(args) -> int:
    report = verifier.normalization_pair_sweep(args.n, workers=args.workers)
    return _emit(args,
                 lambda: {"n": report.n, "antichains": report.antichains,
                          "crossing_pairs": report.crossing_pairs,
                          "moved_pairs": report.moved_pairs,
                          "selection_failures": len(report.selection_failures),
                          "violations": len(report.violations),
                          "match": report.passed},
                 [f"n={report.n}: {report.crossing_pairs} crossing pairs, "
                  f"{report.moved_pairs} moved, "
                  f"{len(report.selection_failures)} selection failures, "
                  f"{len(report.violations)} violations"],
                 verdict=report.passed)


def _cmd_theorem(args) -> int:
    target, n, budget = args.target, args.n, args.budget_seconds
    # below these sizes the almost-extremal characterization does not
    # hold, so a FAIL there would not refute the claim
    if target == "theorem-1.5" and (n % 2 == 0 or n < 3):
        raise ValueError("theorem-1.5 concerns odd ground sizes n >= 3")
    if target == "theorem-1.6" and (n % 2 == 1 or n < 4):
        raise ValueError("theorem-1.6 concerns even ground sizes n >= 4")

    if target == "theorem-1.4":
        report = verifier.extremal_report(n, budget_seconds=budget)
        detail = f"optimal pair classes: {len(report['census'].optimum_pairs)}"
    else:
        report = verifier.near_extremal_report(n, budget_seconds=budget)
        detail = (f"near-optimal ordered pairs: expected "
                  f"{report['expected_ordered']}, found "
                  f"{len(report['census'].raw_near)}")
    census = report["census"]
    lines = [f"n={census.n}  optimum={census.optimum}  "
             f"formula={report['formula_value']}",
             detail]
    verdict = report["match"]
    if census.incomplete:
        # a cut census refutes nothing, so its text verdict is not FAIL
        lines.append("INCOMPLETE")
        verdict = None
    code = _emit(args, lambda: _theorem_payload(report), lines,
                 verdict=verdict, indent=2)
    if census.incomplete:
        print("search budget exhausted; results are partial", file=sys.stderr)
        return EXIT_BUDGET
    return code


def _theorem_payload(report: dict) -> dict:
    """The JSON document of a theorem target; a near-extremal report adds
    its characterization."""
    census = report["census"]

    def sets(pairs):
        return [[a.sets(), b.sets()] for a, b in pairs]

    payload = {
        "n": census.n,
        "optimum": census.optimum,
        "formula_value": report["formula_value"],
        "match": report["match"],
        "optimal_pairs": sets(census.optimum_pairs),
        "near_optimal_pairs": sets(census.near_optimum_pairs),
        "reduced_by_isomorphism": True,
        "counts": {
            "ordered_optimum": len(census.raw_optimum),
            "ordered_near": len(census.raw_near),
            "unordered_optimum": census.unordered_count_optimum,
            "unordered_near": census.unordered_count_near,
        },
        "incomplete": census.incomplete,
    }
    if "expected_ordered" in report:
        payload["characterization"] = {
            "expected_ordered": report["expected_ordered"],
            "found_ordered": len(census.raw_near),
            "missing": sets(report["missing"]),
            "unexpected": sets(report["unexpected"]),
        }
    return payload


def _cmd_sweep(args) -> int:
    sweep = {"lemma-3.8": verifier.sweep_shadow_excess,
             "lemma-3.14": verifier.sweep_last_shade_margin}[args.target]
    report = sweep() if args.max_n is None else sweep(args.max_n)
    return _emit(args,
                 lambda: {"name": report.name, "instances": report.instances,
                          "violations": [list(v) for v in report.violations],
                          "notes": list(report.notes),
                          "passed": report.passed},
                 [f"{report.name}: {report.instances} instances, "
                  f"{len(report.violations)} violations",
                  *(f"  note: {note}" for note in report.notes),
                  *(f"  violation: {v}" for v in report.violations)],
                 verdict=report.passed)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sperner",
        description="antichain toolkit: squashed order, shadow bounds, "
                    "and exhaustive cross-intersecting family searches")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p_order = sub.add_parser("order", help="squashed-order listings")
    order_sub = p_order.add_subparsers(dest="order_command", required=True)
    p_list = order_sub.add_parser("list", help="list k-sets in squashed order")
    p_list.add_argument("n", type=int)
    p_list.add_argument("k", type=int)
    p_list.add_argument("--first", type=int, metavar="M")
    p_list.add_argument("--last", type=int, metavar="M")
    add_format(p_list)
    p_list.set_defaults(func=_cmd_order, family=None)

    for name, help_text in (("shadow", "sets one rank below a family"),
                            ("shade", "sets one rank above a family")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n", type=int, nargs="?")
        p.add_argument("k", type=int, nargs="?")
        p.add_argument("--family", metavar="PATH")
        p.add_argument("--first", type=int, metavar="M")
        p.add_argument("--last", type=int, metavar="M")
        p.add_argument("--new", action="store_true",
                       help="fresh contributions only (per squashed position)")
        add_format(p)
        p.set_defaults(func=_cmd_shadow)

    p_cascade = sub.add_parser("cascade", help="k-binomial representation")
    p_cascade.add_argument("m", type=int)
    p_cascade.add_argument("k", type=int)
    add_format(p_cascade)
    p_cascade.set_defaults(func=_cmd_cascade)

    p_table = sub.add_parser("table1", help="last-segment shade profile, n=4")
    add_format(p_table, ("text", "json", "csv"))
    p_table.set_defaults(func=_cmd_table1)

    p_lemmas = sub.add_parser("lemmas", help="inequality check catalogue")
    lemmas_sub = p_lemmas.add_subparsers(dest="lemmas_command", required=True)
    p_check = lemmas_sub.add_parser("check", help="run catalogue checks")
    p_check.add_argument("--id", metavar="ID", help="one catalogue check id")
    p_check.add_argument("--max", type=int, metavar="N",
                         help="override the sweep limit")
    add_format(p_check, ("text", "json", "csv"))
    p_check.set_defaults(func=_cmd_lemmas)

    p_norm = sub.add_parser("normalize", help="push a family into the middle band")
    p_norm.add_argument("--family", required=True, metavar="PATH")
    p_norm.add_argument("--partner", metavar="PATH")
    add_format(p_norm)
    p_norm.set_defaults(func=_cmd_normalize)

    p_verify = sub.add_parser("verify", help="exhaustive theorem checks")
    targets = p_verify.add_subparsers(dest="target", required=True)
    for name in ("theorem-1.4", "theorem-1.5", "theorem-1.6"):
        p = targets.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--budget-seconds", type=float)
        add_format(p)
        p.set_defaults(func=_cmd_theorem)
    p = targets.add_parser("lemma-3.15")
    add_format(p)
    p.set_defaults(func=_cmd_lemma_3_15)
    p = targets.add_parser("normalization")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--workers", type=int, default=1)
    add_format(p)
    p.set_defaults(func=_cmd_normalization)

    p_sweep = sub.add_parser("sweep", help="closed-form inequality sweeps")
    p_sweep.add_argument("target", choices=("lemma-3.8", "lemma-3.14"))
    p_sweep.add_argument("--max-n", type=int, dest="max_n")
    add_format(p_sweep, ("text", "json"))
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output; point it at devnull so the
        # flush at interpreter exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
