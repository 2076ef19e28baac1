"""Command line entry points.

Subcommands: gen-scenario (write a scenario file), run (execute a method
over seeded repeats, emitting CSV + JSON-lines traces), report (aggregate
result CSVs), selfcheck (fast internal diagnostics).

Exit codes: 0 success, 1 selfcheck failure, 2 invalid flags or malformed
input files, 3 subnetwork capacity exhausted, 4 unlearning audit failure,
5 training diverged (a non-finite gradient or non-finite logits).
The results CSV and trace are pure functions of flags and input files;
wall-clock timings go to a separate timings file.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import astuple

from . import checkpoint as ckpt
from . import engine as eng
from . import metrics, rehearsal, scenario
from .masking import CapacityError

CSV_COLUMNS = ["method", "T", "N_u", "seed", "A_l", "A_u", "F_l", "F_u",
               "F_u_max", "model_size_bytes", "retrain_ratio", "mean_abs_diff"]
TRACE_SCHEMA = "subnet-unlearn-trace-v1"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("SUBNET_UNLEARN_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tasks", type=int, help="number of tasks")
    p.add_argument("--unlearns", type=int, help="number of unlearning requests")
    p.add_argument("--input-dim", type=int, default=8)
    p.add_argument("--classes-per-task", type=int, default=2)
    p.add_argument("--train-per-class", type=int, default=200)
    p.add_argument("--test-per-class", type=int, default=200)
    p.add_argument("--spread", type=float, default=10.0, help="class center scale")
    p.add_argument("--noise", type=float, default=1.0, help="within-class scale")


def _scenario_from_args(args) -> scenario.Scenario:
    if args.scenario:
        if args.tasks is not None or args.unlearns is not None:
            raise SystemExit2("--scenario and inline --tasks/--unlearns are exclusive")
        try:
            sc = scenario.read_scenario(args.scenario)
        except (OSError, ValueError) as e:
            raise SystemExit2(f"cannot read scenario: {e}")
    else:
        if args.tasks is None or args.unlearns is None:
            raise SystemExit2("need either --scenario or both --tasks and --unlearns")
        try:
            sc = scenario.build_scenario(
                args.master_seed if args.master_seed is not None else 0,
                args.tasks, args.unlearns,
                input_dim=args.input_dim, classes_per_task=args.classes_per_task,
                train_per_class=args.train_per_class, test_per_class=args.test_per_class,
                spread=args.spread, noise=args.noise)
        except ValueError as e:
            raise SystemExit2(str(e))
    if args.master_seed is not None:
        sc.seed = args.master_seed
    return sc


class SystemExit2(Exception):
    """Invalid flags or malformed inputs; mapped to exit code 2."""


def cmd_gen_scenario(args) -> int:
    try:
        sc = scenario.build_scenario(
            args.seed, args.tasks, args.unlearns,
            input_dim=args.input_dim, classes_per_task=args.classes_per_task,
            train_per_class=args.train_per_class, test_per_class=args.test_per_class,
            spread=args.spread, noise=args.noise)
    except ValueError as e:
        raise SystemExit2(str(e))
    if args.output == "-":
        sys.stdout.write(scenario.scenario_to_text(sc))
    else:
        scenario.write_scenario(args.output, sc)
        print(f"wrote {args.output} ({sc.tasks} tasks, {sc.unlearns} unlearns, "
              "sequence valid)")
    return 0


def _hyperparams_from_args(args) -> eng.Hyperparams:
    try:
        hidden = tuple(int(h) for h in args.hidden.split(",") if h)
    except ValueError:
        hidden = ()
    if not hidden or min(hidden) < 1:
        raise SystemExit2(f"bad --hidden {args.hidden!r}, expected e.g. 64,64")
    hp = eng.Hyperparams(
        alpha=args.alpha, epochs=args.epochs, batch_size=args.batch_size,
        lr=args.lr, momentum=args.momentum, weight_decay=args.weight_decay,
        optimizer=args.optimizer, n_retrain=args.n_retrain, beta=args.beta,
        buffer_total=args.buffer_total, hidden=hidden)
    try:
        hp.validate()
    except ValueError as e:
        raise SystemExit2(str(e))
    return hp


def cmd_run(args) -> int:
    sc = _scenario_from_args(args)
    hp = _hyperparams_from_args(args)
    if eng.LEARNERS[args.method].uses_buffers:
        try:
            rehearsal.per_task_capacity(hp.buffer_total, sc.tasks)
        except ValueError as e:
            raise SystemExit2(f"--buffer-total: {e}")
    out = _outdir(args)
    seeds = scenario.seed_plan(sc.seed, args.seeds)
    rows = []
    trace_lines = [json.dumps({"schema": TRACE_SCHEMA, "method": args.method},
                              sort_keys=True)]
    timings = []
    for seed in seeds:
        suite = sc.suite_for_seed(seed)
        sequence = sc.sequence_for_seed(seed)
        t0 = time.perf_counter()
        try:
            learner, matrix = eng.run_sequence(args.method, suite, hp, seed, sequence)
        except CapacityError as e:
            print(f"capacity exhausted (seed {seed}): {e}", file=sys.stderr)
            return 3
        except (FloatingPointError, ValueError) as e:
            if not str(e).startswith("non-finite"):
                raise
            print(f"seed {seed}: {type(e).__name__}: {e}", file=sys.stderr)
            return 5
        runtime = time.perf_counter() - t0
        if args.method in eng.EXACT_METHODS:
            problems = eng.audit_learner(learner)
            if problems:
                for p in problems:
                    print(f"audit: {p}", file=sys.stderr)
                return 4
        report = metrics.build_report(
            args.method, seed, sc.tasks, sc.unlearns, matrix, learner.retrain_events,
            learner.arch.d, len(learner.sections().get("masks", {})), len(learner.omega))
        rows.append(astuple(report))
        for i, row in enumerate(matrix.rows):
            trace_lines.append(json.dumps(
                {"seed": seed, "index": i,
                 "request": str(row.request) if row.request else None,
                 "omega": row.omega,
                 "acc": {str(t): list(c) for t, c in sorted(row.acc.items())}},
                sort_keys=True))
        timings.append((seed, runtime))
        if args.checkpoint:
            ckpt.save_checkpoint(os.path.join(out, f"checkpoint_{args.method}_{seed}.bin"),
                                 learner)
        acc = _fmt(report.acc_learned)
        print(f"seed {seed}: A_l {acc} % in {runtime:.2f} s")
    results_path = os.path.join(out, args.results_name)
    with open(results_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    with open(os.path.join(out, args.trace_name), "w") as fh:
        fh.write("\n".join(trace_lines) + "\n")
    with open(os.path.join(out, "timings.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "runtime_s"])
        for seed, rt in timings:
            w.writerow([seed, f"{rt:.3f}"])
    print(f"wrote {results_path}")
    return 0


def _read_results(paths):
    rows = []
    for path in paths:
        try:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames != CSV_COLUMNS:
                    raise SystemExit2(f"{path}: unexpected columns {reader.fieldnames}")
                for line in reader:
                    rows.append(line)
        except OSError as e:
            raise SystemExit2(str(e))
    if not rows:
        raise SystemExit2("no result rows found")
    return rows


def cmd_report(args) -> int:
    rows = _read_results(args.results)

    def fnum(row, key):
        return float(row[key]) if row[key] != "" else None

    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row["method"], row["T"], row["N_u"]), []).append(row)
    out_rows = []
    for (method, tasks, unlearns), grp in sorted(groups.items()):
        agg = {key: metrics.aggregate([fnum(r, key) for r in grp])
               for key in ("A_l", "A_u", "F_l", "F_u", "F_u_max",
                           "model_size_bytes", "retrain_ratio", "mean_abs_diff")}
        out_rows.append((method, tasks, unlearns, len(grp), agg))
    print(f"{'method':<15}{'T':>3}{'N_u':>4}{'seeds':>6}"
          f"{'A_l[%]':>10}{'A_l_min[%]':>11}{'A_u[%]':>10}{'F_l[pp]':>10}"
          f"{'F_u[pp]':>10}{'F_u_max[pp]':>12}{'size[MiB]':>11}{'retrain[%]':>11}")
    for method, tasks, unlearns, n, agg in out_rows:
        def cell(key, attr="mean", scale=1.0, width=10):
            a = agg[key]
            return f"{'-':>{width}}" if a is None else f"{getattr(a, attr) * scale:>{width}.2f}"
        size = agg["model_size_bytes"]
        size_s = "-" if size is None else f"{metrics.mib(size.mean):.2f}"
        print(f"{method:<15}{tasks:>3}{unlearns:>4}{n:>6}"
              f"{cell('A_l')}{cell('A_l', 'min', width=11)}{cell('A_u')}"
              f"{cell('F_l')}{cell('F_u')}{cell('F_u_max', 'max', width=12)}"
              f"{size_s:>11}{cell('retrain_ratio', scale=100.0, width=11)}")
    if args.output:
        with open(args.output, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "T", "N_u", "seeds", "A_l_mean", "A_l_min", "A_u_mean",
                        "F_l_mean", "F_u_mean", "F_u_max", "model_size_mib_mean",
                        "retrain_ratio_mean", "mean_abs_diff_mean"])
            for method, tasks, unlearns, n, agg in out_rows:
                def val(key, attr="mean"):
                    a = agg[key]
                    return "" if a is None else _fmt(getattr(a, attr))
                w.writerow([method, tasks, unlearns, n, val("A_l"), val("A_l", "min"),
                            val("A_u"), val("F_l"), val("F_u"), val("F_u_max", "max"),
                            "" if agg["model_size_bytes"] is None
                            else _fmt(metrics.mib(agg["model_size_bytes"].mean)),
                            val("retrain_ratio"), val("mean_abs_diff")])
        print(f"wrote {args.output}")
    return 0


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    ran, failure = run_selfcheck(args.filter)
    if failure:
        print(f"selfcheck failed: {failure}", file=sys.stderr)
        return 1
    print(f"{ran} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subnet-unlearn",
                                description="Task-incremental learning with exact unlearning")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-scenario", help="write a scenario file")
    g.add_argument("--seed", type=int, required=True)
    _add_scenario_flags(g)
    g.add_argument("--output", "-o", default="-", help="path or - for stdout")
    g.set_defaults(fn=cmd_gen_scenario, _needs_tasks=True)

    r = sub.add_parser("run", help="run one method over seeded repeats")
    r.add_argument("--method", required=True, choices=eng.METHODS)
    r.add_argument("--scenario", help="scenario file from gen-scenario")
    _add_scenario_flags(r)
    r.add_argument("--master-seed", type=int, help="override the scenario seed")
    r.add_argument("--seeds", type=int, default=1, help="number of seeded repeats")
    r.add_argument("--alpha", type=float, help="mask density (default 1/T)")
    r.add_argument("--epochs", type=int, default=20)
    r.add_argument("--batch-size", type=int, default=32)
    r.add_argument("--lr", type=float, default=0.01)
    r.add_argument("--momentum", type=float, default=0.9)
    r.add_argument("--weight-decay", type=float, default=5e-4)
    r.add_argument("--optimizer", choices=("sgd_momentum", "adam"), default="sgd_momentum")
    r.add_argument("--n-retrain", type=int, default=50,
                   help="retraining steps after an unlearn")
    r.add_argument("--beta", type=float, default=0.5, help="stored-logit term weight")
    r.add_argument("--buffer-total", type=int, default=500)
    r.add_argument("--hidden", default="64,64", help="comma-separated layer widths")
    r.add_argument("--outdir", help="output directory (or $SUBNET_UNLEARN_OUTDIR)")
    r.add_argument("--results-name", default="results.csv")
    r.add_argument("--trace-name", default="trace.jsonl")
    r.add_argument("--checkpoint", action="store_true", help="save final learner state")
    r.set_defaults(fn=cmd_run)

    rep = sub.add_parser("report", help="aggregate result CSVs")
    rep.add_argument("results", nargs="+", help="results.csv files")
    rep.add_argument("--output", help="write the aggregate table as CSV")
    rep.set_defaults(fn=cmd_report)

    s = sub.add_parser("selfcheck", help="run fast internal diagnostics")
    s.add_argument("--filter", default="", help="only checks whose name contains this")
    s.set_defaults(fn=cmd_selfcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "_needs_tasks", False) and (args.tasks is None or args.unlearns is None):
        parser.error("gen-scenario needs --tasks and --unlearns")
    try:
        return args.fn(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
