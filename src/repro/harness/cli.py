"""Command-line interface: ``drr-gossip <command>`` (or ``python -m repro``).

The CLI is a thin veneer over :mod:`repro.harness.experiments` and the
orchestration subsystem (:mod:`repro.orchestration`); it exists so a
downstream user can regenerate any table of EXPERIMENTS.md — or run a
paper-scale parameter sweep — without writing Python.  The package does not
need to be installed: ``python -m repro <command>`` behaves identically to
the ``drr-gossip`` entry point.

Examples
--------
Run a quick average computation over synthetic values::

    drr-gossip run --n 4096 --aggregate average

Run any protocol from a declarative spec file, and inspect/validate specs::

    drr-gossip run --spec examples/specs/average.toml
    drr-gossip spec show examples/specs/average.toml
    drr-gossip spec validate examples/specs/*.toml examples/sweeps/*.toml

Regenerate the Table 1 measurement at small scale::

    drr-gossip table1 --ns 256 512 1024 --reps 2

Run every experiment and write a markdown report::

    drr-gossip report --output results/

Run a parameter sweep in parallel, persisting every cell to SQLite (an
immediate re-run skips all completed cells)::

    drr-gossip sweep --experiments table1 forest --ns 256 512 --reps 3 --jobs 4
    drr-gossip sweep --config sweeps/quick.toml --jobs 4

Record where the wall clock goes (phase/primitive telemetry), with a live
heartbeat line and a JSONL event export::

    drr-gossip run --n 100000 --telemetry events.jsonl --heartbeat 5

Inspect and export what the store holds::

    drr-gossip results --markdown results/report.md
    drr-gossip results --failed
    drr-gossip results --telemetry

Render figures purely from stored rows (no recomputation; needs matplotlib)::

    drr-gossip plot --store results/results.sqlite --output results/figures
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ..api import RunSpec, SpecValidationError, load_specs, parse_spec_document, read_spec_document
from ..api import run as run_spec_fn
from ..core import Aggregate
from ..observability import (
    NULL_TELEMETRY,
    Heartbeat,
    Telemetry,
    configure_logging,
    format_telemetry,
    write_events_jsonl,
)
from ..substrate import available_backends, normalize_backend
from ..orchestration import (
    ResultStore,
    SweepDefinition,
    SweepRunner,
    cells_from_run_specs,
    expand_cells,
    load_builtin_experiments,
    load_sweep,
    print_progress,
)
from ..orchestration.store import DEFAULT_MAX_ATTEMPTS
from ..simulator import ConfigurationError, FailureModel
from . import experiments  # noqa: F401  (import registers the drivers)
from .report import write_json, write_markdown_report, write_markdown_report_from_store
from .workloads import workload_names

__all__ = ["main", "build_parser", "EXPERIMENTS"]

#: Default location of the sweep result store.
DEFAULT_STORE = "results/results.sqlite"

#: experiment name -> driver callable, backed by the orchestration registry.
#: Kept as a plain mapping for backwards compatibility with callers that did
#: ``from repro.harness.cli import EXPERIMENTS``.
EXPERIMENTS = {spec.name: spec.driver for spec in load_builtin_experiments()}


def _backend(name: str) -> str:
    """``--backend`` values: a canonical backend name, or an error naming why it is unavailable."""
    try:
        return normalize_backend(name)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_backend_option(parser: argparse.ArgumentParser, default: str | None, help: str) -> None:
    parser.add_argument(
        "--backend",
        type=_backend,
        default=default,
        metavar="{" + ",".join(available_backends()) + "}",
        help=help,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drr-gossip",
        description="Reproduction harness for 'Optimal Gossip-Based Aggregate Computation' (SPAA 2010)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v: INFO, -vv: DEBUG) on the `repro` logger hierarchy",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="decrease log verbosity (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one DRR-gossip aggregate computation on synthetic values")
    run.add_argument(
        "--spec",
        type=str,
        default=None,
        metavar="FILE",
        help="run from a declarative RunSpec file (.toml/.json); overrides every other run flag",
    )
    run.add_argument("--n", type=int, default=1024, help="number of nodes")
    run.add_argument("--aggregate", choices=[a.value for a in Aggregate], default="average")
    run.add_argument("--workload", choices=workload_names(), default="uniform")
    run.add_argument("--delta", type=float, default=0.0, help="per-message loss probability")
    run.add_argument("--crash", type=float, default=0.0, help="initial crash fraction")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--query", type=float, default=None, help="query value for the rank aggregate")
    _add_backend_option(
        run,
        "vectorized",
        "execution substrate: columnar batches (vectorized) or message-level simulation (engine)",
    )
    run.add_argument(
        "--telemetry",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="record phase/primitive telemetry and print a summary; with "
        "FILE, also export the events as JSONL (one event per line)",
    )
    run.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECS",
        help="print a live [heartbeat] progress line to stderr every SECS seconds",
    )

    for spec in load_builtin_experiments():
        exp = sub.add_parser(spec.name, help=spec.description)
        exp.add_argument("--seed", type=int, default=None)
        exp.add_argument("--reps", type=int, default=None, help="repetitions per configuration")
        exp.add_argument("--ns", type=int, nargs="+", default=None, help="network sizes to sweep")
        exp.add_argument("--json", type=str, default=None, help="write the result to this JSON path")
        if "backend" in spec.param_names:
            _add_backend_option(
                exp,
                None,
                "execution substrate for this experiment (recorded in the result parameters)",
            )

    report = sub.add_parser("report", help="run every experiment and write a markdown report")
    report.add_argument("--output", type=str, default="results", help="output directory")
    report.add_argument("--quick", action="store_true", help="use small sweeps (CI-sized)")
    report.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter sweep in parallel, persisting every cell to the result store",
    )
    sweep.add_argument("--config", type=str, default=None, help="TOML/JSON sweep definition file")
    sweep.add_argument(
        "--spec",
        type=str,
        default=None,
        metavar="FILE",
        help="TOML/JSON file of protocol RunSpecs; every run becomes one sweep cell "
        "(drains receive the serialised spec, results land in the store under run:<protocol>)",
    )
    sweep.add_argument(
        "--experiments",
        nargs="+",
        default=None,
        metavar="NAME",
        help="experiments to sweep when no --config is given (default: all registered)",
    )
    sweep.add_argument("--ns", type=int, nargs="+", default=None, help="network-size vector for experiments that take one")
    sweep.add_argument("--reps", type=int, default=None, help="repetitions (seeds) per grid point")
    sweep.add_argument("--seed", type=int, default=None, help="master seed (per-cell seeds derive from it)")
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="queue drains forked from this process (1 = drain in-process; more "
        "needs a file-backed --store)",
    )
    sweep.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    _add_backend_option(
        sweep,
        None,
        "execution substrate for every backend-aware experiment in the sweep "
        "(recorded per row in the result store; default: each driver's default)",
    )
    sweep.add_argument(
        "--no-skip",
        action="store_true",
        help="re-execute cells even when the store already has their results",
    )
    sweep.add_argument(
        "--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS, metavar="N",
        help="claims per cell before it is marked failed: a cell whose drain dies "
        "(or that kills it) is claimed again until then",
    )

    plot = sub.add_parser(
        "plot",
        help="render figures from stored sweep rows (no recomputation; needs matplotlib)",
    )
    plot.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    plot.add_argument("--experiment", type=str, default=None, help="restrict to one experiment")
    plot.add_argument("--output", type=str, default="results/figures", help="output directory")
    plot.add_argument("--format", dest="fmt", choices=["png", "svg", "pdf"], default="png")

    spec = sub.add_parser("spec", help="inspect and validate declarative spec/sweep files")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    spec_show = spec_sub.add_parser("show", help="print a spec file's canonical JSON and hashes")
    spec_show.add_argument("files", nargs="+", metavar="FILE", help="RunSpec .toml/.json files")
    spec_validate = spec_sub.add_parser(
        "validate",
        help="validate RunSpec files and sweep definition files against their schemas",
    )
    spec_validate.add_argument("files", nargs="+", metavar="FILE", help="spec or sweep files")

    results = sub.add_parser("results", help="summarise/export the sweep result store")
    results.add_argument("--store", type=str, default=DEFAULT_STORE, help="SQLite result store path")
    results.add_argument("--experiment", type=str, default=None, help="restrict to one experiment")
    results.add_argument("--failed", action="store_true", help="show failed cells with their tracebacks")
    results.add_argument("--json", type=str, default=None, help="export stored runs to this JSON path")
    results.add_argument("--markdown", type=str, default=None, help="write a markdown report from the store")
    results.add_argument(
        "--telemetry",
        action="store_true",
        help="show stored per-run telemetry summaries",
    )
    results.add_argument(
        "--queue",
        action="store_true",
        help="show the work queue: per-experiment state counts and every in-flight "
        "claim (owner, attempt, claim time), flagging the orphaned ones",
    )
    return parser


def _heartbeat_for(args: argparse.Namespace, telemetry, label: str):
    """A started :class:`Heartbeat` for ``--heartbeat``, or a null context."""
    import contextlib

    if args.heartbeat is None:
        return contextlib.nullcontext()
    try:
        return Heartbeat(telemetry, interval_s=args.heartbeat, label=label)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _export_events(telemetry_doc: dict, target: str, append: bool) -> None:
    if target:  # `--telemetry FILE` (bare `--telemetry` is const="")
        path = write_events_jsonl(telemetry_doc, target, append=append)
        verb = "appended" if append else "wrote"
        print(f"{verb} telemetry events: {path}")


def _flag_spec(args: argparse.Namespace) -> RunSpec:
    """The ``drr-gossip`` spec the ``run`` flags describe."""
    params = {"n": args.n, "aggregate": args.aggregate, "workload": args.workload}
    if args.query is not None:
        params["query"] = args.query
    return RunSpec(
        protocol="drr-gossip",
        params=params,
        failures=FailureModel(loss_probability=args.delta, crash_fraction=args.crash),
        backend=args.backend,
        seed=args.seed,
    )


def _run_single(args: argparse.Namespace) -> int:
    want_telemetry = args.telemetry is not None
    try:
        specs = load_specs(args.spec) if args.spec is not None else [_flag_spec(args)]
    except (SpecValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for index, spec in enumerate(specs):
        if index:
            print()
        if want_telemetry:
            spec = spec.with_telemetry()
        print(f"spec             : {spec.describe()}")
        tel = Telemetry() if want_telemetry else None
        with _heartbeat_for(args, tel if tel is not None else NULL_TELEMETRY, spec.protocol):
            envelope = run_spec_fn(spec, telemetry=tel)
        print(envelope.describe())
        if want_telemetry and envelope.telemetry is not None:
            _export_events(envelope.telemetry, args.telemetry, append=index > 0)
    return 0


def _run_experiment(name: str, args: argparse.Namespace) -> int:
    fn = EXPERIMENTS[name]
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.reps is not None:
        kwargs["repetitions"] = args.reps
    if getattr(args, "backend", None) is not None:
        kwargs["backend"] = args.backend
    if args.ns is not None:
        if name == "ablation":
            kwargs["n"] = args.ns[0]
        else:
            kwargs["ns"] = tuple(args.ns)
    result = fn(**kwargs)
    print(result.table())
    for note in result.notes:
        print(f"note: {note}")
    if args.json:
        path = write_json(result, args.json)
        print(f"wrote {path}")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    output = Path(args.output)
    quick = args.quick
    results = []
    plans = {
        "table1": {"ns": (256, 512, 1024), "repetitions": 2} if quick else {},
        "forest": {"ns": (256, 512, 1024, 2048), "repetitions": 3} if quick else {},
        "gossip-max": {"ns": (256, 1024), "repetitions": 3} if quick else {},
        "gossip-ave": {"ns": (256, 1024), "repetitions": 2} if quick else {},
        "end-to-end": {"ns": (256,), "repetitions": 2} if quick else {},
        "local-drr": {"ns": (256, 1024), "repetitions": 2} if quick else {},
        "chord": {"ns": (128, 256), "repetitions": 2} if quick else {},
        "lower-bound": {"ns": (128, 256, 512), "repetitions": 2} if quick else {},
        "phase-breakdown": {"ns": (256, 1024), "repetitions": 2} if quick else {},
        "ablation": {"n": 1024, "repetitions": 2} if quick else {},
    }
    for name, kwargs in plans.items():
        print(f"running {name} ...", flush=True)
        result = EXPERIMENTS[name](seed=args.seed, **kwargs)
        write_json(result, output / f"{result.experiment}.json")
        results.append(result)
    path = write_markdown_report(results, output / "report.md")
    print(f"wrote {path}")
    return 0


def _apply_backend(definition: SweepDefinition, backend: str) -> SweepDefinition:
    """Pin the substrate backend on every backend-aware plan of a sweep."""
    registry = load_builtin_experiments()
    plans = []
    for plan in definition.plans:
        spec = registry.get(plan.experiment)
        if "backend" in spec.param_names:
            plan = dataclasses.replace(plan, grid={**plan.grid, "backend": backend})
        plans.append(plan)
    return dataclasses.replace(definition, plans=tuple(plans))


def _sweep_cells(args: argparse.Namespace) -> tuple[list, str]:
    """The sweep's cells and name, from ``--spec``, ``--config`` or the flags."""
    if args.spec:
        if args.config or args.experiments or args.ns or args.seed is not None:
            raise ValueError(
                "--spec cannot be combined with --config/--experiments/--ns/--seed; "
                "each run spec carries its own seed (--reps derives extra seeds from it)"
            )
        specs = load_specs(args.spec)
        if args.backend is not None:
            specs = [spec.with_backend(args.backend) for spec in specs]
        cells = cells_from_run_specs(specs, repetitions=args.reps if args.reps is not None else 1)
        return cells, Path(args.spec).stem
    if args.config:
        if args.experiments or args.ns:
            raise ValueError(
                "--config cannot be combined with --experiments/--ns; "
                "put the grid in the sweep file (--seed/--reps do override it)"
            )
        definition = load_sweep(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.reps is not None:
            # --reps wins over BOTH the sweep-level default and any
            # per-experiment repetitions in the file.
            overrides["repetitions"] = args.reps
            overrides["plans"] = tuple(
                dataclasses.replace(plan, repetitions=None) for plan in definition.plans
            )
        if overrides:
            definition = dataclasses.replace(definition, **overrides)
    else:
        names = args.experiments or [spec.name for spec in load_builtin_experiments()]
        grid = {"ns": tuple(args.ns)} if args.ns else {}
        definition = SweepDefinition.from_experiments(
            names,
            grid=grid,
            seed=args.seed if args.seed is not None else 1,
            repetitions=args.reps if args.reps is not None else 1,
        )
    if args.backend is not None:
        definition = _apply_backend(definition, args.backend)
    return expand_cells(definition), definition.name  # validates names and grids up front


def _run_sweep(args: argparse.Namespace) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        cells, name = _sweep_cells(args)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    with ResultStore(args.store) as store:
        runner = SweepRunner(
            store,
            jobs=args.jobs,
            skip_completed=not args.no_skip,
            max_attempts=args.max_attempts,
            progress=print_progress,
        )
        report = runner.run_cells(cells, name=name)
    print(report.summary())
    print(f"store: {args.store}")
    return 0 if report.failed == 0 else 1


def _print_queue_view(store: ResultStore, experiment: str | None) -> None:
    counts = store.queue_counts(experiment)
    if not counts:
        print("queue: empty (run `drr-gossip sweep` to fill it)")
        return
    print(f"{'experiment':<20} {'pending':>8} {'claimed':>8} {'done':>6} {'failed':>6}")
    for row in counts:
        print(
            f"{row['experiment']:<20} {row['pending']:>8} {row['claimed']:>8} "
            f"{row['done']:>6} {row['failed']:>6}"
        )
    claims = [row for row in store.claims() if experiment in (None, row["experiment"])]
    if claims:
        orphaned = sum(row["orphaned"] for row in claims)
        print(
            f"\n{len(claims)} claim(s) in flight, {orphaned} orphaned (the owner's drain "
            "is gone; the next drain reclaims them at once):"
        )
        print(f"{'experiment':<20} {'param_hash':<14} {'seed':>5} {'attempt':>7}  {'claimed at':<19}  owner")
        for row in claims:
            flag = "  orphaned" if row["orphaned"] else ""
            print(
                f"{row['experiment']:<20} {row['param_hash'][:12]:<14} {row['seed']:>5} "
                f"{row['attempt']:>7}  {row['claim_time'] or '-':<19}  {row['owner'] or '-'}{flag}"
            )


def _validate_one_spec_file(path: Path) -> str:
    """Validate one file (parsed once); returns a human summary line or raises.

    A document with sweep-shaped top-level keys validates as a sweep
    definition (grids expanded against the experiment registry); anything
    else must be a RunSpec document.
    """
    data = read_spec_document(path)
    if isinstance(data, dict) and ({"sweep", "experiment", "experiments"} & set(data)):
        definition = SweepDefinition.from_dict(data, name=path.stem)
        cells = expand_cells(definition)
        return f"{path}: ok (sweep {definition.name!r}, {len(cells)} cells)"
    specs = parse_spec_document(data, str(path))
    protocols = ", ".join(sorted({spec.protocol for spec in specs}))
    return f"{path}: ok ({len(specs)} run spec(s): {protocols})"


def _run_spec_tools(args: argparse.Namespace) -> int:
    failures = 0
    for name in args.files:
        path = Path(name)
        try:
            if args.spec_command == "validate":
                print(_validate_one_spec_file(path))
                continue
            # show: print each spec's canonical JSON + identity hashes
            for spec in load_specs(path):
                print(f"# {path} — {spec.describe()}")
                print(f"# spec_hash={spec.spec_hash()} param_hash={spec.param_hash()}")
                print(spec.to_json(indent=2))
        except (SpecValidationError, KeyError, ValueError, TypeError, OSError) as exc:
            message = exc.args[0] if exc.args and isinstance(exc.args[0], str) else str(exc)
            prefix = "" if message.startswith(str(path)) else f"{path}: "
            print(f"error: {prefix}{message}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} of {len(args.files)} file(s) failed validation", file=sys.stderr)
    return 0 if failures == 0 else 1


def _run_plot(args: argparse.Namespace) -> int:
    from .plotting import PlottingUnavailableError, render_plots

    if not Path(args.store).exists():
        print(f"no result store at {args.store} (run `drr-gossip sweep` first)", file=sys.stderr)
        return 1
    with ResultStore(args.store) as store:
        try:
            written = render_plots(store, args.output, experiment=args.experiment, fmt=args.fmt)
        except PlottingUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if not written:
        print("no completed rows to plot (check --experiment / run a sweep first)", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def _run_results(args: argparse.Namespace) -> int:
    if not Path(args.store).exists():
        print(f"no result store at {args.store} (run `drr-gossip sweep` first)", file=sys.stderr)
        return 1
    if args.queue:
        with ResultStore(args.store) as store:
            _print_queue_view(store, args.experiment)
        return 0
    with ResultStore(args.store) as store:
        summary = store.summary()
        if args.experiment is not None:
            summary = [row for row in summary if row["experiment"] == args.experiment]
        print(f"{'experiment':<20} {'backend':<11} {'completed':>9} {'failed':>6} {'runtime':>9}")
        for row in summary:
            print(
                f"{row['experiment']:<20} {row.get('backend') or '-':<11} "
                f"{row['completed'] or 0:>9} "
                f"{row['failed'] or 0:>6} {row['total_duration_s'] or 0.0:>8.1f}s"
            )
        if args.failed:
            for run in store.query(experiment=args.experiment, status="failed"):
                print(f"\nFAILED {run.experiment} params={run.params} seed={run.seed}")
                print(run.error)
        if args.telemetry:
            shown = 0
            for run in store.query(experiment=args.experiment, status="ok"):
                if run.telemetry is None:
                    continue
                shown += 1
                print(f"\n{run.experiment} params={run.params} seed={run.seed}")
                print(format_telemetry(run.telemetry))
            if not shown:
                print("\n(no stored rows carry telemetry; sweep specs with telemetry=true record it)")
        if args.json:
            path = store.export_json(args.json, args.experiment)
            print(f"wrote {path}")
        if args.markdown:
            path = write_markdown_report_from_store(store, args.markdown, experiment=args.experiment)
            print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    if args.command == "run":
        return _run_single(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "spec":
        return _run_spec_tools(args)
    if args.command == "plot":
        return _run_plot(args)
    if args.command == "results":
        return _run_results(args)
    if args.command in EXPERIMENTS:
        return _run_experiment(args.command, args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
