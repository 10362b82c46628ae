"""Command-line interface: reproduce any exhibit from a terminal.

Examples
--------
List everything reproducible::

    repro-locking list

Reproduce Figure 2 quickly, with an ASCII plot and a CSV dump::

    repro-locking run fig2 --quick --plot --save fig2.csv

Run a single configuration::

    repro-locking simulate --ltot 100 --npros 10 --tmax 2000
"""

import argparse
import sys
import time

from repro.core.model import simulate
from repro.core.parameters import SimulationParameters
from repro.core.results import RESULT_FIELDS
from repro.experiments.figures import EXHIBITS, get_exhibit
from repro.experiments.report import ascii_plot, format_series_table, summarize_optima
from repro.experiments.runner import run_experiment
from repro.experiments.storage import save_rows_csv, save_rows_json

#: Reduced grid used by ``--quick``.
QUICK_LTOT_GRID = (1, 10, 100, 1000, 5000)
QUICK_TMAX = 400.0

#: Short aliases for policy-selecting parameter flags: ``--cc`` is
#: ``--protocol``, ``--admission`` is ``--txn-policy``.
_FLAG_ALIASES = {"protocol": "--cc", "txn_policy": "--admission"}


def _parameter_names():
    """Every overridable parameter name, flag-order.

    ``as_dict`` omits ``txn_classes`` when empty (digest neutrality),
    so the default instance's dict misses it; append it explicitly so
    the flag and every override-collection site still see it.
    """
    names = list(SimulationParameters().as_dict())
    names.append("txn_classes")
    return names


class _BadParameters(ValueError):
    """A verb's input is invalid: its parameter flags describe an
    invalid configuration, it names an unknown exhibit, or an input
    file cannot be read."""


def comma_grid(convert):
    """argparse ``type=`` for a comma-separated grid, e.g. ``1,10,100``.

    Each non-empty item is passed through *convert* (``int`` for lock
    and processor grids, ``str`` for protocol names); the grid is a
    tuple.  An item *convert* rejects is a usage error (exit 2).
    """

    def parse(text):
        try:
            return tuple(
                convert(item.strip()) for item in text.split(",") if item.strip()
            )
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid {} grid: {!r}".format(convert.__name__, text)
            ) from None

    return parse


def positive_count(text):
    """argparse ``type=`` for a count that must be at least 1."""
    if not (text.strip().isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            "must be an integer >= 1, got {!r}".format(text)
        )
    return int(text)


def _parameter_overrides(args, skip=()):
    """The ``--<parameter>`` flags the user actually set, by name."""
    return {
        name: getattr(args, name)
        for name in _parameter_names()
        if name not in skip and getattr(args, name, None) is not None
    }


def _build_params(args, **fixed):
    """Validated :class:`SimulationParameters` from *args* and *fixed*.

    Raised ``ValueError`` s become :class:`_BadParameters`, which
    :func:`main` reports as ``error: ...`` with exit status 2 before the
    verb runs anything.  Unknown policy names pass through unchanged so
    they keep their registry suggestions.
    """
    from repro.policies import UnknownPolicyError

    overrides = _parameter_overrides(args)
    overrides.update(fixed)
    try:
        return SimulationParameters(**overrides)
    except UnknownPolicyError:
        raise
    except ValueError as exc:
        raise _BadParameters(str(exc)) from None


def _exhibit_spec(key, npros_grid=None, **changes):
    """Exhibit *key*, scaled by *changes* when there are any.

    *npros_grid* replaces the spec's npros sweep if it has one.  An
    unknown key or a change that makes the spec invalid raises
    :class:`_BadParameters`.
    """
    from repro.policies import UnknownPolicyError

    try:
        spec = get_exhibit(key)
        if npros_grid and "npros" in spec.sweeps:
            changes["replace_sweeps"] = {"npros": npros_grid}
        return spec.scaled(**changes) if changes else spec
    except UnknownPolicyError:
        raise
    except (KeyError, ValueError) as exc:
        raise _BadParameters(exc.args[0]) from None


def _cache_from_args(args):
    """The sweep's ``cache=`` from ``--no-cache`` / ``--cache-dir``."""
    if args.no_cache:
        return False
    if args.cache_dir:
        from repro.experiments.cache import ResultCache

        return ResultCache(args.cache_dir)
    return None  # default on-disk cache (REPRO_CACHE=0 disables)


def _serve_metrics(metrics, port):
    """Start and announce a :class:`MetricsServer` for *metrics*."""
    from repro.obs.exporters import MetricsServer

    server = MetricsServer(metrics, port=port)
    server.start()
    print(
        "Serving metrics at http://{}:{}/metrics "
        "(and /metrics.json)".format(server.host, server.port)
    )
    return server


def _read_input(load, path):
    """``load(path)``, reporting an unreadable input file as bad input."""
    try:
        return load(path)
    except OSError as exc:
        raise _BadParameters(
            "cannot read {}: {}".format(path, exc.strerror or exc)
        ) from None


def _add_parameter_flags(parser, skip=()):
    """Add one ``--<name>`` option per simulation parameter.

    Every subcommand that accepts a full configuration (simulate,
    trace, faults, tune, sensitivity) shares this generator, so new
    parameters and policy aliases appear everywhere at once.
    """
    defaults = SimulationParameters().as_dict()
    defaults.setdefault("txn_classes", "")
    for name in _parameter_names():
        if name in skip:
            continue
        value = defaults[name]
        kind = type(value)
        flags = ["--{}".format(name.replace("_", "-"))]
        if name in _FLAG_ALIASES:
            flags.append(_FLAG_ALIASES[name])
        help_text = "default: {!r}".format(value)
        if name == "txn_classes":
            help_text = (
                "comma-separated class specs name:fraction:maxtransize"
                "[:key=val]* (keys: dist, write, gran, prio, backoff, "
                "skew); requires --workload classes"
            )
        parser.add_argument(
            *flags,
            dest=name,
            type=kind if kind in (int, float) else str,
            default=None,
            help=help_text,
        )


def build_parser():
    """The argparse parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-locking",
        description="Reproduce 'Locking Granularity in Multiprocessor "
        "Database Systems' (Dandamudi & Au, ICDE 1991).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible exhibits")

    policies = sub.add_parser(
        "policies",
        help="list the pluggable policy layers and registered names",
    )
    policies.add_argument(
        "layer", nargs="?", default=None,
        help="only this layer (cc, admission, workload, arrival, "
        "placement, partitioning, conflict)",
    )

    run = sub.add_parser("run", help="run one exhibit's full sweep")
    run.add_argument("exhibit", help="table1, fig2..fig12, 2..12, or an ablation key")
    run.add_argument("--tmax", type=float, default=None, help="override horizon")
    run.add_argument(
        "--replications", type=positive_count, default=1,
        help="replications per point",
    )
    run.add_argument("--jobs", type=int, default=0, help="worker processes")
    run.add_argument(
        "--quick", action="store_true", help="small grid and short horizon"
    )
    run.add_argument("--plot", action="store_true", help="ASCII plot per y field")
    run.add_argument("--save", default=None, help="write rows to CSV path")
    run.add_argument("--json", default=None, help="write rows to JSON path")
    run.add_argument(
        "--svg", default=None, metavar="DIR",
        help="write one SVG chart per y field into DIR",
    )
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely (no reads, no writes)",
    )
    run.add_argument(
        "--refresh", action="store_true",
        help="ignore cached results, re-simulate and overwrite them",
    )
    run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default results/.cache, or "
        "$REPRO_CACHE_DIR)",
    )
    run.add_argument(
        "--journal", default=None, metavar="PATH",
        help="record completed cells to this crash-safe journal "
        "(default with --resume: <cache>/journals/<exhibit>.journal)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from its journal + cache",
    )
    run.add_argument(
        "--watchdog", type=float, default=None, metavar="SECONDS",
        help="per-replication wall-clock watchdog; stalled cells are "
        "killed and retried",
    )
    run.add_argument(
        "--watchdog-retries", type=int, default=2, metavar="N",
        help="retries per stalled cell before the sweep fails (default 2)",
    )
    run.add_argument(
        "--accelerator", default=None, choices=("analytic",),
        help="prune the sweep with the analytic mean-value model: "
        "simulate only curve endpoints, the predicted optimum and "
        "flagged cells; fill the rest from predictions (journalled "
        "with provenance 'analytic', never cached)",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="collect live metrics (lock-wait histograms, abort "
        "causes, sweep progress); results stay bit-identical",
    )
    run.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve /metrics (Prometheus text) and /metrics.json "
        "on this port while the sweep runs (implies --metrics; 0 "
        "picks a free port)",
    )
    run.add_argument(
        "--metrics-snapshot", default=None, metavar="PATH",
        help="periodic JSON metrics snapshot file (default with "
        "--journal: <journal>.metrics.json — where 'top' looks)",
    )

    top = sub.add_parser(
        "top",
        help="live dashboard for a running journalled sweep "
        "(progress, ev/s, hot granules, ETA)",
    )
    top.add_argument("journal", help="the sweep's --journal path to tail")
    top.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="metrics snapshot file (default: <journal>.metrics.json)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period (default 1s)",
    )
    top.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N refreshes (default: until the sweep finishes)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (scriptable; no ANSI)",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="keep refreshing after the journal records a clean finish",
    )

    predict = sub.add_parser(
        "predict",
        help="analytic prediction of one configuration (no simulation)",
    )
    predict.add_argument(
        "--ltot-grid", type=comma_grid(int), default=None, metavar="L1,L2,...",
        help="predict a whole granularity curve instead of one cell",
    )
    predict.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the prediction rows to a JSON file",
    )
    _add_parameter_flags(predict)

    crossval = sub.add_parser(
        "crossval",
        help="validate the analytic model against the simulator",
    )
    crossval.add_argument(
        "exhibit", nargs="?", default="ablation_analytic",
        help="exhibit grid to validate on (default ablation_analytic; "
        "use fig2 for the thorough run)",
    )
    crossval.add_argument("--tmax", type=float, default=None)
    crossval.add_argument(
        "--replications", type=positive_count, default=1,
        help="simulation replications per configuration",
    )
    crossval.add_argument("--jobs", type=int, default=0)
    crossval.add_argument(
        "--field", default="throughput", help="output field compared"
    )
    crossval.add_argument(
        "--cc", dest="protocol", default=None,
        help="override the cc protocol (granule-level protocols "
        "switch the conflict engine to 'explicit' automatically)",
    )
    crossval.add_argument(
        "--npros-grid", type=comma_grid(int), default=None,
        metavar="N1,N2,...",
        help="override the spec's npros sweep",
    )
    crossval.add_argument(
        "--ltot-grid", type=comma_grid(int), default=None,
        metavar="L1,L2,...",
        help="override the spec's ltot sweep",
    )
    crossval.add_argument(
        "--max-mean-error", type=float, default=None, metavar="FRAC",
        help="exit with status 1 if the mean relative error exceeds "
        "this fraction (the CI gate)",
    )
    crossval.add_argument(
        "--min-completions", type=float, default=None, metavar="N",
        help="flag cells with fewer completed transactions as "
        "low-sample and exclude them from the mean (default 25)",
    )
    crossval.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the per-cell comparison to a JSON file",
    )
    crossval.add_argument(
        "--svg", default=None, metavar="PATH",
        help="write the sim-vs-analytic overlay chart",
    )
    crossval.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache entirely",
    )
    crossval.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location",
    )

    faults = sub.add_parser(
        "faults",
        help="availability-vs-granularity sweep under injected faults",
    )
    faults.add_argument(
        "--ltot-grid", type=comma_grid(int), default=(10, 100, 1000),
        metavar="L1,L2,...",
        help="lock-count grid to sweep (default 10,100,1000)",
    )
    faults.add_argument(
        "--mttf", type=float, default=None, metavar="T",
        help="mean time to processor failure (enables crash injection)",
    )
    faults.add_argument(
        "--mttr", type=float, default=10.0, metavar="T",
        help="mean time to processor repair (default 10)",
    )
    faults.add_argument(
        "--first-failure-after", type=float, default=0.0, metavar="T",
        help="no crash before this simulation time (default 0)",
    )
    faults.add_argument(
        "--disk-mtbf", type=float, default=None, metavar="T",
        help="mean time between disk-slowdown windows (enables them)",
    )
    faults.add_argument(
        "--disk-duration", type=float, default=10.0, metavar="T",
        help="mean disk-slowdown window length (default 10)",
    )
    faults.add_argument(
        "--disk-factor", type=float, default=2.0, metavar="F",
        help="disk service-time inflation inside a window (default 2)",
    )
    faults.add_argument(
        "--stall-mtbf", type=float, default=None, metavar="T",
        help="mean time between lock-manager stalls (enables them)",
    )
    faults.add_argument(
        "--stall-duration", type=float, default=5.0, metavar="T",
        help="mean lock-manager stall length (default 5)",
    )
    faults.add_argument(
        "--stall-factor", type=float, default=4.0, metavar="F",
        help="lock-overhead inflation during a stall (default 4)",
    )
    faults.add_argument(
        "--partition-mtbf", type=float, default=None, metavar="T",
        help="mean time between network partitions (enables them; "
        "needs --nnodes >= 2)",
    )
    faults.add_argument(
        "--partition-duration", type=float, default=10.0, metavar="T",
        help="mean partition length (default 10)",
    )
    faults.add_argument(
        "--partition-first-after", type=float, default=0.0, metavar="T",
        help="no partition before this simulation time (default 0)",
    )
    faults.add_argument(
        "--link-delay-mtbf", type=float, default=None, metavar="T",
        help="mean time between link-delay windows (enables them)",
    )
    faults.add_argument(
        "--link-delay-duration", type=float, default=10.0, metavar="T",
        help="mean link-delay window length (default 10)",
    )
    faults.add_argument(
        "--link-delay-extra", type=float, default=0.5, metavar="T",
        help="extra per-message latency inside a window (default 0.5)",
    )
    from repro.faults.backoff import POLICIES as _BACKOFF

    faults.add_argument(
        "--backoff", default="uniform", choices=_BACKOFF,
        help="retry backoff policy (default uniform)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=None, metavar="S",
        help="dedicated fault-schedule seed (default: the run seed)",
    )
    faults.add_argument(
        "--commit-grid", type=comma_grid(str), default=None,
        metavar="P1,P2,...",
        help="also sweep commit protocols (e.g. 2pc,primary-copy; "
        "needs --nnodes >= 2) — the availability-under-partition table",
    )
    faults.add_argument(
        "--replications", type=positive_count, default=3,
        help="replications per grid point (default 3)",
    )
    faults.add_argument("--jobs", type=int, default=0, help="worker processes")
    faults.add_argument(
        "--journal", default=None, metavar="PATH",
        help="record completed cells (with their inline results) to "
        "this crash-safe journal",
    )
    faults.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted faulted sweep from its journal "
        "(results are read back inline; bit-identical)",
    )
    faults.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text) and /metrics.json on "
        "this port while the sweep runs (0 picks a free port)",
    )
    faults.add_argument("--save", default=None, help="write rows to CSV path")
    faults.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the table as JSON (to PATH, or stdout when the "
        "flag is given bare) — same shape as 'report --json': a "
        "document with the plan, its digest and the rows",
    )
    _add_parameter_flags(faults, skip=("ltot",))

    one = sub.add_parser("simulate", help="run a single configuration")
    _add_parameter_flags(one)
    one.add_argument(
        "--trace", type=int, default=0, metavar="N",
        help="print the first N transaction lifecycle events",
    )

    tune = sub.add_parser(
        "tune", help="adaptively search for the optimal lock granularity"
    )
    tune.add_argument("--objective", default="throughput")
    tune.add_argument("--minimize", action="store_true")
    tune.add_argument("--replications", type=positive_count, default=2)
    tune.add_argument("--tmax", type=float, default=400.0)
    _add_parameter_flags(tune, skip=("ltot", "tmax"))

    sensitivity = sub.add_parser(
        "sensitivity",
        help="elasticity of an output w.r.t. each numeric parameter",
    )
    sensitivity.add_argument("--output", default="throughput")
    sensitivity.add_argument("--delta", type=float, default=0.25)
    sensitivity.add_argument(
        "--replications", type=positive_count, default=2
    )
    sensitivity.add_argument("--tmax", type=float, default=300.0)
    _add_parameter_flags(sensitivity, skip=("tmax",))

    trace = sub.add_parser(
        "trace",
        help="run one configuration with full telemetry exported to JSONL",
    )
    trace.add_argument(
        "--out", default="telemetry.jsonl", metavar="PATH",
        help="telemetry JSONL output path (default: telemetry.jsonl)",
    )
    trace.add_argument(
        "--sample-interval", type=float, default=5.0, metavar="DT",
        help="simulated time between time-series samples (0 disables)",
    )
    trace.add_argument(
        "--print", type=int, default=0, metavar="N", dest="print_events",
        help="also print the first N lifecycle events",
    )
    _add_parameter_flags(trace)

    report = sub.add_parser(
        "report", help="summarise a telemetry JSONL file"
    )
    report.add_argument("telemetry", help="telemetry JSONL path (from 'trace')")
    report.add_argument(
        "--top", type=int, default=10,
        help="rows in the top-blockers / hot-granules tables",
    )
    report.add_argument(
        "--svg", default=None, metavar="PATH",
        help="also write the utilisation timeline as an SVG chart",
    )
    report.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the report as JSON instead of text (to PATH, or "
        "stdout when the flag is given bare)",
    )

    compare = sub.add_parser(
        "compare", help="diff two result CSVs (e.g. before/after a change)"
    )
    compare.add_argument("baseline", help="baseline CSV path")
    compare.add_argument("candidate", help="candidate CSV path")
    compare.add_argument(
        "--field", default="throughput", help="output field to compare"
    )
    compare.add_argument(
        "--threshold", type=float, default=0.05,
        help="relative change flagged as a regression/improvement",
    )
    return parser


def _command_list(_args):
    print("Reproducible exhibits:")
    for key in EXHIBITS:
        spec = EXHIBITS[key]()
        points = len(spec.configurations())
        print("  {:22s} {:4d} configs  {}".format(key, points, spec.title))
    return 0


def _command_policies(args):
    """List the policy registry, layer by layer."""
    import difflib

    from repro.policies import PARAM_FIELDS, registry

    loaded = registry.load_entry_points()
    layers = registry.layers()
    if args.layer is not None and args.layer not in layers:
        message = "unknown policy layer {!r}; layers: {}".format(
            args.layer, ", ".join(layers)
        )
        close = difflib.get_close_matches(args.layer, layers, n=1, cutoff=0.5)
        if close:
            message += ". Did you mean {!r}?".format(close[0])
        print(message, file=sys.stderr)
        return 2
    for layer in layers if args.layer is None else (args.layer,):
        field = PARAM_FIELDS.get(layer)
        selector = (
            " (selected by --{}{})".format(
                field.replace("_", "-"),
                " / " + _FLAG_ALIASES[field] if field in _FLAG_ALIASES else "",
            )
            if field
            else ""
        )
        print("{}{}".format(layer, selector))
        for _layer, name, doc in registry.describe(layer):
            print("  {:14s} {}".format(name, doc))
    if loaded:
        print("({} policies loaded from entry points)".format(loaded))
    return 0


def _command_run(args):
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.quick:
        changes.update(tmax=args.tmax or QUICK_TMAX, ltot_grid=QUICK_LTOT_GRID)
    elif args.tmax is not None:
        changes["tmax"] = args.tmax
    spec = _exhibit_spec(args.exhibit, **changes)

    total = len(spec.configurations())
    print(
        "Running {} ({} configurations, tmax={}, replications={})".format(
            spec.key, total, spec.base.tmax, args.replications
        )
    )

    started = time.perf_counter()

    def cell_progress(done, of, info):
        sys.stderr.write(
            "\r  {}/{} cells  [{}: {}{}]  {:.1f}s elapsed   ".format(
                done, of, info["source"], info["label"],
                ""
                if info["seconds"] is None
                else " in {:.2f}s".format(info["seconds"]),
                time.perf_counter() - started,
            )
        )
        sys.stderr.flush()
        if done == of:
            sys.stderr.write("\n")

    journal = args.journal
    if journal is None and args.resume:
        import os

        from repro.experiments.cache import default_cache_dir

        root = args.cache_dir or default_cache_dir()
        journal = os.path.join(root, "journals", spec.key + ".journal")

    # Live metrics are purely additive: the registry never schedules
    # events or draws randomness, so --metrics cannot change results.
    metrics = None
    metrics_server = None
    metrics_snapshot = args.metrics_snapshot
    if args.metrics or args.metrics_port is not None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.top import default_snapshot_path

        metrics = MetricsRegistry()
        if metrics_snapshot is None and journal is not None:
            metrics_snapshot = default_snapshot_path(journal)
        if args.metrics_port is not None:
            metrics_server = _serve_metrics(metrics, args.metrics_port)
        if metrics_snapshot is not None:
            print("Metrics snapshots -> {}".format(metrics_snapshot))
    try:
        result = run_experiment(
            spec,
            replications=args.replications,
            jobs=args.jobs,
            cell_progress=cell_progress,
            cache=_cache_from_args(args),
            refresh=args.refresh,
            journal=journal,
            resume=args.resume,
            watchdog=args.watchdog,
            watchdog_retries=args.watchdog_retries,
            accelerator=args.accelerator,
            drain_signals=True,
            metrics=metrics,
            metrics_snapshot=metrics_snapshot,
        )
    except KeyboardInterrupt:
        sys.stderr.write("\n")
        print("Interrupted; progress drained to the journal and cache.")
        if journal is not None:
            print(
                "Resume with: repro-locking run {} --resume --journal {}".format(
                    args.exhibit, journal
                )
            )
        else:
            print(
                "Re-running the same command will reuse cached cells; "
                "pass --journal/--resume for journalled progress."
            )
        return 130
    finally:
        if metrics_server is not None:
            metrics_server.stop()
    print(result.stats.summary())
    if metrics is not None:
        from repro.obs.metrics import summarize_snapshot

        flat = summarize_snapshot(metrics.snapshot())
        counters = flat["counters"]
        commits = counters.get("repro_txn_commits_total", 0)
        if commits:
            aborts = sum(
                value for name, value in counters.items()
                if name.startswith("repro_txn_aborts_total")
            )
            print(
                "Metrics: {:.0f} commits, {:.0f} aborts, "
                "{:.0f} lock waits across the sweep.".format(
                    commits, aborts,
                    sum(
                        entry["count"]
                        for name, entry in flat["histograms"].items()
                        if name.startswith("repro_lock_wait_time")
                    ),
                )
            )
    from repro.experiments.report import accelerator_note

    note = accelerator_note(result.stats)
    if note:
        print(note)
    if result.stats.resumed:
        print(
            "Resumed {} previously completed cells from the journal.".format(
                result.stats.resumed
            )
        )
    if result.stats.watchdog_restarts:
        print(
            "Watchdog killed and retried {} stalled cells.".format(
                result.stats.watchdog_restarts
            )
        )
    for y_field in spec.y_fields:
        print()
        print(format_series_table(result, y_field))
        print()
        print(summarize_optima(result, y_field))
        if args.plot:
            print()
            print(ascii_plot(result, y_field))
    if spec.expected_shape:
        print()
        print("Paper's expected shape: {}".format(spec.expected_shape))
    if args.save:
        save_rows_csv(result.rows(), args.save)
        print("Rows written to {}".format(args.save))
    if args.json:
        save_rows_json(
            result.rows(), args.json, metadata={"exhibit": spec.key}
        )
        print("Rows written to {}".format(args.json))
    if args.svg:
        import os

        from repro.experiments.svg import save_result_charts

        os.makedirs(args.svg, exist_ok=True)
        for path in save_result_charts(result, args.svg):
            print("Chart written to {}".format(path))
    return 0


def _command_predict(args):
    """Analytic prediction(s) — milliseconds, no simulation."""
    from repro.analytic.mva import predict

    base = _build_params(args)
    if args.ltot_grid:
        configs = [base.replace(ltot=ltot) for ltot in args.ltot_grid]
    else:
        configs = [base]
    fields = (
        "throughput", "response_time", "blocking_prob",
        "lock_overhead_frac", "effective_mpl", "attempts",
    )
    print(
        "{:>8s}".format("ltot")
        + "".join("{:>20s}".format(f) for f in fields)
        + "  {}".format("flags")
    )
    rows = []
    for params in configs:
        prediction = predict(params)
        flags = []
        if not prediction.converged:
            flags.append("not converged")
        if prediction.uncertainty >= 0.5:
            flags.append("uncertain ({:.2f})".format(prediction.uncertainty))
        print(
            "{:>8d}".format(params.ltot)
            + "".join(
                "{:>20.6g}".format(getattr(prediction, f)) for f in fields
            )
            + "  {}".format(", ".join(flags))
        )
        for entry in prediction.per_class:
            print(
                "{:>8s}  class {}: throughput={:.6g} "
                "response_time={:.6g} attempts={:.6g}".format(
                    "", entry["txn_class"], entry["throughput"],
                    entry["response_time"], entry["mean_attempts"],
                )
            )
        rows.append(prediction.as_dict())
    print(
        "(semantics: {}; analytic mean-value model — validate with "
        "'repro-locking crossval')".format(prediction.semantics)
    )
    if args.json:
        save_rows_json(rows, args.json, metadata={"provenance": "analytic"})
        print("Predictions written to {}".format(args.json))
    return 0


def _command_crossval(args):
    """Validate the analytic model against the simulator on a grid."""
    import json

    from repro.experiments.crossval import (
        MIN_COMPLETIONS,
        cross_validate_analytic,
        save_crossval_chart,
    )

    changes = {}
    if args.tmax is not None:
        changes["tmax"] = args.tmax
    if args.ltot_grid:
        changes["ltot_grid"] = args.ltot_grid
    if args.protocol:
        from repro.policies import registry

        changes["protocol"] = args.protocol
        if getattr(registry.resolve("cc", args.protocol), "needs_granules", False):
            changes["conflict_engine"] = "explicit"
    spec = _exhibit_spec(args.exhibit, npros_grid=args.npros_grid, **changes)
    print(
        "Cross-validating {} ({} configurations, tmax={}) against the "
        "analytic model...".format(
            spec.key, len(spec.configurations()), spec.base.tmax
        )
    )
    crossval, _result = cross_validate_analytic(
        spec,
        field=args.field,
        replications=args.replications,
        min_completions=(
            args.min_completions
            if args.min_completions is not None
            else MIN_COMPLETIONS
        ),
        jobs=args.jobs,
        cache=_cache_from_args(args),
    )
    print(crossval.format())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(crossval.as_dict(), handle, indent=2)
        print("Comparison written to {}".format(args.json))
    if args.svg:
        save_crossval_chart(crossval, args.svg)
        print("Overlay chart written to {}".format(args.svg))
    if args.max_mean_error is not None:
        if not crossval.passes(args.max_mean_error):
            print(
                "FAIL: mean relative error {:.1%} exceeds the {:.1%} "
                "bound".format(
                    crossval.mean_relative_error, args.max_mean_error
                )
            )
            return 1
        print(
            "PASS: mean relative error {:.1%} within the {:.1%} "
            "bound".format(crossval.mean_relative_error, args.max_mean_error)
        )
    return 0


def _command_faults(args):
    """Availability-vs-granularity sweep under an injected fault plan.

    Faulted runs are *not* cached: the fault plan is harness input
    that deliberately stays outside the content address, so results
    go straight from the model to the table (and are reproducible
    from the seeds alone).  With ``--journal``/``--resume`` each
    cell's outputs are journalled inline instead, which is what an
    interrupted faulted sweep resumes from, bit-identically.
    """
    import json as json_module
    from dataclasses import asdict

    from repro.experiments.config import ExperimentSpec
    from repro.faults import (
        CrashSpec,
        FaultPlan,
        LinkDelaySpec,
        PartitionSpec,
        SlowdownSpec,
        StallSpec,
        make_backoff_policy,
    )

    crashes = ()
    if args.mttf is not None:
        crashes = (
            CrashSpec(
                mttf=args.mttf,
                mttr=args.mttr,
                first_failure_after=args.first_failure_after,
            ),
        )
    slowdowns = ()
    if args.disk_mtbf is not None:
        slowdowns = (
            SlowdownSpec(
                mtbf=args.disk_mtbf,
                duration=args.disk_duration,
                factor=args.disk_factor,
            ),
        )
    stalls = ()
    if args.stall_mtbf is not None:
        stalls = (
            StallSpec(
                mtbf=args.stall_mtbf,
                duration=args.stall_duration,
                factor=args.stall_factor,
            ),
        )
    partitions = ()
    if args.partition_mtbf is not None:
        partitions = (
            PartitionSpec(
                mtbf=args.partition_mtbf,
                duration=args.partition_duration,
                first_after=args.partition_first_after,
            ),
        )
    link_delays = ()
    if args.link_delay_mtbf is not None:
        link_delays = (
            LinkDelaySpec(
                mtbf=args.link_delay_mtbf,
                duration=args.link_delay_duration,
                extra=args.link_delay_extra,
            ),
        )
    plan = FaultPlan(
        crashes=crashes,
        disk_slowdowns=slowdowns,
        lock_stalls=stalls,
        partitions=partitions,
        link_delays=link_delays,
        seed=args.fault_seed,
    )
    if not plan.enabled():
        print(
            "No fault source enabled (pass --mttf, --disk-mtbf, "
            "--stall-mtbf, --partition-mtbf or --link-delay-mtbf); "
            "running fault-free baseline."
        )
    backoff = make_backoff_policy(args.backoff)
    overrides = _parameter_overrides(args, skip=("ltot",))
    sweeps = {}
    series_fields = ()
    if args.commit_grid:
        nnodes = overrides.get("nnodes", SimulationParameters().nnodes)
        if nnodes < 2 and any(p != "local" for p in args.commit_grid):
            raise _BadParameters(
                "--commit-grid with distributed protocols needs --nnodes >= 2"
            )
        sweeps["commit_protocol"] = args.commit_grid
        series_fields = ("commit_protocol",)
    sweeps["ltot"] = args.ltot_grid
    distributed = (
        overrides.get("nnodes", 1) > 1 or bool(args.commit_grid)
    )
    fields = (
        "throughput",
        "availability",
        "failure_aborts",
        "degraded_throughput",
        "response_time",
    )
    if distributed:
        fields += (
            "commit_aborts",
            "commit_latency",
            "messages_sent",
            "messages_dropped",
            "partition_time",
        )
    try:
        spec = ExperimentSpec(
            key="faults",
            title="Availability vs granularity under injected faults",
            base=SimulationParameters(**overrides),
            sweeps=sweeps,
            series_fields=series_fields,
            y_fields=("availability", "throughput"),
        )
        configs = spec.configurations()
    except ValueError as exc:
        raise _BadParameters(str(exc)) from None
    print(
        "Faulted sweep: ltot in {}, {} replications, backoff={}{}".format(
            list(args.ltot_grid), args.replications, args.backoff,
            ", commit in {}".format(list(sweeps["commit_protocol"]))
            if "commit_protocol" in sweeps else "",
        )
    )
    metrics = None
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        metrics_server = _serve_metrics(metrics, args.metrics_port)
    try:
        result = run_experiment(
            spec,
            replications=args.replications,
            jobs=args.jobs,
            cache=False,
            journal=args.journal,
            resume=args.resume,
            drain_signals=True,
            fault_plan=plan,
            backoff=backoff,
            metrics=metrics,
        )
    except KeyboardInterrupt:
        print("Interrupted; progress drained to the journal.")
        if args.journal is not None:
            print(
                "Resume by re-running the same command with --resume "
                "--journal {}".format(args.journal)
            )
        return 130
    finally:
        if metrics_server is not None:
            metrics_server.stop()
    if result.stats.resumed:
        print(
            "Resumed {} previously completed cells from the "
            "journal.".format(result.stats.resumed)
        )
    label_width = max(
        (len(spec.series_label(c)) for c in configs), default=0
    )
    header = "{:>8s}".format("ltot") + "".join(
        "{:>20s}".format(f) for f in fields
    )
    if series_fields:
        header = "{:<{w}s}".format("series", w=label_width + 2) + header
    print(header)
    rows = []
    for outcome in result.outcomes:
        row = {}
        for name in series_fields:
            row[name] = getattr(outcome.params, name)
        row["ltot"] = outcome.params.ltot
        for f in fields:
            row[f] = outcome.mean(f)
        rows.append(row)
        line = "{:>8d}".format(row["ltot"]) + "".join(
            "{:>20.6g}".format(row[f]) for f in fields
        )
        if series_fields:
            line = "{:<{w}s}".format(
                spec.series_label(outcome.params), w=label_width + 2
            ) + line
        print(line)
    if args.save:
        save_rows_csv(rows, args.save)
        print("Rows written to {}".format(args.save))
    if args.json is not None:
        document = {
            "plan": asdict(plan),
            "plan_digest": plan.digest(),
            "backoff": args.backoff,
            "replications": args.replications,
            "rows": rows,
        }
        if args.json == "-":
            json_module.dump(document, sys.stdout, indent=1, sort_keys=True)
            print()
        else:
            with open(args.json, "w") as handle:
                json_module.dump(document, handle, indent=1, sort_keys=True)
            print("JSON table written to {}".format(args.json))
    return 0


def _command_simulate(args):
    params = _build_params(args)
    if args.trace:
        from repro.core.model import LockingGranularityModel
        from repro.des.trace import Trace

        trace = Trace()
        result = LockingGranularityModel(params, trace=trace).run()
        print(trace.format(limit=args.trace))
        print("({} events total)".format(len(trace)))
    else:
        result = simulate(params)
    print("Parameters:")
    for key, value in sorted(result.params.as_dict().items()):
        print("  {:24s} {}".format(key, value))
    print("Outputs:")
    for name in RESULT_FIELDS:
        print("  {:24s} {}".format(name, getattr(result, name)))
    for entry in result.per_class:
        print("Class {}:".format(entry["txn_class"]))
        for key, value in entry.items():
            if key != "txn_class":
                print("  {:24s} {}".format(key, value))
    return 0


def _command_tune(args):
    from repro.experiments.search import find_optimal_ltot

    params = _build_params(args, tmax=args.tmax)
    outcome = find_optimal_ltot(
        params,
        objective=args.objective,
        maximize=not args.minimize,
        replications=args.replications,
    )
    print("Evaluated {} granularities:".format(len(outcome.evaluations)))
    for ltot in sorted(outcome.evaluations):
        marker = "  <-- best" if ltot == outcome.best_ltot else ""
        print("  ltot={:>6d}  {}={:.6g}{}".format(
            ltot, args.objective, outcome.evaluations[ltot], marker))
    print("Optimal granularity: ltot = {} ({} = {:.6g})".format(
        outcome.best_ltot, args.objective, outcome.best_value))
    return 0


def _command_sensitivity(args):
    from repro.experiments.sensitivity import (
        analyze_sensitivity,
        format_sensitivities,
    )

    params = _build_params(args, tmax=args.tmax)
    results = analyze_sensitivity(
        params,
        output=args.output,
        delta=args.delta,
        replications=args.replications,
    )
    print(
        "Elasticity of {} to ±{:.0%} parameter changes:".format(
            args.output, args.delta
        )
    )
    print(format_sensitivities(results))
    return 0


def _command_trace(args):
    from repro.core.model import MODEL_VERSION, LockingGranularityModel
    from repro.obs import (
        JsonlTraceSink,
        TimeSeriesRecorder,
        build_manifest,
        write_manifest,
    )

    params = _build_params(args)
    sink = JsonlTraceSink(
        args.out,
        params=params.as_dict(),
        model_version=MODEL_VERSION,
        seed=params.seed,
    )
    started = time.perf_counter()
    model = LockingGranularityModel(params, trace=sink)
    recorder = None
    if args.sample_interval > 0:
        recorder = TimeSeriesRecorder(args.sample_interval)
        recorder.install(model)
    result = model.run()
    wall = time.perf_counter() - started
    if recorder is not None:
        recorder.export(sink)
    sink.close(
        totcom=result.totcom,
        throughput=result.throughput,
        wall_seconds=round(wall, 4),
    )
    manifest_path = args.out + ".manifest"
    write_manifest(
        manifest_path,
        build_manifest(params, cache_hit=False, wall_seconds=wall),
    )
    if args.print_events:
        from repro.obs import load_trace

        print(load_trace(args.out).to_trace().format(limit=args.print_events))
    print(
        "Telemetry written to {} ({} events, {} samples) "
        "+ manifest {}".format(
            args.out, sink.events, sink.samples, manifest_path
        )
    )
    print(
        "Run: totcom={} throughput={:.4g} in {:.2f}s".format(
            result.totcom, result.throughput, wall
        )
    )
    return 0


def _command_report(args):
    from repro.obs import format_report, load_trace, report_json, save_report_chart

    tracefile = _read_input(load_trace, args.telemetry)
    if args.json is not None:
        import json

        document = report_json(tracefile, top=args.top)
        if args.json == "-":
            json.dump(document, sys.stdout, indent=1, sort_keys=True)
            print()
        else:
            with open(args.json, "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
            print("JSON report written to {}".format(args.json))
    else:
        print(format_report(tracefile, top=args.top))
    if args.svg:
        path = save_report_chart(tracefile, args.svg)
        print()
        print("Timeline chart written to {}".format(path))
    return 0


def _command_top(args):
    from repro.obs.top import run_top

    try:
        journal = run_top(
            args.journal,
            snapshot_path=args.snapshot,
            interval=args.interval,
            frames=args.frames,
            once=args.once,
            follow=args.follow,
        )
    except KeyboardInterrupt:
        print()
        return 130
    return 0 if journal.get("cells") is not None else 1


def _command_compare(args):
    from repro.experiments.storage import load_rows_csv

    def key_of(row):
        return tuple(
            (name, row.get(name))
            for name in ("ltot", "npros", "placement", "maxtransize",
                         "partitioning", "ntrans", "liotime")
            if name in row
        )

    baseline = {
        key_of(row): row for row in _read_input(load_rows_csv, args.baseline)
    }
    candidate = {
        key_of(row): row for row in _read_input(load_rows_csv, args.candidate)
    }
    shared = [key for key in baseline if key in candidate]
    if not shared:
        print("No overlapping configurations between the two files.")
        return 1
    flagged = 0
    print("{:>60s}  {:>10s}  {:>10s}  {:>8s}".format(
        "configuration", "baseline", "candidate", "delta"))
    for key in shared:
        base_value = baseline[key].get(args.field)
        cand_value = candidate[key].get(args.field)
        if base_value in (None, 0) or cand_value is None:
            continue
        delta = (cand_value - base_value) / abs(base_value)
        label = ", ".join("{}={}".format(k, v) for k, v in key)
        mark = ""
        if abs(delta) >= args.threshold:
            flagged += 1
            mark = "  <-- {}".format("improved" if delta > 0 else "regressed")
        print("{:>60s}  {:>10.4g}  {:>10.4g}  {:>+7.1%}{}".format(
            label[-60:], base_value, cand_value, delta, mark))
    print("{} of {} shared configurations changed by >= {:.0%} in {}.".format(
        flagged, len(shared), args.threshold, args.field))
    return 0


def main(argv=None):
    """Entry point of the ``repro-locking`` console script.

    An unknown policy name (``--cc wond-wait``) exits with status 2
    and the registry's close-match suggestions instead of a traceback;
    so does any other bad input — an invalid configuration
    (``--dbsize 0``), an unknown exhibit or an unreadable input file —
    with its ``error:`` message.  Malformed grids and counts
    (``--ltot-grid x``, ``--replications 0``) are argparse usage
    errors, which also exit 2.
    """
    from repro.policies import UnknownPolicyError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnknownPolicyError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        print(
            "Run 'repro-locking policies' to list every registered "
            "policy.",
            file=sys.stderr,
        )
        return 2
    except _BadParameters as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2


_COMMANDS = {
    "list": _command_list,
    "policies": _command_policies,
    "run": _command_run,
    "predict": _command_predict,
    "crossval": _command_crossval,
    "faults": _command_faults,
    "simulate": _command_simulate,
    "tune": _command_tune,
    "sensitivity": _command_sensitivity,
    "trace": _command_trace,
    "report": _command_report,
    "top": _command_top,
    "compare": _command_compare,
}


if __name__ == "__main__":
    sys.exit(main())
