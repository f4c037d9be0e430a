"""Command-line interface.

``python -m repro`` exposes the most common operations without writing any
code:

* ``run``       — run scenarios described by JSON spec files: one
  (``repro run --spec scenario.json``), a whole directory
  (``repro run --spec-dir specs/ --workers 4``) or an explicit fleet
  (``repro run --specs a.json b.json``); batch runs reuse the sweep worker
  pool and can persist a run directory of records (``--run-dir``).
* ``report``    — render metric tables from a run directory written by a
  previous batch run or sweep (``repro report runs/demo --metric X``).
* ``compare``   — run SPMS and SPIN on the same scenario and print the
  headline metrics (energy per item, average delay, delivery ratio).
* ``sweep``     — expand a registered scenario matrix into independent jobs
  and execute them across a supervised worker pool, optionally appending
  the records to a run directory (``--run-dir``) that ``--resume`` serves
  finished jobs from; fault tolerance is first-class (``--job-timeout``,
  ``--max-retries``, and the deterministic ``--chaos`` fault-injection dev
  flag).
* ``list``      — list registered components (protocols, workloads,
  placements, mobility/failure/contention models) or scenario matrices.
* ``lint``      — run the AST-based determinism/invariant linter
  (``repro lint src tests``); non-zero exit on findings, so CI can gate on
  it.
* ``figure``    — regenerate one of the paper's figures and print its rows.
* ``list-figures`` — list the available figure names.
* ``table1``    — print the Table 1 parameter set.

Examples::

    python -m repro run --spec examples/spec_smoke.json
    python -m repro run --spec-dir examples/ --workers 2 --run-dir runs/demo
    python -m repro report runs/demo --metric energy_per_item_uj
    python -m repro list protocols
    python -m repro list placements
    python -m repro compare --nodes 49 --radius 20
    python -m repro sweep fig06 --workers 4
    python -m repro sweep fig06 --workers 4 --run-dir runs/fig06 --resume
    python -m repro sweep fig06 --workers 2 --job-timeout 30 --max-retries 1
    python -m repro sweep --list
    python -m repro figure fig6
    python -m repro figure fig3
    python -m repro table1

Exit codes: 0 success; 1 lint findings; 2 usage or input errors, including a
run directory this build cannot read; 3 partial failure — a sweep that
quarantined or was interrupted mid-run, or ``repro report --strict`` on a run
directory with a quarantined job that no later run has recorded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.build import BUILTIN_KINDS, PROTOCOL, SimulationBuilder, default_registry
from repro.experiments import figures
from repro.experiments.claims import delay_ratio, energy_saving_percent
from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    SpecValidationError,
)
from repro.experiments.chaos import ChaosSpec, ChaosSpecError
from repro.experiments.executor import ExecutionReport, assemble_sweep, execute_jobs
from repro.experiments.matrix import SweepJob, available_matrices, get_matrix
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.experiments.scenarios import (
    ScenarioSpec,
    all_to_all_scenario,
    cluster_scenario,
)
from repro.results import HEADLINE_METRICS, RunRecord, RunStore, RunStoreError
from repro.routing.manager import RoutingManager

#: Exit code of a run that finished but could not complete every job: a
#: sweep with quarantined failures or an interrupt-shortened pool, and
#: ``report --strict`` over a run directory with a failure no record resolves.
#: Distinct from 2 (usage errors) so CI can tell "you called it wrong" from
#: "it ran and some jobs died" — the chaos smoke test pins this.
EXIT_PARTIAL_FAILURE = 3

#: Metric names accepted by ``sweep --metric`` / ``report --metric`` — the
#: numeric scalar headline metrics every record exposes (names like
#: ``protocol`` or dict-valued fields such as ``packets_sent`` are not
#: tabulatable and are rejected up front).
METRIC_NAMES = tuple(sorted(HEADLINE_METRICS))

def _listing_name(kind: str) -> str:
    """User-facing (pluralised) name of a registry kind."""
    return kind if kind in ("mobility", "contention") else f"{kind}s"


#: `repro list` targets, derived from the registry kinds so a new built-in
#: kind automatically becomes listable; plural name -> kind (None = matrices).
LISTABLE_KINDS: Dict[str, Optional[str]] = {
    _listing_name(kind): kind for kind in BUILTIN_KINDS
}
LISTABLE_KINDS["matrices"] = None

ANALYTICAL_FIGURES = {
    "fig3": (figures.figure3_delay_ratio, "SPIN/SPMS delay ratio vs radius (analytical)"),
    "fig5": (figures.figure5_energy_ratio, "SPIN/SPMS energy ratio vs radius (analytical)"),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPMS (DSN 2004) reproduction — comparisons and figure regeneration.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run scenarios described by JSON spec files"
    )
    sources = run.add_mutually_exclusive_group(required=True)
    sources.add_argument(
        "--spec",
        help="path to a JSON scenario spec ('-' reads stdin); "
             "see ScenarioSpec.to_dict for the schema",
    )
    sources.add_argument(
        "--spec-dir",
        help="run every *.json spec in a directory as one batch (fleet mode)",
    )
    sources.add_argument(
        "--specs", nargs="+", metavar="SPEC",
        help="run an explicit list of spec files as one batch",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for batch runs (1 = serial)",
    )
    run.add_argument(
        "--run-dir", default=None,
        help="run directory to append batch records to (see 'repro report')",
    )
    run.add_argument(
        "--keep-raw", action="store_true",
        help="also store the raw per-run metrics blob (per-delivery delays, "
             "per-node energy) in the run directory; needs --run-dir and a "
             "single --spec",
    )
    run.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full result(s) as JSON instead of the summary table",
    )

    report = subparsers.add_parser(
        "report", help="render metric tables from a run directory"
    )
    report.add_argument("run_dir", help="run directory written by 'repro run --run-dir'")
    report.add_argument(
        "--metric", default="energy_per_item_uj", choices=METRIC_NAMES,
        metavar="METRIC",
        help="record metric to tabulate (default: energy_per_item_uj)",
    )
    report.add_argument(
        "--protocol", default=None, help="only report records of this protocol"
    )
    report.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the selected records as JSON instead of a table",
    )
    report.add_argument(
        "--strict", action="store_true",
        help=f"exit {EXIT_PARTIAL_FAILURE} while a quarantined job failure "
             "(failures.jsonl) has no record yet; a later run (--resume) that "
             "records the job resolves it. CI gates use this",
    )

    list_cmd = subparsers.add_parser(
        "list", help="list registered components or scenario matrices"
    )
    list_cmd.add_argument(
        "what", choices=sorted(LISTABLE_KINDS),
        help="which registry to list",
    )

    compare = subparsers.add_parser("compare", help="run SPMS and SPIN on one scenario")
    compare.add_argument("--nodes", type=int, default=49, help="number of sensor nodes")
    compare.add_argument("--radius", type=float, default=20.0, help="transmission radius (m)")
    compare.add_argument(
        "--packets", type=int, default=None,
        help="data items per node (all_to_all, default 1) or per cluster "
             "member (cluster, default 2)",
    )
    compare.add_argument("--seed", type=int, default=1, help="random seed")
    compare.add_argument(
        "--workload", choices=("all_to_all", "cluster"), default="all_to_all"
    )
    compare.add_argument("--failures", action="store_true", help="inject transient failures")
    compare.add_argument("--mobility", action="store_true", help="enable step mobility")

    sweep = subparsers.add_parser(
        "sweep", help="run a registered scenario matrix across a worker pool"
    )
    sweep.add_argument(
        "matrix", nargs="?", default=None,
        help="registered matrix name (see --list), e.g. fig06",
    )
    sweep.add_argument("--list", action="store_true", help="list registered matrices")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; results are identical either way)",
    )
    sweep.add_argument(
        "--scale", choices=("bench", "paper"), default="bench",
        help="grid size preset for the figure matrices",
    )
    sweep.add_argument(
        "--seed", type=int, default=None,
        help="override the matrix base seed (per-job seeds derive from it)",
    )
    sweep.add_argument(
        "--run-dir", default=None,
        help="run directory to append the sweep's records to (see 'repro report')",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="serve jobs whose spec --run-dir already holds a record of "
             "instead of re-running them",
    )
    sweep.add_argument(
        "--metric", default="energy_per_item_uj",
        help="record metric printed in the sweep table",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    sweep.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget; a hung job's worker is killed "
             "and the job retried (needs --workers >= 2)",
    )
    sweep.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per job after its first failed attempt before the job "
             "is quarantined to failures.jsonl (default: 2)",
    )
    sweep.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection (dev/testing): comma-separated "
             "INDEX:MODE[:ATTEMPT] tokens, MODE in raise/hang/kill — e.g. "
             "'0:raise,2:hang,4:kill' (hang/kill need --workers >= 2)",
    )

    lint = subparsers.add_parser(
        "lint", help="run the AST-based determinism/invariant linter"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="RULES",
        help="comma-separated rule-id prefixes to run (e.g. D,T402); "
             "default: every rule; a prefix matching no rule is an error",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="RULES",
        help="comma-separated rule-id prefixes to skip",
    )
    lint.add_argument(
        "--root", default=None, metavar="DIR",
        help="project root (default: nearest ancestor with pyproject.toml)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the rules and exit",
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the machine-readable report instead of text",
    )

    figure = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("name", choices=sorted(figures.FIGURES) + sorted(ANALYTICAL_FIGURES))
    figure.add_argument(
        "--scale", choices=("bench", "paper"), default="bench",
        help="sweep size for simulated figures",
    )

    subparsers.add_parser("list-figures", help="list the figures that can be regenerated")
    subparsers.add_parser("table1", help="print the Table 1 parameter set")
    return parser


def _cmd_run(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.keep_raw and not args.run_dir:
        out("--keep-raw needs --run-dir (there is no store for the raw blob)")
        return 2
    if args.keep_raw and args.spec is None:
        out("--keep-raw only applies to single --spec runs "
            "(batch workers reduce metrics in-process and ship summaries only)")
        return 2
    store = RunStore(args.run_dir).open() if args.run_dir else None
    if args.spec is not None:
        return _run_single_spec(args, store, out)
    return _run_spec_batch(args, store, out)


class _Preflight(SimulationBuilder):
    """Every build phase that can reject a spec, without routing tables.

    A fleet's pre-flight check: Bellman-Ford is most of a large spec's build
    and cannot reject a spec, so the tables are left to the run.
    """

    def build_routing(self) -> None:
        if self.registry.metadata(PROTOCOL, self.protocol).get("needs_routing"):
            self.routing = RoutingManager(self.field, self.power_table, self.zone_map)


def _build(
    spec: ScenarioSpec, builder: Type[SimulationBuilder] = ExperimentRunner
) -> Tuple[Optional[SimulationBuilder], str]:
    """*spec* built by *builder*, or ``(None, reason)``.

    Only construction errors (unknown components, bad option values, option
    keys a component does not take) are a spec problem worth a clean exit
    code; once built, the scenario runs unguarded so genuine simulation bugs
    surface with their traceback.
    """
    try:
        built = builder(spec).build()
    except (KeyError, TypeError, ValueError) as exc:
        return None, str(exc)
    return built, ""


def _run_single_spec(
    args: argparse.Namespace, store: Optional[RunStore], out: Callable[[str], None]
) -> int:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.spec)
        if not path.is_file():
            out(f"spec file not found: {path}")
            return 2
        text = path.read_text()
    try:
        spec = ScenarioSpec.from_json(text)
    except SpecValidationError as exc:
        out(f"invalid spec: {exc}")
        return 2
    runner, error = _build(spec)
    if runner is None:
        out(f"scenario failed to build: {error}")
        return 2
    record = runner.run_record()
    if store is not None:
        raw = runner.raw_metrics() if args.keep_raw else None
        record = store.append(record, raw=raw)
    if args.as_json:
        flat = {
            **record.as_dict(),
            "energy_breakdown_uj": record.energy_breakdown_uj,
            "packets_sent": record.packets_sent,
            "packets_dropped": record.packets_dropped,
        }
        out(json.dumps(flat, sort_keys=True, indent=1))
        return 0
    out(f"scenario {record.scenario!r} (protocol={record.protocol}, "
        f"nodes={record.num_nodes}, radius={record.transmission_radius_m:g} m)")
    for key, value in record.as_dict().items():
        if key in ("protocol", "scenario", "num_nodes", "transmission_radius_m"):
            continue
        out(f"  {key:<24} {value:.4f}" if isinstance(value, float) else f"  {key:<24} {value}")
    if args.run_dir:
        suffix = f" (raw blob: {record.raw_ref})" if args.keep_raw else ""
        out(f"record appended to {args.run_dir}{suffix}")
    return 0


def _load_spec_fleet(
    args: argparse.Namespace, out: Callable[[str], None]
) -> Optional[List[Tuple[str, ScenarioSpec]]]:
    """The (name, spec) fleet of a batch run, or ``None`` on a user error."""
    if args.spec_dir is not None:
        spec_dir = Path(args.spec_dir)
        if not spec_dir.is_dir():
            out(f"spec directory not found: {spec_dir}")
            return None
        paths = sorted(spec_dir.glob("*.json"))
        if not paths:
            out(f"no *.json specs in {spec_dir}")
            return None
    else:
        paths = [Path(p) for p in args.specs]
    fleet: List[Tuple[str, ScenarioSpec]] = []
    seen: Dict[str, int] = {}
    for path in paths:
        if not path.is_file():
            out(f"spec file not found: {path}")
            return None
        try:
            spec = ScenarioSpec.from_json(path.read_text())
        except SpecValidationError as exc:
            out(f"invalid spec {path}: {exc}")
            return None
        # File stems name the runs; duplicates get a #N suffix so records
        # from e.g. repeated `--specs a.json a.json` stay distinguishable.
        name = path.stem
        if name in seen:
            seen[name] += 1
            name = f"{name}#{seen[name]}"
        else:
            seen[name] = 0
        fleet.append((name, spec))
    return fleet


def _run_spec_batch(
    args: argparse.Namespace, store: Optional[RunStore], out: Callable[[str], None]
) -> int:
    fleet = _load_spec_fleet(args, out)
    if fleet is None:
        return 2
    # Check every spec before the pool spins up: a spec that cannot be built
    # fails the fleet with exit 2 instead of being retried and quarantined
    # in a worker.
    for name, spec in fleet:
        built, error = _build(spec, _Preflight)
        if built is None:
            out(f"scenario {name!r} failed to build: {error}")
            return 2
    jobs = [
        SweepJob(
            index=index,
            key=name,
            matrix="batch",
            parameter="spec",
            value=name,
            protocol=spec.protocol,
            spec=spec,
            axes={"spec": name},
        )
        for index, (name, spec) in enumerate(fleet)
    ]
    out(f"batch: {len(jobs)} spec(s), workers={args.workers}"
        + (f", run-dir={args.run_dir}" if args.run_dir else ""))

    def progress(completion):
        if args.as_json:
            return
        failure = completion.failure
        if failure is not None:
            out(
                f"  [fail] {completion.job.key}: quarantined after "
                f"{failure.attempt_count} attempt(s) — {failure.last_detail}"
            )
            return
        record = completion.record
        out(
            f"  [done] {record.key} ({record.protocol}): "
            f"energy/item={record.energy_per_item_uj:.3f} uJ, "
            f"delay={record.average_delay_ms:.2f} ms, "
            f"delivered={record.delivery_ratio:.0%}"
        )

    by_key, report = execute_jobs(
        jobs, workers=args.workers, progress=progress, store=store
    )
    records = sorted(by_key.values(), key=lambda r: r.key)
    if args.as_json:
        out(json.dumps([r.to_dict() for r in records], sort_keys=True, indent=1))
        return _exit_code(report)
    out("")
    out(_record_table(records, "energy_per_item_uj"))
    if store is not None:
        out("")
        out(f"{len(records)} record(s) appended to {args.run_dir}")
    if report.failures:
        out(f"{len(report.failures)} spec(s) FAILED"
            + (f"; see {store.failures_path}" if store is not None else ""))
    _note_interrupt(report, out)
    return _exit_code(report)


def _note_interrupt(report: ExecutionReport, out: Callable[[str], None]) -> None:
    if report.interrupted:
        out(
            f"interrupted: {report.completed}/{report.total_jobs} job(s) "
            "completed before shutdown"
        )


def _exit_code(report: ExecutionReport) -> int:
    """3 when a job list ran only in part (quarantined or interrupted)."""
    return EXIT_PARTIAL_FAILURE if report.quarantined or report.interrupted else 0


def _record_table(records: Sequence[RunRecord], metric: str) -> str:
    """Fixed-width key/protocol/metric table over *records*."""
    key_width = max([len("run")] + [len(r.key) for r in records])
    header = f"{'run':<{key_width}} {'protocol':>10} {metric:>20}"
    lines = [header, "-" * len(header)]
    for record in records:
        value = getattr(record, metric, None)
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"{record.key:<{key_width}} {record.protocol:>10} {rendered:>20}")
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    store = RunStore(args.run_dir)
    if not Path(args.run_dir).is_dir():
        out(f"run directory not found: {args.run_dir}")
        return 2
    records = list(store.records())
    failures = store.failures()
    # A quarantined job that a later run (``--resume``) recorded is resolved;
    # checked against every record, not only the --protocol selection.
    recorded = {record.key for record in records}
    pending = [f for f in failures if f.key not in recorded]
    resolved = [f for f in failures if f.key in recorded]
    if args.protocol is not None:
        records = [r for r in records if r.protocol == args.protocol]
    if not records and not failures:
        out(f"no records in {args.run_dir}"
            + (f" for protocol {args.protocol!r}" if args.protocol else ""))
        return 2
    records = sorted(records, key=lambda r: r.key)
    if args.as_json:
        out(json.dumps([r.to_dict() for r in records], sort_keys=True, indent=1))
        return EXIT_PARTIAL_FAILURE if (args.strict and pending) else 0
    out(f"{len(records)} record(s) in {args.run_dir}")
    out("")
    out(_record_table(records, args.metric))
    if pending:
        out("")
        out(f"{len(pending)} job(s) FAILED in this run (see {store.failures_path}):")
        for failure in sorted(pending, key=lambda f: f.key):
            out(
                f"  {failure.key}: {failure.last_outcome} after "
                f"{failure.attempt_count} attempt(s) — {failure.last_detail}"
            )
    if resolved:
        out("")
        out(f"{len(resolved)} quarantined job(s) completed by a later run:")
        for failure in sorted(resolved, key=lambda f: f.key):
            out(
                f"  {failure.key}: {failure.last_outcome} after "
                f"{failure.attempt_count} attempt(s), since recorded"
            )
    if store.partial_path.is_file():
        out("")
        out(
            f"note: {store.partial_path} holds quarantined partial lines from an "
            "interrupted writer; the records above are unaffected"
        )
    if args.strict and pending:
        return EXIT_PARTIAL_FAILURE
    return 0


def _cmd_list(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    kind = LISTABLE_KINDS[args.what]
    if kind is None:
        for name in available_matrices():
            out(name)
        return 0
    registry = default_registry()
    names = registry.available(kind)
    if not names:
        out(f"no registered {args.what}")
        return 0
    for name in names:
        registration = registry.lookup(kind, name)
        suffix = ""
        if registration.aliases:
            suffix = f"  (aliases: {', '.join(registration.aliases)})"
        out(f"{name}{suffix}")
    return 0


def _cmd_compare(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    cluster = args.workload == "cluster"
    packets = args.packets if args.packets is not None else (2 if cluster else 1)
    config = SimulationConfig(
        num_nodes=args.nodes,
        transmission_radius_m=args.radius,
        packets_per_node=packets,
        seed=args.seed,
    )
    failures = FailureConfig() if args.failures else None
    mobility = MobilityConfig() if args.mobility else None
    results = {}
    for protocol in ("spms", "spin"):
        if cluster:
            spec = cluster_scenario(
                protocol, config, failures=failures, packets_per_member=packets
            )
        else:
            spec = all_to_all_scenario(protocol, config, failures=failures)
        results[protocol] = run_scenario(dataclasses.replace(spec, mobility=mobility))
    out(f"{'protocol':>10} {'energy/item (uJ)':>18} {'avg delay (ms)':>16} {'delivered':>10}")
    for protocol, result in results.items():
        out(
            f"{protocol:>10} {result.energy_per_item_uj:>18.3f} "
            f"{result.average_delay_ms:>16.2f} {result.delivery_ratio:>10.2%}"
        )
    out(
        f"SPMS saves {energy_saving_percent(results['spin'], results['spms']):.1f} % energy; "
        f"SPIN/SPMS delay ratio {delay_ratio(results['spin'], results['spms']):.2f}x"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.list or args.matrix is None:
        out("registered scenario matrices:")
        for name in available_matrices():
            out(f"  {name}")
        if args.matrix is None and not args.list:
            out("pick one: repro sweep <matrix> [--workers N]")
            return 2
        return 0
    if args.resume and not args.run_dir:
        out("--resume needs --run-dir (it serves the records the run "
            "directory already holds)")
        return 2
    chaos = None
    if args.chaos is not None:
        try:
            chaos = ChaosSpec.parse(args.chaos)
        except ChaosSpecError as exc:
            out(f"--chaos: {exc}")
            return 2
    if args.workers < 2:
        # Timeout enforcement and hang/kill injection act on *worker
        # processes*; a serial run has no supervisor to kill anything.
        if args.job_timeout is not None:
            out("--job-timeout needs --workers >= 2 (a serial run has no "
                "supervisor to kill a hung attempt)")
            return 2
        if chaos is not None and chaos.needs_pool():
            out(f"--chaos {chaos.describe()!r} injects hang/kill faults, "
                "which need --workers >= 2")
            return 2
    if args.job_timeout is not None and args.job_timeout <= 0:
        out(f"--job-timeout must be positive, got {args.job_timeout:g}")
        return 2
    if args.max_retries < 0:
        out(f"--max-retries must be >= 0, got {args.max_retries}")
        return 2
    scale = figures.paper_scale() if args.scale == "paper" else figures.bench_scale()
    try:
        matrix = get_matrix(args.matrix, scale=scale)
    except KeyError as exc:
        out(str(exc))
        return 2
    if args.seed is not None:
        matrix = dataclasses.replace(
            matrix, base_config=matrix.base_config.with_overrides(seed=args.seed)
        )
    if args.metric not in METRIC_NAMES:
        out(f"unknown metric {args.metric!r}; choose from: {', '.join(METRIC_NAMES)}")
        return 2
    store = RunStore(args.run_dir).open() if args.run_dir else None
    jobs = matrix.expand()
    out(
        f"sweep {matrix.name}: {len(jobs)} jobs "
        f"({matrix.parameter} x {sorted(set(j.protocol for j in jobs))}), "
        f"workers={args.workers}, seed_policy={matrix.seed_policy}"
    )

    if chaos is not None:
        out(f"chaos: injecting {chaos.describe()}")

    def progress(completion):
        if args.quiet:
            return
        job, record = completion.job, completion.record
        if record is None:
            out(f"  [ fail] {job.key}: quarantined after exhausting attempts")
            return
        source = "cache" if completion.from_cache else "run"
        out(
            f"  [{source:>5}] {job.key}: energy/item={record.energy_per_item_uj:.3f} uJ, "
            f"delay={record.average_delay_ms:.2f} ms, delivered={record.delivery_ratio:.0%}"
        )

    records, report = execute_jobs(
        jobs,
        workers=args.workers,
        resume=args.resume,
        progress=progress,
        store=store,
        job_timeout=args.job_timeout,
        max_attempts=args.max_retries + 1,
        chaos=chaos,
    )
    sweep = assemble_sweep(jobs, records)
    out("")
    out(sweep.format_table(args.metric))
    out("")
    retries = f", {report.retried} retried" if report.retried else ""
    quarantined = f", {report.quarantined} FAILED" if report.quarantined else ""
    out(
        f"{report.executed} simulated, {report.cache_hits} from cache"
        f"{retries}{quarantined}, {report.workers} worker(s), "
        f"{report.elapsed_s:.2f} s wall-clock"
    )
    ordered = [records[job.key] for job in jobs if job.key in records]
    items = sum(record.items_generated for record in ordered)
    if items:
        out(
            f"aggregate: {items} items, "
            f"{sum(record.deliveries_completed for record in ordered)} deliveries, "
            f"{sum(record.total_energy_uj for record in ordered):.1f} uJ total energy"
        )
    for failure in report.failures:
        out(
            f"failed: {failure.key} after {failure.attempt_count} attempt(s) "
            f"— {failure.last_outcome}: {failure.last_detail}"
        )
    if report.failures and store is not None:
        out(f"failure records appended to {store.failures_path}")
    _note_interrupt(report, out)
    return _exit_code(report)


def _split_rule_args(values: Sequence[str]) -> Tuple[str, ...]:
    """Flatten repeated/comma-separated ``--select``/``--ignore`` values."""
    rules: List[str] = []
    for value in values:
        rules.extend(token.strip() for token in value.split(",") if token.strip())
    return tuple(rules)


def _cmd_lint(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    # Imported here so `repro lint` stays self-contained: the linter runs on
    # stdlib ast only and never pulls the simulation stack into memory.
    from repro.lint import (
        RULES,
        LintConfig,
        find_project_root,
        render_json,
        render_text,
        run_lint,
    )
    from repro.lint.config import DEFAULT_PATHS

    if args.list_rules:
        for rule_class in sorted(RULES, key=lambda rule_class: rule_class.id):
            out(f"{rule_class.id}  {rule_class.name:<24} {rule_class.description}")
        return 0
    if args.root is not None:
        root = Path(args.root)
        if not root.is_dir():
            out(f"project root not found: {root}")
            return 2
    else:
        anchor = Path(args.paths[0]) if args.paths else Path.cwd()
        root = find_project_root(anchor if anchor.exists() else Path.cwd())
    report = run_lint(
        LintConfig(
            project_root=root.resolve(),
            paths=tuple(args.paths) or DEFAULT_PATHS,
            select=_split_rule_args(args.select),
            ignore=_split_rule_args(args.ignore),
        )
    )
    if args.as_json:
        out(render_json(report))
    else:
        for line in render_text(report):
            out(line)
    return report.exit_code


def _cmd_figure(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    if args.name in ANALYTICAL_FIGURES:
        generator, description = ANALYTICAL_FIGURES[args.name]
        out(f"{args.name}: {description}")
        for x, y in generator():
            out(f"{x:>12.2f} {y:>12.4f}")
        return 0
    figure = figures.FIGURES[args.name]
    scale = figures.paper_scale() if args.scale == "paper" else figures.bench_scale()
    out(f"{args.name}: {figure.description} [{args.scale} scale]")
    out(figures.render(args.name, scale).format_table(figure.metric))
    return 0


def _cmd_list_figures(out: Callable[[str], None]) -> int:
    for name, (_, description) in sorted(ANALYTICAL_FIGURES.items()):
        out(f"{name:>6}  {description}")
    for name, figure in sorted(figures.FIGURES.items()):
        out(f"{name:>6}  {figure.description}")
    return 0


def _cmd_table1(out: Callable[[str], None]) -> int:
    for key, value in figures.table1_parameters().items():
        out(f"{key:<42} {value}")
    return 0


def main(argv: Optional[Sequence[str]] = None, out: Callable[[str], None] = print) -> int:
    """CLI entry point.  Returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "report":
            return _cmd_report(args, out)
        if args.command == "list":
            return _cmd_list(args, out)
        if args.command == "compare":
            return _cmd_compare(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "lint":
            return _cmd_lint(args, out)
        if args.command == "figure":
            return _cmd_figure(args, out)
        if args.command == "list-figures":
            return _cmd_list_figures(out)
        if args.command == "table1":
            return _cmd_table1(out)
    except RunStoreError as exc:
        # A run directory written by another schema, or corrupted: an input
        # error, reported without a traceback.
        out(f"unreadable run directory: {exc}")
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
