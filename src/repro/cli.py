"""The ``repro`` command-line interface.

Subcommands:

* ``repro list`` — available workloads and built-in sweep specs.
* ``repro info`` — the default machine configuration as JSON.
* ``repro run WORKLOAD [--param k=v ...] [--trace-dir DIR]`` — one
  workload, metrics as JSON; ``--trace-dir`` streams each machine's trace
  to disk (``docs/traces.md``) for ``repro trace`` to inspect.
* ``repro trace {stats,dump,filter} DIR [--machine N] [--category C]
  [--node N] [--since C]`` — inspect a stored on-disk trace: summary
  stats, human-readable dump, or JSONL rows, streamed without loading
  the trace into memory.
* ``repro profile WORKLOAD [--sort cumtime|tottime|calls] [--limit N]`` —
  run one workload under :mod:`cProfile` and print the hottest functions
  (host-side cost, for tuning the simulator itself).
* ``repro snapshot WORKLOAD --at-cycle C --out FILE`` — run a workload's
  machine to cycle C, save a snapshot, and stop.
* ``repro resume SNAPSHOT [--max-cycles N]`` — restore a snapshot (in
  this fresh process) and run it to completion.
* ``repro sweep SPEC [--jobs N] [--results-dir D] [--force] [--dry-run]
  [--checkpoint-every N] [--report]`` — expand a built-in spec (or
  ``--spec-file``) and fan the runs out over a worker pool; completed runs
  found in the results directory are skipped, with ``--checkpoint-every``
  interrupted runs resume from their latest mid-run checkpoint instead of
  from cycle 0, and ``--report`` renders the paper-figure report when the
  sweep completes.
* ``repro report MANIFEST [-o DIR] [--check] [--format md|svg|both]`` —
  render a ``sweep-results.json`` manifest (or a results directory) into
  the paper's figures and tables; ``--check`` exits nonzero iff a measured
  metric falls outside its tolerance vs the paper's published values.
* ``repro validate RESULTS.json [--roundtrip]`` — schema-check a merged
  results file and exit nonzero on invalid, missing or failed records;
  ``--roundtrip`` additionally requires every record to survive the
  ``record -> RunResult -> record`` round-trip byte-identically.
* ``repro fuzz [--seed N] [--runs K] [--shrink] [--repro-dir D]
  [--knob k=v ...]`` — differential fuzzing (``docs/fuzzing.md``): each
  seeded generated program must be bit-identical across the event and
  naive kernels and across a mid-run snapshot round-trip; failures shrink to a minimal program and are written as
  replayable repro files (``repro fuzz --replay FILE``).

All workload execution goes through the typed :mod:`repro.api` facade.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from repro import NUM_CLUSTERS, NUM_VTHREAD_SLOTS, MMachine, MachineConfig, __version__
from repro.api.experiment import Experiment, run_workload
from repro.api.result import roundtrip_problems
from repro.api.schema import validate_results
from repro.api.workload import get_workload, workload_names, workload_specs
from repro.core.trace import Tracer, encode_event
from repro.core.trace_disk import TraceDirError
from repro.memory.cache import BANK_SIZE_WORDS, NUM_BANKS
from repro.memory.page_table import PAGE_SIZE_WORDS
from repro.memory.sdram import SDRAM_SIZE_WORDS
from repro.snapshot import SnapshotError
from repro.snapshot.checkpoint import SnapshotTaken, checkpoint_context
from repro.snapshot.format import (
    SNAPSHOT_SCHEMA_VERSION,
    config_to_dict,
    read_snapshot,
    write_snapshot,
)
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.sweep.specs import builtin_spec_names, get_spec


def parse_param(text: str) -> object:
    """Parse one ``--param`` value: JSON when possible, else a string.

    ``n_hthreads=4`` gives an int, ``mesh=[4,4,1]`` a list, ``kind=7pt`` the
    literal string (``7pt`` is not valid JSON and falls through).
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_params(pairs: Sequence[str]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise argparse.ArgumentTypeError(f"--param needs key=value, got {pair!r}")
        params[key] = parse_param(value)
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run and sweep M-Machine reproduction experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list workloads and built-in sweep specs")

    subparsers.add_parser("info", help="print the default machine configuration as JSON")

    run = subparsers.add_parser("run", help="run one workload and print its metrics")
    run.add_argument("workload", help="workload name (see 'repro list')")
    run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override one workload parameter (repeatable); values are "
            "parsed as JSON when possible"
        ),
    )
    run.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "stream each machine's trace to a machine-N subdirectory of DIR "
            "(chunked JSONL+gzip; inspect with 'repro trace')"
        ),
    )
    run.add_argument(
        "--trace-chunk-events",
        type=int,
        default=None,
        metavar="N",
        help="events per on-disk trace chunk (default 4096; needs --trace-dir)",
    )

    profile = subparsers.add_parser(
        "profile",
        help="run one workload under cProfile and print the hottest functions",
    )
    profile.add_argument("workload", help="workload name (see 'repro list')")
    profile.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override one workload parameter (repeatable); values are "
            "parsed as JSON when possible"
        ),
    )
    profile.add_argument(
        "--sort",
        choices=("cumtime", "tottime", "calls"),
        default="cumtime",
        help="pstats sort column (default: cumtime)",
    )
    profile.add_argument(
        "--limit",
        type=int,
        default=25,
        metavar="N",
        help="number of rows to print (default: 25)",
    )

    snapshot = subparsers.add_parser(
        "snapshot",
        help="run a workload to a given cycle, save a machine snapshot, stop",
    )
    snapshot.add_argument("workload", help="workload name (see 'repro list')")
    snapshot.add_argument(
        "--at-cycle",
        type=int,
        required=True,
        metavar="C",
        help="simulated cycle at (or just after) which to snapshot",
    )
    snapshot.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="snapshot file to write (.json, or .json.gz for compression)",
    )
    snapshot.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one workload parameter (repeatable)",
    )

    resume = subparsers.add_parser("resume", help="restore a snapshot and run it to completion")
    resume.add_argument("snapshot", help="snapshot file written by 'repro snapshot'")
    resume.add_argument(
        "--max-cycles",
        type=int,
        default=1_000_000,
        metavar="N",
        help="cycle budget for the resumed run (default 1000000)",
    )

    sweep = subparsers.add_parser(
        "sweep", help="expand a sweep spec and run it on a worker pool"
    )
    sweep.add_argument(
        "spec",
        nargs="?",
        default=None,
        help=f"built-in spec name ({', '.join(builtin_spec_names())})",
    )
    sweep.add_argument(
        "--spec-file",
        default=None,
        help="load the spec from a JSON file",
    )
    sweep.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1: run inline)",
    )
    sweep.add_argument(
        "--results-dir",
        default="sweep-results",
        metavar="DIR",
        help=(
            "where per-run records and sweep-results.json go "
            "(default: ./sweep-results)"
        ),
    )
    sweep.add_argument(
        "--force",
        action="store_true",
        help="re-run runs whose result files already exist",
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded run ids without executing anything",
    )
    sweep.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "snapshot each run's machine every N simulated cycles so an "
            "interrupted sweep resumes mid-run instead of from cycle 0"
        ),
    )
    sweep.add_argument(
        "--report",
        action="store_true",
        help=(
            "render the paper-figure report into <results-dir>/report when "
            "the sweep completes"
        ),
    )

    report = subparsers.add_parser(
        "report",
        help="render a sweep manifest into the paper's figures and tables",
    )
    report.add_argument(
        "manifest",
        help="path to sweep-results.json (or a results directory)",
    )
    report.add_argument(
        "--out",
        "-o",
        default=None,
        metavar="DIR",
        help="output directory (default: <manifest dir>/report)",
    )
    report.add_argument(
        "--format",
        choices=["md", "svg", "both"],
        default="both",
        help="what to write: the Markdown report, the SVG charts, or both",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit nonzero iff any measured metric falls outside its "
            "tolerance vs the paper's published values"
        ),
    )

    trace = subparsers.add_parser(
        "trace", help="inspect an on-disk trace written with --trace-dir"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_commands = {
        "stats": "print summary statistics of a stored trace as JSON",
        "dump": "print matching events human-readably (streamed)",
        "filter": "print matching events as JSONL rows (streamed)",
    }
    for name, help_text in trace_commands.items():
        sub = trace_sub.add_parser(name, help=help_text)
        sub.add_argument(
            "trace_dir",
            help="a machine trace directory, or the --trace-dir of a run",
        )
        sub.add_argument(
            "--machine",
            type=int,
            default=0,
            metavar="N",
            help="which machine-N subdirectory to open (default 0)",
        )
        if name in ("dump", "filter"):
            sub.add_argument(
                "--category", default=None, help="keep only this trace category"
            )
            sub.add_argument(
                "--node", type=int, default=None, help="keep only this node's events"
            )
            sub.add_argument(
                "--since", type=int, default=None, metavar="C",
                help="keep only events at or after cycle C",
            )
            sub.add_argument(
                "--limit", type=int, default=None, metavar="N",
                help="stop after printing N events",
            )

    validate = subparsers.add_parser(
        "validate", help="schema-check a merged sweep-results.json"
    )
    validate.add_argument("results", help="path to sweep-results.json")
    validate.add_argument(
        "--allow-failed",
        action="store_true",
        help="do not treat failed run records as validation errors",
    )
    validate.add_argument(
        "--roundtrip",
        action="store_true",
        help=(
            "additionally require every record to round-trip byte-"
            "identically through the typed RunResult interchange form"
        ),
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differentially fuzz the simulator with seeded random programs",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="first seed of the campaign (default 0)",
    )
    fuzz.add_argument(
        "--runs",
        type=int,
        default=10,
        metavar="K",
        help="number of consecutive seeds to check (default 10)",
    )
    fuzz.add_argument(
        "--shrink",
        action="store_true",
        help="shrink failing programs to a minimal reproducer before dumping",
    )
    fuzz.add_argument(
        "--repro-dir",
        default=None,
        metavar="DIR",
        help="write failing programs as replayable repro files into DIR",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-check one repro file instead of running a seeded campaign",
    )
    fuzz.add_argument(
        "--knob",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override one generator knob, e.g. mesh=[2,2,1], max_threads=8, "
            "fault_density=0.5, nack_storm=true (repeatable; see "
            "docs/fuzzing.md)"
        ),
    )

    return parser


def _cmd_list() -> int:
    print("workloads:")
    for spec in workload_specs():
        rendered = ", ".join(f"{key}={value}" for key, value in spec.defaults.items())
        line = f"  {spec.name}" + (f"  ({rendered})" if rendered else "")
        if spec.section:
            line += f"  [{spec.section}]"
        print(line)
    print("sweep specs:")
    for name in builtin_spec_names():
        spec = get_spec(name)
        print(f"  {name}  ({len(spec.expand())} runs) - {spec.description}")
    return 0


def _cmd_info() -> int:
    config = MachineConfig()
    mesh = config.network.mesh_shape
    payload = {
        "version": __version__,
        "snapshot_schema_version": SNAPSHOT_SCHEMA_VERSION,
        "defaults": {
            "mesh_shape": list(mesh),
            "num_nodes": config.num_nodes,
            "clusters_per_node": NUM_CLUSTERS,
            "vthread_slots": NUM_VTHREAD_SLOTS,
            "cache_words": NUM_BANKS * BANK_SIZE_WORDS,
            "sdram_words": SDRAM_SIZE_WORDS,
            "page_size_words": PAGE_SIZE_WORDS,
            "kernel": config.sim.kernel,
            "shared_memory_mode": config.runtime.shared_memory_mode,
        },
        "config": config_to_dict(config),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    try:
        params = parse_params(args.param)
    except argparse.ArgumentTypeError as error:
        print(f"repro snapshot: {error}", file=sys.stderr)
        return 2
    if args.at_cycle < 0:
        print("repro snapshot: --at-cycle must be non-negative", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="repro-snapshot-") as staging:
        try:
            policy_path: Optional[str] = None
            with checkpoint_context(staging, snapshot_at=args.at_cycle):
                try:
                    get_workload(args.workload).call(params)
                except SnapshotTaken as taken:
                    policy_path = taken.path
        except (KeyError, TypeError, ValueError) as error:
            message = error.args[0] if error.args else error
            print(f"repro snapshot: {message}", file=sys.stderr)
            return 2
        if policy_path is None:
            print(
                f"repro snapshot: workload {args.workload!r} finished before "
                f"cycle {args.at_cycle}; nothing to snapshot",
                file=sys.stderr,
            )
            return 1
        document = read_snapshot(policy_path)
        write_snapshot(document, args.out)
    payload = {
        "snapshot": args.out,
        "workload": args.workload,
        "cycle": document["machine"]["cycle"],
        "schema_version": document["schema_version"],
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    try:
        machine = MMachine.from_snapshot(args.snapshot)
        start_cycle = machine.cycle
        machine.run_until_user_done(max_cycles=args.max_cycles)
    except SnapshotError as error:
        print(f"repro resume: {error}", file=sys.stderr)
        return 2
    except TimeoutError as error:
        print(f"repro resume: {error}", file=sys.stderr)
        return 1
    payload = {
        "snapshot": args.snapshot,
        "resumed_from_cycle": start_cycle,
        "cycles": machine.cycle,
        "measured_cycles": machine.cycle - start_cycle,
        "summary": machine.stats().summary(),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        params = parse_params(args.param)
    except argparse.ArgumentTypeError as error:
        print(f"repro run: {error}", file=sys.stderr)
        return 2
    if args.trace_chunk_events is not None and args.trace_dir is None:
        print("repro run: --trace-chunk-events needs --trace-dir", file=sys.stderr)
        return 2
    try:
        builder = Experiment.builder().workload(args.workload).params(**params)
        if args.trace_dir is not None:
            builder.trace(args.trace_dir, chunk_events=args.trace_chunk_events)
        result = builder.build().run()
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"repro run: {message}", file=sys.stderr)
        return 2
    payload = {"run_id": result.run_id, "metrics": dict(result.metrics)}
    if args.trace_dir is not None:
        payload["trace_dir"] = args.trace_dir
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if result.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        tracer = Tracer.open(args.trace_dir, machine=args.machine)
        if args.trace_command == "stats":
            print(json.dumps(tracer.sink.stats(), indent=2, sort_keys=True))
            return 0
        # dump and filter stream event by event: constant memory regardless of
        # trace size; a corrupt chunk surfaces only when it is reached.
        events = tracer.iter_filter(category=args.category, node=args.node, since=args.since)
        printed = 0
        for event in events:
            if args.limit is not None and printed >= args.limit:
                break
            if args.trace_command == "dump":
                print(event)
            else:
                print(json.dumps(encode_event(event), separators=(",", ":")))
            printed += 1
    except TraceDirError as error:
        print(f"repro trace: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        params = parse_params(args.param)
    except argparse.ArgumentTypeError as error:
        print(f"repro profile: {error}", file=sys.stderr)
        return 2
    if args.limit < 1:
        print("repro profile: --limit must be >= 1", file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        try:
            result = run_workload(args.workload, params)
        finally:
            profiler.disable()
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"repro profile: {message}", file=sys.stderr)
        return 2
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    print(f"workload {args.workload}  run_id {result.run_id}  "
          f"sort {args.sort}  top {args.limit}")
    print(stream.getvalue(), end="")
    return 0 if result.ok else 1


def _load_spec(args: argparse.Namespace) -> SweepSpec:
    if (args.spec is None) == (args.spec_file is None):
        raise ValueError("give exactly one of a built-in spec name or --spec-file")
    if args.spec_file is not None:
        return SweepSpec.from_file(args.spec_file)
    return get_spec(args.spec)


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec(args)
    except (KeyError, ValueError, OSError) as error:
        message = error.args[0] if error.args else error
        print(f"repro sweep: {message}", file=sys.stderr)
        return 2
    problems = spec.validate(known_workloads=workload_names())
    if problems:
        for problem in problems:
            print(f"repro sweep: {problem}", file=sys.stderr)
        return 2
    if args.dry_run:
        for run in spec.expand():
            print(run.run_id)
        return 0
    try:
        runner = SweepRunner(
            results_dir=args.results_dir,
            jobs=args.jobs,
            force=args.force,
            checkpoint_every=args.checkpoint_every,
            report=args.report,
        )
        result = runner.run(spec)
    except ValueError as error:
        print(f"repro sweep: {error}", file=sys.stderr)
        return 2
    if result.failed:
        for record in result.failed:
            error_lines = str(record.get("error", "")).strip().splitlines() or ["?"]
            print(
                f"repro sweep: run {record['run_id']} failed: {error_lines[-1]}",
                file=sys.stderr,
            )
        print(
            f"repro sweep: {len(result.failed)} of {len(result.records)} runs "
            f"failed; partial results in {result.results_path}",
            file=sys.stderr,
        )
        return 1
    print(result.results_path)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import Manifest, ManifestError, render_report  # noqa: PLC0415
    from repro.report.compare import failures, summary_line  # noqa: PLC0415

    try:
        manifest = Manifest.load(args.manifest)
    except ManifestError as error:
        print(f"repro report: {error}", file=sys.stderr)
        return 2
    for problem in manifest.problems:
        print(f"repro report: skipped invalid record: {problem}", file=sys.stderr)
    if not manifest.records:
        print(f"repro report: {args.manifest} holds no valid records", file=sys.stderr)
        return 2
    base = args.manifest if os.path.isdir(args.manifest) else os.path.dirname(args.manifest)
    out_dir = args.out if args.out is not None else os.path.join(base, "report")
    result = render_report(manifest, out_dir, fmt=args.format)
    for path in result.chart_paths:
        print(path)
    if result.markdown_path is not None:
        print(result.markdown_path)
    print(f"reproduction check: {summary_line(result.check_rows)}", file=sys.stderr)
    if args.check:
        for row in failures(result.check_rows):
            measured = ", ".join(str(value) for value in row.measured)
            print(
                f"repro report: {row.key}: measured {measured} outside "
                f"[{row.lo}, {row.hi}]",
                file=sys.stderr,
            )
        return 0 if result.check_ok else 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.results, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"repro validate: cannot read {args.results}: {error}", file=sys.stderr)
        return 2
    problems = validate_results(document, allow_failed=args.allow_failed)
    if args.roundtrip and isinstance(document, dict):
        # Schema problems are already reported above; add only the
        # round-trip drift findings.
        problems += [
            problem
            for problem in roundtrip_problems(document)
            if problem not in problems
        ]
    if problems:
        for problem in problems:
            print(f"repro validate: {problem}", file=sys.stderr)
        print(
            f"repro validate: {args.results}: {len(problems)} problem(s)",
            file=sys.stderr,
        )
        return 1
    runs = document.get("runs", [])
    print(f"{args.results}: valid ({len(runs)} records)")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import GeneratorKnobs, check_program, fuzz_many, load_repro  # noqa: PLC0415

    if args.replay is not None:
        try:
            program = load_repro(args.replay)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as error:
            print(f"repro fuzz: cannot load {args.replay}: {error}", file=sys.stderr)
            return 2
        outcome = check_program(program)
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
        return 0 if outcome.ok else 1
    if args.runs < 1:
        print("repro fuzz: --runs must be >= 1", file=sys.stderr)
        return 2
    try:
        knob_overrides = parse_params(args.knob)
    except argparse.ArgumentTypeError as error:
        print(f"repro fuzz: {error}", file=sys.stderr)
        return 2
    try:
        params = GeneratorKnobs().to_params()
        params.update(knob_overrides)
        knobs = GeneratorKnobs.from_params(params)
    except (TypeError, ValueError) as error:
        print(f"repro fuzz: bad --knob: {error}", file=sys.stderr)
        return 2
    summary = fuzz_many(
        seed=args.seed,
        runs=args.runs,
        knobs=knobs,
        shrink=args.shrink,
        repro_dir=args.repro_dir,
        log=lambda message: print(f"repro fuzz: {message}", file=sys.stderr),
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Streaming output (e.g. 'repro trace dump | head') may close the
        # pipe early; that is a normal way to stop, not an error.  Point
        # stdout at devnull so interpreter shutdown does not re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
