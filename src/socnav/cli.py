"""Command-line front end: validate, compute, simulate, classify,
summarize, compare, import.

Conventions: diagnostics go to stderr, data goes to ``-o`` targets or
stdout; exit codes are 0 (ok), 1 (validation/data errors), 2 (usage),
3 (I/O). Multi-file subcommands process their inputs one after another,
in input order: the work is pure Python, so threads would only contend
for the interpreter lock. ``compute`` over many episodes (or one, when
``-o`` ends in ``/`` or is a directory) runs them in one process and
writes ``<dir>/<stem>.json`` for each, the bytes the one-file form writes.
A subcommand reads, calls the library and writes; each document format
lives with its dataclasses in ``ingest``, ``report`` or ``scenarios``.

Every library module, ``ingest`` and ``core`` too, is imported only by
the subcommands that call it, so importing this module, ``--help`` and a
usage error load no numpy, and no ``dataclasses`` (nor its ``inspect``).
BLAS runs single-threaded unless ``OPENBLAS_NUM_THREADS`` is set: socnav
never hands BLAS enough work to use a second thread, and the idle worker
pool that ``import numpy`` would otherwise start costs each process CPU
time at start-up. The variable is set when this module is imported, and a
value the caller set wins.

``run`` is the process entry (``python -m socnav.cli`` and the ``socnav``
script). It turns the cyclic garbage collector off, since no subcommand
makes cyclic garbage that grows with its inputs, and freezes the heap
before exit, so neither ``import numpy`` nor interpreter finalization
spends time walking it. ``main`` is the in-process API and leaves the
collector alone.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before a subcommand imports numpy

from .errors import InvariantError, SocnavError

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _load(path: str, decode):
    """``decode`` of the bytes at ``path``; a data error names the file first."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return decode(data)
    except SocnavError as e:
        raise SocnavError(f"{path}: {e}") from None


def _write(data: bytes, out: str | None):
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "wb") as f:
            f.write(data)


def _cmd_validate(args) -> int:
    from . import ingest

    failed = False
    for path in args.files:
        for issue in _load(path, ingest.validate):
            print(f"{path}: {issue}", file=sys.stderr)
            failed |= issue.severity == "error"
    return EXIT_DATA if failed else EXIT_OK


def _cmd_compute(args) -> int:
    out = args.output
    to_dir = out not in (None, "-") and (out.endswith("/") or Path(out).is_dir())
    batch = len(args.episodes) > 1 or to_dir
    if batch and out in (None, "-"):
        print("compute: more than one episode needs -o DIRECTORY", file=sys.stderr)
        return EXIT_USAGE
    targets = {}  # report path -> episode path, in input order
    for path in args.episodes:
        target = str(Path(out) / f"{Path(path).stem}.json") if batch else out
        if target in targets:
            raise SocnavError(f"{targets[target]} and {path} would both write {target}")
        targets[target] = path

    from . import ingest, report
    from .core import MetricParams, positive_finite
    from .metrics import compute_all

    if args.dt is not None:
        positive_finite(args.dt, "/dt")  # an option, not a fault of any one file
    params = (MetricParams() if args.params is None else _load(
        args.params, lambda data: report.params_from_jsonable(ingest.load_json(data))))

    def compute(data: bytes) -> bytes:
        return report.write_output(compute_all(ingest.parse_episode(data), params, dt=args.dt,
                                               include_stepwise=args.stepwise))

    for target, path in targets.items():
        _write(_load(path, compute), target)
        if batch:
            print(f"wrote {target}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    import dataclasses

    from . import ingest, simulator

    if args.scenario not in simulator.SCENARIO_NAMES:
        print(f"unknown scenario {args.scenario!r}; choose from "
              f"{', '.join(simulator.SCENARIO_NAMES)}", file=sys.stderr)
        return EXIT_USAGE
    if args.count < 1:
        raise InvariantError("/count", f"must be a positive integer, got {args.count}")
    outdir = Path(args.output)
    for i in range(args.count):
        config = simulator.generate_scenario(args.scenario, args.seed + i,
                                             robot_policy=args.robot_policy)
        config = dataclasses.replace(config,
                                     episode_id=f"{args.scenario}_{args.seed}_{i}")
        episode = simulator.run(config)
        outdir.mkdir(parents=True, exist_ok=True)  # only once there is an episode to write
        path = outdir / f"{args.scenario}_{args.seed}_{i}.json"
        with open(path, "wb") as f:
            f.write(ingest.serialize_episode(episode))
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _load_cards(directory: str | None):
    if directory is None:
        return None
    from . import scenarios

    cards, source = {}, {}
    for path in sorted(p for p in Path(directory).iterdir() if p.match("*.json")):
        card = _load(str(path), scenarios.parse_card)
        if card.name in cards:
            raise SocnavError(f"{source[card.name]} and {path} both define card {card.name!r}")
        cards[card.name], source[card.name] = card, path
    if not cards:
        raise SocnavError(f"no card files found in {directory}")
    return cards


def _cmd_classify(args) -> int:
    from . import ingest, scenarios

    cards = _load_cards(args.cards)
    labels_by_episode = {}
    for path in args.episodes:
        episode = _load(path, ingest.parse_episode)
        labels_by_episode[episode.episode_id] = scenarios.classify(episode, cards=cards)
    _write(scenarios.serialize_labels(labels_by_episode), args.output)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    from . import report

    reports = [_load(path, report.parse_report) for path in args.reports]
    summary = report.summarize(reports, bins=args.bins)
    _write(report.write_output(summary), args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import report

    summaries = {}
    for spec in args.label:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(f"--label expects NAME=SUMMARY_FILE, got {spec!r}", file=sys.stderr)
            return EXIT_USAGE
        if name in summaries:
            print(f"--label {name!r} is given more than once", file=sys.stderr)
            return EXIT_USAGE
        summaries[name] = _load(path, report.parse_summary)
    comparison = report.compare(summaries)
    _write(report.write_output(comparison), args.output)
    return EXIT_OK


def _cmd_import(args) -> int:
    from . import ingest
    from .core import positive_finite

    positive_finite(args.hz, "/frame_rate")  # an option, not a fault of the table
    episode = _load(args.tsv, lambda data: ingest.import_tsv(data, frame_rate=args.hz,
                                                             robot_id=args.robot))
    _write(ingest.serialize_episode(episode), args.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socnav",
        description="Social navigation episode metrics, scenarios and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check episode files against the schema")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("compute", help="compute the metric suite for each episode")
    p.add_argument("episodes", nargs="+")
    p.add_argument("--params", help="MetricParams JSON file")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--stepwise", action="store_true")
    p.add_argument("-o", "--output", default=None,
                   help="report file; a directory if many episodes, or if it ends in / or exists")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("simulate", help="generate scenario episodes")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--robot-policy", default="sfm",
                   choices=("sfm", "straight_line_stop"))
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("classify", help="label episodes with scenario detectors")
    p.add_argument("episodes", nargs="+")
    p.add_argument("--cards", help="directory of scenario card JSON files")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("summarize", help="aggregate metric reports into a summary")
    p.add_argument("reports", nargs="+")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("compare", help="compare corpus summaries side by side")
    p.add_argument("--label", action="append", required=True,
                   metavar="NAME=SUMMARY_FILE")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("import", help="import a bird's-eye-view TSV trajectory table")
    p.add_argument("--tsv", required=True)
    p.add_argument("--hz", type=float, required=True)
    p.add_argument("--robot", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_import)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except SocnavError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def run():
    """Process entry: ``main`` with the cyclic collector off and the heap frozen at exit."""
    gc.disable()
    code = main()
    gc.freeze()  # finalization then skips the heap; atexit and flushes still run
    sys.exit(code)


if __name__ == "__main__":
    run()
