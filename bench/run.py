"""Benchmark of the socnav pipeline: one workload per run, metrics as JSON.

    python3 bench/run.py --workload cli_pipeline|sim_corpus|analyze_corpus \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It measures the socnav package in this
checkout's ``src/`` and refuses to run against any other copy. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``. README.md in this
directory describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def refuse(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_socnav():
    """Import socnav from this checkout's src/, or refuse to run."""
    if not (SRC / "socnav" / "__init__.py").is_file():
        refuse(f"no socnav sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import socnav
    if Path(socnav.__file__).resolve().parent != (SRC / "socnav").resolve():
        refuse(f"imported socnav from {socnav.__file__}, not from {SRC}")
    return socnav


def child_env() -> dict:
    """Children see this checkout's src/ first and SOCNAV_THREADS at its default."""
    env = dict(os.environ)
    env.pop("SOCNAV_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class SetupProbe:
    """Times a fresh interpreter from its start until the modules are imported.

    ``warm`` fills the bytecode cache and runs one untimed probe to warm the
    file cache, so each timed probe sees what a user's second run would see.
    Right before each probe, ``start_code``, the start-up reference of
    reference.py, is timed the same way; its times are kept in ``start_s``.
    """

    def __init__(self, workload: str, env: dict, modules, start_code: str):
        self.workload = workload
        self.env = env
        self.start_code = start_code
        self.code = (f"import time, socnav, {', '.join(modules)}; "
                     "print(time.monotonic(), socnav.__file__)")
        self.start_s: list[float] = []

    def warm(self):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "socnav")],
                       env=self.env, check=True, capture_output=True, timeout=120)
        self()
        self.start_s.clear()

    def _ready(self, code: str) -> tuple[float, str]:
        """Seconds from starting ``python -c code`` until it prints its clock, and the rest."""
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            refuse(f"set-up probe for {self.workload} failed: {proc.stderr.strip()[-300:]}")
        ready, _, rest = proc.stdout.partition(" ")
        return float(ready) - t0, rest.strip()

    def __call__(self) -> float:
        self.start_s.append(self._ready(self.start_code)[0])
        seconds, path = self._ready(self.code)
        if Path(path).resolve().parent != (SRC / "socnav").resolve():
            refuse(f"children import socnav from {path}, not from {SRC}")
        return seconds


def environment(args, numpy_version: str, socnav_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "socnav").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy_version,
        "socnav": socnav_version, "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "SOCNAV_THREADS": "unset (default: one thread per CPU)",
        "SOCNAV_THREADS_inherited": os.environ.get("SOCNAV_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_pipeline", "sim_corpus", "analyze_corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        refuse("--seed must be >= 0 and --seconds > 0")

    socnav = _import_socnav()
    import numpy

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import reference
    import results
    import workloads

    env = child_env()
    record = environment(args, numpy.__version__, socnav.__version__)
    probe = gauge = None
    if not args.trace:
        probe = SetupProbe(args.workload, env, workloads.SETUP_IMPORTS[args.workload],
                           reference.START_CODE)
        probe.warm()
        gauge = reference.Reference()
        gauge.warm()
    run = workloads.Run(ROOT, args.seed, args.seconds, bool(args.trace), env, STARTED, probe,
                        gauge)
    startup_ms = []
    if args.trace and args.workload == "cli_pipeline":
        startup_ms = workloads.cli_startup_ms(run)
    workloads.WORKLOADS[args.workload](run)
    run.finish()
    record["corpus"] = run.corpus
    record["samples"] = run.episodes
    record["passes"] = run.passes

    if args.trace:
        values = results.per_layer(run, startup_ms)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        run.tracer.dump(out / f"trace-{args.workload}-{args.seed}.json", {"env": record})
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                if args.workload == "cli_pipeline" else 0)
        measured = results.end_to_end(run, statistics.median(run.setup_s), (own + kids) / 1024)
        speed = gauge.speed()
        start_speed = reference.start_speed(probe.start_s)
        values = results.at_nominal_speed(measured, speed, start_speed)
        record["reference"] = {"median_ms": statistics.median(gauge.times_ms),
                               "samples": len(gauge.times_ms), "speed": speed,
                               "start_median_s": statistics.median(probe.start_s),
                               "start_samples": len(probe.start_s), "start_speed": start_speed}

    print("# env " + json.dumps(record, sort_keys=True))
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(f"# {args.workload}: {run.episodes} latency samples in {run.passes} pass(es), "
          f"{run.ops} operations, {run.checks} checks")
    if not args.trace:
        for name, (value, unit) in measured.items():
            print(f"# measured {name} {value:.6g} {unit}")
    for name, (value, unit) in values.items():
        print(f"{name} {value:.6g} {unit}")
    failed = run.ops_failed + run.checks_failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.ops + run.checks,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
