"""The three workloads. Each is a closed loop with one client: every step
starts after the previous one has finished.

Time inside a workload's chain is metered separately from the benchmark's
own correctness checks, which run between chain steps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import inputs
from spans import Tracer

from socnav import ingest, metrics, report, scenarios, simulator
from socnav.core import common_timeline

POLICIES = ("sfm", "straight_line_stop")
MIN_SAMPLES = 100          # ten latency samples beyond p90
ANALYZE_CORPUS = inputs.BLOCK  # episodes per analyze_corpus pass
ANALYZE_RERUN = 10         # analyze_corpus: episodes rerun to check determinism
STEPWISE_EVERY = 4         # analyze_corpus: every 4th report carries stepwise series
CLI_COUNT = 3              # cli_pipeline: episodes per (scenario, policy)
CLI_SAMPLE_EVERY = 8       # cli_pipeline: in-process reference for every 8th episode
CHILD_TIMEOUT_S = 120.0
DEADLINE_S = 165.0         # stop starting new work after this much of the run
SETUP_PROBES = 9           # fresh-interpreter set-up probes per run


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """State of one benchmark run: seed, clock, tracer and failure accounting."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool, env: dict,
                 started: float, setup_probe=None, reference=None):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = env
        self.started = started
        self.tracer = Tracer(trace)
        self.off = Tracer(False)
        self.ops = 0
        self.ops_failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.problems: list[str] = []
        self.latencies_ms: list[float] = []
        self.pass_log: list[tuple[bool, int, float]] = []
        self.pass_cpu_ms: list[float] = []
        self.traced_episodes = 0
        self.chain_wall = 0.0
        self.chain_cpu = 0.0
        self.chain_episodes = 0
        self.episodes = 0
        self.passes = 0
        self.measure_start = 0.0
        self.corpus: dict = {}
        self.cli_wall: dict[str, float] = {}
        self.cli_cpu: dict[str, float] = {}
        self.setup_probe = setup_probe
        self.setup_s: list[float] = []
        self.reference = reference

    # -- accounting ---------------------------------------------------------

    def note(self, message: str):
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            self.note(f"check failed: {message}")
        return ok

    @contextmanager
    def chain(self):
        """Meter wall and CPU time of a stretch of the workload's chain."""
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.chain_wall += time.perf_counter() - wall
            self.chain_cpu += cpu_seconds() - cpu

    def operation(self, label: str, fn, *args, **kwargs):
        """Run one operation of the chain; an exception counts as a failure."""
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - every failure is counted, none is fatal
            self.ops_failed += 1
            self.note(f"{label}: {type(e).__name__}: {e}")
            return None

    def sample(self, latency_s: float, chained: bool = True):
        """One latency sample; ``chained`` if its episode went through the metered chain.

        Outside the timed work, it is also where the machine-speed reference runs.
        """
        self.latencies_ms.append(latency_s * 1e3)
        self.episodes += 1
        self.chain_episodes += chained
        if self.reference is not None:
            self.reference.tick()

    def pass_tracer(self) -> Tracer:
        """In a traced run, odd passes are traced and even ones are not.

        The untraced passes give the baseline for the tracing overhead.
        """
        return self.tracer if self.trace and self.passes % 2 == 1 else self.off

    @contextmanager
    def timed_pass(self, tr: Tracer):
        episodes, wall, cpu = self.episodes, self.chain_wall, self.chain_cpu
        yield
        episodes = self.episodes - episodes
        self.log_pass(tr.enabled, episodes, self.chain_wall - wall)
        self.pass_cpu_ms.append((self.chain_cpu - cpu) * 1e3 / max(episodes, 1))
        self.passes += 1

    def log_pass(self, traced: bool, episodes: int, wall: float):
        self.pass_log.append((traced, episodes, wall))
        if traced:
            self.traced_episodes += episodes

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def more(self) -> bool:
        """Whether to start another pass: until --seconds and MIN_SAMPLES are both met.

        A traced run also needs one traced pass after its untraced one.
        """
        self.between(self.progress())
        if self.elapsed() > DEADLINE_S / 2:
            return False
        return (self.episodes < MIN_SAMPLES or (self.trace and self.passes < 2)
                or self.progress() < 1.0)

    def start_measuring(self):
        self.measure_start = self.elapsed()

    def progress(self) -> float:
        """Share of --seconds measured so far."""
        return (self.elapsed() - self.measure_start) / self.seconds

    def between(self, progress: float):
        """Time set-up probes between chain steps, spread over the run.

        Spreading them lets set-up time see the same machine as the rest of
        the run; ``finish`` tops them up to SETUP_PROBES at the end.
        """
        if self.setup_probe is None:
            return
        due = min(SETUP_PROBES - 1, int(progress * SETUP_PROBES) + 1)
        while len(self.setup_s) < due:
            self.setup_s.append(self.setup_probe())

    def finish(self):
        self.between(1.0)
        while self.setup_probe is not None and len(self.setup_s) < SETUP_PROBES:
            self.setup_s.append(self.setup_probe())


def _validates(run: Run, data: bytes, what: str):
    errors = [i for i in ingest.validate(data) if i.severity == "error"]
    run.check(not errors, f"{what} fails validation: {errors[:1]}")


def _report_ok(run: Run, doc: dict, what: str):
    found = doc.get("metrics", {})
    missing = [k for k in metrics.TASKWISE_KEYS if k not in found]
    bad = [k for k in metrics.TASKWISE_KEYS if k in found
           and not (isinstance(found[k].get("code"), str)
                    and metrics.CODE_PATTERN.match(found[k]["code"])
                    and found[k]["code"] == metrics.taxonomy_code(k))]
    run.check(not missing and not bad,
              f"{what}: missing metrics {missing[:3]}, bad taxonomy codes {bad[:3]}")


# --- sim_corpus -------------------------------------------------------------------

def _simulate(tr: Tracer, name: str, seed: int, index: int, policy: str) -> tuple:
    """One episode through generate_scenario, run and serialize_episode."""
    epid = f"{name}_{seed}_{index}"
    config = tr.call("simulator.generate_scenario", simulator.generate_scenario,
                     name, seed + index, robot_policy=policy, episode=epid)
    config = dataclasses.replace(config, episode_id=epid)
    episode = tr.call("simulator.run", simulator.run, config, episode=epid)
    data = tr.call("ingest.serialize", ingest.serialize_episode, episode, episode=epid)
    tr.count("simulator.agent_steps", len(episode.agents) * (len(episode.robot.states) - 1))
    tr.count("ingest.serialize.bytes", len(data))
    return episode, data


def sim_corpus(run: Run):
    base = run.seed * 1000
    plan = [(name, policy) for name in simulator.SCENARIO_NAMES for policy in POLICIES]
    run.corpus = {"episodes_per_pass": len(plan), "scenarios": len(simulator.SCENARIO_NAMES),
                  "policies": list(POLICIES)}
    first_pass: dict[str, str] = {}
    run.start_measuring()
    while run.more():
        tr = run.pass_tracer()
        with run.timed_pass(tr):
            for name, policy in plan:
                t0 = time.perf_counter()
                with run.chain(), tr.span("bench.episode", f"{name}_{base}_{run.passes}"):
                    out = run.operation(f"sim {name}/{policy}", _simulate, tr, name, base,
                                        run.passes, policy)
                run.sample(time.perf_counter() - t0)
                if out is None:
                    continue
                episode, data = out
                _validates(run, data, episode.episode_id)
                if run.passes == 0:
                    first_pass[f"{policy}/{episode.episode_id}"] = sha(data)
    # Same seed, second time: the first pass again, byte for byte.
    for name, policy in plan:
        out = run.operation(f"rerun {name}/{policy}", _simulate, run.off, name, base, 0, policy)
        if out is not None:
            key = f"{policy}/{out[0].episode_id}"
            run.check(first_pass.get(key) == sha(out[1]), f"{key} differs on rerun")


# --- analyze_corpus ---------------------------------------------------------------

def _count_analysis(tr: Tracer, data: bytes, episode, result):
    if tr.enabled:
        tr.count("ingest.parse.bytes", len(data))
        tr.count("metrics.timeline_steps", len(common_timeline(episode, result.dt)))


def _analyze(tr: Tracer, epid: str, data: bytes, stepwise: bool) -> tuple:
    episode = tr.call("ingest.parse", ingest.parse_episode, data, episode=epid)
    issues = tr.call("ingest.validate", ingest.validate, data, episode=epid)
    labels = tr.call("scenarios.classify", scenarios.classify, episode, episode=epid)
    result = tr.call("metrics.compute_all", metrics.compute_all, episode,
                     include_stepwise=stepwise, episode=epid)
    _count_analysis(tr, data, episode, result)
    out = tr.call("report.write", report.write_output, result, episode=epid)
    parsed = tr.call("report.parse", report.parse_report, out, episode=epid)
    return issues, labels, out, parsed


def analyze_corpus(run: Run):
    first = inputs.analysis_corpus(run.seed, 0, ANALYZE_CORPUS)
    run.check(inputs.analysis_corpus(run.seed, 0, ANALYZE_CORPUS) == first,
              "generated corpus differs for the same seed")
    run.corpus = {"episodes_per_pass": ANALYZE_CORPUS, "bytes_first_pass": sum(map(len, first)),
                  "stepwise_share": 1 / STEPWISE_EVERY, "groups": list(inputs.LAYOUTS)}
    first_digests: list[str] = []
    run.start_measuring()
    while run.more():
        # Every pass analyses fresh episodes with the same mix, so a run's
        # figures rest on many draws of the inputs, not on one corpus.
        start = run.passes * ANALYZE_CORPUS
        corpus = first if start == 0 else inputs.analysis_corpus(run.seed, start, ANALYZE_CORPUS)
        tr = run.pass_tracer()
        with run.timed_pass(tr):
            digests = _analyze_pass(run, tr, corpus, start)
        first_digests = first_digests or digests
    # Same seed, second time: the start of the first pass again.
    for i, data in enumerate(first[:ANALYZE_RERUN]):
        epid = f"analyze_{run.seed}_{i:04d}"
        out = run.operation(f"rerun {epid}", _analyze, run.off, epid, data,
                            i % STEPWISE_EVERY == 0)
        run.check(out is not None and _digest(out) == first_digests[i], f"{epid} differs on rerun")


def _digest(out) -> str:
    issues, labels, written, parsed = out
    return sha(written) + "".join(f"|{l.scenario}:{l.t_start}:{l.t_end}" for l in labels)


def _analyze_pass(run: Run, tr: Tracer, corpus: list[bytes], start: int) -> list:
    """One pass over the corpus; returns the digests of everything it produced."""
    digests = []
    groups = defaultdict(list)
    seen = set()
    for i, data in enumerate(corpus, start):
        epid = f"analyze_{run.seed}_{i:04d}"
        t0 = time.perf_counter()
        with run.chain(), tr.span("bench.episode", epid):
            out = run.operation(f"analyze {epid}", _analyze, tr, epid, data,
                                i % STEPWISE_EVERY == 0)
        run.sample(time.perf_counter() - t0)
        if out is None:
            digests.append(None)
            continue
        issues, labels, written, parsed = out
        tr.count("scenarios.labels", len(labels))
        run.check(not [x for x in issues if x.severity == "error"], f"{epid} fails validation")
        _report_ok(run, json.loads(written), epid)
        run.check(report.write_output(parsed) == written, f"{epid} report round trip")
        seen.update(label.scenario for label in labels)
        groups[inputs.layout_of(i)].append(parsed)
        digests.append(_digest(out))
    missing = sorted(set(scenarios.CLASSIFIABLE_SCENARIOS) - seen)
    run.check(not missing, f"scenarios never labelled: {missing}")
    with run.chain(), tr.span("bench.corpus"):
        summaries = run.operation("summarize", lambda: {
            layout: tr.call("report.summarize", report.summarize, reports)
            for layout, reports in sorted(groups.items())})
        comparison = (run.operation("compare", tr.call, "report.compare",
                                    report.compare, summaries)
                      if summaries else None)
    for layout, summary in (summaries or {}).items():
        run.check(summary.n_episodes == len(groups[layout]),
                  f"summary {layout} counts {summary.n_episodes} episodes")
    if comparison is not None:
        run.check(list(comparison.policies) == sorted(groups), "comparison policies")
        digests.append(sha(report.write_output(comparison)))
    return digests


# --- cli_pipeline -----------------------------------------------------------------

class _Cli:
    """Runs ``python -m socnav.cli`` children, one at a time, in a work directory."""

    def __init__(self, run: Run, work: Path):
        self.run = run
        self.work = work
        self.wall = defaultdict(float)
        self.cpu = defaultdict(float)

    def __call__(self, args: list[str], tr: Tracer | None = None, episode=None) -> bool:
        run = self.run
        sub = args[0]
        tr = tr or run.tracer
        run.ops += 1
        left = DEADLINE_S - run.elapsed()
        if left < 5.0:
            run.ops_failed += 1
            run.note(f"{sub}: skipped, run deadline reached")
            return False
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            with tr.span(f"cli.{sub}", episode):
                proc = subprocess.run([sys.executable, "-m", "socnav.cli", *args],
                                      cwd=self.work, env=run.env, capture_output=True,
                                      timeout=min(CHILD_TIMEOUT_S, left))
        except subprocess.TimeoutExpired:
            proc = None
        wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
        self.wall[sub] += wall
        self.cpu[sub] += cpu
        if proc is None:
            run.ops_failed += 1
            run.note(f"{sub}: timed out")
            return False
        if proc.returncode != 0 or b"Traceback" in proc.stderr:
            run.ops_failed += 1
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            run.note(f"{sub} {' '.join(args[1:3])}: exit {proc.returncode} {tail}")
            return False
        return True


def cli_pipeline(run: Run):
    out_dir = run.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir()
    try:
        _cli_pass(run, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _cli_pass(run: Run, work: Path):
    seed = run.seed * 1000
    tsv = inputs.crowd_tsv(run.seed)
    (work / "crowd.tsv").write_bytes(tsv)
    cli = _Cli(run, work)
    episodes = ["eps/imported.json"] + [
        f"eps/{policy}/{name}_{seed}_{i}.json"
        for policy in POLICIES for name in simulator.SCENARIO_NAMES for i in range(CLI_COUNT)]
    run.corpus = {"episodes": len(episodes), "per_scenario_and_policy": CLI_COUNT,
                  "tsv_bytes": len(tsv), "tsv_hz": inputs.TSV_HZ}
    run.start_measuring()
    with run.chain():
        cli(["import", "--tsv", "crowd.tsv", "--hz", str(inputs.TSV_HZ),
             "--robot", inputs.TSV_ROBOT, "-o", "eps/imported.json"])
        for policy in POLICIES:
            for name in simulator.SCENARIO_NAMES:
                cli(["simulate", "--scenario", name, "--seed", str(seed),
                     "--count", str(CLI_COUNT), "--robot-policy", policy,
                     "-o", f"eps/{policy}"])
        cli(["validate", *episodes])
        cli(["classify", *episodes, "-o", "labels.json"])
    reports = {}
    for position, path in enumerate(episodes):
        reports[path] = path.replace("eps/", "reports/", 1)
        _compute(run, cli, path, reports[path], position, chained=True)
        run.between(run.progress())
    with run.chain():
        for policy in POLICIES:
            cli(["summarize", *[r for p, r in reports.items() if Path(p).parent.name == policy],
                 "--bins", "20", "-o", f"summary_{policy}.json"])
        cli(["compare", *[a for policy in POLICIES
                          for a in ("--label", f"{policy}=summary_{policy}.json")],
             "-o", "comparison.json"])
    run.cli_wall = dict(cli.wall)
    run.cli_cpu = dict(cli.cpu)
    run.passes = 1
    _compute_rounds(run, cli, episodes, reports)
    # The whole pass is traced, bar half of the compute spans, so per-episode
    # figures are over every episode of the pass.
    run.traced_episodes = run.chain_episodes if run.trace else 0
    _cli_checks(run, work, episodes, reports, tsv, seed)


def _compute(run: Run, cli: _Cli, path: str, rep: str, position: int, chained: bool):
    """One ``socnav compute`` child, timed as one latency sample.

    In a traced run every other compute child goes without a span, as the
    baseline for the tracing overhead.
    """
    traced = run.trace and position % 2 == 0
    t0 = time.perf_counter()
    with run.chain() if chained else nullcontext():
        cli(["compute", path, "-o", rep], run.tracer if traced else run.off, episode=path)
    latency = time.perf_counter() - t0
    run.sample(latency, chained)
    run.log_pass(traced, 1, latency)


def _compute_rounds(run: Run, cli: _Cli, episodes: list[str], reports: dict):
    """Compute the pass's episodes again, one child each, until the run has its samples.

    The pass alone gives too few samples for p90 in the time of one run. Each
    repeat writes to ``again/`` and must match the pass's report byte for byte.
    """
    position = len(episodes)
    while (run.episodes < MIN_SAMPLES or run.progress() < 1.0) and run.elapsed() < DEADLINE_S / 2:
        path = episodes[position % len(episodes)]
        again = "again/" + reports[path]
        _compute(run, cli, path, again, position, chained=False)
        run.check(_read(cli.work / again) == _read(cli.work / reports[path]),
                  f"{again} differs from {reports[path]}")
        run.between(run.progress())
        position += 1


def _read(path: Path):
    try:
        return path.read_bytes()
    except OSError:
        return None


def _compute_reference(tr: Tracer, data: bytes, epid: str) -> bytes:
    """What ``socnav compute`` should write, computed in this process."""
    episode = tr.call("ingest.parse", ingest.parse_episode, data, episode=epid)
    result = tr.call("metrics.compute_all", metrics.compute_all, episode, episode=epid)
    _count_analysis(tr, data, episode, result)
    return tr.call("report.write", report.write_output, result, episode=epid)


def _import_reference(tr: Tracer, tsv: bytes) -> bytes:
    """What ``socnav import`` should write, computed in this process."""
    episode = tr.call("ingest.import_tsv", ingest.import_tsv, tsv, frame_rate=inputs.TSV_HZ,
                      robot_id=inputs.TSV_ROBOT)
    return tr.call("ingest.serialize", ingest.serialize_episode, episode)


def _cli_checks(run: Run, work: Path, episodes, reports, tsv: bytes, seed: int):
    """Check every output of the pass; recompute a sample of it in-process.

    Every episode was already validated by the pass's own ``validate`` step,
    whose failure counts as a failed operation; the sample is validated here
    again, independently of the CLI. In a traced run the in-process calls are
    traced: they run the module functions the children ran, on the same bytes.
    """
    tr = run.tracer if run.trace else run.off
    imported = _read(work / episodes[0])
    with tr.span("bench.check"):
        expect = run.operation("import reference", _import_reference, tr, tsv)
        run.check(imported is not None and expect == imported,
                  "import output differs from in-process import_tsv")
        for k, path in enumerate(episodes):
            data = _read(work / path)
            doc = _read(work / reports[path])
            if not run.check(data is not None and doc is not None, f"{path} or its report missing"):
                continue
            _report_ok(run, json.loads(doc), reports[path])
            if k % CLI_SAMPLE_EVERY:
                continue
            epid = Path(path).stem
            tr.call("ingest.validate", _validates, run, data, path, episode=epid)
            expect = run.operation(f"reference {path}", _compute_reference, tr, data, epid)
            run.check(expect == doc, f"{reports[path]} differs from in-process compute")
            if k:
                # Same seed, second time: the CLI's episode rerun in-process.
                policy = Path(path).parent.name
                name, _, index = epid.rsplit("_", 2)
                again = run.operation(f"rerun {path}", _simulate, tr, name, seed, int(index),
                                      policy)
                run.check(again is not None and again[1] == data, f"{path} differs on rerun")
    labels = _read(work / "labels.json")
    if run.check(labels is not None and imported is not None, "labels.json missing"):
        distinct = {Path(p).stem for p in episodes[1:]} | {json.loads(imported)["episode_id"]}
        run.check(json.loads(labels)["coverage"]["episode_count"] == len(distinct),
                  "classify coverage counts the wrong number of episodes")
    for policy in POLICIES:
        summary = _read(work / f"summary_{policy}.json")
        expected = sum(1 for p in reports if Path(p).parent.name == policy)
        run.check(summary is not None and json.loads(summary)["n_episodes"] == expected,
                  f"summary_{policy} episode count")
    comparison = _read(work / "comparison.json")
    run.check(comparison is not None and json.loads(comparison)["policies"] == list(POLICIES),
              "comparison policies")


def cli_startup_ms(run: Run, times: int = 5) -> list[float]:
    """Wall time of ``socnav --help``: a process that imports the CLI and does no work."""
    out = []
    for _ in range(times):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "socnav.cli", "--help"], cwd=run.root,
                              env=run.env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        out.append((time.perf_counter() - t0) * 1e3)
        run.ops += 1
        if proc.returncode != 0:
            run.ops_failed += 1
            run.note(f"--help: exit {proc.returncode}")
    return out


WORKLOADS = {"cli_pipeline": cli_pipeline, "sim_corpus": sim_corpus,
             "analyze_corpus": analyze_corpus}

# Modules each workload's set-up imports, as the program would before its first input.
SETUP_IMPORTS = {
    "cli_pipeline": ("socnav.cli",),
    "sim_corpus": ("socnav.simulator", "socnav.ingest"),
    "analyze_corpus": ("socnav.ingest", "socnav.scenarios", "socnav.metrics", "socnav.report"),
}
