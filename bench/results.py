"""Turn a finished run into named metrics: {name: (value, unit)}."""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import durations_ms, median_or_zero, module_of, self_times_ns

MODULES = ("cli", "simulator", "ingest", "scenarios", "metrics", "report")
SUBCOMMANDS = ("import", "simulate", "validate", "classify", "compute", "summarize", "compare")


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def episodes_per_s(run) -> float:
    """Median over passes of each pass's throughput; a single pass gives its own."""
    if run.passes > 1:
        return statistics.median(n / wall for _, n, wall in run.pass_log)
    return run.chain_episodes / run.chain_wall


def cpu_ms_per_episode(run) -> float:
    """Median over passes of each pass's CPU time per episode; a single pass gives its own."""
    if run.passes > 1:
        return statistics.median(run.pass_cpu_ms)
    return run.chain_cpu * 1e3 / run.chain_episodes


def end_to_end(run, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics as measured."""
    latencies = run.latencies_ms
    return {
        "episodes_per_s": (episodes_per_s(run), "1/s"),
        "episode_ms_p50": (statistics.median(latencies), "ms"),
        "episode_ms_p90": (percentile(latencies, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cpu_ms_per_episode": (cpu_ms_per_episode(run), "ms"),
    }


def at_nominal_speed(measured: dict, speed: float, start_speed: float) -> dict:
    """Scale times by ``speed`` and rates by its inverse; memory stays as measured.

    ``speed`` is how much faster than nominal the reference ran in the same run,
    and ``start_speed`` the same for the start-up reference, which scales
    ``setup_s`` (reference.py). The result is what a machine at nominal speed
    would show.
    """
    scale = {"1/s": 1.0 / speed, "ms": speed, "s": start_speed, "MB": 1.0}
    return {name: (value * scale[unit], unit) for name, (value, unit) in measured.items()}


def _overhead_pct(pass_log) -> float:
    """How much faster the untraced passes ran than the traced ones, in percent."""
    rate = {}
    for traced in (True, False):
        episodes = sum(n for t, n, _ in pass_log if t == traced)
        wall = sum(w for t, _, w in pass_log if t == traced)
        rate[traced] = episodes / wall if wall else 0.0
    return (rate[False] / rate[True] - 1.0) * 100.0 if rate[True] else 0.0


def per_layer(run, startup_ms: list[float]) -> dict:
    spans = run.tracer.spans
    counts = run.tracer.counts

    def ms(name):
        return durations_ms(spans, name)

    def p50(name):
        return median_or_zero(ms(name))

    per_episode = max(run.traced_episodes, 1)

    self_ms = defaultdict(float)
    failed = defaultdict(int)
    for span, own in zip(spans, self_times_ns(spans)):
        self_ms[module_of(span["name"])] += own / 1e6
        failed[module_of(span["name"])] += span["failed"]

    sim_ms = sum(ms("simulator.run"))
    agent_steps = counts["simulator.agent_steps"]
    parse_s = sum(ms("ingest.parse")) / 1e3
    serialized = len(ms("ingest.serialize"))
    classified = len(ms("scenarios.classify"))
    computed = len(ms("metrics.compute_all"))
    out = {
        "simulator.run.ms_p50": (p50("simulator.run"), "ms"),
        "simulator.agent_steps": (agent_steps / max(len(ms("simulator.run")), 1), "count/episode"),
        "simulator.us_per_agent_step": (sim_ms * 1e3 / agent_steps if agent_steps else 0.0, "us"),
        "ingest.serialize.ms_p50": (p50("ingest.serialize"), "ms"),
        "ingest.serialize.bytes": (counts["ingest.serialize.bytes"] / max(serialized, 1), "bytes"),
        "ingest.parse.ms_p50": (p50("ingest.parse"), "ms"),
        "ingest.parse.mb_per_s": (counts["ingest.parse.bytes"] / 1e6 / parse_s if parse_s else 0.0,
                                  "MB/s"),
        "ingest.validate.ms_p50": (p50("ingest.validate"), "ms"),
        "ingest.import_tsv.ms": (p50("ingest.import_tsv"), "ms"),
        "scenarios.classify.ms_p50": (p50("scenarios.classify"), "ms"),
        "scenarios.labels": (counts["scenarios.labels"] / max(classified, 1), "count/episode"),
        "metrics.compute_all.ms_p50": (p50("metrics.compute_all"), "ms"),
        "metrics.timeline_steps": (counts["metrics.timeline_steps"] / max(computed, 1),
                                   "count/episode"),
        "report.write.ms_p50": (p50("report.write"), "ms"),
        "report.parse.ms_p50": (p50("report.parse"), "ms"),
        "report.summarize.ms": (p50("report.summarize"), "ms"),
        "report.compare.ms": (p50("report.compare"), "ms"),
        "cli.startup.ms_p50": (median_or_zero(startup_ms), "ms"),
        # Every compute child's wall time, traced or not.
        "cli.compute.ms_p50": (median_or_zero(run.latencies_ms if run.cli_wall else []), "ms"),
    }
    for sub in SUBCOMMANDS:
        wall = run.cli_wall.get(sub, 0.0)
        out[f"cli.{sub}.s"] = (wall, "s")
        out[f"cli.{sub}.cpu_over_wall"] = (run.cli_cpu.get(sub, 0.0) / wall if wall else 0.0,
                                           "ratio")
    # A CLI child has no child spans, so its self time is its wall time; all
    # of them count, including the compute children left untraced.
    self_ms["cli"] = sum(run.cli_wall.values()) * 1e3
    for module in MODULES:
        out[f"{module}.self_ms"] = (self_ms[module] / per_episode, "ms/episode")
        out[f"{module}.failed"] = (failed[module], "count")
    out["trace.overhead_pct"] = (_overhead_pct(run.pass_log), "%")
    attempted = run.ops + run.checks
    out["failed_ratio"] = ((run.ops_failed + run.checks_failed) / attempted, "ratio")
    return out
