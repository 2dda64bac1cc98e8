"""Output schemas, corpus summaries and policy comparisons.

Serialization follows the same canonical rules as the episode format
(sorted keys, shortest float repr, newline-terminated). Non-finite metric
values travel as the strings "Infinity"/"-Infinity" since strict JSON has
no literal for them; null stays null. Undefined values are excluded from
moments and reported in ``n_excluded``, never silently dropped.

Comparisons are descriptive only: a flag means one policy's mean lies
outside another's one-standard-deviation band, with no significance claim
attached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import MetricParams
from .errors import EmptyCorpus, MalformedDocument, SchemaError
from .ingest import canonical_json_bytes
from .metrics import TASKWISE_KEYS, UNITS, MetricReport, MetricValue, StepSeries, taxonomy_code

FORMAT_VERSION = "1.0"


# --- Value and params encoding -------------------------------------------------

def encode_value(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    raise SchemaError("/value", f"cannot encode {type(value).__name__}")


def decode_value(raw):
    if raw == "Infinity":
        return math.inf
    if raw == "-Infinity":
        return -math.inf
    if isinstance(raw, list):
        return [decode_value(v) for v in raw]
    return raw


def params_to_jsonable(params: MetricParams) -> dict:
    return {
        "space_threshold": params.space_threshold,
        "intimate_radius": params.intimate_radius,
        "personal_radius": params.personal_radius,
        "collision_terminate_count": params.collision_terminate_count,
        "timeout": params.timeout,
        "fp_distance_eps": params.fp_distance_eps,
        "fp_window": params.fp_window,
        "stall_speed": params.stall_speed,
        "stall_min_duration": params.stall_min_duration,
        "cooperative_agent_ids": sorted(params.cooperative_agent_ids)
        if params.cooperative_agent_ids else None,
    }


def params_from_jsonable(doc: Mapping) -> MetricParams:
    if not isinstance(doc, Mapping):
        raise SchemaError("/params", "expected an object")
    kwargs = dict(doc)
    ids = kwargs.pop("cooperative_agent_ids", None)
    kwargs.pop("dt", None)  # an echo field, not a MetricParams member
    unknown = set(kwargs) - {
        "space_threshold", "intimate_radius", "personal_radius",
        "collision_terminate_count", "timeout", "fp_distance_eps",
        "fp_window", "stall_speed", "stall_min_duration"}
    if unknown:
        raise SchemaError(f"/params/{sorted(unknown)[0]}", "unknown parameter")
    return MetricParams(cooperative_agent_ids=frozenset(ids) if ids else None, **kwargs)


# --- Per-episode report I/O ----------------------------------------------------

def report_to_jsonable(report: MetricReport) -> dict:
    params = params_to_jsonable(report.params)
    params["dt"] = report.dt
    out = {
        "format_version": FORMAT_VERSION,
        "episode_id": report.episode_id,
        "params": params,
        "metrics": {
            name: {
                "value": encode_value(mv.value),
                "unit": mv.unit,
                "code": mv.code,
                "params_used": {k: encode_value(v) for k, v in mv.params_used.items()},
            }
            for name, mv in report.taskwise.items()
        },
    }
    if report.stepwise is not None:
        out["stepwise"] = {
            name: {"t": list(series.timeline), "v": list(series.values)}
            for name, series in report.stepwise.items()
        }
    return out


def write_output(obj) -> bytes:
    """Canonical serialization of a report, summary, or comparison."""
    if isinstance(obj, MetricReport):
        return canonical_json_bytes(report_to_jsonable(obj))
    if isinstance(obj, CorpusSummary):
        return canonical_json_bytes(summary_to_jsonable(obj))
    if isinstance(obj, Comparison):
        return canonical_json_bytes(comparison_to_jsonable(obj))
    raise SchemaError("", f"cannot serialize {type(obj).__name__}")


def parse_report(document: bytes | str) -> MetricReport:
    try:
        doc = json.loads(document if isinstance(document, str)
                         else document.decode("utf-8"))
    except ValueError as e:  # bad UTF-8, bad JSON, or an integer past the conversion limit
        raise MalformedDocument(str(e)) from e
    if not isinstance(doc, dict):
        raise SchemaError("", "report document must be an object")
    for key in ("episode_id", "params", "metrics"):
        if key not in doc:
            raise SchemaError(f"/{key}", "missing required field")
    if not isinstance(doc["params"], dict):
        raise SchemaError("/params", "expected an object")
    params_doc = dict(doc["params"])
    dt = params_doc.get("dt", 0.1)
    params = params_from_jsonable(params_doc)
    taskwise = {}
    for name, raw in doc["metrics"].items():
        if not isinstance(raw, dict) or "value" not in raw:
            raise SchemaError(f"/metrics/{name}", "expected an object with a value")
        taskwise[name] = MetricValue(
            name=name,
            value=decode_value(raw["value"]),
            unit=raw.get("unit", UNITS.get(name, "")),
            code=raw.get("code", taxonomy_code(name) if name in UNITS else "NHT"),
            params_used={k: decode_value(v)
                         for k, v in raw.get("params_used", {}).items()},
        )
    stepwise = None
    if "stepwise" in doc:
        stepwise = {
            name: StepSeries(name=name, unit="", timeline=tuple(series["t"]),
                             values=tuple(series["v"]))
            for name, series in doc["stepwise"].items()
        }
    return MetricReport(episode_id=doc["episode_id"], params=params, dt=dt,
                        taskwise=taskwise, stepwise=stepwise)


# --- Corpus summary -------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    n: int
    n_excluded: int
    mean: Optional[float]
    std: Optional[float]
    min: Optional[float]
    max: Optional[float]
    median: Optional[float]
    edges: tuple[float, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class CorpusSummary:
    n_episodes: int
    params: MetricParams
    success_rate: Optional[float]
    collision_rate: Optional[float]
    distributions: dict[str, Distribution]


def _as_number(value) -> Optional[float]:
    """Numeric view of a metric value; None when excluded from moments."""
    if value is None:
        return None
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    value = float(value)
    if not math.isfinite(value):
        return None
    return value


def _distribution(values: Sequence, bins: int) -> Distribution:
    numbers = [_as_number(v) for v in values]
    # Sorting first makes every reduction independent of report order, so
    # summaries of permuted corpora are byte-identical.
    finite = np.sort(np.array([v for v in numbers if v is not None]))
    excluded = len(numbers) - len(finite)
    if len(finite) == 0:
        return Distribution(n=0, n_excluded=excluded, mean=None, std=None,
                            min=None, max=None, median=None, edges=(), counts=())
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(finite, bins=bins, range=(lo, hi))
    std = float(np.std(finite, ddof=1)) if len(finite) > 1 else 0.0
    return Distribution(
        n=len(finite), n_excluded=excluded,
        mean=float(np.mean(finite)), std=std,
        min=float(finite.min()), max=float(finite.max()),
        median=float(np.median(finite)),
        edges=tuple(map(float, edges)), counts=tuple(map(int, counts)),
    )


def summarize(reports: Sequence[MetricReport], bins: int = 20) -> CorpusSummary:
    """Distributional summary of a corpus of per-episode reports."""
    if not reports:
        raise EmptyCorpus("summarize needs at least one report")
    if bins < 1:
        raise SchemaError("/bins", "must be >= 1")
    names = list(TASKWISE_KEYS)
    extra = [k for k in reports[0].taskwise if k not in TASKWISE_KEYS]
    distributions = {
        name: _distribution([r.taskwise[name].value for r in reports if name in r.taskwise],
                            bins)
        for name in names + extra
    }
    s_dist = distributions.get("S")
    c_dist = distributions.get("C")
    return CorpusSummary(
        n_episodes=len(reports),
        params=reports[0].params,
        success_rate=s_dist.mean if s_dist and s_dist.n else None,
        collision_rate=c_dist.mean if c_dist and c_dist.n else None,
        distributions=distributions,
    )


def summary_to_jsonable(summary: CorpusSummary) -> dict:
    metrics = {}
    for name, d in summary.distributions.items():
        metrics[name] = {
            "unit": UNITS.get(name, ""),
            "code": taxonomy_code(name) if name in UNITS else "NHT",
            "distribution": {
                "n": d.n,
                "n_excluded": d.n_excluded,
                "mean": d.mean, "std": d.std, "min": d.min, "max": d.max,
                "median": d.median,
                "histogram": {"edges": list(d.edges), "counts": list(d.counts)},
            },
        }
    return {
        "format_version": FORMAT_VERSION,
        "n_episodes": summary.n_episodes,
        "params": params_to_jsonable(summary.params),
        "success_rate": summary.success_rate,
        "collision_rate": summary.collision_rate,
        "metrics": metrics,
    }


def parse_summary(document: bytes | str) -> CorpusSummary:
    try:
        doc = json.loads(document if isinstance(document, str)
                         else document.decode("utf-8"))
    except ValueError as e:  # bad UTF-8, bad JSON, or an integer past the conversion limit
        raise MalformedDocument(str(e)) from e
    for key in ("n_episodes", "params", "metrics"):
        if key not in doc:
            raise SchemaError(f"/{key}", "missing required field")
    distributions = {}
    for name, raw in doc["metrics"].items():
        d = raw["distribution"]
        hist = d.get("histogram", {"edges": [], "counts": []})
        distributions[name] = Distribution(
            n=d["n"], n_excluded=d["n_excluded"], mean=d["mean"], std=d["std"],
            min=d["min"], max=d["max"], median=d["median"],
            edges=tuple(hist["edges"]), counts=tuple(hist["counts"]),
        )
    return CorpusSummary(
        n_episodes=doc["n_episodes"],
        params=params_from_jsonable(doc["params"]),
        success_rate=doc.get("success_rate"),
        collision_rate=doc.get("collision_rate"),
        distributions=distributions,
    )


# --- Policy comparison -----------------------------------------------------------

@dataclass(frozen=True)
class Flag:
    metric: str
    policy: str
    baseline: str
    delta: float  # mean(policy) - mean(baseline), in metric units


@dataclass(frozen=True)
class Comparison:
    policies: tuple[str, ...]
    means: dict[str, dict[str, Optional[float]]]  # metric -> policy -> mean
    flags: tuple[Flag, ...]


def compare(summaries: Mapping[str, CorpusSummary]) -> Comparison:
    """Side-by-side means with descriptive dispersion flags.

    A flag records that one policy's mean falls outside another's one-std
    band. No statistical significance is implied or computed.
    """
    if not summaries:
        raise EmptyCorpus("compare needs at least one summary")
    policies = tuple(summaries)
    metric_names: list[str] = []
    for summary in summaries.values():
        for name in summary.distributions:
            if name not in metric_names:
                metric_names.append(name)
    means = {
        name: {policy: summaries[policy].distributions.get(
            name, Distribution(0, 0, None, None, None, None, None, (), ())).mean
            for policy in policies}
        for name in metric_names
    }
    flags = []
    for name in metric_names:
        for policy in policies:
            for baseline in policies:
                if policy == baseline:
                    continue
                mean_p = means[name][policy]
                base = summaries[baseline].distributions.get(name)
                if mean_p is None or base is None or base.mean is None or base.std is None:
                    continue
                if abs(mean_p - base.mean) > base.std:
                    flags.append(Flag(metric=name, policy=policy, baseline=baseline,
                                      delta=mean_p - base.mean))
    return Comparison(policies=policies, means=means, flags=tuple(flags))


def comparison_to_jsonable(comparison: Comparison) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "note": "descriptive comparison; no statistical test was performed",
        "policies": list(comparison.policies),
        "metrics": {name: dict(per_policy)
                    for name, per_policy in comparison.means.items()},
        "flags": [
            {"metric": f.metric, "policy": f.policy, "baseline": f.baseline,
             "delta": f.delta}
            for f in comparison.flags
        ],
    }
