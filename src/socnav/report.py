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

import math
import sys
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import MetricParams, _param_echo, median, positive_finite
from .errors import EmptyCorpus, InvariantError, SchemaError
from .ingest import (FORMAT_VERSION, _array, _finite, _integer, _Issues, _object, _string,
                     canonical_json_bytes, load_json, read_dataclass)
from .metrics import (STEPWISE_UNITS, TASKWISE_KEYS, UNITS, MetricReport, MetricValue,
                      StepSeries, taxonomy_code)


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


def _metric_value(obj, key, path, issues):
    """null, a bool, a finite number, or "Infinity"/"-Infinity" as ±inf."""
    value = obj.get(key)
    if key in obj and (value is None or type(value) is bool):
        return value
    if value in ("Infinity", "-Infinity"):
        return math.inf if value == "Infinity" else -math.inf
    return _finite(obj, key, path, issues)


def _echo_value(obj, key, path, issues):
    """A parameter echoed in ``params_used``: a metric value or an array of ids."""
    if isinstance(obj.get(key), list):
        return _array(obj, key, path, issues, item=_string)
    return _metric_value(obj, key, path, issues)


def _unit_and_code(name: str) -> tuple[str, str]:
    """A metric's unit and taxonomy code; a name outside the suite gets ("", "NHT")."""
    return UNITS.get(name, ""), taxonomy_code(name)


def params_to_jsonable(params: MetricParams) -> dict:
    return {f.name: _param_echo(params, f.name) for f in fields(MetricParams)}


def params_from_jsonable(doc: Mapping) -> MetricParams:
    """MetricParams from a params object; every field is checked at ``/params/<name>``."""
    if not isinstance(doc, Mapping):
        raise SchemaError("/params", "expected an object")
    unknown = set(doc) - {f.name for f in fields(MetricParams)} - {"dt"}  # dt: echoed, not a field
    if unknown:
        raise SchemaError(f"/params/{sorted(unknown)[0]}", "unknown parameter")
    return read_dataclass(MetricParams, doc, "/params", _Issues(strict=True))


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
    """Canonical serialization of a report, summary, or comparison. JSON has no
    NaN, and a stepwise sample must be finite: either is refused at its path."""
    if isinstance(obj, MetricReport):
        for name, mv in obj.taskwise.items():
            if isinstance(mv.value, float) and math.isnan(mv.value):
                raise InvariantError(f"/metrics/{name}/value", "must not be NaN")
        for name, series in (obj.stepwise or {}).items():
            for i, v in enumerate(series.values):
                if not math.isfinite(v):
                    raise InvariantError(f"/stepwise/{name}/v/{i}", f"must be finite, got {v}")
        return canonical_json_bytes(report_to_jsonable(obj))
    if isinstance(obj, CorpusSummary):
        return canonical_json_bytes(summary_to_jsonable(obj))
    if isinstance(obj, Comparison):
        return canonical_json_bytes(comparison_to_jsonable(obj))
    raise SchemaError("", f"cannot serialize {type(obj).__name__}")


def parse_report(document: bytes | str) -> MetricReport:
    doc = load_json(document)
    if not isinstance(doc, dict):
        raise SchemaError("", "report document must be an object")
    issues = _Issues(strict=True)
    episode_id = _string(doc, "episode_id", "", issues)
    params_doc = _object(doc, "params", "", issues)
    metrics = _object(doc, "metrics", "", issues)
    dt = _finite(params_doc, "dt", "/params", issues)
    positive_finite(dt, "/params/dt")
    params = params_from_jsonable(params_doc)
    taskwise = {}
    for name in metrics:
        at = f"/metrics/{name}"
        raw = _object(metrics, name, "/metrics", issues)
        used = _object(raw, "params_used", at, issues, required=False, default={})
        unit, code = _unit_and_code(name)
        taskwise[name] = MetricValue(
            name=name,
            value=_metric_value(raw, "value", at, issues),
            unit=_string(raw, "unit", at, issues, required=False, default=unit),
            code=_string(raw, "code", at, issues, required=False, default=code),
            params_used={k: _echo_value(used, k, f"{at}/params_used", issues) for k in used},
        )
    stepwise = None
    series_docs = _object(doc, "stepwise", "", issues, required=False)
    if series_docs is not None:
        stepwise = {}
        for name in series_docs:
            series = _object(series_docs, name, "/stepwise", issues)
            at = f"/stepwise/{name}"
            stepwise[name] = StepSeries(
                name=name, unit=STEPWISE_UNITS.get(name, ""),
                timeline=tuple(_array(series, "t", at, issues, item=_finite)),
                values=tuple(_array(series, "v", at, issues, item=_finite)))
    return MetricReport(episode_id=episode_id, params=params, dt=dt,
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
    distributions: dict[str, Distribution]
    success_rate: Optional[float] = None
    collision_rate: Optional[float] = None


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


def _finite_bins(lo: float, hi: float, bins: int) -> bool:
    """Whether np.histogram can cut [lo, hi] into ``bins`` finite-sized bins."""
    if hi - lo > max(abs(lo), abs(hi)) * (bins * 2.0 ** -40):
        return True  # thousands of float steps per bin
    return bool((np.diff(np.linspace(lo, hi, bins + 1)) > 0).all())


def _distribution(name: str, values: Sequence, bins: int) -> Distribution:
    numbers = [_as_number(v) for v in values]
    # Sorting first makes every reduction independent of report order, so
    # summaries of permuted corpora are byte-identical.
    finite = np.sort(np.array([v for v in numbers if v is not None]))
    excluded = len(numbers) - len(finite)
    if len(finite) == 0:
        return Distribution(n=0, n_excluded=excluded, mean=None, std=None,
                            min=None, max=None, median=None, edges=(), counts=())
    with np.errstate(over="ignore"):
        mean = float(np.mean(finite))
        std = float(np.std(finite, ddof=1)) if len(finite) > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise SchemaError(f"/metrics/{name}", "mean or std of the values overflows a float")
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    if not _finite_bins(lo, hi, bins):
        # The range is lost in the rounding of huge values (a +-0.5 pad
        # vanishes at 1e16): pad relative to the magnitude instead.
        pad = max(abs(lo), abs(hi)) * (bins * 2.0 ** -48)
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    counts, edges = np.histogram(finite, bins=bins, range=(lo, hi))
    return Distribution(
        n=len(finite), n_excluded=excluded, mean=mean, std=std,
        min=float(finite.min()), max=float(finite.max()),
        median=float(median(finite)),
        edges=tuple(map(float, edges)), counts=tuple(map(int, counts)),
    )


# Every metric's histogram holds bins + 1 edges in memory and in the summary file.
MAX_BINS = 10_000


def _same_params(params: MetricParams, expected: MetricParams, what: str, other: str):
    """Fail at ``/params/<name>`` on the first field where ``what``'s params differ."""
    for f in fields(MetricParams):
        value, want = _param_echo(params, f.name), _param_echo(expected, f.name)
        if value != want:
            raise InvariantError(f"/params/{f.name}", f"{what} has {value!r} but {other} has "
                                 f"{want!r}; results under other params are not comparable")


def summarize(reports: Sequence[MetricReport], bins: int = 20) -> CorpusSummary:
    """Distributional summary of a corpus of per-episode reports, ``bins`` in [1, MAX_BINS]."""
    if not reports:
        raise EmptyCorpus("summarize needs at least one report")
    if bins < 1:
        raise SchemaError("/bins", "must be >= 1")
    if bins > MAX_BINS:
        raise SchemaError("/bins", f"must be <= {MAX_BINS}, got {bins}")
    first = reports[0]
    for i, r in enumerate(reports[1:], 2):
        _same_params(r.params, first.params, f"report {i} (episode {r.episode_id!r})",
                     f"report 1 (episode {first.episode_id!r})")
    # The suite, then every other metric in first-seen order; a report
    # without a metric counts in that metric's n_excluded.
    names = dict.fromkeys(TASKWISE_KEYS)
    for r in reports:
        names.update(dict.fromkeys(r.taskwise))
    distributions = {
        name: _distribution(name, [r.taskwise[name].value if name in r.taskwise else None
                                   for r in reports], bins)
        for name in names
    }
    s_dist = distributions.get("S")
    c_dist = distributions.get("C")
    return CorpusSummary(
        n_episodes=len(reports),
        params=first.params,
        success_rate=s_dist.mean if s_dist and s_dist.n else None,
        collision_rate=c_dist.mean if c_dist and c_dist.n else None,
        distributions=distributions,
    )


def summary_to_jsonable(summary: CorpusSummary) -> dict:
    metrics = {}
    for name, d in summary.distributions.items():
        dist = dict(vars(d))  # the fields, shallow: asdict would deep-copy
        dist["histogram"] = {"edges": dist.pop("edges"), "counts": dist.pop("counts")}
        unit, code = _unit_and_code(name)
        metrics[name] = {"unit": unit, "code": code, "distribution": dist}
    return {
        "format_version": FORMAT_VERSION,
        "n_episodes": summary.n_episodes,
        "params": params_to_jsonable(summary.params),
        "success_rate": summary.success_rate,
        "collision_rate": summary.collision_rate,
        "metrics": metrics,
    }


def parse_summary(document: bytes | str) -> CorpusSummary:
    doc = load_json(document)
    if not isinstance(doc, dict):
        raise SchemaError("", "summary document must be an object")
    issues = _Issues(strict=True)
    metrics = _object(doc, "metrics", "", issues)
    distributions = {}
    for name in metrics:
        at = f"/metrics/{name}/distribution"
        d = _object(_object(metrics, name, "/metrics", issues), "distribution",
                    f"/metrics/{name}", issues)
        hist = _object(d, "histogram", at, issues, required=False,
                       default={"edges": [], "counts": []})
        distributions[name] = read_dataclass(
            Distribution, d, at, issues,
            edges=tuple(_array(hist, "edges", f"{at}/histogram", issues, item=_finite)),
            counts=tuple(_array(hist, "counts", f"{at}/histogram", issues, item=_integer)))
    return read_dataclass(CorpusSummary, doc, "", issues, distributions=distributions,
                          params=params_from_jsonable(_object(doc, "params", "", issues)))


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
    first = policies[0]
    for policy in policies[1:]:
        _same_params(summaries[policy].params, summaries[first].params,
                     f"summary {policy!r}", f"summary {first!r}")
    metric_names = dict.fromkeys(name for s in summaries.values() for name in s.distributions)
    means = {
        name: {policy: getattr(summaries[policy].distributions.get(name), "mean", None)
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
        "metrics": comparison.means,
        "flags": [vars(f) for f in comparison.flags],
    }
