"""Tests of the benchmark's own parts: input generator, spans, refusal.

    python3 -m pytest bench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
from results import at_nominal_speed  # noqa: E402
from spans import Tracer, self_times_ns  # noqa: E402

from socnav import ingest, scenarios  # noqa: E402

CORPUS = 40


@pytest.fixture(scope="module")
def corpus():
    return inputs.analysis_corpus(7, 0, CORPUS)


def test_same_seed_same_bytes(corpus):
    assert inputs.analysis_corpus(7, 0, CORPUS) == corpus
    assert inputs.crowd_tsv(7) == inputs.crowd_tsv(7)


def test_other_seed_other_bytes(corpus):
    assert inputs.analysis_corpus(8, 0, CORPUS) != corpus
    assert inputs.crowd_tsv(8) != inputs.crowd_tsv(7)


@pytest.mark.parametrize("seed", [7, 8])
def test_every_episode_validates(seed):
    for data in inputs.analysis_corpus(seed, 0, CORPUS):
        assert [i for i in ingest.validate(data) if i.severity == "error"] == []


def test_corpus_varies_the_inputs(corpus):
    episodes = [ingest.parse_episode(d) for d in corpus]
    counts = {len(e.agents) for e in episodes}
    assert min(counts) == 2 and max(counts) >= 14
    assert {e.metadata["layout"] for e in episodes} == set(inputs.LAYOUTS)
    assert {e.metadata["family"] for e in episodes} == set(inputs.FAMILIES)
    assert any(b'"vx"' not in d for d in corpus) and any(b'"vx"' in d for d in corpus)
    assert any(e.obstacles.dynamic for e in episodes)


@pytest.mark.parametrize("seed", [7, 8])
def test_every_scenario_is_labelled(seed):
    seen = set()
    for data in inputs.analysis_corpus(seed, 0, CORPUS):
        seen.update(label.scenario for label in scenarios.classify(ingest.parse_episode(data)))
    assert seen >= set(scenarios.CLASSIFIABLE_SCENARIOS)


def test_imported_tsv_validates():
    episode = ingest.import_tsv(inputs.crowd_tsv(7), frame_rate=inputs.TSV_HZ,
                                robot_id=inputs.TSV_ROBOT)
    assert len(episode.agents) == 12
    data = ingest.serialize_episode(episode)
    assert [i for i in ingest.validate(data) if i.severity == "error"] == []


def test_self_time_subtracts_children():
    spans = [
        {"name": "bench.episode", "start": 0, "end": 100, "parent": None},
        {"name": "ingest.parse", "start": 10, "end": 40, "parent": 0},
        {"name": "metrics.compute_all", "start": 50, "end": 60, "parent": 0},
    ]
    assert self_times_ns(spans) == [60, 30, 10]


def test_tracer_records_parent_and_failure():
    tr = Tracer(True)
    with tr.span("bench.episode", "e1"):
        assert tr.call("ingest.parse", len, b"abc", episode="e1") == 3
        with pytest.raises(ZeroDivisionError):
            tr.call("metrics.compute_all", lambda: 1 / 0)
    outer, inner, broken = tr.spans
    assert inner["parent"] == 0 and inner["episode"] == "e1" and not inner["failed"]
    assert broken["failed"] and outer["end"] >= broken["end"]
    off = Tracer(False)
    assert off.call("ingest.parse", len, b"ab") == 2 and off.spans == []


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sim_corpus",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no socnav sources" in proc.stderr


def test_nominal_speed_scales_times_and_rates():
    measured = {"episodes_per_s": (10.0, "1/s"), "episode_ms_p50": (50.0, "ms"),
                "setup_s": (0.2, "s"), "peak_rss_mb": (40.0, "MB")}
    # The reference ran at half its nominal time: the machine was twice as fast.
    # Processes started at nominal speed.
    scaled = at_nominal_speed(measured, 2.0, 1.0)
    assert scaled == {"episodes_per_s": (5.0, "1/s"), "episode_ms_p50": (100.0, "ms"),
                      "setup_s": (0.2, "s"), "peak_rss_mb": (40.0, "MB")}


def test_reference_speed_is_nominal_over_median():
    ref = reference.Reference()
    ref.warm(times=1)
    assert ref.times_ms == []
    ref.once()
    assert ref.times_ms[0] > 0
    ref.times_ms[:] = [reference.NOMINAL_MS * 2, reference.NOMINAL_MS * 4, 1.0]
    assert ref.speed() == 0.5
    assert reference.start_speed([reference.NOMINAL_START_S / 2] * 3) == 2.0
