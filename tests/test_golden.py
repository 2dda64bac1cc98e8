"""Golden corpus: committed episodes and the exact bytes the toolkit produces for them.

Each directory under ``tests/golden`` holds one input document,
``episode.json``, and next to it the output of each command on it:

- ``validate.txt``: what ``socnav validate episode.json`` prints on stderr;
- ``canonical.json``: the canonical serialization of the parsed episode;
- ``report.json``: ``socnav compute --stepwise episode.json``;
- ``report_params.json``: ``socnav compute --params params.json episode.json``,
  where ``tests/golden/params.json`` stops the episode at the first
  collision and names the robot as the cooperative set;
- ``labels.json``: ``socnav classify episode.json``.

Documents that do not parse (``invalid_*``) have ``validate.txt`` only.
``simulated_labels.json`` holds the ``classify`` labels of every built-in
scenario simulated with each robot policy at seeds 0-2, keyed
``scenario/policy/seed``, so every detector's windows and confidences
are pinned on unedited simulator output.
``tests/golden/README.md`` says what each episode covers. After a change
that is meant to alter an output, rewrite the expected files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from socnav.cli import main
from socnav.ingest import canonical_json_bytes, parse_episode, serialize_episode
from socnav.report import parse_report, write_output
from socnav.scenarios import classify
from socnav.simulator import SCENARIO_NAMES, generate_scenario, run

GOLDEN = Path(__file__).parent / "golden"
PARAMS = GOLDEN / "params.json"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
SIMULATED_LABELS = GOLDEN / "simulated_labels.json"
REPORTS = sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.glob("*/report*.json"))


def outputs(case: Path) -> dict[str, bytes]:
    """Run every command on ``case/episode.json``; output file name -> bytes."""
    episode = case / "episode.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["validate", str(episode)])
    out = {"validate.txt": err.getvalue().replace(f"{episode}: ", "episode.json: ").encode()}
    if code != 0:
        return out
    out["canonical.json"] = serialize_episode(parse_episode(episode.read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in (("report.json", ["compute", "--stepwise"]),
                           ("report_params.json", ["compute", "--params", str(PARAMS)]),
                           ("labels.json", ["classify"])):
            target = Path(tmp) / name
            assert main([*argv, str(episode), "-o", str(target)]) == 0
            out[name] = target.read_bytes()
    return out


def simulated_labels() -> bytes:
    """Canonical ``classify`` labels of the simulated scenarios, with confidences."""
    doc = {}
    for name in SCENARIO_NAMES:
        for policy in ("sfm", "straight_line_stop"):
            for seed in range(3):
                labels = classify(run(generate_scenario(name, seed, policy)))
                doc[f"{name}/{policy}/{seed}"] = [
                    {"scenario": l.scenario, "agent_ids": list(l.agent_ids),
                     "t_start": l.t_start, "t_end": l.t_end, "confidence": l.confidence}
                    for l in labels]
    return canonical_json_bytes(doc)


def test_corpus_is_small():
    assert len(CASES) >= 5
    assert sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file()) < 200_000


@pytest.mark.parametrize("case", CASES)
def test_outputs_byte_identical(case):
    got = outputs(GOLDEN / case)
    want = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir() if p.name != "episode.json"}
    assert sorted(got) == sorted(want)
    assert ("report.json" not in got) == case.startswith("invalid_")
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs"


@pytest.mark.parametrize("report", REPORTS)
def test_report_bytes_survive_parse_and_write(report):
    raw = (GOLDEN / report).read_bytes()
    assert write_output(parse_report(raw)) == raw


def test_simulated_labels_byte_identical():
    assert simulated_labels() == SIMULATED_LABELS.read_bytes()


if __name__ == "__main__":
    SIMULATED_LABELS.write_bytes(simulated_labels())
    print(f"wrote {SIMULATED_LABELS}", file=sys.stderr)
    for case in CASES:
        for name, data in outputs(GOLDEN / case).items():
            (GOLDEN / case / name).write_bytes(data)
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
