import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socnav

from socnav.cli import main
from socnav.ingest import parse_episode, serialize_episode
from socnav.report import parse_summary
from socnav.scenarios import builtin_cards, serialize_card
from socnav.simulator import SCENARIO_NAMES

from conftest import fuzz_episode


@pytest.fixture
def episode_file(tmp_path):
    path = tmp_path / "ep.json"
    path.write_bytes(serialize_episode(fuzz_episode(1)))
    return path


def test_validate_ok(episode_file, capsys):
    assert main(["validate", str(episode_file)]) == 0


def test_validate_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{broken")
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_multiple_files(tmp_path, episode_file):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format_version": "1.0"}')
    assert main(["validate", str(episode_file), str(bad)]) == 1


def test_usage_error_exit_2(capsys):
    assert main(["compute"]) == 2
    assert main(["frobnicate"]) == 2


def test_missing_file_exit_3(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "nope.json"), "-o",
                 str(tmp_path / "out.json")]) == 3


def test_compute_writes_schema_complete_report(episode_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["compute", str(episode_file), "--stepwise", "-o", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    assert doc["format_version"] == "1.0"
    assert len(doc["metrics"]) == 26
    assert doc["metrics"]["S"]["code"] == "NHT"
    assert "stepwise" in doc


def test_compute_with_params_file(episode_file, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"space_threshold": 1.0, "timeout": 30.0, "fp_window": 12}))
    out = tmp_path / "report.json"
    assert main(["compute", str(episode_file), "--params", str(params),
                 "-o", str(out)]) == 0
    assert b'"fp_window":12,' in out.read_bytes()  # an integral value is echoed as given
    doc = json.loads(out.read_bytes())
    assert doc["params"]["space_threshold"] == 1.0
    assert doc["metrics"]["SC"]["params_used"]["space_threshold"] == 1.0


def test_simulate_deterministic_names(tmp_path):
    outdir = tmp_path / "eps"
    assert main(["simulate", "--scenario", "frontal_approach", "--seed", "7",
                 "--count", "3", "-o", str(outdir)]) == 0
    names = sorted(p.name for p in outdir.glob("*.json"))
    assert names == ["frontal_approach_7_0.json", "frontal_approach_7_1.json",
                     "frontal_approach_7_2.json"]
    ep = parse_episode((outdir / "frontal_approach_7_0.json").read_bytes())
    assert ep.episode_id == "frontal_approach_7_0"
    assert ep.metadata["scenario"] == "frontal_approach"


def test_simulate_unknown_scenario(tmp_path):
    assert main(["simulate", "--scenario", "conga", "--seed", "1",
                 "-o", str(tmp_path)]) == 2


def test_classify_and_coverage(tmp_path):
    outdir = tmp_path / "eps"
    main(["simulate", "--scenario", "intersection", "--seed", "3", "--count", "2",
          "-o", str(outdir)])
    labels_file = tmp_path / "labels.json"
    files = sorted(str(p) for p in outdir.glob("*.json"))
    assert main(["classify", *files, "-o", str(labels_file)]) == 0
    doc = json.loads(labels_file.read_bytes())
    assert doc["coverage"]["episode_count"] == 2
    assert doc["coverage"]["scenario_counts"].get("intersection") == 2


def test_import_tsv(tmp_path):
    tsv = tmp_path / "walk.tsv"
    rows = ["# demo"] + [f"{f}\tped\t{0.1 * f:.2f}\t0.0" for f in range(20)]
    tsv.write_text("\n".join(rows))
    out = tmp_path / "ep.json"
    assert main(["import", "--tsv", str(tsv), "--hz", "10", "-o", str(out)]) == 0
    ep = parse_episode(out.read_bytes())
    assert ep.robot_under_test == "ped"
    assert len(ep.robot.states) == 20


def _walk_tsv(tmp_path, rows=None):
    tsv = tmp_path / "walk.tsv"
    rows = rows or [f"{f}\tped\t{0.1 * f:.2f}\t0.0" for f in range(20)]
    tsv.write_text("\n".join(rows))
    return tsv


@pytest.mark.parametrize("hz", ["inf", "nan", "0", "-5"])
def test_import_rejects_bad_frame_rate(tmp_path, hz):
    out = tmp_path / "ep.json"
    env = dict(os.environ, PYTHONPATH=str(Path(socnav.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "socnav.cli", "import", "--tsv", str(_walk_tsv(tmp_path)),
         f"--hz={hz}", "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "/frame_rate" in lines[0]
    assert not out.exists()


def test_cli_import_leaves_simulator_and_scenarios_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(socnav.__file__).parents[1]))
    code = ("import sys, socnav.cli; "
            "print(sorted(m for m in ('socnav.simulator', 'socnav.scenarios', "
            "'socnav.metrics', 'socnav.report') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_output_passes_validate(tmp_path):
    rows = [f"{f}\t{a}\t{0.05 * f + k:.3f}\t{0.5 * k}"
            for k, a in enumerate("abc") for f in range(k, 30 + 3 * k)]
    for hz in ("10", "2.5", "120"):
        out = tmp_path / f"ep{hz}.json"
        assert main(["import", "--tsv", str(_walk_tsv(tmp_path, rows)), "--hz", hz,
                     "--robot", "b", "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0


def test_import_rejects_non_utf8_tsv(tmp_path, capsys):
    tsv = tmp_path / "walk.tsv"
    tsv.write_bytes(b"0\tped\t0.0\t0.0\n1\tped\t0.1\xff\t0.0\n")
    out = tmp_path / "ep.json"
    assert main(["import", "--tsv", str(tsv), "--hz", "10", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "not valid UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_import_rejects_episode_that_fails_validation(tmp_path, capsys):
    # a 50 m jump within one frame exceeds the implied-speed cap
    rows = ["0\tped\t0.0\t0.0", "1\tped\t50.0\t0.0"]
    out = tmp_path / "ep.json"
    assert main(["import", "--tsv", str(_walk_tsv(tmp_path, rows)), "--hz", "10",
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "exceeds cap" in err
    assert not out.exists()


@pytest.mark.parametrize("policy", ["sfm", "straight_line_stop"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_simulated_file_passes_validate(tmp_path, capsys, scenario, policy):
    assert main(["simulate", "--scenario", scenario, "--seed", "3", "--count", "1",
                 "--robot-policy", policy, "-o", str(tmp_path)]) == 0
    [path] = tmp_path.glob("*.json")
    assert main(["validate", str(path)]) == 0
    assert "error:" not in capsys.readouterr().err


def test_full_pipeline_compose(tmp_path):
    """simulate -> classify -> compute -> summarize -> compare, via files."""
    eps = tmp_path / "eps"
    main(["simulate", "--scenario", "frontal_approach", "--seed", "1",
          "--count", "3", "-o", str(eps)])
    files = sorted(str(p) for p in eps.glob("*.json"))

    assert main(["validate", *files]) == 0
    assert main(["classify", *files, "-o", str(tmp_path / "labels.json")]) == 0

    report_files = []
    for i, f in enumerate(files):
        out = tmp_path / f"report_{i}.json"
        assert main(["compute", f, "-o", str(out)]) == 0
        report_files.append(str(out))

    summary_file = tmp_path / "summary.json"
    assert main(["summarize", *report_files, "-o", str(summary_file)]) == 0
    summary = parse_summary(summary_file.read_bytes())
    assert summary.n_episodes == 3

    table = tmp_path / "table.json"
    assert main(["compare", "--label", f"a={summary_file}",
                 "--label", f"b={summary_file}", "-o", str(table)]) == 0
    doc = json.loads(table.read_bytes())
    assert doc["policies"] == ["a", "b"]
    assert doc["flags"] == []


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("value", [1e16, -1e16, 1e300])
def test_summarize_huge_constant_metric(tmp_path, value):
    doc = json.loads((GOLDEN / "headings_omitted" / "report.json").read_bytes())
    doc["metrics"]["PL"]["value"] = value
    files = []
    for i in range(2):
        files.append(tmp_path / f"report_{i}.json")
        files[-1].write_text(json.dumps(doc))
    out = tmp_path / "summary.json"
    assert main(["summarize", *map(str, files), "-o", str(out)]) == 0
    pl = parse_summary(out.read_bytes()).distributions["PL"]
    assert pl.min == pl.max == value and sum(pl.counts) == 2
    assert all(a < b for a, b in zip(pl.edges, pl.edges[1:]))


@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
def test_summarize_overflowing_moment_one_line(tmp_path, capsys):
    doc = json.loads((GOLDEN / "headings_omitted" / "report.json").read_bytes())
    doc["metrics"]["PL"]["value"] = 1.7e308  # the sum of two overflows a float
    files = []
    for i in range(2):
        files.append(tmp_path / f"report_{i}.json")
        files[-1].write_text(json.dumps(doc))
    assert main(["summarize", *map(str, files), "-o", str(tmp_path / "summary.json")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: /metrics/PL: mean or std of the values overflows a float"]
    assert not (tmp_path / "summary.json").exists()


def test_validate_huge_speed_lines_stay_short(tmp_path, capsys, monkeypatch):
    doc = json.loads(serialize_episode(fuzz_episode(1)))
    doc["agents"][0]["states"][1]["x"] = 1e307  # ~1e308 m/s over the 0.1 s steps
    monkeypatch.chdir(tmp_path)
    Path("ep.json").write_text(json.dumps(doc))
    assert main(["validate", "ep.json"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert sum("implied speed 1.000e+308 m/s" in line for line in lines) == 2
    assert all(len(line) < 100 for line in lines)


def test_validate_huge_velocity_deviation_line_stays_short(tmp_path, capsys, monkeypatch):
    doc = json.loads((GOLDEN / "dynamic_obstacles" / "episode.json").read_bytes())
    doc["agents"][0]["states"][3]["vx"] = 1e200
    monkeypatch.chdir(tmp_path)
    Path("ep.json").write_text(json.dumps(doc))
    assert main(["validate", "ep.json"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "warning: /agents/0/states/3/vx" in lines[0]
    assert "by 1.000e+200 m/s" in lines[0] and len(lines[0]) < 120


def test_summarize_golden_reports_unchanged(tmp_path):
    """Constant metrics keep their +-0.5 bins: the bytes from before the relative pad."""
    out = tmp_path / "summary.json"
    assert main(["summarize", *map(str, sorted(GOLDEN.glob("*/report.json"))),
                 "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d16a831b0421d3c373a5fbef4a46dcb2f994c007471c18321ae3ed60c3bb1b11")


@pytest.mark.parametrize("digits", [401, 5001])
@pytest.mark.parametrize("command", ["validate", "compute", "classify"])
def test_out_of_range_number_one_line(episode_file, tmp_path, capsys, command, digits):
    # 401 digits overflow a float; past 4300 the JSON decoder itself refuses the integer
    doc = json.loads(episode_file.read_bytes())
    doc["agents"][0]["states"][0]["x"] = "HUGE"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * (digits - 1)))
    assert main([command, str(huge)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert ("number out of range" if digits == 401 else "not valid JSON") in err


_BAD_CRITERIA = {f"min_crowd_size-{v.strip(chr(34))}": ("min_crowd_size", v)
                 for v in ('"x"', "true", "null", "2.5", "Infinity", "NaN")}
_BAD_CRITERIA.update({f"proximity_max-{v}": ("proximity_max", v)
                      for v in ("NaN", "Infinity", "0", "-1")})
_BAD_CRITERIA["proximity_max-401-digits"] = ("proximity_max", "1" + "0" * 400)


@pytest.mark.parametrize("field, value", _BAD_CRITERIA.values(), ids=_BAD_CRITERIA.keys())
def test_card_bad_criterion_one_line(episode_file, tmp_path, capsys, field, value):
    cards = tmp_path / "cards"
    cards.mkdir()
    doc = json.loads(serialize_card(builtin_cards()["parallel_traffic"]))
    doc["usage_guide"]["labeling_criteria"][field] = "BAD"
    (cards / "card.json").write_text(json.dumps(doc).replace('"BAD"', value))
    assert main(["classify", "--cards", str(cards), str(episode_file)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert f"/usage_guide/labeling_criteria/{field}" in err


def test_card_integral_min_crowd_size_accepted(episode_file, tmp_path):
    cards = tmp_path / "cards"
    cards.mkdir()
    text = serialize_card(builtin_cards()["parallel_traffic"]).decode()
    (cards / "card.json").write_text(text.replace('"min_crowd_size":5', '"min_crowd_size":5.0'))
    assert main(["classify", "--cards", str(cards), str(episode_file),
                 "-o", str(tmp_path / "labels.json")]) == 0


@pytest.mark.parametrize("params, message", [
    ("5", "/params: expected an object"),
    ("1" + "0" * 5000, "4300"),  # past the JSON decoder's integer limit
], ids=["not-object", "5001-digits"])
def test_summarize_bad_report_params_one_line(episode_file, tmp_path, capsys, params, message):
    report_file = tmp_path / "report.json"
    assert main(["compute", str(episode_file), "-o", str(report_file)]) == 0
    doc = json.loads(report_file.read_bytes())
    doc["params"] = "BAD"
    report_file.write_text(json.dumps(doc).replace('"BAD"', params))
    assert main(["summarize", str(report_file), "-o", str(tmp_path / "summary.json")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("argv, path", [
    (["compute", "EPISODE", "--dt", "nan"], "/dt"),
    (["compute", "EPISODE", "--dt", "inf"], "/dt"),
    (["compute", "EPISODE", "--dt", "0"], "/dt"),
    (["simulate", "--scenario", "frontal_approach", "--seed", "-1"], "/seed"),
    (["simulate", "--scenario", "frontal_approach", "--seed", "1", "--count", "-3"], "/count"),
    (["simulate", "--scenario", "frontal_approach", "--seed", "1", "--count", "0"], "/count"),
    (["summarize", "REPORT", "--bins", "10001"], "/bins"),  # one past report.MAX_BINS
], ids=["dt-nan", "dt-inf", "dt-0", "seed-negative", "count-negative", "count-0",
        "bins-above-bound"])
def test_bad_cli_number_one_line(episode_file, tmp_path, capsys, argv, path):
    report_file = tmp_path / "inputs" / "report.json"
    if "REPORT" in argv:
        assert main(["compute", str(episode_file), "-o", str(report_file)]) == 0
    argv = [str(episode_file) if a == "EPISODE" else str(report_file) if a == "REPORT" else a
            for a in argv]
    assert main([*argv, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"error: {path}: " in err
    assert not list(tmp_path.glob("out*"))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A valid file of every format socnav reads, by kind."""
    root = tmp_path_factory.mktemp("documents")
    golden = Path(__file__).parent / "golden"
    episode = golden / "dynamic_obstacles" / "episode.json"
    docs = {"episode": episode, "params": golden / "params.json",
            "report": root / "report.json", "summary": root / "summary.json",
            "card": root / "card.json"}
    assert main(["compute", str(episode), "--stepwise", "-o", str(docs["report"])]) == 0
    assert main(["summarize", str(docs["report"]), "-o", str(docs["summary"])]) == 0
    docs["card"].write_bytes(serialize_card(builtin_cards()["parallel_traffic"]))
    return docs


# The subcommand that reads each format; FILE is the document under test.
_READERS = {
    "report": ["summarize", "FILE"],
    "summary": ["compare", "--label", "a=FILE"],
    "card": ["classify", "--cards", "DIR", "EPISODE"],
    "params": ["compute", "EPISODE", "--params", "FILE"],
    "episode": ["validate", "FILE"],
}


def _run_reader(kind: str, document: bytes, docs: dict, work: Path) -> tuple[int, list[str]]:
    work.mkdir(exist_ok=True)
    target = work / "document.json"
    target.write_bytes(document)
    argv = [str(docs["episode"]) if a == "EPISODE" else str(work) if a == "DIR"
            else a.replace("FILE", str(target)) for a in _READERS[kind]]
    if kind != "episode":
        argv += ["-o", str(work / "out.out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


_DELETE = object()


def _edited(path: Path, pointer: tuple, value) -> bytes:
    """The JSON document at ``path`` with the node at ``pointer`` replaced or deleted."""
    doc = json.loads(path.read_bytes())
    if not pointer:
        return json.dumps(value).encode()
    node = doc
    for key in pointer[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[pointer[-1]]
    else:
        node[pointer[-1]] = value
    return json.dumps(doc).encode()


@pytest.mark.parametrize("kind, pointer, value, path", [
    ("report", ("metrics", "S", "value"), "abc", "/metrics/S/value"),
    ("report", ("metrics", "S", "value"), math.nan, "/metrics/S/value"),
    ("report", ("stepwise", "speed", "v", 3), "x", "/stepwise/speed/v/3"),
    ("summary", ("metrics", "S", "distribution"), _DELETE, "/metrics/S/distribution"),
    ("summary", ("metrics", "S", "distribution", "mean"), math.inf,
     "/metrics/S/distribution/mean"),
    ("params", ("timeout",), 10 ** 400, "/params/timeout"),
    ("params", ("timeout",), True, "/params/timeout"),
    ("params", ("timeout",), math.nan, "/params/timeout"),
    ("params", ("collision_terminate_count",), "x", "/params/collision_terminate_count"),
    ("params", ("cooperative_agent_ids",), "robot", "/params/cooperative_agent_ids"),
    ("card", ("usage_guide", "success_metrics", 0), 7, "/usage_guide/success_metrics/0"),
    ("episode", ("obstacles", "dynamic"), 7.5, "/obstacles/dynamic"),
], ids=["report-value-string", "report-value-nan", "report-stepwise-element",
        "summary-no-distribution", "summary-mean-infinity", "params-401-digits",
        "params-bool", "params-nan", "params-count-string", "params-ids-string",
        "card-metric-not-string", "episode-dynamic-number"])
def test_bad_field_one_line_with_path(documents, tmp_path, kind, pointer, value, path):
    document = _edited(documents[kind], pointer, value)
    code, lines = _run_reader(kind, document, documents, tmp_path)
    assert code == 1
    assert len(lines) == 1 and f"{path}: " in lines[0]


def test_params_file_not_utf8_one_line(documents, tmp_path):
    code, lines = _run_reader("params", b'{"timeout": 1\xff}', documents, tmp_path)
    assert code == 1
    assert len(lines) == 1 and "not valid UTF-8" in lines[0]


def _json_pointers(node, pointer=()):
    yield pointer
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _json_pointers(child, (*pointer, key))


# Type confusions: each stands for a node another tool, or a careless edit, may write.
_NODES = [None, True, False, 0, 7, -3, 10 ** 400, "x", "Infinity", math.nan, math.inf,
          -math.inf, [], {}, [1, "x"]]


@pytest.mark.parametrize("kind", sorted(_READERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decoding_fuzz(documents, tmp_path_factory, kind, data):
    """One node replaced or deleted anywhere: exit 0-3, never a traceback, one line per problem."""
    pointers = list(_json_pointers(json.loads(documents[kind].read_bytes())))
    pointer = data.draw(st.sampled_from(pointers), label="pointer")
    value = data.draw(st.sampled_from(_NODES + [_DELETE] if pointer else _NODES), label="node")
    work = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
    code, lines = _run_reader(kind, _edited(documents[kind], pointer, value), documents, work)
    assert code in (0, 1, 2, 3)
    if kind == "episode":
        # validate lists every problem, one line each
        target = re.escape(str(work / "document.json"))
        assert all(re.match(rf"{target}: (error|warning): ", line) for line in lines)
        assert (code == 1) == any(": error: " in line for line in lines)
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_compare_bad_label_spec(tmp_path):
    assert main(["compare", "--label", "nonsense"]) == 2


def test_stdout_output(episode_file, capsysbinary):
    assert main(["compute", str(episode_file)]) == 0
    raw = capsysbinary.readouterr().out
    doc = json.loads(raw)
    assert doc["episode_id"] == "fuzz-1"
