import contextlib
import gc
import hashlib
import importlib
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
from socnav.core import AgentKind
from socnav.ingest import parse_episode, serialize_episode
from socnav.report import parse_summary
from socnav.scenarios import builtin_cards, serialize_card
from socnav.simulator import SCENARIO_NAMES, generate_scenario, run

from conftest import DELETE, edited, fuzz_episode, json_pointers, make_agent, make_episode

GOLDEN = Path(__file__).parent / "golden"


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
    assert len(ep.robot.t) == 20


def _walk_tsv(tmp_path, rows=None):
    tsv = tmp_path / "walk.tsv"
    rows = rows or [f"{f}\tped\t{0.1 * f:.2f}\t0.0" for f in range(20)]
    tsv.write_text("\n".join(rows))
    return tsv


def _child_env(**blas) -> dict:
    """This checkout's socnav first; OPENBLAS_NUM_THREADS only if given."""
    env = dict(os.environ, PYTHONPATH=str(Path(socnav.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(blas)
    return env


def test_cli_chain_script(tmp_path):
    """``tests/cli_chain.sh``, which CI runs with the installed entry point, run here
    with shims first on PATH: ``socnav`` is ``python -m socnav.cli`` on this checkout.
    The script's temporary directory is gone after it."""
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, command in (("socnav", f'"{sys.executable}" -m socnav.cli'),
                          ("python", f'"{sys.executable}"')):
        (shims / name).write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        (shims / name).chmod(0o755)
    env = dict(_child_env(), PATH=f"{shims}{os.pathsep}{os.environ['PATH']}", TMPDIR=str(tmp_path))
    proc = subprocess.run(["bash", "-e", str(Path(__file__).parent / "cli_chain.sh")],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["bin"]


@pytest.mark.parametrize("hz", ["inf", "nan", "0", "-5"])
def test_import_rejects_bad_frame_rate(tmp_path, hz):
    out = tmp_path / "ep.json"
    proc = subprocess.run(
        [sys.executable, "-m", "socnav.cli", "import", "--tsv", str(_walk_tsv(tmp_path)),
         f"--hz={hz}", "-o", str(out)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "/frame_rate" in lines[0]
    assert not out.exists()


def test_cli_import_leaves_simulator_and_scenarios_unloaded(tmp_path):
    code = ("import os, sys, socnav; print('numpy' in sys.modules); "
            "import socnav.cli; print('numpy' in sys.modules); "
            "print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(sorted(m for m in ('socnav.simulator', 'socnav.scenarios', "
            "'socnav.metrics', 'socnav.report') if m in sys.modules)); "
            "print(socnav.cli.main(['compute', sys.argv[1], '-o', sys.argv[2]]), "
            "'numpy.ma' in sys.modules)")
    for blas, expected in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(GOLDEN / "dynamic_obstacles" / "episode.json"),
             str(tmp_path / "report.json")],
            capture_output=True, text=True, env=_child_env(**blas), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "False", expected, "[]", "0 False"]
    proc, imported = _cli_imports("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: socnav")
    assert {"argparse", "socnav", "socnav.errors"} <= imported
    assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}
    assert "dataclasses" not in imported


def _cli_imports(*argv) -> tuple[subprocess.CompletedProcess, set]:
    """``python -m socnav.cli *argv`` and the modules it imported."""
    # -X importtime lists every module a process imports, one per line.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "socnav.cli", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    return proc, {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


def test_simulating_process_leaves_numpy_random_unloaded(tmp_path):
    proc, imported = _cli_imports("simulate", "--scenario", "random_crossing",
                                  "--seed", str(10**40), "--count", "2", "-o", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert {"numpy", "socnav.simulator"} <= imported
    assert not {m for m in imported
                if m in ("secrets", "hashlib") or m.split(".")[:2] == ["numpy", "random"]}
    code = ("import sys; from socnav.simulator import generate_scenario, run; "
            "run(generate_scenario('perpendicular_traffic', 7)); "
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n"


def test_project_script_writes_golden_report():
    """The ``[project.scripts]`` target, run as the installed script runs it."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    [(module, name)] = re.findall(r'^socnav\s*=\s*"([\w.]+):(\w+)"\s*$', section[1], re.M)
    assert callable(getattr(importlib.import_module(module), name))
    golden = GOLDEN / "dynamic_obstacles"
    # The atexit line shows that exit handlers still run, and in what collector state.
    code = ("import atexit, gc, sys; atexit.register(lambda: print(gc.isenabled(), "
            f"gc.get_freeze_count() > 0, file=sys.stderr)); from {module} import {name}; "
            f"sys.argv[0] = 'socnav'; sys.exit({name}())")
    proc = subprocess.run(
        [sys.executable, "-c", code, "compute", "--stepwise", str(golden / "episode.json")],
        capture_output=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (golden / "report.json").read_bytes()
    assert proc.stderr.splitlines() == [b"False True"]
    proc = subprocess.run([sys.executable, "-c", code, "compute"],
                          capture_output=True, env=_child_env(), timeout=60)
    assert proc.returncode == 2 and b"Traceback" not in proc.stderr


VALID_CASES = ("dynamic_obstacles", "headings_omitted", "int_numbers", "theta_wrapped",
               "velocities_omitted")


@pytest.fixture
def golden_episodes(tmp_path) -> list[Path]:
    """The valid golden episodes, copied to eps/<case>.json so that their stems differ."""
    (tmp_path / "eps").mkdir()
    paths = [tmp_path / "eps" / f"{case}.json" for case in VALID_CASES]
    for case, path in zip(VALID_CASES, paths):
        path.write_bytes((GOLDEN / case / "episode.json").read_bytes())
    return paths


@pytest.mark.parametrize("flags, golden", [
    ([], None),
    (["--stepwise"], "report.json"),
    (["--params", str(GOLDEN / "params.json")], "report_params.json"),
    (["--dt", "0.3"], None),
    (["--stepwise", "--dt", "0.25", "--params", str(GOLDEN / "params.json")], None),
], ids=["plain", "stepwise", "params", "dt", "all"])
def test_batch_compute_matches_single_file_bytes(golden_episodes, tmp_path, capsys, flags,
                                                 golden):
    batch = tmp_path / "batch"
    assert main(["compute", *map(str, golden_episodes), *flags, "-o", str(batch)]) == 0
    assert sorted(p.name for p in batch.iterdir()) == sorted(p.name for p in golden_episodes)
    for case, path in zip(VALID_CASES, golden_episodes):
        single = tmp_path / "single.json"
        assert main(["compute", str(path), *flags, "-o", str(single)]) == 0
        assert (batch / path.name).read_bytes() == single.read_bytes()
        if golden:
            assert single.read_bytes() == (GOLDEN / case / golden).read_bytes()


def test_batch_compute_writes_in_input_order(golden_episodes, tmp_path, capsys):
    batch = tmp_path / "batch"
    order = [golden_episodes[i] for i in (3, 0, 4, 1, 2)]
    assert main(["compute", *map(str, order), "-o", str(batch)]) == 0
    assert capsys.readouterr().err.splitlines() == [f"wrote {batch / p.name}" for p in order]


def test_batch_compute_stem_collision_writes_nothing(golden_episodes, tmp_path, capsys):
    # The second x.json does not exist: the run must stop before it reads any input.
    first, second = tmp_path / "sfm" / "x.json", tmp_path / "straight_line_stop" / "x.json"
    first.parent.mkdir()
    first.write_bytes(golden_episodes[0].read_bytes())
    batch = tmp_path / "batch"
    assert main(["compute", str(golden_episodes[1]), str(first), str(second),
                 "-o", str(batch)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {first} and {second} would both write {batch / 'x.json'}"]
    assert not batch.exists()


@pytest.mark.parametrize("slash", ["/", ""], ids=["trailing-slash", "existing-directory"])
def test_batch_compute_one_episode_into_a_directory(golden_episodes, tmp_path, capsys, slash):
    batch = tmp_path / "batch"
    if not slash:
        batch.mkdir()
    episode = golden_episodes[0]
    assert main(["compute", str(episode), "-o", f"{batch}{slash}"]) == 0
    assert [p.name for p in batch.iterdir()] == [episode.name]
    single = tmp_path / "single.json"
    assert main(["compute", str(episode), "-o", str(single)]) == 0
    assert (batch / episode.name).read_bytes() == single.read_bytes()


@pytest.mark.parametrize("out", [[], ["-o", "-"]], ids=["no-output", "stdout"])
def test_batch_compute_needs_a_directory(golden_episodes, capsys, out):
    assert main(["compute", *map(str, golden_episodes[:2]), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["compute: more than one episode needs -o DIRECTORY"]


def test_batch_compute_bad_input_stops_with_its_name(golden_episodes, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format_version": "1.0"}')
    batch = tmp_path / "batch"
    assert main(["compute", str(golden_episodes[0]), str(bad), str(golden_episodes[1]),
                 "-o", str(batch)]) == 1
    *wrote, err = capsys.readouterr().err.splitlines()
    assert wrote == [f"wrote {batch / golden_episodes[0].name}"]
    assert err.startswith(f"error: {bad}: ")
    assert [p.name for p in batch.iterdir()] == [golden_episodes[0].name]


def _cyclic_garbage(argv: list[str]) -> int:
    """What ``gc.collect()`` finds after ``main(argv)`` ran with the collector off."""
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> tuple[list[str], list[str]]:
    """Six simulated episodes and their reports, as paths."""
    root = tmp_path_factory.mktemp("corpus")
    for name in ("frontal_approach", "intersection"):
        assert main(["simulate", "--scenario", name, "--seed", "3", "--count", "3",
                     "-o", str(root / "eps")]) == 0
    episodes = sorted(str(p) for p in (root / "eps").glob("*.json"))
    assert main(["compute", *episodes, "-o", str(root / "reports")]) == 0
    return episodes, sorted(str(p) for p in (root / "reports").glob("*.json"))


@pytest.mark.parametrize("command", ["validate", "classify", "compute", "summarize",
                                     "simulate"])
def test_cyclic_garbage_does_not_grow_with_the_inputs(corpus, tmp_path, capsys, command):
    """``run`` turns the cyclic collector off; that is safe only if no subcommand
    leaves more cyclic garbage for more inputs."""
    episodes, reports = corpus

    def argv(n: int) -> list[str]:
        out = str(tmp_path / f"out{n}")
        if command == "simulate":
            return ["simulate", "--scenario", "parallel_traffic", "--seed", "0",
                    "--count", str(n), "-o", out]
        if command == "compute":  # the one-episode form for n = 1
            return ["compute", *episodes[:n], "-o", out]
        inputs = (reports if command == "summarize" else episodes)[:n]
        return [command, *inputs] + ([] if command == "validate" else ["-o", out])

    _cyclic_garbage(argv(1))  # first-call imports and caches
    one, many = _cyclic_garbage(argv(1)), _cyclic_garbage(argv(len(episodes)))
    assert one == many


@pytest.mark.parametrize("command, dt", [
    ("compute", "1e-300"), ("compute-batch", "1e-300"),
    ("compute", None), ("compute-batch", None), ("classify", None),
], ids=["compute-dt", "batch-dt", "compute-default", "batch-default", "classify-default"])
def test_dt_asking_for_too_many_steps_one_line(tmp_path, capsys, command, dt):
    """A timeline of more than MAX_TIMELINE_STEPS steps is refused in one line before
    it is allocated: a given dt at /dt, the default dt as soon as the episode is read."""
    golden = GOLDEN / "dynamic_obstacles" / "episode.json"
    if dt:
        path, at, steps = golden, "/dt", "9.800e+300"  # the robot's 9.8 s over 1e-300 s
    else:
        # Robot intervals 1e-12, 1e-12 and 30 s: the default dt (their median) asks for 3e13 steps.
        robot = make_agent("robot", [(0, 0)] * 4, times=[0, 1e-12, 2e-12, 30],
                           kind=AgentKind.ROBOT)
        path, at, steps = tmp_path / "ep.json", "/agents/0/states", "3.000e+13"
        path.write_bytes(serialize_episode(make_episode([robot, make_agent("h", [(3, 0)] * 4)])))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"{path}: error: {at}: the default dt 1e-12 asks for {steps} timeline steps "
            "over the robot's 30.0 s; at most 1000000 are allowed\n")
    out, second = tmp_path / "out", tmp_path / "second.json"
    second.write_bytes(golden.read_bytes())
    inputs = [str(path)] + ([str(second)] if command == "compute-batch" else [])
    argv = [command.split("-")[0], *inputs, *(["--dt", dt] if dt else []), "-o", str(out)]
    proc = subprocess.run([sys.executable, "-m", "socnav.cli", *argv],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: {path}: {at}: ") and f"asks for {steps} timeline steps" in line
    assert not out.exists()


@pytest.mark.parametrize("blas", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_compute_child_writes_golden_bytes_at_any_blas_thread_count(blas):
    golden = GOLDEN / "dynamic_obstacles"
    proc = subprocess.run(
        [sys.executable, "-m", "socnav.cli", "compute", "--stepwise",
         str(golden / "episode.json")],
        capture_output=True, env=_child_env(**blas), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (golden / "report.json").read_bytes()


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


@pytest.mark.parametrize("stepwise", [[], ["--stepwise"]])
def test_compute_nan_metric_one_line(tmp_path, stepwise):
    """The 1e200 velocity above makes A_avg NaN, which JSON cannot hold: compute
    names it in one line, not a traceback, and writes nothing. numpy's warnings
    about the overflow still come first; a magnitude bound on episodes is the fix."""
    doc = json.loads((GOLDEN / "dynamic_obstacles" / "episode.json").read_bytes())
    doc["agents"][0]["states"][3]["vx"] = 1e200
    path, out = tmp_path / "ep.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "socnav.cli", "compute", str(path), *stepwise,
                           "-o", str(out)],
                          capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    ours = [line for line in proc.stderr.splitlines()
            if not line.startswith(" ") and ": RuntimeWarning: " not in line]
    assert ours == [f"error: {path}: /metrics/A_avg/value: must not be NaN"]
    assert proc.stderr.splitlines()[-1] == ours[0] and not out.exists()


def _reports_under_two_params(tmp_path) -> tuple[Path, Path]:
    episode = str(GOLDEN / "dynamic_obstacles" / "episode.json")
    params = tmp_path / "params.json"
    params.write_text('{"space_threshold": 2.0}')
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["compute", episode, "-o", str(first)]) == 0
    assert main(["compute", episode, "--params", str(params), "-o", str(second)]) == 0
    return first, second


def test_summarize_mixed_params_one_line(tmp_path, capsys):
    first, second = _reports_under_two_params(tmp_path)
    out = tmp_path / "summary.json"
    assert main(["summarize", str(first), str(second), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: /params/space_threshold: report 2 (episode 'golden_blind_corner') has 2.0 "
        "but report 1 (episode 'golden_blind_corner') has 0.5; "
        "results under other params are not comparable"]
    assert not out.exists()


def test_compare_mixed_params_one_line(tmp_path, capsys):
    first, second = _reports_under_two_params(tmp_path)
    for report_file, name in ((first, "a"), (second, "b")):
        assert main(["summarize", str(report_file), "-o", str(tmp_path / f"{name}.json")]) == 0
    out = tmp_path / "table.json"
    assert main(["compare", "--label", f"a={tmp_path / 'a.json'}",
                 "--label", f"b={tmp_path / 'b.json'}", "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: /params/space_threshold: summary 'b' has 2.0 but summary 'a' has 0.5; "
        "results under other params are not comparable"]
    assert not out.exists()


def test_summarize_extra_metric_from_any_report(tmp_path):
    plain = GOLDEN / "dynamic_obstacles" / "report.json"
    doc = json.loads(plain.read_bytes())
    doc["metrics"]["XYZ"] = {"value": 3.0, "unit": "m", "code": "NHT", "params_used": {}}
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(doc))
    summaries = []
    for order in ((plain, extra), (extra, plain)):
        out = tmp_path / "summary.json"
        assert main(["summarize", *map(str, order), "-o", str(out)]) == 0
        summaries.append(json.loads(out.read_bytes())["metrics"])
    xyz = summaries[0]["XYZ"]["distribution"]
    assert (xyz["n"], xyz["n_excluded"], xyz["mean"]) == (1, 1, 3.0)
    assert summaries[0] == summaries[1]


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
    if field == "proximity_max" and value in ("NaN", "Infinity"):
        assert err == (f"error: {cards / 'card.json'}: /usage_guide/labeling_criteria/{field}: "
                       "expected a finite number\n")


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


def test_dt_below_the_float_spacing_of_the_stamps_one_line(tmp_path, capsys):
    """2^44 s on, stamps are 2^-8 s apart as floats: a dt of 1 ms repeats timeline times."""
    doc = json.loads(serialize_episode(run(generate_scenario("intersection", 0))))
    for agent in doc["agents"]:
        for state in agent["states"]:
            state["t"] += 2.0 ** 44
    path = tmp_path / "ep.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["compute", str(path), "--dt", "0.001", "-o", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: /dt: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


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


def _run_reader(kind: str, document: bytes, docs: dict, work: Path,
                command: list[str] | None = None) -> tuple[int, list[str]]:
    work.mkdir(exist_ok=True)
    target = work / "document.json"
    target.write_bytes(document)
    argv = [str(docs["episode"]) if a == "EPISODE" else str(work) if a == "DIR"
            else a.replace("FILE", str(target)) for a in command or _READERS[kind]]
    if kind != "episode":
        argv += ["-o", str(work / "out.out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@pytest.mark.parametrize("kind, pointer, value, path", [
    ("report", ("metrics", "S", "value"), "abc", "/metrics/S/value"),
    ("report", ("metrics", "S", "value"), math.nan, "/metrics/S/value"),
    ("report", ("stepwise", "speed", "v", 3), "x", "/stepwise/speed/v/3"),
    ("summary", ("metrics", "S", "distribution"), DELETE, "/metrics/S/distribution"),
    ("summary", ("metrics", "S", "distribution", "mean"), math.inf,
     "/metrics/S/distribution/mean"),
    ("params", ("timeout",), 10 ** 400, "/params/timeout"),
    ("params", ("timeout",), True, "/params/timeout"),
    ("params", ("timeout",), math.nan, "/params/timeout"),
    ("params", ("collision_terminate_count",), "x", "/params/collision_terminate_count"),
    ("params", ("cooperative_agent_ids",), "robot", "/params/cooperative_agent_ids"),
    ("params", ("bogus",), 1, "/params/bogus"),
    ("params", ("timeout",), -1, "/params/timeout"),
    ("report", ("params", "dt"), DELETE, "/params/dt"),
    ("card", ("usage_guide", "success_metrics", 0), 7, "/usage_guide/success_metrics/0"),
    ("card", ("name",), "", "/name"),
    ("card", ("nmae",), "x", "/nmae"),
    ("card", ("research_context", "locaton"), "x", "/research_context/locaton"),
    ("card", ("usage_guide", "labeling_criteria", "proximity_maxx"), 0.01,
     "/usage_guide/labeling_criteria/proximity_maxx"),
    ("episode", ("obstacles", "dynamic"), 7.5, "/obstacles/dynamic"),
    ("episode", ("obstacles",), 5, "/obstacles"),
    ("episode", ("agents", 1), 5, "/agents/1"),
    ("episode", ("labels",), [{"scenario": "s", "t_start": 1e308, "t_end": math.inf}],
     "/labels/0/t_end"),
], ids=["report-value-string", "report-value-nan", "report-stepwise-element",
        "summary-no-distribution", "summary-mean-infinity", "params-401-digits",
        "params-bool", "params-nan", "params-count-string", "params-ids-string",
        "params-unknown", "params-negative", "report-no-dt", "card-metric-not-string",
        "card-name-empty", "card-unknown-root", "card-unknown-nested",
        "card-unknown-criterion", "episode-dynamic-number", "episode-obstacles-number",
        "episode-agent-number", "episode-label-infinite"])
def test_bad_field_one_line_with_path(documents, tmp_path, kind, pointer, value, path):
    document = edited(json.loads(documents[kind].read_bytes()), pointer, value)
    code, lines = _run_reader(kind, document, documents, tmp_path)
    assert code == 1
    assert len(lines) == 1 and f"{path}: " in lines[0]


@pytest.mark.parametrize("nesting", ["array", "object"])
@pytest.mark.parametrize("kind, command", [*_READERS.items(), ("episode", ["compute", "FILE"])],
                         ids=[*_READERS, "episode-compute"])
def test_deeply_nested_document_one_line(documents, tmp_path, kind, command, nesting):
    """Past the recursion limit the JSON decoder raises RecursionError, not ValueError."""
    opened, closed = ("[", "]") if nesting == "array" else ('{"a":', "}")
    document = opened * 200_000 + ("" if nesting == "array" else "1") + closed * 200_000
    code, lines = _run_reader(kind, document.encode(), documents, tmp_path, command)
    assert code == 1
    assert len(lines) == 1 and "not valid JSON: maximum recursion depth exceeded" in lines[0]


_ROOT_MESSAGES = {"report": "report document must be an object",
                  "summary": "summary document must be an object",
                  "card": "card document must be an object",
                  "episode": "document root must be an object, got list"}


@pytest.mark.parametrize("kind, command", [(kind, _READERS[kind]) for kind in _ROOT_MESSAGES]
                         + [("episode", ["compute", "FILE"])],
                         ids=[*_ROOT_MESSAGES, "episode-compute"])
def test_document_root_not_an_object_one_line(documents, tmp_path, kind, command):
    """An error at the document root, whose pointer is empty, reads as the file name
    and the message, with no empty path between them."""
    code, lines = _run_reader(kind, b"[]", documents, tmp_path, command)
    target, message = tmp_path / "document.json", _ROOT_MESSAGES[kind]
    assert code == 1
    assert lines == ([f"{target}: error: {message}"] if command[0] == "validate"
                     else [f"error: {target}: {message}"])


def test_params_file_not_utf8_one_line(documents, tmp_path):
    code, lines = _run_reader("params", b'{"timeout": 1\xff}', documents, tmp_path)
    assert code == 1
    assert len(lines) == 1 and "not valid UTF-8" in lines[0]


# Type confusions: each stands for a node another tool, or a careless edit, may write.
_NODES = [None, True, False, 0, 7, -3, 10 ** 400, "x", "Infinity", math.nan, math.inf,
          -math.inf, [], {}, [1, "x"]]


@pytest.mark.parametrize("kind", sorted(_READERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decoding_fuzz(documents, tmp_path_factory, kind, data):
    """One node replaced or deleted anywhere: exit 0-3, never a traceback, one line per problem."""
    doc = json.loads(documents[kind].read_bytes())
    pointer = data.draw(st.sampled_from(list(json_pointers(doc))), label="pointer")
    value = data.draw(st.sampled_from(_NODES + [DELETE] if pointer else _NODES), label="node")
    work = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
    code, lines = _run_reader(kind, edited(doc, pointer, value), documents, work)
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


def test_compare_repeated_label_one_line(documents, capsys):
    capsys.readouterr()
    summary = documents["summary"]
    assert main(["compare", "--label", f"a={summary}", "--label", f"a={summary}"]) == 2
    assert capsys.readouterr().err.splitlines() == ["--label 'a' is given more than once"]


def test_card_name_in_two_files_one_line(episode_file, tmp_path, capsys):
    cards = tmp_path / "cards"
    cards.mkdir()
    for name in ("one.json", "two.json"):
        (cards / name).write_bytes(serialize_card(builtin_cards()["parallel_traffic"]))
    assert main(["classify", "--cards", str(cards), str(episode_file)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cards / 'one.json'} and {cards / 'two.json'} both define card 'parallel_traffic'"]


def test_card_dir_without_cards_one_line(episode_file, tmp_path, capsys):
    cards = tmp_path / "cards"
    cards.mkdir()
    assert main(["classify", "--cards", str(cards), str(episode_file)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: no card files found in {cards}"]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_cards_path_not_a_directory_is_io_error(episode_file, tmp_path, capsys, kind):
    cards = tmp_path / "cards"
    if kind == "file":
        cards.write_text("{}")
    assert main(["classify", "--cards", str(cards), str(episode_file)]) == 3
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("I/O error: ") and str(cards) in line


def test_stdout_output(episode_file, capsysbinary):
    assert main(["compute", str(episode_file)]) == 0
    raw = capsysbinary.readouterr().out
    doc = json.loads(raw)
    assert doc["episode_id"] == "fuzz-1"
