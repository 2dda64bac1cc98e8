"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from socnav.cli import main as cli_main
from socnav.core import AgentKind, Goal, MetricParams, check_episode
from socnav.geometry import first_collision_time
from socnav.ingest import parse_episode, serialize_episode
from socnav.metrics import TASKWISE_KEYS, compute_all
from socnav.report import summarize
from socnav.scenarios import CLASSIFIABLE_SCENARIOS, builtin_cards, classify, \
    parse_card, serialize_card
from socnav.simulator import (
    SCENARIO_NAMES,
    AgentSpec,
    SimConfig,
    generate_scenario,
    run,
)

from conftest import fuzz_episode, make_agent, make_episode, metric, straight_robot
from oracles import WelfordStats, collision_counts_oracle, ttc_forward_stepping

PARAMS = MetricParams()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_01_metric_coverage(tmp_path):
    with criterion(1, "all taskwise metrics present with correct taxonomy codes"):
        episode_path = tmp_path / "ep.json"
        episode_path.write_bytes(serialize_episode(run(generate_scenario(
            "frontal_approach", 1))))
        out = tmp_path / "report.json"
        assert cli_main(["compute", str(episode_path), "-o", str(out)]) == 0
        doc = json.loads(out.read_bytes())
        # mechanical schema check
        assert doc["format_version"] == "1.0"
        assert set(doc["metrics"]) == set(TASKWISE_KEYS)
        code_pattern = re.compile(r"^[NSA][HLQS][ST]$")
        for name, entry in doc["metrics"].items():
            assert set(entry) == {"value", "unit", "code", "params_used"}, name
            assert code_pattern.match(entry["code"]), name
        assert doc["metrics"]["S"]["code"] == "NHT"
        assert doc["metrics"]["SC"]["code"] == "SHT"
        for key in ("C", "WC", "AC", "HC", "TO", "FP", "ST", "T", "PL", "SPL"):
            assert doc["metrics"][key]["code"] == "NHT"
        for key in ("V_min", "A_avg", "J_max", "CD_min", "CD_avg", "DH_min",
                    "TTC", "AT"):
            assert doc["metrics"][key]["code"] == "SHT"


def test_02_spl_properties():
    with criterion(2, "SPL bounds/equivalences on 200 fuzzed episodes in < 5 s"):
        t0 = time.monotonic()
        for seed in range(200):
            ep = fuzz_episode(seed)
            value, succeeded = metric(ep, ("SPL", "S"), PARAMS, dt=0.1)
            assert 0.0 <= value <= 1.0
            assert (value == 0.0) == (not succeeded)
        # straight-line successes score 1 within 1e-9
        for n in (6, 11, 31):
            ep = make_episode([straight_robot(n=n, goal_xy=((n - 1) * 0.1, 0.0))])
            assert abs(metric(ep, "SPL", PARAMS) - 1.0) <= 1e-9
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_03_ttc_oracle():
    with criterion(3, "closed-form TTC vs forward-stepping oracle, 1000 configs in < 30 s"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        horizon = 120.0
        both_finite_err = []
        agree = 0
        for _ in range(1000):
            p = rng.uniform(-10, 10, 2)
            q = rng.uniform(-10, 10, 2)
            v = rng.uniform(-2, 2, 2)
            u = rng.uniform(-2, 2, 2)
            r_sum = float(rng.uniform(0.2, 0.5) + rng.uniform(0.2, 0.5))
            closed = float(first_collision_time(q - p, u - v, r_sum))
            stepped = ttc_forward_stepping(p[0], p[1], v[0], v[1],
                                           q[0], q[1], u[0], u[1], r_sum,
                                           step=1e-3, horizon=horizon)
            closed_finite = math.isfinite(closed) and closed < horizon
            stepped_finite = math.isfinite(stepped)
            if closed_finite == stepped_finite:
                agree += 1
            if closed_finite and stepped_finite:
                both_finite_err.append(abs(closed - stepped))
        assert agree >= 999, f"classification agreement {agree}/1000"
        assert both_finite_err, "no finite TTC cases sampled"
        assert max(both_finite_err) <= 1e-2, f"max err {max(both_finite_err):.4f}"
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_04_collision_oracle():
    with criterion(4, "collision counts equal the interval-merge oracle on 200 fuzzed episodes"):
        for seed in range(200):
            ep = fuzz_episode(seed, n_humans=5, n_steps=30, box=1.5)
            got = metric(ep, ("C", "WC", "AC", "HC"), PARAMS, dt=0.1)
            expected = collision_counts_oracle(ep, PARAMS, dt=0.1)
            assert got == expected, f"seed {seed}: {got} != {expected}"


def test_05_derivative_check():
    with criterion(5, "cubic-speed jerk within 5% of analytic; constant velocity exactly still"):
        ts = np.arange(0.1, 1.0 + 1e-9, 0.01)
        robot = make_agent("robot", [(t, 0.0) for t in ts], times=ts,
                           kind=AgentKind.ROBOT,
                           velocities=[(t ** 3, 0.0) for t in ts])
        ep = make_episode([robot])
        from socnav.metrics import _Frames
        frames = _Frames(ep, PARAMS, 0.01)
        jerk = frames.jerk
        expected = 6.0 * frames.timeline[1:-1]
        rel = np.abs(jerk - expected) / np.abs(expected)
        assert rel.max() <= 0.05, f"max relative error {rel.max():.4f}"

        const = make_agent("robot", [(0.1 * i, 0.0) for i in range(21)], dt=0.1,
                           kind=AgentKind.ROBOT, velocities=[(1.0, 0.0)] * 21)
        ep2 = make_episode([const])
        a_and_j = metric(ep2, ("A_min", "A_avg", "A_max", "J_min", "J_avg", "J_max"), PARAMS)
        for lo, avg, hi in (a_and_j[:3], a_and_j[3:]):
            assert abs(lo) <= 1e-9 and abs(avg) <= 1e-9 and abs(hi) <= 1e-9


def test_06_scenario_classification():
    with criterion(6, "7x100 generated episodes: recall >= 0.95, precision >= 0.90, < 60 s"):
        t0 = time.monotonic()
        found = {}
        for gt in CLASSIFIABLE_SCENARIOS:
            for seed in range(100):
                ep = run(generate_scenario(gt, seed))
                found[(gt, seed)] = {l.scenario for l in classify(ep)}
        for target in CLASSIFIABLE_SCENARIOS:
            tp = sum(1 for (gt, _), labs in found.items()
                     if gt == target and target in labs)
            fp = sum(1 for (gt, _), labs in found.items()
                     if gt != target and target in labs)
            fn = sum(1 for (gt, _), labs in found.items()
                     if gt == target and target not in labs)
            recall = tp / max(1, tp + fn)
            precision = tp / max(1, tp + fp)
            assert recall >= 0.95, f"{target}: recall {recall:.3f}"
            assert precision >= 0.90, f"{target}: precision {precision:.3f}"
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_07_simulator_determinism_and_goal_reach():
    with criterion(7, "byte-identical reruns; goal reach within 1.5x in 100/100; no NaN"):
        for name in ("frontal_approach", "parallel_traffic"):
            assert serialize_episode(run(generate_scenario(name, 5))) == \
                serialize_episode(run(generate_scenario(name, 5)))
        rng = np.random.default_rng(7)
        for _ in range(100):
            speed = float(rng.uniform(0.5, 1.8))
            spec = AgentSpec(agent_id="robot", kind=AgentKind.ROBOT, policy="sfm",
                             position=(0.0, 0.0),
                             goal=Goal(5.0, 0.0, 0.2),
                             desired_speed=speed)
            ep = run(SimConfig(dt=0.05, max_duration=30.0, agents=(spec,)))
            assert ep.robot.t_end <= 1.5 * (5.0 / speed)
            d = float(np.linalg.norm(ep.robot.positions[-1] - (5.0, 0.0)))
            assert d <= 0.2
        for name in SCENARIO_NAMES:
            for seed in (0, 1, 2):
                assert check_episode(run(generate_scenario(name, seed))) == []  # rejects NaN


def test_08_round_trip():
    with criterion(8, "parse/serialize identity on 100 fuzzed episodes and all cards"):
        for seed in range(100):
            ep = fuzz_episode(seed)
            raw = serialize_episode(ep)
            assert raw == serialize_episode(ep)  # deterministic
            first = parse_episode(raw)
            assert parse_episode(serialize_episode(first)) == first
        for card in builtin_cards().values():
            raw = serialize_card(card)
            assert parse_card(raw) == card
            assert serialize_card(parse_card(raw)) == raw


def test_09_summary_oracle():
    with criterion(9, "summary moments match streaming statistics within 1e-9"):
        reports = [compute_all(fuzz_episode(seed), PARAMS) for seed in range(60)]
        summary = summarize(reports, bins=13)
        for name in TASKWISE_KEYS:
            oracle = WelfordStats()
            for r in reports:
                v = r.taskwise[name].value
                if v is None:
                    continue
                if isinstance(v, bool):
                    v = float(v)
                if not math.isfinite(float(v)):
                    continue
                oracle.add(float(v))
            d = summary.distributions[name]
            assert d.n == oracle.n
            if oracle.n == 0:
                continue
            assert abs(d.mean - oracle.mean) <= 1e-9, name
            assert abs(d.std - oracle.std) <= 1e-9, name
            assert abs(d.min - oracle.min) <= 1e-9, name
            assert abs(d.max - oracle.max) <= 1e-9, name
            assert abs(d.median - oracle.median) <= 1e-9, name
            assert sum(d.counts) == d.n, name


def test_10_throughput_reported():
    with criterion(10, "metric-suite throughput on 1000 x (500 steps, 10 agents); soft target"):
        rng = np.random.default_rng(99)
        total = 0.0
        n_episodes = 1000
        for i in range(n_episodes):
            ep = _throughput_episode(rng, i)
            t0 = time.perf_counter()
            compute_all(ep, PARAMS, dt=0.05)
            total += time.perf_counter() - t0
        print(f"\n        throughput: {n_episodes} episodes in {total:.2f}s "
              f"({1e3 * total / n_episodes:.2f} ms/episode; soft target 10 s total)")
        # soft target: reported, not gated


def _throughput_episode(rng, index):
    n_steps, n_agents, dt = 500, 10, 0.05
    agents = []
    for a in range(n_agents):
        start = rng.uniform(-10, 10, 2)
        steps = rng.normal(0.0, 1.2 * dt, (n_steps - 1, 2))
        xy = np.vstack([start, start + np.cumsum(steps, axis=0)])
        kind = AgentKind.ROBOT if a == 0 else AgentKind.HUMAN
        goal = Goal(*map(float, rng.uniform(-10, 10, 2)), 0.2) if a == 0 else None
        agents.append(make_agent(f"a{a}", xy, dt=dt, kind=kind, goal=goal,
                                 headings=np.zeros(n_steps)))
    return make_episode(agents, robot_id="a0", episode_id=f"tp-{index}")


def test_11_end_to_end_pipeline(tmp_path):
    with criterion(11, "pipeline runs end to end; SFM robot HC mean <= baseline HC mean"):
        corpora = {}
        for policy in ("sfm", "straight_line_stop"):
            eps_dir = tmp_path / policy
            for scenario, base_seed in (("frontal_approach", 100), ("intersection", 200)):
                assert cli_main(["simulate", "--scenario", scenario,
                                 "--seed", str(base_seed), "--count", "50",
                                 "--robot-policy", policy,
                                 "-o", str(eps_dir)]) == 0
            files = sorted(str(p) for p in eps_dir.glob("*.json"))
            assert len(files) == 100

            labels_out = tmp_path / f"labels_{policy}.json"
            assert cli_main(["classify", *files, "-o", str(labels_out)]) == 0

            report_files = []
            for i, f in enumerate(files):
                out = tmp_path / f"report_{policy}_{i}.json"
                assert cli_main(["compute", f, "-o", str(out)]) == 0
                report_files.append(str(out))
            summary_out = tmp_path / f"summary_{policy}.json"
            assert cli_main(["summarize", *report_files, "-o", str(summary_out)]) == 0
            corpora[policy] = summary_out

        table_out = tmp_path / "comparison.json"
        assert cli_main(["compare",
                         "--label", f"sfm={corpora['sfm']}",
                         "--label", f"baseline={corpora['straight_line_stop']}",
                         "-o", str(table_out)]) == 0
        doc = json.loads(table_out.read_bytes())
        assert set(doc["metrics"]) >= set(TASKWISE_KEYS)
        hc_sfm = doc["metrics"]["HC"]["sfm"]
        hc_base = doc["metrics"]["HC"]["baseline"]
        assert hc_sfm is not None and hc_base is not None
        assert hc_sfm <= hc_base, f"HC means: sfm {hc_sfm} vs baseline {hc_base}"
