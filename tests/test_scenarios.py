import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socnav.core import AgentKind, ObstacleMap
from socnav.errors import InvariantError, SchemaError, UnknownCard
from socnav.ingest import canonical_json_bytes, parse_episode
from socnav.metrics import compute_all
from socnav.report import write_output
from socnav.scenarios import (
    CLASSIFIABLE_SCENARIOS,
    ClassifierParams,
    ScenarioCard,
    ScenarioLabel,
    builtin_cards,
    classify,
    coverage_report,
    parse_card,
    serialize_card,
    serialize_labels,
    _arbitrate,
)
from socnav.simulator import generate_scenario, run

from conftest import crowd_document, fuzz_episode, line_points, make_agent, make_episode, rigid_transform


class TestCards:
    def test_builtin_registry_complete(self):
        cards = builtin_cards()
        assert set(cards) == set(CLASSIFIABLE_SCENARIOS)
        for name, card in cards.items():
            assert card.name == name
            assert card.usage_guide.labeling_criteria is not None
        cards.clear()  # each call returns a fresh dict
        assert set(builtin_cards()) == set(CLASSIFIABLE_SCENARIOS)

    def test_frontal_card_parses(self):
        raw = serialize_card(builtin_cards()["frontal_approach"])
        card = parse_card(raw)
        assert card.name == "frontal_approach"
        assert card.usage_guide.labeling_criteria.proximity_max == 2.0

    def test_round_trip_all_cards(self):
        for card in builtin_cards().values():
            assert parse_card(serialize_card(card)) == card
            assert serialize_card(parse_card(serialize_card(card))) == serialize_card(card)

    def test_card_without_criteria(self, caplog):
        doc = json.loads(serialize_card(builtin_cards()["intersection"]))
        del doc["usage_guide"]["labeling_criteria"]
        null = {**doc, "usage_guide": {**doc["usage_guide"], "labeling_criteria": None}}
        ep = run(generate_scenario("intersection", 0))
        for raw in (doc, null):  # omitted and null read alike
            caplog.clear()
            card = parse_card(json.dumps(raw))
            assert card.usage_guide.labeling_criteria is None
            assert [r.getMessage() for r in caplog.records] == [
                "card 'intersection' has no labeling_criteria; classification disabled"]
            assert serialize_card(card) == canonical_json_bytes(doc)
            # documentation-only cards are skipped by classify
            assert classify(ep, cards={"intersection": card}) == ()

    def test_card_schema_error_has_path(self):
        doc = json.loads(serialize_card(builtin_cards()["intersection"]))
        del doc["definition"]["geometric_layout"]
        with pytest.raises(SchemaError) as err:
            parse_card(json.dumps(doc))
        assert "geometric_layout" in err.value.path

    def test_bool_criterion_rejected(self):
        """serialize_card would write ``true``, which parse_card refuses."""
        with pytest.raises(InvariantError) as err:
            ClassifierParams(min_crowd_size=True)
        assert err.value.path == "/usage_guide/labeling_criteria/min_crowd_size"

    def test_unknown_card_with_criteria(self):
        card = builtin_cards()["intersection"]
        weird = ScenarioCard(name="conga_line", description=card.description,
                             scenario_type=card.scenario_type,
                             research_context=card.research_context,
                             definition=card.definition, usage_guide=card.usage_guide)
        ep = run(generate_scenario("intersection", 0))
        with pytest.raises(UnknownCard):
            classify(ep, cards={"conga_line": weird})


class TestClassify:
    def test_generated_frontal_approach(self):
        ep = run(generate_scenario("frontal_approach", 5))
        labels = classify(ep)
        fronts = [l for l in labels if l.scenario == "frontal_approach"]
        assert len(fronts) >= 1
        label = fronts[0]
        assert set(label.agent_ids) == {"robot", "h0"}
        # the window covers (part of) the mutual approach, which ends by the
        # time the pair is closest
        d = np.linalg.norm(ep.robot.positions - ep.agent("h0").positions, axis=1)
        t_closest = ep.robot.t[int(np.argmin(d))]
        assert label.t_start < t_closest + 0.5

    def test_stationary_pair_unlabeled(self):
        robot = make_agent("robot", [(0.0, 0.0)] * 30, dt=0.1, kind=AgentKind.ROBOT)
        human = make_agent("h", [(3.0, 0.0)] * 30, dt=0.1)
        assert classify(make_episode([robot, human])) == ()

    # no-room-to-pass: free width between the walls 0.5 m, below the 0.6 m radius
    # sum plus the 0.2 m clearance a frontal approach needs. walls-off-the-normal:
    # one wall is parallel to the line cast along the normal, the other lies beside
    # that line, so neither narrows the passage.
    @pytest.mark.parametrize("walls, labelled", [
        ((), True),
        (tuple((-3.0, y, 3.0, y) for y in (-0.25, 0.25)), False),
        (((5.0, -1.0, 5.0, 1.0), (3.0, 1.0, 4.0, 1.0)), True),
    ], ids=["open", "no-room-to-pass", "walls-off-the-normal"])
    def test_constructed_frontal_approach(self, walls, labelled):
        def head_on(walls):
            # head-on along x at 1 m/s, radius 0.3, in 0.1 s steps over 4 s
            robot = make_agent("robot", line_points((-2.0, 0.0), (2.0, 0.0), 41),
                               dt=0.1, kind=AgentKind.ROBOT)
            human = make_agent("h", line_points((2.0, 0.0), (-2.0, 0.0), 41), dt=0.1)
            return make_episode([robot, human], obstacles=ObstacleMap(segments=walls))

        labels = classify(head_on(walls))
        if labelled:
            assert [(l.scenario, l.confidence) for l in labels] == [("frontal_approach", 1.0)]
            assert labels == classify(head_on(()))
        else:
            assert labels == ()

    def test_constructed_intersection(self):
        # robot goes east through the origin, human goes north through
        # (0.3, 0); they arrive together and pass within a meter
        n = 80
        robot = make_agent("robot", line_points((-4.0, 0.0), (4.0, 0.0), n),
                           dt=0.1, kind=AgentKind.ROBOT)
        human = make_agent("h", line_points((0.3, -4.0), (0.3, 4.0), n), dt=0.1)
        ep = make_episode([robot, human])
        labels = classify(ep)
        kinds = {l.scenario for l in labels}
        assert "intersection" in kinds
        # hand-checked criteria: perpendicular headings, closest pass <= 1 m
        label = next(l for l in labels if l.scenario == "intersection")
        d = np.linalg.norm(robot.positions - human.positions, axis=1)
        assert d.min() <= 1.0
        assert label.confidence > 0.0

    def test_deterministic(self):
        ep = run(generate_scenario("intersection", 3))
        assert classify(ep) == classify(ep)

    def test_rigid_transform_invariance(self):
        for name in ("frontal_approach", "intersection", "robot_overtaking"):
            ep = run(generate_scenario(name, 2))
            moved = rigid_transform(ep, angle=0.83, tx=11.0, ty=-3.0)
            a = classify(ep)
            b = classify(moved)
            assert [(l.scenario, l.agent_ids) for l in a] == \
                   [(l.scenario, l.agent_ids) for l in b]
            for la, lb in zip(a, b):
                assert la.t_start == pytest.approx(lb.t_start, abs=0.2)
                assert la.t_end == pytest.approx(lb.t_end, abs=0.2)

    def test_labels_disjoint_per_scenario_pair(self):
        for name in CLASSIFIABLE_SCENARIOS:
            for seed in (0, 1):
                labels = classify(run(generate_scenario(name, seed)))
                by_key = {}
                for l in labels:
                    by_key.setdefault((l.scenario, l.agent_ids), []).append(l)
                for group in by_key.values():
                    group.sort(key=lambda l: l.t_start)
                    for a, b in zip(group, group[1:]):
                        assert a.t_end < b.t_start

    def test_card_criteria_drive_its_detector(self):
        ep = run(generate_scenario("intersection", 1))
        card = builtin_cards()["intersection"]
        strict = dataclasses.replace(card, usage_guide=dataclasses.replace(
            card.usage_guide, labeling_criteria=ClassifierParams(proximity_max=0.01)))
        for given, labeled in ((card, True), (strict, False)):
            labels = classify(ep, cards={"intersection": given})
            assert any(l.scenario == "intersection" for l in labels) is labeled

    @pytest.mark.parametrize("name", CLASSIFIABLE_SCENARIOS)
    def test_smoke_recall(self, name):
        # full-scale recall/precision lives in the acceptance suite
        hits = 0
        for seed in (0, 1, 2, 3, 4):
            labels = classify(run(generate_scenario(name, seed)))
            hits += any(l.scenario == name for l in labels)
        assert hits >= 4


def _label(scenario, *humans, t_start=0.0, t_end=1.0):
    return ScenarioLabel(scenario, ("robot", *humans), t_start, t_end, 0.5)


class TestArbitrate:
    """``_arbitrate`` on hand-built label lists: what each rule drops and keeps."""

    def test_crowd_label_drops_every_pairwise_label_of_the_episode(self):
        # crowd_document(1): a 2.3 s crowd window hides pairwise labels far longer than it.
        crowd = _label("parallel_traffic", "h3", "h4", "h5", "h6", "h7", t_end=2.3)
        corners = [_label("blind_corner", "h12", t_start=1.0, t_end=4.0),
                   _label("blind_corner", "h9", t_start=6.0, t_end=9.0)]
        pairwise = [_label("robot_overtaking", "h13", t_end=15.7),
                    _label("pedestrian_overtaking", "h14", t_end=13.9),
                    _label("frontal_approach", "h12", t_end=8.8),
                    _label("intersection", "h2", t_start=20.0, t_end=21.0)]
        assert _arbitrate([crowd, *pairwise, *corners]) == [crowd, *corners]
        assert _arbitrate(pairwise[:1] + [crowd]) == [crowd]
        perpendicular = _label("perpendicular_traffic", "h3", "h4", t_start=30.0, t_end=31.0)
        assert _arbitrate([*pairwise, perpendicular]) == [perpendicular]

    def test_blind_corner_drops_intersection_and_frontal_of_its_pair(self):
        corner = _label("blind_corner", "h1", t_start=2.0, t_end=3.0)
        kept = [_label("intersection", "h2"),
                _label("robot_overtaking", "h1"),
                _label("pedestrian_overtaking", "h1", t_start=5.0, t_end=6.0)]
        dropped = [_label("intersection", "h1", t_start=8.0, t_end=9.0),
                   _label("frontal_approach", "h1", t_start=0.0, t_end=9.0)]
        assert _arbitrate([dropped[0], *kept, corner, dropped[1]]) == [*kept, corner]
        assert _arbitrate([*kept, *dropped]) == [*kept, *dropped]  # no corner, nothing dropped


class TestCoverage:
    def test_counts(self):
        corpus = {}
        for seed in range(10):
            ep = run(generate_scenario("frontal_approach", seed))
            corpus[ep.episode_id] = classify(ep)
        for seed in range(10):
            ep = run(generate_scenario("intersection", seed))
            corpus[ep.episode_id] = classify(ep)
        report = coverage_report(corpus)
        assert report.scenario_counts["frontal_approach"] == 10
        assert report.scenario_counts["intersection"] == 10
        assert report.unlabeled_fraction == 0.0
        assert report.episode_count == 20

    def test_empty_corpus(self):
        report = coverage_report({})
        assert report.scenario_counts == {}
        assert report.episode_count == 0

    def test_random_walk_corpus(self):
        corpus = {}
        for seed in range(5):
            ep = fuzz_episode(seed, with_obstacles=False)
            corpus[ep.episode_id] = classify(ep, dt=0.1)
        report = coverage_report(corpus)
        assert 0.0 <= report.unlabeled_fraction <= 1.0
        assert report.episode_count == 5


# sha256 over crowd_document(seed) for seeds 0-7 and dt None and 0.05: each episode's
# labels document, then its stepwise report. Any change to a label, a margin or a
# metric of a crowd shows here.
CROWD_SHA256 = "2df2fb96cd923cad786b09cf10f2645c770251b8ec40d4a0e81534d2e2e7f041"


def test_crowd_outputs_pinned():
    digest = hashlib.sha256()
    seen = set()
    for seed in range(8):
        ep = parse_episode(crowd_document(seed))
        for dt in (None, 0.05):
            labels = classify(ep, dt=dt)
            seen.update(label.scenario for label in labels)
            digest.update(serialize_labels({ep.episode_id: labels}))
            digest.update(write_output(compute_all(ep, dt=dt, include_stepwise=True)))
    assert seen == set(CLASSIFIABLE_SCENARIOS)
    assert digest.hexdigest() == CROWD_SHA256
