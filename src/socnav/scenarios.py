"""Scenario cards and pose-based trajectory classifiers.

Each machine-classifiable card carries labeling criteria; its detector
turns them into per-step predicates on the episode's resampled view and
yields each maximal window in which they hold; ``classify`` makes each a
label. Detectors are deterministic and depend only on relative geometry,
so labels are invariant under rigid transforms of the episode.

Overlap arbitration: a blind-corner label explains away the plain
intersection and frontal-approach labels of its own robot-human pair, and
any crowd-flow label explains away every frontal, overtaking and
intersection label of the episode, whatever their times or agents.
Without this, every crowd episode would also be labeled with its
constituent pairwise encounters, which is not how the scenario vocabulary
is used. A card key that names no field of the card is refused.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import Episode, median, positive_finite, windows
from .errors import InvariantError, SchemaError, UnknownCard
from .geometry import sightlines_blocked, wrap_angle
from .ingest import FORMAT_VERSION, _Issues, canonical_json_bytes, load_json, read_dataclass

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ClassifierParams:
    """Thresholds for the labeling criteria.

    Angles are radians. ``crossing_angle_window`` is the half-width of the
    accepted band around perpendicular (90 degrees +- window). The 2 m
    proximity default mirrors the usual intersection labeling convention
    of passing within two meters.
    """

    facing_angle_max: float = math.radians(30.0)
    approach_speed_min: float = 0.1
    min_clearance: float = 0.2
    proximity_max: float = 2.0
    crossing_angle_window: float = math.radians(30.0)
    overtake_speed_ratio_min: float = 1.2
    min_crowd_size: int = 5
    min_window_duration: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            positive_finite(getattr(self, f.name), f"/usage_guide/labeling_criteria/{f.name}")
        if self.min_crowd_size < 1:
            raise InvariantError("/usage_guide/labeling_criteria/min_crowd_size", "must be >= 1")


@dataclass(frozen=True)
class ResearchContext:
    location: str
    density: str
    task: str


@dataclass(frozen=True)
class ScenarioDefinition:
    geometric_layout: str
    intended_robot_task: str
    intended_human_behavior: str


@dataclass(frozen=True)
class UsageGuide:
    success_metrics: tuple[str, ...]
    quality_metrics: tuple[str, ...]
    ideal_outcome: str
    failure_modes: tuple[str, ...]
    labeling_criteria: Optional[ClassifierParams] = None


@dataclass(frozen=True)
class ScenarioCard:
    name: str
    description: str
    scenario_type: str
    research_context: ResearchContext
    definition: ScenarioDefinition
    usage_guide: UsageGuide

    def __post_init__(self):
        if not self.name:
            raise InvariantError("/name", "must be non-empty")


@dataclass(frozen=True)
class ScenarioLabel:
    scenario: str
    agent_ids: tuple[str, ...]
    t_start: float
    t_end: float
    confidence: float

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise InvariantError(f"/labels/{self.scenario}", "t_start must be < t_end")
        if not 0.0 <= self.confidence <= 1.0:
            raise InvariantError(f"/labels/{self.scenario}", "confidence must be in [0, 1]")


# --- Built-in cards -----------------------------------------------------------

def _card(name, description, scenario_type, layout, robot_task, human_behavior,
          success_metrics, quality_metrics, ideal, failures,
          location="generic", density="pedestrian") -> ScenarioCard:
    return ScenarioCard(
        name=name, description=description, scenario_type=scenario_type,
        research_context=ResearchContext(location=location, density=density, task="navigation"),
        definition=ScenarioDefinition(geometric_layout=layout,
                                      intended_robot_task=robot_task,
                                      intended_human_behavior=human_behavior),
        usage_guide=UsageGuide(success_metrics=tuple(success_metrics),
                               quality_metrics=tuple(quality_metrics),
                               ideal_outcome=ideal,
                               failure_modes=tuple(failures),
                               labeling_criteria=ClassifierParams()),
    )


_BUILTIN_CARDS = {card.name: card for card in (
    _card("frontal_approach",
          "A robot and a human walk straight at each other and must pass.",
          "hallway",
          "A walkway wide enough that both parties fit side by side.",
          "Cross the space to a goal on the far side.",
          "Walk the opposite way, toward the robot.",
          ["S", "C", "HC"], ["SC", "DH_min", "J_avg"],
          "Both pass without contact and continue to their goals.",
          ["Robot contacts the human", "Robot freezes and blocks the lane"]),
    _card("robot_overtaking",
          "A robot catches up with a slower human walking the same way and passes.",
          "hallway",
          "A walkway with room to pass on one side.",
          "Reach a goal further down the walkway, faster than the human.",
          "Walk toward the same end at a slower pace.",
          ["S", "C", "HC"], ["SC", "DH_min", "V_avg"],
          "Robot passes with a comfortable margin and merges back.",
          ["Robot cuts in too close", "Robot tailgates without passing"]),
    _card("pedestrian_overtaking",
          "A human catches up with the slower robot and passes it.",
          "hallway",
          "A walkway with room to pass on one side.",
          "Proceed to a goal at a modest pace.",
          "Approach from behind at higher speed and pass the robot.",
          ["S", "C", "HC"], ["SC", "DH_min"],
          "Robot keeps a steady course and yields room for the pass.",
          ["Robot drifts into the passing human", "Robot stops dead mid-lane"]),
    _card("intersection",
          "A robot and a human cross paths roughly at right angles.",
          "intersection",
          "Two crossing walkways or an open area with crossing routes.",
          "Cross to the far side.",
          "Cross along the perpendicular route at the same time.",
          ["S", "C", "HC"], ["SC", "DH_min", "TTC"],
          "Both clear the crossing without contact or hard braking.",
          ["Robot contacts the human", "Robot stalls inside the crossing"],
          location="indoor"),
    _card("blind_corner",
          "A robot and a human converge on a corner that hides them from "
          "each other until late.",
          "hallway",
          "Two corridor legs joined at a corner that blocks the sightline.",
          "Travel one leg, turn the corner, continue down the other.",
          "Travel the crossing leg toward the same corner.",
          ["S", "C", "HC"], ["SC", "DH_min", "TTC"],
          "Both negotiate the corner without contact.",
          ["Contact at the apex", "Robot blocks the corner"],
          location="indoor"),
    _card("parallel_traffic",
          "The robot travels inside a stream of people all heading the same way.",
          "crowd",
          "A wide walkway carrying directional foot traffic.",
          "Travel with the flow to a goal ahead.",
          "Several people walk the same direction around the robot.",
          ["S", "C", "HC"], ["SC", "DH_min", "V_avg"],
          "Robot keeps pace without weaving or crowding anyone.",
          ["Robot brushes a neighbor", "Robot repeatedly cuts across lanes"],
          density="crowd"),
    _card("perpendicular_traffic",
          "The robot crosses a stream of people moving at right angles to it.",
          "crowd",
          "A crossing area where a directional stream intersects the robot route.",
          "Cross the stream to a goal on the far side.",
          "Several people walk across the robot's route.",
          ["S", "C", "HC"], ["SC", "DH_min", "TTC"],
          "Robot threads a gap without forcing anyone to stop.",
          ["Robot contacts a crosser", "Robot stalls inside the stream"],
          density="crowd"),
)}


def builtin_cards() -> dict[str, ScenarioCard]:
    """Registry of the built-in, machine-classifiable scenario cards (a fresh dict)."""
    return dict(_BUILTIN_CARDS)


# --- Card serialization -------------------------------------------------------

def serialize_card(card: ScenarioCard) -> bytes:
    doc = asdict(card)
    if card.usage_guide.labeling_criteria is None:
        del doc["usage_guide"]["labeling_criteria"]
    return canonical_json_bytes(doc)


def _refuse_unknown(doc: dict, known: dict, path: str = ""):
    """SchemaError at the first key of ``doc``, at any depth, that ``known`` lacks."""
    for key, value in doc.items():
        if key not in known:
            raise SchemaError(f"{path}/{key}", "unknown field")
        if isinstance(value, dict):
            _refuse_unknown(value, known[key], f"{path}/{key}")


def parse_card(document: bytes | str) -> ScenarioCard:
    """Parse a scenario card; cards without labeling criteria classify nothing."""
    doc = load_json(document)
    if not isinstance(doc, dict):
        raise SchemaError("", "card document must be an object")
    card = read_dataclass(ScenarioCard, doc, "", _Issues(strict=True))
    _refuse_unknown(doc, asdict(card))
    if card.usage_guide.labeling_criteria is None:
        log.warning("card %r has no labeling_criteria; classification disabled", card.name)
    return card


def _margin_angle(deviation: np.ndarray, limit: float) -> float:
    """1 at zero deviation, 0 at the limit."""
    return float(np.clip(1.0 - median(deviation) / limit, 0.0, 1.0))


# --- Detectors ----------------------------------------------------------------
#
# A detector turns its sustained criteria (headings, motion) into a per-step
# mask, takes each maximal run of at least min_window_duration as a candidate
# window, then applies the aggregate criteria (minimum distance, passing
# clearance, occlusion, the overtake transition) to the window as a whole.
# It yields ``(agent_ids, s, e, margins)`` per accepted window (steps s to e-1,
# one margin in [0, 1] per criterion); ``classify`` names the label after its
# card, with confidence ``min(margins)``. Each detector builds its mask for
# all humans at once from the view's ``core.RobotPairs`` block, and cuts the
# windows of every row with one ``core.windows`` call. Each angle
# deviation is computed once, for the mask and for the margins.

_OPEN_SPACE_WIDTH = 20.0


def _lateral_clearance(ep, midpoint: np.ndarray, axis_heading: float,
                       r_sum: float) -> float:
    """Achievable lateral separation between two passing centers.

    Casts a line through the encounter midpoint perpendicular to the
    approach axis; the free width between the nearest obstacles on either
    side, minus one body radius per side, is how far apart the two centers
    can get. Unobstructed sides count as wide open.
    """
    seg_a, seg_b = ep.obstacles.static_arrays
    normal = np.array([-math.sin(axis_heading), math.cos(axis_heading)])
    side = {1: _OPEN_SPACE_WIDTH / 2, -1: _OPEN_SPACE_WIDTH / 2}
    for a, b in zip(seg_a, seg_b):
        d = b - a
        denom = d[0] * normal[1] - d[1] * normal[0]
        if abs(denom) < 1e-12:
            continue
        rel = midpoint - a
        u = (rel[0] * normal[1] - rel[1] * normal[0]) / denom
        if not 0.0 <= u <= 1.0:
            continue
        hit = a + u * d
        s = float((hit - midpoint) @ normal)
        sign = 1 if s >= 0 else -1
        side[sign] = min(side[sign], abs(s))
    return side[1] + side[-1] - r_sum


def _detect_frontal(ep, pairs, timeline, p: ClassifierParams):
    robot, others = pairs.robot, pairs.others
    dev = np.abs(wrap_angle(pairs.turn - math.pi))
    closing = (-np.einsum("...d,...d->...", pairs.dp, others.vel - robot.vel)
               / np.maximum(pairs.dist, 1e-9))
    mask = (pairs.participating(p.approach_speed_min) & (dev <= p.facing_angle_max)
            & (closing >= p.approach_speed_min))
    for i, s, e in windows(timeline, mask, p.min_window_duration):
        sl = slice(s, e)
        r_sum = ep.robot.radius + others.agents[i].radius
        clearance_needed = r_sum + p.min_clearance
        # The space must offer room to pass: evaluated at the closest
        # step of the window, perpendicular to the approach.
        k = s + int(np.argmin(pairs.dist[i, sl]))
        midpoint = 0.5 * (robot.pos[k] + others.pos[i, k])
        clearance = _lateral_clearance(ep, midpoint, float(robot.heading[k]), r_sum)
        if clearance < clearance_needed:
            continue
        yield (ep.robot.id, others.agents[i].id), s, e, (
            _margin_angle(dev[i, sl], p.facing_angle_max),
            float(np.clip(median(closing[i, sl]) / (4 * p.approach_speed_min), 0, 1)),
            float(np.clip((clearance - clearance_needed) / clearance_needed, 0, 1)),
        )


def _detect_overtaking(ep, pairs, timeline, p: ClassifierParams, robot_overtakes: bool):
    robot, others = pairs.robot, pairs.others
    mask = pairs.participating(p.approach_speed_min) & (pairs.relative <= p.facing_angle_max)
    for i, s, e in windows(timeline, mask, p.min_window_duration, 3.0 * p.min_window_duration):
        sl, dist = slice(s, e), pairs.dist[i]
        h, r = (others.speed[i], others.heading[i]), (robot.speed, robot.heading)
        (rear_speed, _), (front_speed, front_heading) = (r, h) if robot_overtakes else (h, r)
        dp = pairs.dp[i] if robot_overtakes else -pairs.dp[i]
        ratio = float(median(rear_speed[sl]) / np.maximum(median(front_speed[sl]), 1e-9))
        if ratio < p.overtake_speed_ratio_min:
            continue
        axis = np.column_stack([np.cos(front_heading), np.sin(front_heading)])
        behind = np.einsum("nd,nd->n", dp, axis)[sl] > 0  # the rear is behind
        if not behind[0] or behind[-1]:
            continue  # must start behind and end ahead
        cross = s + int(np.argmin(behind))  # first step at-or-ahead
        if dist[cross] > p.proximity_max:
            continue  # the pass must happen nearby
        # A pass needs a sustained following phase and a sustained
        # leading phase; momentary lead changes during a swerve do not
        # make an overtake.
        if (timeline[cross] - timeline[s] < p.min_window_duration
                or timeline[e - 1] - timeline[cross] < p.min_window_duration):
            continue
        yield (ep.robot.id, others.agents[i].id), s, e, (
            _margin_angle(pairs.relative[i, sl], p.facing_angle_max),
            float(np.clip((ratio - p.overtake_speed_ratio_min)
                          / p.overtake_speed_ratio_min, 0, 1)),
            float(np.clip(1.0 - dist[cross] / p.proximity_max, 0, 1)),
        )


def _detect_intersection(ep, pairs, timeline, p: ClassifierParams, require_occlusion: bool):
    seg_a, seg_b = ep.obstacles.static_arrays
    if require_occlusion and len(seg_a) == 0:
        return  # no static segment, no blind corner
    dev = np.abs(pairs.relative - math.pi / 2)
    mask = pairs.participating(p.approach_speed_min) & (dev <= p.crossing_angle_window)
    for i, s, e in windows(timeline, mask, p.min_window_duration):
        sl, dist = slice(s, e), pairs.dist[i, s:e]
        if float(dist.min()) > p.proximity_max:
            continue
        if require_occlusion and not sightlines_blocked(
                pairs.robot.pos[sl], pairs.others.pos[i, sl], seg_a, seg_b).any():
            continue
        yield (ep.robot.id, pairs.others.agents[i].id), s, e, (
            _margin_angle(dev[i, sl], p.crossing_angle_window),
            float(np.clip(1.0 - np.min(dist) / p.proximity_max, 0, 1)),
        )


def _detect_crowd_flow(ep, pairs, timeline, p: ClassifierParams, parallel: bool):
    if pairs.human.sum() < p.min_crowd_size:
        return
    robot, others = pairs.robot, pairs.others
    moving = pairs.human[:, None] & others.en_route & (others.speed > p.approach_speed_min)
    count = moving.sum(axis=0)
    # Summed over the human rows alone: a zero row between them would make a -0.0 sum 0.0.
    velocity = np.where(moving[:, :, None], others.vel, 0.0)[pairs.human].sum(axis=0)
    flow = np.arctan2(velocity[:, 1], velocity[:, 0])
    dev = np.abs(wrap_angle(flow - pairs.travel))
    limit = p.facing_angle_max if parallel else p.crossing_angle_window
    if not parallel:
        dev = np.abs(dev - math.pi / 2)
    mask = ((count >= p.min_crowd_size) & (dev <= limit)
            & robot.en_route & (robot.speed >= p.approach_speed_min))
    for _, s, e in windows(timeline, mask[None], p.min_window_duration):
        sl = slice(s, e)
        members = [others.agents[i].id for i in np.flatnonzero(moving[:, sl].any(axis=1)).tolist()]
        yield tuple([ep.robot.id] + members), s, e, (
            _margin_angle(dev[sl], limit),
            float(np.clip(median(count[sl]) / p.min_crowd_size - 0.5, 0, 1)),
        )


_DETECTORS: dict[str, Callable] = {
    "frontal_approach": _detect_frontal,
    "robot_overtaking": partial(_detect_overtaking, robot_overtakes=True),
    "pedestrian_overtaking": partial(_detect_overtaking, robot_overtakes=False),
    "intersection": partial(_detect_intersection, require_occlusion=False),
    "blind_corner": partial(_detect_intersection, require_occlusion=True),
    "parallel_traffic": partial(_detect_crowd_flow, parallel=True),
    "perpendicular_traffic": partial(_detect_crowd_flow, parallel=False),
}

CLASSIFIABLE_SCENARIOS = tuple(_DETECTORS)


def _arbitrate(labels: list[ScenarioLabel]) -> list[ScenarioLabel]:
    """The labels that explain an encounter best (module docstring), in their order."""
    if any(l.scenario in ("parallel_traffic", "perpendicular_traffic") for l in labels):
        return [l for l in labels if l.scenario not in (
            "frontal_approach", "robot_overtaking", "pedestrian_overtaking", "intersection")]
    corners = {l.agent_ids for l in labels if l.scenario == "blind_corner"}
    return [l for l in labels if not (
        l.scenario in ("intersection", "frontal_approach") and l.agent_ids in corners)]


def classify(episode: Episode, cards: Optional[Mapping[str, ScenarioCard]] = None,
             dt: Optional[float] = None) -> tuple[ScenarioLabel, ...]:
    """Run every card's detector and return the arbitrated labels.

    Each detector reads its own card's labeling criteria, the values a card
    file records. Cards without labeling criteria are documentation-only and
    skipped; a card with criteria but no detector raises UnknownCard.
    """
    cards = _BUILTIN_CARDS if cards is None else cards
    _, timeline, _, _, pairs = episode.resampled(dt)

    labels: list[ScenarioLabel] = []
    for name, card in cards.items():
        criteria = card.usage_guide.labeling_criteria
        if criteria is None:
            continue
        if name not in _DETECTORS:
            raise UnknownCard(f"no detector for card {name!r}")
        found = _DETECTORS[name](episode, pairs, timeline, criteria)
        labels.extend(ScenarioLabel(name, ids, float(timeline[s]), float(timeline[e - 1]),
                                    min(margins)) for ids, s, e, margins in found)

    return tuple(sorted(_arbitrate(labels), key=lambda l: (l.t_start, l.scenario, l.agent_ids)))


# --- Corpus coverage ----------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    episode_count: int
    scenario_counts: dict[str, int]
    labeled_fraction: float
    unlabeled_fraction: float


def coverage_report(labels_by_episode: Mapping[str, Sequence[ScenarioLabel]]) -> CoverageReport:
    """Per-scenario episode counts and the labeled/unlabeled split of a corpus."""
    counts: dict[str, int] = {}
    labeled = 0
    for _, labels in labels_by_episode.items():
        seen = {l.scenario for l in labels}
        for scenario in sorted(seen):
            counts[scenario] = counts.get(scenario, 0) + 1
        if seen:
            labeled += 1
    n = len(labels_by_episode)
    labeled_fraction = labeled / n if n else 0.0
    return CoverageReport(episode_count=n, scenario_counts=counts,
                          labeled_fraction=labeled_fraction,
                          unlabeled_fraction=1.0 - labeled_fraction if n else 0.0)


def serialize_labels(labels_by_episode: Mapping[str, Sequence[ScenarioLabel]]) -> bytes:
    """The ``socnav classify`` document: each episode's labels and the corpus
    coverage, each object the ``vars`` (the fields) of its dataclass."""
    return canonical_json_bytes({
        "format_version": FORMAT_VERSION,
        "episodes": {episode_id: [vars(label) for label in labels]
                     for episode_id, labels in labels_by_episode.items()},
        "coverage": vars(coverage_report(labels_by_episode)),
    })
