"""Social robot navigation evaluation toolkit.

Provides an episode interchange format, a hand-crafted metric suite with
taxonomy codes, scenario-card classifiers, a deterministic 2D pedestrian
simulator for corpus generation, and distributional reporting.
"""

from .core import (
    AgentKind,
    AgentRecord,
    Episode,
    EpisodeLabel,
    Goal,
    MetricParams,
    ObstacleMap,
    Vec2,
    common_timeline,
    validate_episode,
)

__version__ = "0.1.0"

__all__ = [
    "AgentKind",
    "AgentRecord",
    "Episode",
    "EpisodeLabel",
    "Goal",
    "MetricParams",
    "ObstacleMap",
    "Vec2",
    "common_timeline",
    "validate_episode",
    "__version__",
]
