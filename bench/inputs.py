"""Seeded inputs owned by the benchmark: scripted encounter episodes and a crowd TSV.

Nothing here calls into ``socnav``: the episodes are built as plain JSON
documents in the interchange format, so a change to the simulator or to the
episode model cannot change the inputs of ``analyze_corpus``.

The corpus is stratified: the slot ``i % BLOCK`` of episode ``i`` fixes its
family, layout, crowd size and field omissions, and the seed and index only
move positions, speeds and therefore lengths. Any two blocks, from one seed
or two, thus hold the same mix of work.
"""

from __future__ import annotations

import json
import math
import random

FAMILIES = ("frontal", "overtaking", "crossing", "parallel", "perpendicular")
LAYOUTS = ("none", "corridor", "l_corner", "dynamic")
DT = 0.1
BLOCK = 40  # every block of BLOCK consecutive episodes has the same mix of work
TSV_HZ = 2.5
TSV_ROBOT = "ped_0"
TSV_AGENTS = 12
TSV_SECONDS = 60.0


class _Walker:
    """Constant-speed walk along a polyline, with a small gait sway."""

    def __init__(self, points, speed, t_start=0.0, sway=0.0, sway_period=1.1, phase=0.0):
        self.points = [tuple(map(float, p)) for p in points]
        self.speed = speed
        self.t_start = t_start
        self.sway = sway
        self.omega = 2.0 * math.pi / sway_period
        self.phase = phase
        self.lengths = [math.dist(a, b) for a, b in zip(self.points, self.points[1:])]
        self.total = sum(self.lengths)

    @property
    def t_arrive(self) -> float:
        return self.t_start + self.total / self.speed

    def state(self, t):
        """Position and velocity at time t; parked at either end outside the walk."""
        travelled = self.speed * (t - self.t_start)
        moving = 0.0 < travelled < self.total
        s = min(max(travelled, 0.0), self.total)
        last = len(self.lengths) - 1
        for k, length in enumerate(self.lengths):
            if s <= length or k == last:
                break
            s -= length
        a, b = self.points[k], self.points[k + 1]
        ux, uy = (b[0] - a[0]) / length, (b[1] - a[1]) / length
        s = min(s, length)
        x, y = a[0] + ux * s, a[1] + uy * s
        vx, vy = (ux * self.speed, uy * self.speed) if moving else (0.0, 0.0)
        if moving and self.sway:
            # Lateral sway, perpendicular to the walking direction.
            arg = self.omega * (t - self.t_start) + self.phase
            lat, dlat = self.sway * math.sin(arg), self.sway * self.omega * math.cos(arg)
            x, y = x - uy * lat, y + ux * lat
            vx, vy = vx - uy * dlat, vy + ux * dlat
        return x, y, vx, vy


def _states(walker, t0, t1, with_velocity, with_theta):
    out = []
    heading = 0.0
    n = int(round((t1 - t0) / DT))
    for k in range(n + 1):
        t = round(t0 + k * DT, 3)
        x, y, vx, vy = walker.state(t)
        if math.hypot(vx, vy) > 1e-9:
            heading = math.atan2(vy, vx)
        s = {"t": t, "x": round(x, 4), "y": round(y, 4)}
        if with_theta:
            s["theta"] = round(heading, 4)
        if with_velocity:
            s["vx"] = round(vx, 4)
            s["vy"] = round(vy, 4)
        out.append(s)
    return out


def _segments_for(layout, family, half_width, rng):
    """Static segments and dynamic sets for one layout, sized to the family's paths."""
    w = half_width
    static, dynamic = [], []
    if layout == "corridor":
        if family == "crossing":
            # A four-way junction: the corridors meet at the origin.
            for sx in (-1, 1):
                for sy in (-1, 1):
                    static.append([sx * w, sy * w, sx * 14.0, sy * w])
                    static.append([sx * w, sy * w, sx * w, sy * 14.0])
        else:
            static += [[-14.0, w, 14.0, w], [-14.0, -w, 14.0, -w]]
    elif layout == "l_corner":
        if family == "crossing":
            # Blind corner: the horizontal leg turns down at the origin.
            static += [[-14.0, w, w, w], [w, w, w, -14.0],
                       [-14.0, -w, -w, -w], [-w, -w, -w, -14.0]]
        else:
            # The corner lies beyond the end of the walk.
            c = 13.0
            static += [[-14.0, w, c + w, w], [c + w, w, c + w, -14.0],
                       [-14.0, -w, c - w, -w], [c - w, -w, c - w, -14.0]]
    elif layout == "dynamic":
        # A sliding door and a cart beside the walkway, re-placed every few seconds.
        stamp = 0.0
        while stamp < 40.0:
            shift = rng.uniform(-3.0, 3.0)
            dynamic.append({"t": round(stamp, 3), "segments": [
                [round(-2.0 + shift, 4), w + 0.5, round(0.5 + shift, 4), w + 0.5],
                [round(4.0 - shift, 4), -w - 0.6, round(5.2 - shift, 4), -w - 0.6],
            ]})
            stamp += rng.uniform(3.0, 6.0)
    obstacles = {"segments": static}
    if dynamic:
        obstacles["dynamic"] = dynamic
    return obstacles


def _crowd_size(slot):
    """5 to 15 humans, a different size in each group of five slots."""
    return 5 + (slot // len(FAMILIES)) * 3 % 11


def _encounter(family, layout, slot, rng):
    """Walkers for one scripted encounter: (robot, humans, half_width, duration)."""
    j = rng.uniform
    humans = []
    if family == "frontal":
        speed_r, speed_h = j(0.9, 1.2), j(0.9, 1.3)
        robot = _Walker([(-9.0 + j(-0.5, 0.5), -0.35), (9.0, -0.35)], speed_r, sway=0.02)
        humans.append(_Walker([(9.0 + j(-0.5, 0.5), 0.35 + j(-0.05, 0.05)), (-9.5, 0.4)],
                              speed_h, t_start=j(0.0, 1.5), sway=0.03))
        half_width = 1.25
    elif family == "overtaking":
        fast, slow = j(1.2, 1.5), j(0.45, 0.6)
        ahead = -5.0 + j(-0.5, 0.5)
        if slot % 2 == 0:
            # The robot catches up with a slow walker and passes.
            robot = _Walker([(-9.0, -0.4), (10.0, -0.4)], fast, sway=0.02)
            humans.append(_Walker([(ahead, 0.4), (10.0, 0.4)], slow, sway=0.03))
        else:
            # The robot walks slowly ahead and is passed from behind.
            robot = _Walker([(ahead, -0.4), (4.0, -0.4)], slow, sway=0.02)
            humans.append(_Walker([(-9.0, 0.4), (10.0, 0.4)], fast, sway=0.03))
        half_width = 1.25
    elif family == "crossing":
        speed = j(0.9, 1.1)
        if layout == "l_corner":
            # Robot turns right at the corner; the human comes up the other leg.
            robot = _Walker([(-8.0, -0.35), (0.35, -0.35), (0.35, -8.0)], speed, sway=0.01)
            reach = 8.0 - 0.35 - j(0.8, 1.4)
            humans.append(_Walker([(-0.35, -reach), (-0.35, 0.35), (-8.0, 0.35)],
                                  speed, sway=0.01))
            half_width = 0.8
        else:
            robot = _Walker([(-8.0, 0.0), (8.0, 0.0)], speed, sway=0.02)
            x_cross = j(0.4, 1.2)
            # Reach the crossing point 0.6 to 1.2 s after the robot has passed it.
            y0 = -(x_cross + 8.0 + speed * j(0.6, 1.2))
            humans.append(_Walker([(x_cross, y0), (x_cross, 8.0)], speed, sway=0.02))
            half_width = 1.5
    elif family == "parallel":
        robot = _Walker([(-9.0, 0.0), (9.0, 0.0)], j(0.9, 1.1), sway=0.02)
        lanes = [-3.0, -2.4, -1.8, -1.2, 1.2, 1.8, 2.4, 3.0, -3.6, 3.6, -4.2, 4.2, -4.8, 4.8,
                 -5.4]
        count = _crowd_size(slot)
        for k in range(count):
            x0 = -10.0 + j(-1.5, 1.5)
            humans.append(_Walker([(x0, lanes[k] + j(-0.1, 0.1)), (x0 + 20.0, lanes[k])],
                                  j(0.85, 1.2), t_start=j(0.0, 1.0), sway=0.03,
                                  phase=j(0, 6.28)))
        half_width = 6.0
    else:  # perpendicular
        robot = _Walker([(-9.0, 0.0), (9.0, 0.0)], j(0.9, 1.1), sway=0.02)
        count = _crowd_size(slot)
        for k in range(count):
            x0 = -4.0 + 8.0 * k / max(count - 1, 1) + j(-0.2, 0.2)
            y0 = -6.0 - 0.25 * k + j(-0.3, 0.3)
            humans.append(_Walker([(x0, y0), (x0, 9.0)], j(0.9, 1.2), t_start=j(0.0, 1.0),
                                  sway=0.03, phase=j(0, 6.28)))
        half_width = 10.0
    if family in ("frontal", "overtaking", "crossing"):
        # Loiterers well away from the encounter: they add agents but no motion
        # fast enough to take part in any scenario.
        for k in range(slot // len(FAMILIES) % 5):
            cx, cy = j(-8.0, 8.0), (1 if k % 2 else -1) * j(6.0, 9.0)
            r = j(0.3, 0.6)
            pts = [(cx + r * math.cos(a), cy + r * math.sin(a))
                   for a in (0.0, 2.1, 4.2, 6.28)]
            humans.append(_Walker(pts, j(0.03, 0.06)))
    duration = max(robot.t_arrive, *(h.t_arrive for h in humans[:1])) + 1.0
    return robot, humans, half_width, min(duration, 40.0)


def analysis_episode(seed: int, index: int) -> bytes:
    """One scripted encounter as canonical interchange JSON bytes.

    The episode's slot in its block of BLOCK fixes its family, layout, crowd
    size and omitted fields; the seed and index drive everything else.
    """
    rng = random.Random(f"analyze/{seed}/{index}")
    slot = index % BLOCK
    family = FAMILIES[slot % len(FAMILIES)]
    layout = layout_of(index)
    with_velocity = slot % 3 != 0
    with_theta = slot % 4 != 1
    robot, humans, half_width, duration = _encounter(family, layout, slot, rng)
    duration = round(duration, 1)
    agents = [{
        "id": "robot", "kind": "robot", "radius": 0.3,
        "goal": {"x": round(robot.points[-1][0], 4), "y": round(robot.points[-1][1], 4),
                 "tolerance": 0.3},
        "states": _states(robot, 0.0, duration, with_velocity, with_theta),
    }]
    for k, h in enumerate(humans):
        # Crowd members may enter late or leave early; pairwise partners stay throughout.
        t0 = 0.0
        t1 = duration
        if family in ("parallel", "perpendicular") and k % 4 == 3:
            t0 = round(rng.uniform(0.5, 3.0), 1)
            t1 = round(duration - rng.uniform(0.5, 3.0), 1)
        agents.append({
            "id": f"h{k}", "kind": "human", "radius": round(rng.uniform(0.25, 0.35), 3),
            "states": _states(h, t0, t1, with_velocity, with_theta),
        })
    doc = {
        "format_version": "1.0",
        "episode_id": f"analyze_{seed}_{index:04d}",
        "robot_under_test": "robot",
        "agents": agents,
        "obstacles": _segments_for(layout, family, half_width, rng),
        "labels": [],
        "metadata": {"family": family, "layout": layout, "source": "bench"},
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def layout_of(index: int) -> str:
    return LAYOUTS[(index % BLOCK // len(FAMILIES)) % len(LAYOUTS)]


def analysis_corpus(seed: int, start: int, size: int) -> list[bytes]:
    """Episodes ``start`` to ``start + size - 1``."""
    return [analysis_episode(seed, i) for i in range(start, start + size)]


def crowd_tsv(seed: int) -> bytes:
    """A bird's-eye-view table, ``frame<TAB>agent<TAB>x<TAB>y``, sampled at TSV_HZ.

    ``ped_0`` is present in every frame; the others enter and leave within
    its span, walking across a 20 m square plaza.
    """
    rng = random.Random(f"tsv/{seed}")
    frames = int(TSV_SECONDS * TSV_HZ)
    lines = ["# frame\tagent\tx\ty"]
    walkers = [(TSV_ROBOT, _Walker([(-9.0, rng.uniform(-1, 1)), (9.0, rng.uniform(-1, 1))],
                                   18.0 / TSV_SECONDS * 1.05), 0, frames)]
    for k in range(1, TSV_AGENTS):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        start = (9.0 * math.cos(angle), 9.0 * math.sin(angle))
        end = (-9.0 * math.cos(angle) + rng.uniform(-2, 2), -9.0 * math.sin(angle))
        f0 = rng.randrange(0, frames // 2)
        f1 = min(frames, f0 + rng.randrange(frames // 4, frames // 2))
        walkers.append((f"ped_{k}", _Walker([start, end], rng.uniform(0.8, 1.4),
                                            t_start=f0 / TSV_HZ, sway=0.03), f0, f1))
    rows = []
    for agent_id, walker, f0, f1 in walkers:
        for f in range(f0, f1 + 1):
            x, y, _, _ = walker.state(f / TSV_HZ)
            rows.append((f, agent_id, x, y))
    rows.sort()
    lines += [f"{f}\t{a}\t{x:.3f}\t{y:.3f}" for f, a, x, y in rows]
    return ("\n".join(lines) + "\n").encode()
