"""Closed-loop worlds: reactive rule-based humans plus the deployment engine.

One human engine, step_humans, steps the humans under one or more robot
lanes. The closed loop is its one-lane case, and the oracle predictor steps
all candidates of a replan as one lane each. A human's policy sees the robot
only through robot_views, so lanes that give every human the same view share
one human step, and the oracle steps each distinct human future once.

Human randomness is drawn from streams derived per (human, absolute step), so
every lane sees the draws of the closed loop itself. Policy state that must
persist across steps (resume timers, yield latches) lives in an engine-owned
per-human memory dict of scalar values.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    CAR_RADIUS,
    DT_DEFAULT,
    HORIZON_DEFAULT,
    PEDESTRIAN_RADIUS,
    ROBOT_RADIUS,
    TRUCK_RADIUS,
    ActionTraj,
    AgentState,
    Context,
    DrivingCorridor,
    JointState,
    JointStates,
    NavWorld,
    RngStream,
    footprint_overlap,
    rollout_positions_from_speeds,
    rollout_speeds,
    unicycle_step_floats,
    wrap_angle,
)
from .planner import PlannerHandle, ReplanEntry, plan
from .predictor import ModePrediction, PredictionSet

HUMAN_MODES = ("cruise", "stopped", "stranded", "intersection_cross", "yield_if_close")

# Stream tags for hierarchical rng derivation within a scene.
_STREAM_HUMAN = 1
_STREAM_PLANNER = 2

# Seconds a stopped car's lane must stay clear before it resumes.
RESUME_CLEAR_SECONDS = 2.0

YIELD_PROBABILITY = 0.8


@dataclass(frozen=True)
class HumanProfile:
    """Behavior archetype for one simulated human."""

    mode: str
    target_speed: float = 8.0
    reaction_radius: float = 12.0
    never_moves: bool = False
    radius: float = CAR_RADIUS

    def __post_init__(self):
        if self.mode not in HUMAN_MODES:
            raise ValueError(f"unknown human mode {self.mode!r}")
        if self.mode == "stranded":
            object.__setattr__(self, "never_moves", True)
        if self.target_speed < 0 or self.reaction_radius <= 0 or self.radius <= 0:
            raise ValueError("profile parameters out of range")


@dataclass(frozen=True)
class ScenarioSpec:
    context: Context
    robot_init: AgentState
    humans: tuple[tuple[AgentState, HumanProfile], ...]
    horizon: int = HORIZON_DEFAULT
    seed: int = 0
    scenario_id: str = "scene-000"

    def __post_init__(self):
        object.__setattr__(self, "humans", tuple((s, p) for s, p in self.humans))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class SceneRecord:
    """One closed-loop deployment: realized states, actions, and replan logs.

    states may be given as a list of JointState frames; it is held as one
    JointStates.
    """

    scenario_id: str
    context: Context
    states: JointStates
    executed_robot: list[ActionTraj]
    human_actions: list[ActionTraj]
    replan_log: list[ReplanEntry]
    per_frame_collision_cost: list[float]
    aborted: bool = False
    abort_reason: str = ""
    human_radii: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.states, JointStates):
            self.states = JointStates.of(self.states)

    def radii_or_default(self) -> list[float]:
        if self.human_radii:
            return list(self.human_radii)
        return [CAR_RADIUS] * len(self.states[0].humans)

    @property
    def collision_frames(self) -> int:
        return sum(1 for c in self.per_frame_collision_cost if c > 0.0)

    @property
    def total_collision_cost(self) -> float:
        return float(sum(self.per_frame_collision_cost))


# ---------------------------------------------------------------------------
# Human policies
# ---------------------------------------------------------------------------
#
# A human's decision reads the robot only through robot_views: a few
# comparisons between the robot's state and its own. The policy reads the
# other humans' states, its own memory and the view, and never states[0].
# The human engine below relies on this: robot lanes that give every human
# the same view cannot give different human steps.

def _humans_ahead(i: int, states: Sequence[tuple], radii: Sequence[float],
                  reach: float, lateral_window: float = 2.0) -> bool:
    """Is any other human within reach in front of human i (body frame)?

    states are the step's float states, robot first (not read here); a human
    without an entry in radii has CAR_RADIUS.
    """
    if len(states) < 3:  # no other human
        return False
    me = states[i + 1]
    x, y = me[0], me[1]
    c, s = math.cos(me[2]), math.sin(me[2])
    for j in range(1, len(states)):
        if j == i + 1:
            continue
        other = states[j]
        r = radii[j - 1] if j - 1 < len(radii) else CAR_RADIUS
        dx, dy = other[0] - x, other[1] - y
        proj = dx * c + dy * s
        lat = abs(-dx * s + dy * c)
        if 0.0 < proj < reach + r and lat < lateral_window:
            return True
    return False


def robot_views(profile: HumanProfile, i: int, states: Sequence[tuple],
                memory: dict, robots: Sequence[tuple]) -> list:
    """The robot as human i's policy sees it, under each robot state in
    robots, each (x, y, any, speed), from the human's states[i + 1] and
    memory; states[0] is not read.

    None for a human that never moves. For intersection_cross,
    (on_course, near): on_course is robot_x < x + 1 and 0 <= t_arrive <= 4
    while the yield latch is undrawn, near is robot_x < x + 3 while the latch
    is or may become True, each None when the policy will not read it. For
    every other mode, (close, ahead): close is hypot < reaction_radius
    (yield_if_close only, else None), and ahead is whether the robot is
    within reaction_radius + ROBOT_RADIUS in front of the human and within
    2.0 of its heading line (None when close).
    """
    if profile.never_moves or profile.mode == "stranded":
        return [None] * len(robots)
    x, y, heading = states[i + 1][:3]
    views = []
    if profile.mode == "intersection_cross":
        latch = memory.get("yield_latch")
        ahead_1, ahead_3 = x + 1.0, x + 3.0
        for r in robots:
            robot_x = r[0]
            on_course = None
            if latch is None:
                approaching = robot_x < ahead_1
                t_arrive = (x - robot_x) / max(r[3], 0.5)
                on_course = approaching and 0.0 <= t_arrive <= 4.0
            views.append((on_course, robot_x < ahead_3 if (latch is True or on_course) else None))
        return views
    # The robot-ahead test of the agents-ahead check, in the human's body frame.
    c, s = math.cos(heading), math.sin(heading)
    reach = profile.reaction_radius + ROBOT_RADIUS
    yields = profile.mode == "yield_if_close"
    close = None
    for r in robots:
        if yields:
            close = math.hypot(x - r[0], y - r[1]) < profile.reaction_radius
            if close:
                views.append((True, None))
                continue
        dx, dy = r[0] - x, r[1] - y
        proj = dx * c + dy * s
        views.append((close, 0.0 < proj < reach and abs(-dx * s + dy * c) < 2.0))
    return views


def _cruise_action(profile: HumanProfile, i: int, states: Sequence[tuple],
                   ctx: Context, radii: Sequence[float], robot_ahead: bool) -> tuple[float, float]:
    _, y, heading, speed = states[i + 1][:4]
    if isinstance(ctx, DrivingCorridor):
        center = ctx.nearest_center(y)
        desired = min(max(-0.4 * (y - center), -0.5), 0.5)
        w = min(max(2.0 * wrap_angle(desired - heading), -1.0), 1.0)
    else:
        w = 0.0
    if robot_ahead or _humans_ahead(i, states, radii, profile.reaction_radius):
        a = -3.0 if speed > 0 else 0.0
    else:
        a = min(max(0.6 * (profile.target_speed - speed), -2.0), 2.0)
    return a, w


def _crossing_target_heading(memory: dict, heading: float) -> float:
    if "cross_dir" not in memory:
        memory["cross_dir"] = 1.0 if abs(wrap_angle(heading - math.pi / 2)) < math.pi / 2 else -1.0
    return memory["cross_dir"] * math.pi / 2


def human_policy(profile: HumanProfile, i: int, states: Sequence[tuple],
                 ctx: Context, rng, memory: dict, radii: Sequence[float],
                 view: Optional[tuple]) -> tuple[float, float]:
    """One (accel, turn_rate) decision for human i, whose state is
    states[i + 1], given its view from robot_views.

    states are the step's float states, robot first, each starting
    (x, y, heading, speed); states[0] is not read. radii[j] is human j's
    footprint radius (CAR_RADIUS past its end). memory persists per human
    across steps (owned by the engine).
    """
    if profile.never_moves or profile.mode == "stranded":
        return (0.0, 0.0)

    if profile.mode == "cruise":
        return _cruise_action(profile, i, states, ctx, radii, view[1])

    heading, speed = states[i + 1][2:4]
    if profile.mode == "yield_if_close":
        if view[0]:
            return (-3.5 if speed > 0 else 0.0, 0.0)
        return _cruise_action(profile, i, states, ctx, radii, view[1])

    if profile.mode == "stopped":
        if not memory.get("resumed", False):
            clear = not (view[1] or _humans_ahead(i, states, radii, profile.reaction_radius))
            memory["clear_steps"] = memory.get("clear_steps", 0) + 1 if clear else 0
            if memory["clear_steps"] >= int(round(RESUME_CLEAR_SECONDS / DT_DEFAULT)):
                memory["resumed"] = True
            else:
                return (-3.0 if speed > 0 else 0.0, 0.0)
        return _cruise_action(profile, i, states, ctx, radii, view[1])

    if profile.mode == "intersection_cross":
        on_course, near = view
        if on_course:
            memory["yield_latch"] = bool(rng.generator().uniform() < YIELD_PROBABILITY)
        if memory.get("yield_latch") is True and near:
            return (-3.0 if speed > 0 else 0.0, 0.0)
        target_h = _crossing_target_heading(memory, heading)
        w = min(max(2.0 * wrap_angle(target_h - heading), -1.0), 1.0)
        a = min(max(0.8 * (profile.target_speed - speed), -2.0), 2.0)
        return a, w

    raise ValueError(f"unhandled mode {profile.mode!r}")


# ---------------------------------------------------------------------------
# The human engine: humans stepped under one or more robot lanes
# ---------------------------------------------------------------------------

class _LazyStream:
    """Stands in for root.derive(*ids) as human_policy's rng, deriving the
    stream only when the policy calls generator().

    Most policy steps draw nothing, and deriving a stream costs a SeedSequence.
    Streams are keyed by their ids, so deriving late gives the same draws.
    """

    __slots__ = ("root", "ids")

    def __init__(self, root: RngStream, ids: tuple[int, ...]):
        self.root = root
        self.ids = ids

    def generator(self) -> np.random.Generator:
        return self.root.derive(*self.ids).generator()


def step_humans(spec: ScenarioSpec, joint: JointState, memories: list[dict],
                robots: Sequence[Sequence[tuple]], rng_root: RngStream,
                dt: float = DT_DEFAULT) -> list[tuple[list[int], list[dict], np.ndarray, list]]:
    """Advance all humans from joint and memories for T steps under each of
    L = len(robots) robot lanes: robots[l] lists lane l's robot at steps
    0..T-1, each as robot_views reads it (x, y, any, speed).

    Lanes are stepped in groups that share their human states and memories:
    one human_policy and one unicycle_step_floats per human step a whole
    group. A group splits when a human's robot view differs between its
    lanes. The part holding the group's first lane keeps its memory dicts and
    the others step copies, so the given memories end as lane 0's. Draws are
    keyed by (human, t), so a shared step draws what each lane alone would.

    Returns one (lanes, memories, actions, states) per final group, in order
    of first lane: actions is the (M, T, 2) array of the humans' actions,
    and states[k] lists each human's float state after step k as
    unicycle_step_floats returns it: (x, y, heading, speed, heading_once).
    """
    profiles = [p for _, p in spec.humans]
    radii = [p.radius for p in profiles]
    ctx = spec.context
    M = len(profiles)
    by_step = list(zip(*robots))
    T = len(by_step)
    humans = list(enumerate(profiles))
    # (lanes, memories, human states, actions per step, states per step)
    groups = [(list(range(len(robots))), memories,
               [(s.x, s.y, s.heading, s.speed) for s in joint.humans], [], [])]
    for k in range(T):
        t = joint.t + k
        robots_k = by_step[k]
        stepped = []
        for lanes, mems, cur, acts_k, states_k in groups:
            # The policy sees the robot only through its view: states[0] is None.
            states = [None, *cur]
            rows = robots_k if len(lanes) == len(robots_k) else [robots_k[lane] for lane in lanes]
            keys = (list(zip(*[robot_views(p, i, states, mems[i], rows) for i, p in humans]))
                    if M else [()] * len(lanes))
            if keys.count(keys[0]) == len(lanes):
                parts = [(keys[0], lanes, mems, acts_k, states_k)]
            else:
                by_key: dict[tuple, list[int]] = {}
                for key, lane in zip(keys, lanes):
                    by_key.setdefault(key, []).append(lane)
                # Copies are taken before the first part's step writes to mems.
                parts = [(key, part, [dict(m) for m in mems] if n else mems,
                          list(acts_k) if n else acts_k, list(states_k) if n else states_k)
                         for n, (key, part) in enumerate(by_key.items())]
            for views, part, part_mems, part_acts, part_states in parts:
                acts, nxt = [], []
                for i, p in humans:
                    a, w = human_policy(p, i, states, ctx, _LazyStream(rng_root, (_STREAM_HUMAN, i, t)),
                                        part_mems[i], radii, views[i])
                    h = cur[i]
                    acts.append((a, w))
                    nxt.append(unicycle_step_floats(h[0], h[1], h[2], h[3], a, w, dt))
                part_acts.append(acts)
                part_states.append(nxt)
                stepped.append((part, part_mems, nxt, part_acts, part_states))
        groups = stepped
    return [(lanes, mems, np.array(acts_k, dtype=float).reshape(T, M, 2).transpose(1, 0, 2),
             states_k)
            for lanes, mems, _, acts_k, states_k in groups]


def simulate_humans(spec: ScenarioSpec, joint: JointState, memories: list[dict],
                    ego_actions: np.ndarray, rng_root: RngStream,
                    dt: float = DT_DEFAULT):
    """Advance all humans for len(ego_actions) steps while the robot plays
    ego_actions: step_humans with the robot's one lane. Mutates the given
    memories.

    Returns (actions, states): actions is the (M, T, 2) array of human
    actions, and states[k] lists every agent's float state after step k,
    robot first, as unicycle_step_floats returns it:
    (x, y, heading, speed, heading_once).
    """
    r = joint.robot
    robot = [(r.x, r.y, r.heading, r.speed)]
    for a, w in ego_actions.tolist():
        p = robot[-1]
        robot.append(unicycle_step_floats(p[0], p[1], p[2], p[3], a, w, dt))
    [(_, _, actions, states)] = step_humans(spec, joint, memories, [robot[:-1]], rng_root, dt)
    return actions, [[rs, *hs] for rs, hs in zip(robot[1:], states)]


@dataclass
class _SceneBinding:
    spec: ScenarioSpec
    rng_root: RngStream
    memories: list[dict]
    dt: float


class OraclePredictor:
    """Ground-truth-future predictor: steps the scene's own human policies,
    with the same derived rng draws the engine uses, under every candidate of
    a replan as one step_humans call. Candidates that give every human the
    same robot view share its human steps, and candidates with equal human
    futures share one PredictionSet.

    plan() calls predict_candidates(joint, history, ego_xys, speeds, ctx,
    n_modes_out, dt) with each candidate's rollout and speeds, so the oracle
    steps no robot itself; predict() is its one-candidate case."""

    def __init__(self):
        self._binding: Optional[_SceneBinding] = None

    def bind_scene(self, binding: _SceneBinding):
        self._binding = binding

    def _bound(self) -> _SceneBinding:
        if self._binding is None:
            raise RuntimeError("oracle predictor used outside a scene")
        return self._binding

    def predict(self, joint: JointState, history, ego_candidate: ActionTraj,
                ctx: Context, n_modes_out: int = 1) -> PredictionSet:
        """predict_candidates of the one candidate, rolled out at the scene's dt."""
        dt = self._bound().dt
        r, acts = joint.robot, ego_candidate.actions[None]
        speeds = rollout_speeds([r.speed], acts[:, :, 0], dt)
        xy = rollout_positions_from_speeds([r.x], [r.y], [r.heading], speeds,
                                           acts[:, :, 1], dt)
        return self.predict_candidates(joint, history, xy, speeds, ctx,
                                       n_modes_out, dt)[0]

    def predict_candidates(self, joint: JointState, history, ego_xys, speeds,
                           ctx: Context, n_modes_out: int, dt: float) -> list[PredictionSet]:
        """One PredictionSet per candidate, shared by candidates whose human
        futures are equal byte for byte.

        Candidate k's robot lane is its rollout ego_xys[k] at dt and its
        speed after each step, speeds[k]: plan() passes its library's speeds
        from _candidate_block, equal to rollout_speeds of the candidates'
        accelerations. The humans step at the scene's dt.
        """
        b = self._bound()
        r = joint.robot
        start = (r.x, r.y, r.heading, r.speed)
        lanes = [[start] + [(x, y, None, v) for (x, y), v in zip(xys[:-1], vs)]
                 for xys, vs in zip(ego_xys.tolist(), speeds.tolist())]
        groups = step_humans(b.spec, joint, [dict(m) for m in b.memories], lanes,
                             b.rng_root, b.dt)
        out: list[Optional[PredictionSet]] = [None] * len(lanes)
        sets: dict[bytes, PredictionSet] = {}
        for lane_ids, _, actions, _ in groups:
            key = actions.tobytes()
            if key not in sets:
                sets[key] = PredictionSet(humans=tuple(
                    (ModePrediction("oracle", 1.0, ActionTraj(a, start_t=joint.t)),)
                    for a in actions))
            for lane in lane_ids:
                out[lane] = sets[key]
        return out


# ---------------------------------------------------------------------------
# Closed-loop engine
# ---------------------------------------------------------------------------

def run_closed_loop(spec: ScenarioSpec, planner_handle: PlannerHandle, predictor,
                    replan_every: int = 10) -> SceneRecord:
    """Deploy the planner in the scene, replanning every replan_every steps."""
    if replan_every < 1:
        raise ValueError("replan_every must be >= 1")
    if spec.horizon % replan_every != 0:
        raise ValueError("replan_every must divide the horizon")
    dt = planner_handle.dt
    ctx = spec.context
    profiles = [p for _, p in spec.humans]
    radii = [p.radius for p in profiles]
    rng_root = RngStream(spec.seed)
    memories: list[dict] = [dict() for _ in profiles]

    if hasattr(predictor, "bind_scene"):
        predictor.bind_scene(_SceneBinding(spec, rng_root, memories, dt))

    joint0 = JointState(spec.robot_init, tuple(s for s, _ in spec.humans), 0)
    parts = [JointStates.of([joint0])]
    frames = [joint0]
    executed: list[ActionTraj] = []
    replan_log: list[ReplanEntry] = []
    M = len(profiles)
    human_actions_acc = np.zeros((M, spec.horizon, 2))
    frame_costs: list[float] = []
    w_col_mag = abs(planner_handle.weights.w_col)

    t = 0
    aborted = False
    abort_reason = ""
    while t < spec.horizon:
        joint = frames[-1]
        history = frames[max(0, t - 16):t]
        plan_rng = rng_root.derive(_STREAM_PLANNER, t)
        try:
            chosen, entry = plan(planner_handle, predictor, joint, history, ctx,
                                 plan_rng, human_radii=radii)
        except ValueError as exc:
            aborted = True
            abort_reason = f"planner failed at t={t}: {exc}"
            break
        replan_log.append(entry)
        n_exec = min(replan_every, spec.horizon - t, len(chosen))
        seg_actions = chosen.actions[:n_exec]
        executed.append(ActionTraj(seg_actions, start_t=t))
        h_acts, step_states = simulate_humans(spec, joint, memories,
                                              seg_actions, rng_root, dt)
        human_actions_acc[:, t:t + n_exec, :] = h_acts
        # (x, y, heading_once, speed): the states AgentState(x, y, once, v) builds.
        seg = JointStates(np.array(step_states)[:, :, [0, 1, 4, 3]],
                          range(t + 1, t + n_exec + 1))
        parts.append(seg)
        for js in seg:
            frames.append(js)
            cost = sum(
                footprint_overlap(js.robot, h, ROBOT_RADIUS, radii[i]) * dt * w_col_mag
                for i, h in enumerate(js.humans)
            )
            frame_costs.append(cost)
        t += n_exec

    human_trajs = [ActionTraj(human_actions_acc[i, :t], start_t=0) for i in range(M)] if (M and t) else []
    return SceneRecord(
        scenario_id=spec.scenario_id,
        context=ctx,
        states=JointStates.concat(parts),
        executed_robot=executed,
        human_actions=human_trajs,
        replan_log=replan_log,
        per_frame_collision_cost=frame_costs,
        aborted=aborted,
        abort_reason=abort_reason,
        human_radii=list(radii),
    )


def replay_max_deviation(record: SceneRecord, dt: float = DT_DEFAULT) -> float:
    """Re-integrate logged actions from the initial state; max abs coordinate
    deviation from the logged state sequence."""
    logged = record.states.block.tolist()
    cur = logged[0]
    robot_acts = np.concatenate([e.actions for e in record.executed_robot]) if record.executed_robot else np.zeros((0, 2))
    acts = [robot_acts.tolist()] + [tr.actions.tolist() for tr in record.human_actions]
    dev = 0.0
    for k, frame in enumerate(logged[1:]):
        cur = [unicycle_step_floats(*s[:4], *acts[j][k], dt)
               for j, s in enumerate(cur)]
        for (x, y, h, v, _), (lx, ly, lh, lv) in zip(cur, frame):
            dev = max(dev, abs(x - lx), abs(y - ly), abs(h - lh), abs(v - lv))
    return dev


# ---------------------------------------------------------------------------
# Scenario families
# ---------------------------------------------------------------------------

FAMILIES = ("StrandedTruck", "StoppedTraffic", "Intersection", "SparseCruise", "NavWorld")

_TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)


def _spec_stranded_truck(rng: np.random.Generator, sid: str, seed: int, horizon: int) -> ScenarioSpec:
    robot = AgentState(0.0, rng.normal(0, 0.2), 0.0, 8.0 + rng.uniform(-1, 1))
    truck = AgentState(60.0 + rng.uniform(-10, 25), rng.normal(0, 0.15), 0.0, 0.0)
    humans = (
        (truck, HumanProfile("stranded", target_speed=0.0, reaction_radius=10.0, radius=TRUCK_RADIUS)),
    )
    return ScenarioSpec(_TWO_LANE, robot, humans, horizon, seed, sid)


def _spec_stopped_traffic(rng: np.random.Generator, sid: str, seed: int, horizon: int) -> ScenarioSpec:
    robot = AgentState(0.0, rng.normal(0, 0.2), 0.0, 8.0 + rng.uniform(-1, 1))
    stopped = AgentState(55.0 + rng.uniform(-8, 15), rng.normal(0, 0.15), 0.0, 0.0)
    cruiser = AgentState(rng.uniform(-8, 6), 3.7, 0.0, 6.5 + rng.uniform(-1, 1))
    humans = (
        (stopped, HumanProfile("stopped", target_speed=7.0 + rng.uniform(-1, 1), reaction_radius=10.0)),
        (cruiser, HumanProfile("cruise", target_speed=cruiser.speed, reaction_radius=12.0)),
    )
    return ScenarioSpec(_TWO_LANE, robot, humans, horizon, seed, sid)


def _spec_intersection(rng: np.random.Generator, sid: str, seed: int, horizon: int) -> ScenarioSpec:
    robot = AgentState(0.0, rng.normal(0, 0.2), 0.0, 8.0 + rng.uniform(-1, 1))
    cross_x = 55.0 + rng.uniform(-8, 15)
    walker = AgentState(cross_x, -6.0 - rng.uniform(0, 2), math.pi / 2, 1.2)
    cruiser = AgentState(rng.uniform(-8, 6), 3.7, 0.0, 6.5 + rng.uniform(-1, 1))
    humans = (
        (walker, HumanProfile("intersection_cross", target_speed=1.2 + rng.uniform(-0.2, 0.2),
                              reaction_radius=15.0, radius=PEDESTRIAN_RADIUS)),
        (cruiser, HumanProfile("cruise", target_speed=cruiser.speed, reaction_radius=12.0)),
    )
    return ScenarioSpec(_TWO_LANE, robot, humans, horizon, seed, sid)


def _spec_sparse_cruise(rng: np.random.Generator, sid: str, seed: int, horizon: int) -> ScenarioSpec:
    # Light traffic: one car holding the adjacent lane at cruising speed.
    robot = AgentState(0.0, rng.normal(0, 0.2), 0.0, 8.0 + rng.uniform(-1, 1))
    cruiser = AgentState(12.0 + rng.uniform(0, 36), 3.7 + rng.normal(0, 0.15), 0.0,
                         6.5 + rng.uniform(-1, 1))
    humans = (
        (cruiser, HumanProfile("cruise", target_speed=cruiser.speed, reaction_radius=12.0)),
    )
    return ScenarioSpec(_TWO_LANE, robot, humans, horizon, seed, sid)


def _spec_nav_world(rng: np.random.Generator, sid: str, seed: int, horizon: int) -> ScenarioSpec:
    ctx = NavWorld()
    robot = AgentState(ctx.robot_start[0], ctx.robot_start[1], math.pi / 2, 0.8)
    hx, hy = ctx.human_start
    walker = AgentState(hx + rng.normal(0, 0.2), hy + rng.normal(0, 0.2),
                        -math.pi / 2, 0.5)
    humans = ((walker, HumanProfile("yield_if_close", target_speed=0.5,
                                    reaction_radius=1.5, radius=PEDESTRIAN_RADIUS)),)
    return ScenarioSpec(ctx, robot, humans, horizon, seed, sid)


_FAMILY_BUILDERS = {
    "StrandedTruck": _spec_stranded_truck,
    "StoppedTraffic": _spec_stopped_traffic,
    "Intersection": _spec_intersection,
    "SparseCruise": _spec_sparse_cruise,
    "NavWorld": _spec_nav_world,
}


def generate_scenario_batch(family: str, n: int, base_seed: int,
                            horizon: int = HORIZON_DEFAULT) -> list[ScenarioSpec]:
    """n jittered ScenarioSpecs of one family, seeds derived from base_seed."""
    if family not in _FAMILY_BUILDERS:
        raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")
    if n < 1:
        raise ValueError("n must be >= 1")
    build = _FAMILY_BUILDERS[family]
    out = []
    root = RngStream(base_seed)
    fam_tag = FAMILIES.index(family)
    for i in range(n):
        child = root.derive(fam_tag, i)
        sid = f"{family}-{base_seed}-{i:03d}"
        out.append(build(child.generator(), sid, child.seed, horizon))
    return out


# ---------------------------------------------------------------------------
# Serialization (scene/2 JSONL)
# ---------------------------------------------------------------------------
#
# A scene is one JSON object per line. Ids, the context, flags, radii, frame
# and replan times, mode labels and probabilities, and the per-frame and
# predicted rewards are plain JSON. Every numeric block is a {"shape", "f8"}
# object, "f8" holding the base64 of the little-endian float64 values:
#   states is (T+1, 1+M, 4): x, y, heading, speed, robot first;
#   a trajectory list (executed robot segments, human actions, one replan's
#   candidates or mode trajectories) is {"start_t", "len", "actions"}, with
#   every trajectory's actions stacked into one (sum of len, 2) block.
# The older scene/1, which spelled every value out in JSON, is not read:
# nothing writes it, and decoding it is an unsupported-schema ValueError.

SCENE_SCHEMA = "scene/2"


def _state_to_list(s: AgentState) -> list[float]:
    return [s.x, s.y, s.heading, s.speed]


def _state_from_list(v) -> AgentState:
    return AgentState(v[0], v[1], v[2], v[3])


def context_to_dict(ctx: Context) -> dict:
    if isinstance(ctx, DrivingCorridor):
        return {"kind": "corridor", "lane_centers": list(ctx.lane_centers),
                "lane_width": ctx.lane_width, "length": ctx.length}
    return {"kind": "nav", "goal_primary": list(ctx.goal_primary),
            "goal_backup": list(ctx.goal_backup),
            "human_start": list(ctx.human_start),
            "robot_start": list(ctx.robot_start)}


def context_from_dict(d) -> Context:
    if d["kind"] == "corridor":
        return DrivingCorridor(tuple(d["lane_centers"]), d["lane_width"], d["length"])
    if d["kind"] == "nav":
        return NavWorld(tuple(d["goal_primary"]), tuple(d["goal_backup"]),
                        tuple(d["human_start"]), tuple(d["robot_start"]))
    raise ValueError(f"unknown context kind {d.get('kind')!r}")


def _pack(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "f8": base64.b64encode(arr.tobytes()).decode("ascii")}


def _unpack(block: dict, name: str) -> np.ndarray:
    """The read-only float64 array of a {"shape", "f8"} block."""
    shape = [int(n) for n in block["shape"]]
    buf = base64.b64decode(block["f8"])
    want = 8 * math.prod(shape)
    if min(shape, default=0) < 0 or len(buf) != want:
        raise ValueError(f"{name}: block holds {len(buf)} bytes, "
                         f"but its shape {shape} needs {want}")
    return np.frombuffer(buf, dtype="<f8").reshape(shape)


def _pack_trajs(trajs: Sequence[ActionTraj]) -> dict:
    actions = np.concatenate([tr.actions for tr in trajs]) if trajs else np.zeros((0, 2))
    return {"start_t": [tr.start_t for tr in trajs], "len": [len(tr) for tr in trajs],
            "actions": _pack(actions)}


def _unpack_trajs(d: dict, name: str):
    """(actions, start_ts, lens) of a scene/2 trajectory list, in the order
    of ActionTraj.block's arguments: actions is the (sum of lens, 2) block
    of every trajectory's rows in order."""
    start_ts, lens = d["start_t"], d["len"]
    flat = _unpack(d["actions"], name)
    if (flat.ndim != 2 or flat.shape[1] != 2 or len(lens) != len(start_ts)
            or sum(lens) != len(flat)):
        raise ValueError(f"{name}: {len(start_ts)} start_t and lengths {lens} "
                         f"do not fit an actions block of shape {list(flat.shape)}")
    return flat, start_ts, lens


def _replan_trajs(lst, name: str) -> list[ActionTraj]:
    """ActionTraj.block of one replan's list; an error it raises gets a note
    naming the list."""
    try:
        return ActionTraj.block(*lst)
    except ValueError as exc:
        exc.add_note(name)
        raise


def _joined_trajs(lists) -> Optional[list[list[ActionTraj]]]:
    """The trajectories of several (actions, start_ts, lens) lists, checked
    by one ActionTraj.block call over all their rows and split back into one
    list per list; None when a trajectory fails a check."""
    if not lists:
        return []
    try:
        trajs = ActionTraj.block(np.concatenate([a for a, _, _ in lists]),
                                 [t for _, start_ts, _ in lists for t in start_ts],
                                 [n for _, _, lens in lists for n in lens])
    except ValueError:
        return None
    out, start = [], 0
    for _, start_ts, _ in lists:
        out.append(trajs[start:start + len(start_ts)])
        start += len(start_ts)
    return out


def scene_to_dict(rec: SceneRecord) -> dict:
    return {
        "schema": SCENE_SCHEMA,
        "scenario_id": rec.scenario_id,
        "context": context_to_dict(rec.context),
        "t": list(rec.states.ts),
        "states": _pack(rec.states.block),
        "executed_robot": _pack_trajs(rec.executed_robot),
        "human_actions": _pack_trajs(rec.human_actions),
        "replan_log": [
            {
                "t": e.t,
                "candidates": _pack_trajs(e.candidates),
                "predicted_humans": {
                    "label": [[m.label for m in h] for h in e.predicted_humans.humans],
                    "prob": [[m.prob for m in h] for h in e.predicted_humans.humans],
                    "trajs": _pack_trajs([m.traj for h in e.predicted_humans.humans
                                          for m in h]),
                },
                "candidate_rewards_predicted": e.candidate_rewards_predicted,
                "executed_index": e.executed_index,
                "predicted_reward_samples": [[r, w] for r, w in e.predicted_reward_samples],
            }
            for e in rec.replan_log
        ],
        "per_frame_collision_cost": rec.per_frame_collision_cost,
        "aborted": rec.aborted,
        "abort_reason": rec.abort_reason,
        "human_radii": rec.radii_or_default(),
    }


def _scene2_arrays(d: dict):
    """(frame times, states, executed, human actions, replans) of a scene/2
    dict; each replan is (entry dict, candidates, mode labels, mode probs,
    mode trajectories)."""
    frame_t = d["t"]
    states = _unpack(d["states"], "states")
    if states.ndim != 3 or states.shape[2] != 4 or len(states) != len(frame_t):
        raise ValueError(f"states: block of shape {list(states.shape)} does not "
                         f"fit {len(frame_t)} frames of (1+M, 4) states")
    replans = []
    for i, e in enumerate(d["replan_log"]):
        ph = e["predicted_humans"]
        modes = _unpack_trajs(ph["trajs"], f"replan_log[{i}].predicted_humans")
        if ([len(h) for h in ph["label"]] != [len(h) for h in ph["prob"]]
                or sum(map(len, ph["label"])) != len(modes[1])):
            raise ValueError(f"replan_log[{i}].predicted_humans: mode labels, "
                             f"probabilities and trajectories do not match")
        replans.append((e, _unpack_trajs(e["candidates"], f"replan_log[{i}].candidates"),
                        ph["label"], ph["prob"], modes))
    return (frame_t, states,
            _unpack_trajs(d["executed_robot"], "executed_robot"),
            _unpack_trajs(d["human_actions"], "human_actions"), replans)


def scene_from_dict(d: dict) -> SceneRecord:
    """Decode a scene/2 dict; any other schema is a ValueError. Every value
    passes the checks of the record types it becomes, at once: AgentState
    (finite, speed >= 0, heading wrapped) and JointState through
    core.JointStates, ActionTraj, ReplanEntry and PredictionSet.

    All candidate rows of the scene are checked by one ActionTraj.block
    call, and all mode rows by another. When a row fails, the replans are
    decoded one by one again, so the error raised is the one that decoding
    replan by replan raises first, with a note naming the replan's field."""
    if d.get("schema") != SCENE_SCHEMA:
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    frame_t, states, executed, human_actions, replans = _scene2_arrays(d)
    joints = JointStates(states, frame_t)
    joined_cands = _joined_trajs([r[1] for r in replans])
    joined_modes = _joined_trajs([r[4] for r in replans])
    one_by_one = joined_cands is None or joined_modes is None
    entries = []
    for i, (e, candidates, labels, probs, modes) in enumerate(replans):
        if one_by_one:
            cands = _replan_trajs(candidates, f"replan_log[{i}].candidates")
            trajs = iter(_replan_trajs(modes, f"replan_log[{i}].predicted_humans"))
        else:
            cands, trajs = joined_cands[i], iter(joined_modes[i])
        entries.append(ReplanEntry(
            t=e["t"],
            candidates=cands,
            predicted_humans=PredictionSet(tuple(
                tuple(ModePrediction(label, prob, next(trajs))
                      for label, prob in zip(h_labels, h_probs))
                for h_labels, h_probs in zip(labels, probs)
            )),
            candidate_rewards_predicted=list(e["candidate_rewards_predicted"]),
            executed_index=e["executed_index"],
            predicted_reward_samples=[(r, w) for r, w in e["predicted_reward_samples"]],
        ))
    rec = SceneRecord(
        scenario_id=d["scenario_id"],
        context=context_from_dict(d["context"]),
        states=joints,
        executed_robot=ActionTraj.block(*executed),
        human_actions=ActionTraj.block(*human_actions),
        replan_log=entries,
        per_frame_collision_cost=list(d["per_frame_collision_cost"]),
        aborted=d.get("aborted", False),
        abort_reason=d.get("abort_reason", ""),
    )
    rec.human_radii = list(d.get("human_radii", []))
    return rec


def scenes_to_jsonl(path, records: Sequence[SceneRecord]):
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(scene_to_dict(rec)) + "\n")


def _line_scenario_id(d):
    return d.get("scenario_id") if isinstance(d, dict) else None


def _jsonl_values(path):
    """(line number, JSON value) of each non-blank line, numbered from 1."""
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield n, json.loads(line)
            except ValueError as exc:
                exc.add_note(f"{path}: line {n}, scenario None")
                raise


def scenes_from_jsonl(path, ids=None) -> list[SceneRecord]:
    """The scenes of a JSONL file, one per non-blank line, in line order.

    Every line is JSON-parsed, so a line that is not JSON always fails. With
    ids given, only the lines whose scenario id is in ids are decoded. ids
    may also be a function that takes the scenario ids of all lines, in line
    order, and returns that set; every line is then parsed before any is
    decoded. A line with no string scenario id is always decoded. A
    ValueError from a line gets a note naming the line (1-based) and the
    scenario id."""
    lines = _jsonl_values(path)
    if callable(ids):
        lines = list(lines)
        ids = ids([_line_scenario_id(d) for _, d in lines])
    out = []
    for n, d in lines:
        sid = _line_scenario_id(d)
        if ids is not None and isinstance(sid, str) and sid not in ids:
            continue
        try:
            out.append(scene_from_dict(d))
        except ValueError as exc:
            exc.add_note(f"{path}: line {n}, scenario {sid!r}")
            raise
    return out


def spec_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "context": context_to_dict(spec.context),
        "robot_init": _state_to_list(spec.robot_init),
        "humans": [
            {"state": _state_to_list(s),
             "profile": {"mode": p.mode, "target_speed": p.target_speed,
                         "reaction_radius": p.reaction_radius,
                         "never_moves": p.never_moves, "radius": p.radius}}
            for s, p in spec.humans
        ],
        "horizon": spec.horizon,
        "seed": spec.seed,
        "scenario_id": spec.scenario_id,
    }


def spec_from_dict(d: dict) -> ScenarioSpec:
    humans = tuple(
        (_state_from_list(h["state"]),
         HumanProfile(h["profile"]["mode"], h["profile"]["target_speed"],
                      h["profile"]["reaction_radius"], h["profile"]["never_moves"],
                      h["profile"]["radius"]))
        for h in d["humans"]
    )
    return ScenarioSpec(context_from_dict(d["context"]), _state_from_list(d["robot_init"]),
                        humans, d["horizon"], d["seed"], d["scenario_id"])
