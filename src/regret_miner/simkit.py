"""Closed-loop worlds: reactive rule-based humans plus the deployment engine.

Human randomness is drawn from streams derived per (human, absolute step), so
any component that re-simulates a span of the scene — the engine itself, or
the oracle predictor evaluating a candidate — sees identical draws. Policy
state that must persist across steps (resume timers, yield latches) lives in
an engine-owned per-human memory dict of scalar values.
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
    NavWorld,
    RngStream,
    footprint_overlap,
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
    """One closed-loop deployment: realized states, actions, and replan logs."""

    scenario_id: str
    context: Context
    states: list[JointState]
    executed_robot: list[ActionTraj]
    human_actions: list[ActionTraj]
    replan_log: list[ReplanEntry]
    per_frame_collision_cost: list[float]
    aborted: bool = False
    abort_reason: str = ""
    human_radii: list[float] = field(default_factory=list)

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

def _agents_ahead(i: int, states: Sequence[tuple], radii: Sequence[float],
                  reach: float, lateral_window: float = 2.0) -> bool:
    """Is any other agent within reach in front of human i (body frame)?

    states are the step's float states, robot first; the robot's radius is
    ROBOT_RADIUS and a human without an entry in radii has CAR_RADIUS.
    """
    me = states[i + 1]
    x, y = me[0], me[1]
    c, s = math.cos(me[2]), math.sin(me[2])
    for j, other in enumerate(states):
        if j == i + 1:
            continue
        r = ROBOT_RADIUS if j == 0 else (radii[j - 1] if j - 1 < len(radii) else CAR_RADIUS)
        dx, dy = other[0] - x, other[1] - y
        proj = dx * c + dy * s
        lat = abs(-dx * s + dy * c)
        if 0.0 < proj < reach + r and lat < lateral_window:
            return True
    return False


def _cruise_action(profile: HumanProfile, i: int, states: Sequence[tuple],
                   ctx: Context, radii: Sequence[float]) -> tuple[float, float]:
    _, y, heading, speed = states[i + 1][:4]
    if isinstance(ctx, DrivingCorridor):
        center = ctx.nearest_center(y)
        desired = min(max(-0.4 * (y - center), -0.5), 0.5)
        w = min(max(2.0 * wrap_angle(desired - heading), -1.0), 1.0)
    else:
        w = 0.0
    if _agents_ahead(i, states, radii, profile.reaction_radius):
        a = -3.0 if speed > 0 else 0.0
    else:
        a = min(max(0.6 * (profile.target_speed - speed), -2.0), 2.0)
    return a, w


def _crossing_target_heading(memory: dict, heading: float) -> float:
    if "cross_dir" not in memory:
        memory["cross_dir"] = 1.0 if abs(wrap_angle(heading - math.pi / 2)) < math.pi / 2 else -1.0
    return memory["cross_dir"] * math.pi / 2


def human_policy_step(profile: HumanProfile, i: int, states: Sequence[tuple],
                      ctx: Context, rng: RngStream,
                      memory: Optional[dict] = None,
                      radii: Sequence[float] = ()) -> tuple[float, float]:
    """One (accel, turn_rate) decision for human i, whose state is
    states[i + 1].

    states are the step's float states, robot first, each starting
    (x, y, heading, speed). radii[j] is human j's footprint radius
    (CAR_RADIUS past its end). memory persists per human across steps (owned
    by the engine); passing a fresh dict makes the call stateless, which the
    one-shot yield draw test relies on.
    """
    if memory is None:
        memory = {}
    if profile.never_moves or profile.mode == "stranded":
        return (0.0, 0.0)

    if profile.mode == "cruise":
        return _cruise_action(profile, i, states, ctx, radii)

    x, y, heading, speed = states[i + 1][:4]
    if profile.mode == "yield_if_close":
        robot = states[0]
        if math.hypot(x - robot[0], y - robot[1]) < profile.reaction_radius:
            return (-3.5 if speed > 0 else 0.0, 0.0)
        return _cruise_action(profile, i, states, ctx, radii)

    if profile.mode == "stopped":
        if not memory.get("resumed", False):
            clear = not _agents_ahead(i, states, radii, profile.reaction_radius)
            memory["clear_steps"] = memory.get("clear_steps", 0) + 1 if clear else 0
            if memory["clear_steps"] >= int(round(RESUME_CLEAR_SECONDS / DT_DEFAULT)):
                memory["resumed"] = True
            else:
                return (-3.0 if speed > 0 else 0.0, 0.0)
        return _cruise_action(profile, i, states, ctx, radii)

    if profile.mode == "intersection_cross":
        robot_x, robot_speed = states[0][0], states[0][3]
        if memory.get("yield_latch") is None:
            approaching = robot_x < x + 1.0
            t_arrive = (x - robot_x) / max(robot_speed, 0.5)
            on_course = approaching and 0.0 <= t_arrive <= 4.0
            if on_course:
                memory["yield_latch"] = bool(rng.generator().uniform() < YIELD_PROBABILITY)
        if memory.get("yield_latch") is True and robot_x < x + 3.0:
            return (-3.0 if speed > 0 else 0.0, 0.0)
        target_h = _crossing_target_heading(memory, heading)
        w = min(max(2.0 * wrap_angle(target_h - heading), -1.0), 1.0)
        a = min(max(0.8 * (profile.target_speed - speed), -2.0), 2.0)
        return a, w

    raise ValueError(f"unhandled mode {profile.mode!r}")


# ---------------------------------------------------------------------------
# Forward simulation of humans under a fixed robot action sequence
# ---------------------------------------------------------------------------

class _LazyStream:
    """Stands in for root.derive(*ids) as human_policy_step's rng, deriving
    the stream only when the policy calls generator().

    Most policy steps draw nothing, and deriving a stream costs a SeedSequence.
    Streams are keyed by their ids, so deriving late gives the same draws.
    """

    __slots__ = ("root", "ids")

    def __init__(self, root: RngStream, ids: tuple[int, ...]):
        self.root = root
        self.ids = ids

    def generator(self) -> np.random.Generator:
        return self.root.derive(*self.ids).generator()


def simulate_humans(spec: ScenarioSpec, joint: JointState, memories: list[dict],
                    ego_actions: np.ndarray, rng_root: RngStream,
                    dt: float = DT_DEFAULT):
    """Advance all humans for len(ego_actions) steps while the robot plays
    ego_actions. Mutates the given memories.

    Returns (actions, states): actions is the (M, T, 2) array of human
    actions, and states[k] lists every agent's float state after step k,
    robot first, as unicycle_step_floats returns it:
    (x, y, heading, speed, heading_once).
    """
    profiles = [p for _, p in spec.humans]
    radii = [p.radius for p in profiles]
    ctx = spec.context
    M = len(profiles)
    T = len(ego_actions)
    cur = [(s.x, s.y, s.heading, s.speed) for s in (joint.robot, *joint.humans)]
    step_actions = []
    states = []
    for k, (ego_a, ego_w) in enumerate(ego_actions.tolist()):
        t = joint.t + k
        acts = [human_policy_step(profiles[i], i, cur, ctx,
                                  _LazyStream(rng_root, (_STREAM_HUMAN, i, t)),
                                  memory=memories[i], radii=radii)
                for i in range(M)]
        r = cur[0]
        nxt = [unicycle_step_floats(r[0], r[1], r[2], r[3], ego_a, ego_w, dt)]
        for h, (a, w) in zip(cur[1:], acts):
            nxt.append(unicycle_step_floats(h[0], h[1], h[2], h[3], a, w, dt))
        step_actions.append(acts)
        states.append(nxt)
        cur = nxt
    actions = np.array(step_actions, dtype=float).reshape(T, M, 2).transpose(1, 0, 2)
    return actions, states


@dataclass
class _SceneBinding:
    spec: ScenarioSpec
    rng_root: RngStream
    memories: list[dict]
    dt: float


class OraclePredictor:
    """Ground-truth-future predictor: re-runs the scene's own human policies
    under each candidate, with the same derived rng draws the engine uses."""

    def __init__(self):
        self._binding: Optional[_SceneBinding] = None

    def bind_scene(self, binding: _SceneBinding):
        self._binding = binding

    def predict(self, joint: JointState, history, ego_candidate: ActionTraj,
                ctx: Context, n_modes_out: int = 1) -> PredictionSet:
        b = self._binding
        if b is None:
            raise RuntimeError("oracle predictor used outside a scene")
        memories = [dict(m) for m in b.memories]  # memory values are scalars
        actions, _ = simulate_humans(b.spec, joint, memories,
                                     ego_candidate.actions, b.rng_root, b.dt)
        humans = tuple(
            (ModePrediction("oracle", 1.0, ActionTraj(actions[i], start_t=joint.t)),)
            for i in range(len(joint.humans))
        )
        return PredictionSet(humans=humans)

    def for_replan(self, joint: JointState, history, ctx: Context, n_modes_out: int,
                   dt: float):
        """predict() for every candidate of one replan; the oracle re-simulates
        the humans itself, so the planner's ego rollout is not used."""
        def predict_candidate(ego_candidate: ActionTraj, ego_xy) -> PredictionSet:
            return self.predict(joint, history, ego_candidate, ctx, n_modes_out)

        return predict_candidate


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
    states = [joint0]
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
        joint = states[-1]
        history = states[max(0, t - 16):t]
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
        for k in range(n_exec):
            human_actions_acc[:, t + k, :] = h_acts[:, k, :]
            robot, *humans = (AgentState(x, y, once, v)
                              for x, y, _, v, once in step_states[k])
            js = JointState(robot, tuple(humans), t + k + 1)
            states.append(js)
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
        states=states,
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
    joint0 = record.states[0]
    cur = [(s.x, s.y, s.heading, s.speed) for s in (joint0.robot, *joint0.humans)]
    robot_acts = np.concatenate([e.actions for e in record.executed_robot]) if record.executed_robot else np.zeros((0, 2))
    acts = [robot_acts.tolist()] + [tr.actions.tolist() for tr in record.human_actions]
    dev = 0.0
    T = len(record.states) - 1
    for k in range(T):
        logged = record.states[k + 1]
        cur = [unicycle_step_floats(*s[:4], *acts[j][k], dt)
               for j, s in enumerate(cur)]
        for (x, y, h, v, _), ls in zip(cur, (logged.robot, *logged.humans)):
            dev = max(dev, abs(x - ls.x), abs(y - ls.y), abs(h - ls.heading), abs(v - ls.speed))
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
# scene/1 lines, which spell every value out in JSON, are still read: both
# schemas become the same arrays, which one decode core checks and turns
# into records.

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
    """(start_ts, actions) of a scene/2 trajectory list: actions is one
    (K, T, 2) block when every length is equal, else one (T_k, 2) view per
    trajectory."""
    start_ts, lens = d["start_t"], d["len"]
    flat = _unpack(d["actions"], name)
    if (flat.ndim != 2 or flat.shape[1] != 2 or len(lens) != len(start_ts)
            or sum(lens) != len(flat)):
        raise ValueError(f"{name}: {len(start_ts)} start_t and lengths {lens} "
                         f"do not fit an actions block of shape {list(flat.shape)}")
    if len(set(lens)) <= 1:
        return start_ts, flat.reshape(len(lens), lens[0] if lens else 0, 2)
    return start_ts, np.split(flat, np.cumsum(lens[:-1]))


def _scene1_trajs(ds: Sequence[dict]):
    """(start_ts, actions) of a scene/1 trajectory list, as _unpack_trajs
    gives them; actions of mixed lengths stay as their JSON lists."""
    actions = [d["actions"] for d in ds]
    try:
        block = np.array(actions, dtype=float)
    except ValueError:
        block = None
    if block is not None and block.ndim == 3:
        actions = block
    return [d["start_t"] for d in ds], actions


def _trajs(start_ts, actions) -> list[ActionTraj]:
    """Validated read-only trajectories: one ActionTraj.block for a (K, T, 2)
    block, else one ActionTraj per trajectory."""
    if isinstance(actions, np.ndarray):
        return ActionTraj.block(actions, start_ts)
    return [ActionTraj(a, start_t=st) for a, st in zip(actions, start_ts)]


def scene_to_dict(rec: SceneRecord) -> dict:
    states = np.array([[_state_to_list(s) for s in (js.robot, *js.humans)]
                       for js in rec.states], dtype=float)
    return {
        "schema": SCENE_SCHEMA,
        "scenario_id": rec.scenario_id,
        "context": context_to_dict(rec.context),
        "t": [js.t for js in rec.states],
        "states": _pack(states),
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
                or sum(map(len, ph["label"])) != len(modes[0])):
            raise ValueError(f"replan_log[{i}].predicted_humans: mode labels, "
                             f"probabilities and trajectories do not match")
        replans.append((e, _unpack_trajs(e["candidates"], f"replan_log[{i}].candidates"),
                        ph["label"], ph["prob"], modes))
    return (frame_t, states,
            _unpack_trajs(d["executed_robot"], "executed_robot"),
            _unpack_trajs(d["human_actions"], "human_actions"), replans)


def _scene1_arrays(d: dict):
    """_scene2_arrays for a scene/1 dict, whose values are JSON lists."""
    states = np.array([[s["robot"], *s["humans"]] for s in d["states"]], dtype=float)
    replans = [
        (e, _scene1_trajs(e["candidates"]),
         [[m["label"] for m in h] for h in e["predicted_humans"]],
         [[m["prob"] for m in h] for h in e["predicted_humans"]],
         _scene1_trajs([m["traj"] for h in e["predicted_humans"] for m in h]))
        for e in d["replan_log"]
    ]
    return ([s["t"] for s in d["states"]], states, _scene1_trajs(d["executed_robot"]),
            _scene1_trajs(d["human_actions"]), replans)


def scene_from_dict(d: dict) -> SceneRecord:
    """Decode a scene/2 (or scene/1) dict. Every value passes the checks of
    the record types it becomes: AgentState (finite, speed >= 0, heading
    wrapped), ActionTraj, ReplanEntry and PredictionSet."""
    schema = d.get("schema")
    if schema == SCENE_SCHEMA:
        frame_t, states, executed, human_actions, replans = _scene2_arrays(d)
    elif schema == "scene/1":
        frame_t, states, executed, human_actions, replans = _scene1_arrays(d)
    else:
        raise ValueError(f"unsupported schema {schema!r}")
    joints = [JointState(_state_from_list(robot), tuple(_state_from_list(h) for h in humans), t)
              for (robot, *humans), t in zip(states.tolist(), frame_t)]
    entries = []
    for e, candidates, labels, probs, modes in replans:
        cands = _trajs(*candidates)
        trajs = iter(_trajs(*modes))
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
        executed_robot=_trajs(*executed),
        human_actions=_trajs(*human_actions),
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


def scenes_from_jsonl(path) -> list[SceneRecord]:
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(scene_from_dict(json.loads(line)))
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
