"""Closed-loop worlds: reactive rule-based humans plus the deployment engine.

Human randomness is drawn from streams derived per (human, absolute step), so
any component that re-simulates a span of the scene — the engine itself, or
the oracle predictor evaluating a candidate — sees identical draws. Policy
state that must persist across steps (resume timers, yield latches) lives in
an engine-owned per-human memory dict.
"""

from __future__ import annotations

import copy
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
    unicycle_step,
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

def _agents_ahead(me: AgentState, others: Sequence[tuple[AgentState, float]],
                  reach: float, lateral_window: float = 2.0) -> bool:
    """Is any other agent within reach in front of me (body frame)?"""
    c, s = math.cos(me.heading), math.sin(me.heading)
    for other, r in others:
        dx, dy = other.x - me.x, other.y - me.y
        proj = dx * c + dy * s
        lat = abs(-dx * s + dy * c)
        if 0.0 < proj < reach + r and lat < lateral_window:
            return True
    return False


def _others_of(idx_self: int, joint: JointState,
               radii: Sequence[float]) -> list[tuple[AgentState, float]]:
    out = [(joint.robot, ROBOT_RADIUS)]
    for j, h in enumerate(joint.humans):
        if j != idx_self:
            out.append((h, radii[j] if j < len(radii) else CAR_RADIUS))
    return out


def _cruise_action(profile: HumanProfile, me: AgentState, joint: JointState,
                   ctx: Context, others) -> tuple[float, float]:
    if isinstance(ctx, DrivingCorridor):
        center = ctx.nearest_center(me.y)
        desired = min(max(-0.4 * (me.y - center), -0.5), 0.5)
        w = min(max(2.0 * wrap_angle(desired - me.heading), -1.0), 1.0)
    else:
        w = 0.0
    if _agents_ahead(me, others, profile.reaction_radius):
        a = -3.0 if me.speed > 0 else 0.0
    else:
        a = min(max(0.6 * (profile.target_speed - me.speed), -2.0), 2.0)
    return a, w


def _crossing_target_heading(memory: dict, me: AgentState) -> float:
    if "cross_dir" not in memory:
        memory["cross_dir"] = 1.0 if abs(wrap_angle(me.heading - math.pi / 2)) < math.pi / 2 else -1.0
    return memory["cross_dir"] * math.pi / 2


def human_policy_step(profile: HumanProfile, me: AgentState, joint: JointState,
                      ctx: Context, rng: RngStream,
                      memory: Optional[dict] = None,
                      radii: Sequence[float] = ()) -> tuple[float, float]:
    """One (accel, turn_rate) decision for a rule-based human.

    memory persists per human across steps (owned by the engine); passing a
    fresh dict makes the call stateless, which the one-shot yield draw test
    relies on.
    """
    if memory is None:
        memory = {}
    if profile.never_moves or profile.mode == "stranded":
        return (0.0, 0.0)

    idx_self = next((j for j, h in enumerate(joint.humans) if h is me), None)
    others = _others_of(idx_self if idx_self is not None else -1, joint, radii)

    if profile.mode == "cruise":
        return _cruise_action(profile, me, joint, ctx, others)

    if profile.mode == "yield_if_close":
        if me.distance_to(joint.robot) < profile.reaction_radius:
            return (-3.5 if me.speed > 0 else 0.0, 0.0)
        return _cruise_action(profile, me, joint, ctx, others)

    if profile.mode == "stopped":
        if not memory.get("resumed", False):
            clear = not _agents_ahead(me, others, profile.reaction_radius)
            memory["clear_steps"] = memory.get("clear_steps", 0) + 1 if clear else 0
            if memory["clear_steps"] >= int(round(RESUME_CLEAR_SECONDS / DT_DEFAULT)):
                memory["resumed"] = True
            else:
                return (-3.0 if me.speed > 0 else 0.0, 0.0)
        return _cruise_action(profile, me, joint, ctx, others)

    if profile.mode == "intersection_cross":
        robot = joint.robot
        if memory.get("yield_latch") is None:
            approaching = robot.x < me.x + 1.0
            t_arrive = (me.x - robot.x) / max(robot.speed, 0.5)
            on_course = approaching and 0.0 <= t_arrive <= 4.0
            if on_course:
                memory["yield_latch"] = bool(rng.generator().uniform() < YIELD_PROBABILITY)
        if memory.get("yield_latch") is True and robot.x < me.x + 3.0:
            return (-3.0 if me.speed > 0 else 0.0, 0.0)
        target_h = _crossing_target_heading(memory, me)
        w = min(max(2.0 * wrap_angle(target_h - me.heading), -1.0), 1.0)
        a = min(max(0.8 * (profile.target_speed - me.speed), -2.0), 2.0)
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
    ego_actions. Returns (per-human action arrays, per-step human state
    tuples, per-step robot states). Mutates the given memories.
    """
    profiles = [p for _, p in spec.humans]
    radii = [p.radius for p in profiles]
    M = len(profiles)
    T = len(ego_actions)
    robot = joint.robot
    humans = list(joint.humans)
    actions = np.zeros((M, T, 2))
    human_states: list[tuple[AgentState, ...]] = []
    robot_states: list[AgentState] = []
    for k in range(T):
        now = JointState(robot, tuple(humans), joint.t + k)
        for i in range(M):
            rng = _LazyStream(rng_root, (_STREAM_HUMAN, i, joint.t + k))
            actions[i, k] = human_policy_step(
                profiles[i], humans[i], now, spec.context, rng,
                memory=memories[i], radii=radii,
            )
        robot = unicycle_step(robot, float(ego_actions[k, 0]), float(ego_actions[k, 1]), dt)
        humans = [unicycle_step(h, float(actions[i, k, 0]), float(actions[i, k, 1]), dt)
                  for i, h in enumerate(humans)]
        human_states.append(tuple(humans))
        robot_states.append(robot)
    return actions, human_states, robot_states


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
        memories = copy.deepcopy(b.memories)
        actions, _, _ = simulate_humans(b.spec, joint, memories,
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
        h_acts, h_states, r_states = simulate_humans(spec, joint, memories,
                                                     seg_actions, rng_root, dt)
        for k in range(n_exec):
            human_actions_acc[:, t + k, :] = h_acts[:, k, :]
            js = JointState(r_states[k], h_states[k], t + k + 1)
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
    robot = joint0.robot
    humans = list(joint0.humans)
    robot_acts = np.concatenate([e.actions for e in record.executed_robot]) if record.executed_robot else np.zeros((0, 2))
    dev = 0.0
    T = len(record.states) - 1
    for k in range(T):
        robot = unicycle_step(robot, float(robot_acts[k, 0]), float(robot_acts[k, 1]), dt)
        humans = [
            unicycle_step(h, float(record.human_actions[i].actions[k, 0]),
                          float(record.human_actions[i].actions[k, 1]), dt)
            for i, h in enumerate(humans)
        ]
        logged = record.states[k + 1]
        dev = max(dev, abs(robot.x - logged.robot.x), abs(robot.y - logged.robot.y),
                  abs(robot.heading - logged.robot.heading), abs(robot.speed - logged.robot.speed))
        for h, lh in zip(humans, logged.humans):
            dev = max(dev, abs(h.x - lh.x), abs(h.y - lh.y),
                      abs(h.heading - lh.heading), abs(h.speed - lh.speed))
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
# Serialization (scene/1 JSONL)
# ---------------------------------------------------------------------------

def _state_to_list(s: AgentState) -> list[float]:
    return [s.x, s.y, s.heading, s.speed]


def _state_from_list(v) -> AgentState:
    return AgentState(v[0], v[1], v[2], v[3])


def _traj_to_dict(traj: ActionTraj) -> dict:
    return {"start_t": traj.start_t, "actions": traj.actions.tolist()}


def _traj_from_dict(d) -> ActionTraj:
    return ActionTraj(np.array(d["actions"], dtype=float), start_t=d["start_t"])


def _trajs_from_dicts(ds: Sequence[dict]) -> list[ActionTraj]:
    """Decode a list of trajectories as one validated ActionTraj.block;
    trajectories of mixed lengths are decoded one by one."""
    try:
        block = np.array([d["actions"] for d in ds], dtype=float)
    except ValueError:
        block = None
    if block is None or block.ndim != 3:
        return [_traj_from_dict(d) for d in ds]
    return ActionTraj.block(block, [d["start_t"] for d in ds])


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


def _predset_to_list(ps: PredictionSet) -> list:
    return [[{"label": m.label, "prob": m.prob, "traj": _traj_to_dict(m.traj)}
             for m in human] for human in ps.humans]


def _predset_from_list(v) -> PredictionSet:
    trajs = iter(_trajs_from_dicts([m["traj"] for human in v for m in human]))
    return PredictionSet(tuple(
        tuple(ModePrediction(m["label"], m["prob"], next(trajs)) for m in human)
        for human in v
    ))


def scene_to_dict(rec: SceneRecord) -> dict:
    return {
        "schema": "scene/1",
        "scenario_id": rec.scenario_id,
        "context": context_to_dict(rec.context),
        "states": [
            {"t": js.t, "robot": _state_to_list(js.robot),
             "humans": [_state_to_list(h) for h in js.humans]}
            for js in rec.states
        ],
        "executed_robot": [_traj_to_dict(tr) for tr in rec.executed_robot],
        "human_actions": [_traj_to_dict(tr) for tr in rec.human_actions],
        "replan_log": [
            {
                "t": e.t,
                "candidates": [_traj_to_dict(c) for c in e.candidates],
                "predicted_humans": _predset_to_list(e.predicted_humans),
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


def scene_from_dict(d: dict) -> SceneRecord:
    if d.get("schema") != "scene/1":
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    states = [
        JointState(_state_from_list(s["robot"]),
                   tuple(_state_from_list(h) for h in s["humans"]), s["t"])
        for s in d["states"]
    ]
    entries = [
        ReplanEntry(
            t=e["t"],
            candidates=_trajs_from_dicts(e["candidates"]),
            predicted_humans=_predset_from_list(e["predicted_humans"]),
            candidate_rewards_predicted=list(e["candidate_rewards_predicted"]),
            executed_index=e["executed_index"],
            predicted_reward_samples=[(r, w) for r, w in e["predicted_reward_samples"]],
        )
        for e in d["replan_log"]
    ]
    rec = SceneRecord(
        scenario_id=d["scenario_id"],
        context=context_from_dict(d["context"]),
        states=states,
        executed_robot=_trajs_from_dicts(d["executed_robot"]),
        human_actions=_trajs_from_dicts(d["human_actions"]),
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
