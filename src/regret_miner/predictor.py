"""Ego-conditioned human behavior predictor.

A transparent count-based stand-in for a learned trajectory predictor: a
per-human behavior-mode classifier over coarse feature buckets (own speed,
distance to robot, robot-approaching flag, lane position) plus per-mode
action templates that roll the mode out as a dynamically feasible
trajectory. The approaching flag is computed from the candidate robot
trajectory being evaluated, which is what makes predictions ego-conditioned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    ACCEL_LIMIT,
    DT_DEFAULT,
    TURN_LIMIT,
    ActionTraj,
    AgentState,
    Context,
    DrivingCorridor,
    JointState,
    rollout_positions,
    wrap_angle,
)

MODES = ("go_straight", "brake", "yield", "cross", "stay")
N_MODES = len(MODES)

# Feature bucket edges.
SPEED_EDGES = (0.1, 2.0, 5.0)
DIST_EDGES = (3.0, 8.0, 15.0)
BUCKET_SHAPE = (len(SPEED_EDGES) + 1, len(DIST_EDGES) + 1, 2, 2)

# Distance below which a braking human is labeled as yielding to the robot.
YIELD_LABEL_RADIUS = 8.0

# Margin (m) by which a candidate must close distance to count as approaching.
APPROACH_MARGIN = 0.25


@dataclass(frozen=True)
class PredictorParams:
    """Count table over (speed, distance, approaching, lane) buckets x modes.

    Probabilities use Laplace smoothing with the pseudo-count spread by the
    global mode prior, so buckets never seen in training back off to the
    overall training distribution.
    """

    counts: np.ndarray
    smoothing: float = 1.0
    history_window: int = 4
    cruise_speed: float = 8.0
    dt: float = DT_DEFAULT

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=float)
        if arr.shape != BUCKET_SHAPE + (N_MODES,):
            raise ValueError(f"counts must have shape {BUCKET_SHAPE + (N_MODES,)}, got {arr.shape}")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("counts must be finite and non-negative")
        if self.smoothing < 0:
            raise ValueError("smoothing must be >= 0")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @staticmethod
    def fresh(**kwargs) -> "PredictorParams":
        return PredictorParams(counts=np.zeros(BUCKET_SHAPE + (N_MODES,)), **kwargs)

    def mode_prior(self) -> np.ndarray:
        total = self.counts.reshape(-1, N_MODES).sum(axis=0)
        if total.sum() <= 0:
            return np.full(N_MODES, 1.0 / N_MODES)
        return total / total.sum()

    def mode_probs(self, bucket: tuple[int, int, int, int]) -> np.ndarray:
        c = self.counts[bucket]
        smoothed = c + self.smoothing * self.mode_prior()
        z = smoothed.sum()
        if z <= 0:
            return np.full(N_MODES, 1.0 / N_MODES)
        return smoothed / z

    @property
    def mode_logits(self) -> np.ndarray:
        """Log-probability table, shape BUCKET_SHAPE + (N_MODES,)."""
        prior = self.mode_prior()
        smoothed = self.counts + self.smoothing * prior
        z = smoothed.sum(axis=-1, keepdims=True)
        return np.log(smoothed / z)


@dataclass(frozen=True)
class ModePrediction:
    label: str
    prob: float
    traj: ActionTraj


@dataclass(frozen=True)
class PredictionSet:
    """Per-human lists of (mode, probability, rolled-out trajectory)."""

    humans: tuple[tuple[ModePrediction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "humans", tuple(tuple(h) for h in self.humans))
        for h in self.humans:
            s = sum(m.prob for m in h)
            if abs(s - 1.0) > 1e-9:
                raise ValueError(f"mode probabilities must sum to 1, got {s}")


def _bucket_of(value: float, edges: Sequence[float]) -> int:
    for i, e in enumerate(edges):
        if value < e:
            return i
    return len(edges)


def _lane_bucket(state: AgentState, ctx: Context) -> int:
    if isinstance(ctx, DrivingCorridor):
        off = abs(state.y - ctx.nearest_center(state.y))
        return 1 if off > ctx.lane_width / 4.0 else 0
    return 0


def _mean_recent_speed(human_idx: int, joint: JointState,
                       history: Sequence[JointState], h: int) -> float:
    speeds = [js.humans[human_idx].speed for js in list(history)[-h:]]
    speeds.append(joint.humans[human_idx].speed)
    return float(np.mean(speeds))


def _approaching_flag(human_pos: np.ndarray, robot_now: AgentState,
                      ego_positions: np.ndarray) -> int:
    d_now = float(np.hypot(*(human_pos - robot_now.position())))
    d_future = float(np.min(np.hypot(ego_positions[:, 0] - human_pos[0],
                                     ego_positions[:, 1] - human_pos[1])))
    return 1 if d_future < d_now - APPROACH_MARGIN else 0


def feature_bucket(human_idx: int, joint: JointState, history: Sequence[JointState],
                   ego_positions: np.ndarray, ctx: Context, h: int) -> tuple:
    """Feature bucket for one human against a candidate ego rollout."""
    human = joint.humans[human_idx]
    speed = _mean_recent_speed(human_idx, joint, history, h)
    dist = human.distance_to(joint.robot)
    appr = _approaching_flag(human.position(), joint.robot, ego_positions)
    return (
        _bucket_of(speed, SPEED_EDGES),
        _bucket_of(dist, DIST_EDGES),
        appr,
        _lane_bucket(human, ctx),
    )


# ---------------------------------------------------------------------------
# Mode templates
# ---------------------------------------------------------------------------

def _template_actions(mode: str, human: AgentState, ctx: Context, T: int,
                      dt: float, cruise_speed: float) -> np.ndarray:
    """Roll a mode forward as bounded (accel, turn) actions of length T."""
    acts = []
    v = human.speed
    heading = human.heading
    lane_heading = 0.0  # corridor runs along +x; nav templates hold heading
    for _ in range(T):
        if mode == "stay":
            a = -min(ACCEL_LIMIT, v / dt) if v > 0 else 0.0
            w = 0.0
        elif mode == "brake":
            a = -2.0 if v > 0 else 0.0
            w = 0.0
        elif mode == "yield":
            a = -3.5 if v > 0 else 0.0
            w = 0.0
        elif mode == "cross":
            target = math.copysign(math.pi / 2, heading) if abs(heading) > 0.3 else math.pi / 2
            w = min(max(2.0 * wrap_angle(target - heading), -TURN_LIMIT), TURN_LIMIT)
            a = min(max(0.8 * (1.5 - v), -2.0), 2.0)
        else:  # go_straight
            a = min(max(1.0 * (cruise_speed - v), -ACCEL_LIMIT), ACCEL_LIMIT)
            if isinstance(ctx, DrivingCorridor):
                w = min(max(-1.0 * wrap_angle(heading - lane_heading), -TURN_LIMIT), TURN_LIMIT)
            else:
                w = 0.0
        a = min(max(a, -ACCEL_LIMIT), ACCEL_LIMIT)
        acts.append((a, w))
        v = max(0.0, v + a * dt)
        heading = wrap_angle(heading + w * dt)
    return np.array(acts, dtype=float)


class ModeTemplates:
    """Mode trajectories of the humans of one joint state, built on first use.

    A template depends on (human, mode, T) and the joint state only, never on
    the ego candidate, so every candidate of a replan shares one ActionTraj
    per (human, mode, T).
    """

    def __init__(self, params: PredictorParams, joint: JointState, ctx: Context):
        self.params = params
        self.joint = joint
        self.ctx = ctx
        self._trajs: dict[tuple[int, str, int], ActionTraj] = {}

    def get(self, human_idx: int, mode: str, T: int) -> ActionTraj:
        key = (human_idx, mode, T)
        traj = self._trajs.get(key)
        if traj is None:
            p = self.params
            acts = _template_actions(mode, self.joint.humans[human_idx], self.ctx, T,
                                     p.dt, p.cruise_speed)
            traj = self._trajs[key] = ActionTraj(acts, start_t=self.joint.t)
        return traj


def predict(params: PredictorParams, joint: JointState,
            history: Sequence[JointState], ego_candidate: ActionTraj,
            ctx: Context, n_modes_out: int = 3, *,
            ego_xy: Optional[np.ndarray] = None,
            templates: Optional[ModeTemplates] = None) -> PredictionSet:
    """Top n_modes_out behavior modes per human, conditioned on ego_candidate.

    The robot-approaching feature is computed from the candidate's rollout,
    so different candidates can receive different human predictions.
    ego_xy, when given, must be that rollout at params.dt; templates, when
    given, must have been built for the same params, joint state and context.
    """
    if n_modes_out < 1:
        raise ValueError("n_modes_out must be >= 1")
    n_modes_out = min(n_modes_out, N_MODES)
    if ego_xy is None:
        ego_xy = rollout_positions(joint.robot, ego_candidate, params.dt)
    if templates is None:
        templates = ModeTemplates(params, joint, ctx)
    elif (templates.params is not params or templates.joint is not joint
          or templates.ctx is not ctx):
        raise ValueError("templates were built for other params, joint state or context")
    T = len(ego_candidate)
    out = []
    for i in range(len(joint.humans)):
        bucket = feature_bucket(i, joint, history, ego_xy, ctx, params.history_window)
        probs = params.mode_probs(bucket)
        order = np.argsort(-probs, kind="stable")[:n_modes_out]
        kept = probs[order]
        kept = kept / kept.sum()
        modes = tuple(
            ModePrediction(label=MODES[j], prob=float(pj),
                           traj=templates.get(i, MODES[j], T))
            for j, pj in zip(order, kept)
        )
        out.append(modes)
    return PredictionSet(humans=tuple(out))


@dataclass(frozen=True)
class TablePredictor:
    """Planner-facing handle binding predict() to a fixed parameter table."""

    params: PredictorParams

    def predict(self, joint, history, ego_candidate, ctx, n_modes_out=3):
        return predict(self.params, joint, history, ego_candidate, ctx, n_modes_out)

    def for_replan(self, joint, history, ctx, n_modes_out, dt):
        """predict() for every candidate of one replan.

        The mode templates are built once and shared by all candidates. The
        planner's ego rollout, made at dt, stands in for the predictor's own
        only when dt equals params.dt.
        """
        params = self.params
        templates = ModeTemplates(params, joint, ctx)
        reuse = dt == params.dt

        def predict_candidate(ego_candidate, ego_xy):
            return predict(params, joint, history, ego_candidate, ctx, n_modes_out,
                           ego_xy=ego_xy if reuse else None, templates=templates)

        return predict_candidate


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def label_segment(states: Sequence[JointState], human_idx: int, ctx: Context,
                  yield_radius: float = YIELD_LABEL_RADIUS) -> str:
    """Classify one realized human segment into a behavior mode.

    Rule order: stay (mean speed < 0.1), yield/brake (speed drop > 1, yield
    when the robot was within yield_radius at segment start), cross (lateral
    displacement beyond half a lane), else go_straight.
    """
    speeds = [js.humans[human_idx].speed for js in states]
    if float(np.mean(speeds)) < 0.1:
        return "stay"
    drop = speeds[0] - min(speeds)
    if drop > 1.0:
        near = states[0].humans[human_idx].distance_to(states[0].robot) < yield_radius
        return "yield" if near else "brake"
    lane_width = ctx.lane_width if isinstance(ctx, DrivingCorridor) else 3.7
    lateral = abs(states[-1].humans[human_idx].y - states[0].humans[human_idx].y)
    if lateral > lane_width / 2.0:
        return "cross"
    return "go_straight"


def _segment_bounds(scene) -> list[tuple[int, int]]:
    ts = [entry.t for entry in scene.replan_log]
    ends = ts[1:] + [len(scene.states) - 1]
    return [(a, b) for a, b in zip(ts, ends) if b > a]


def fit(data, init: Optional[PredictorParams] = None, learning: str = "full",
        lam: float = 0.5, yield_radius: float = YIELD_LABEL_RADIUS) -> PredictorParams:
    """Fit mode counts from realized scene segments.

    learning="full" replaces counts with the new data's counts;
    learning="finetune" blends (1-lam)*old + lam*new, lam in (0, 1].
    """
    if not data:
        raise ValueError("fit requires at least one scene")
    if learning not in ("full", "finetune"):
        raise ValueError(f"unknown learning mode {learning!r}")
    if learning == "finetune":
        if init is None:
            raise ValueError("finetune requires init params")
        if not (0.0 < lam <= 1.0):
            raise ValueError("lam must be in (0, 1]")
    base = init if init is not None else PredictorParams.fresh()
    counts = np.zeros(BUCKET_SHAPE + (N_MODES,))
    n_segments = 0
    for scene in data:
        ctx = scene.context
        for (t0, t1) in _segment_bounds(scene):
            seg = scene.states[t0:t1 + 1]
            robot_xy = np.array([[js.robot.x, js.robot.y] for js in seg[1:]])
            for i in range(len(seg[0].humans)):
                label = label_segment(seg, i, ctx, yield_radius)
                history = scene.states[max(0, t0 - base.history_window):t0]
                bucket = feature_bucket(i, seg[0], history, robot_xy, ctx,
                                        base.history_window)
                counts[bucket + (MODES.index(label),)] += 1.0
                n_segments += 1
    if n_segments == 0:
        raise ValueError("no classifiable human segments in data")
    if learning == "finetune":
        counts = (1.0 - lam) * base.counts + lam * counts
    return replace(base, counts=counts)


def ade_fde(pred_xy, true_xy) -> tuple[float, float]:
    """Average and final displacement error between two position sequences."""
    p = np.asarray(pred_xy, dtype=float)
    t = np.asarray(true_xy, dtype=float)
    if p.shape != t.shape or p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != 2:
        raise ValueError(f"need matching (T>=1, 2) arrays, got {p.shape} vs {t.shape}")
    err = np.hypot(p[:, 0] - t[:, 0], p[:, 1] - t[:, 1])
    return float(err.mean()), float(err[-1])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def params_to_json(params: PredictorParams) -> str:
    doc = {
        "schema": "predictor/1",
        "counts": params.counts.tolist(),
        "smoothing": params.smoothing,
        "history_window": params.history_window,
        "cruise_speed": params.cruise_speed,
        "dt": params.dt,
    }
    return json.dumps(doc)


def params_from_json(text: str) -> PredictorParams:
    doc = json.loads(text)
    if doc.get("schema") != "predictor/1":
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    return PredictorParams(
        counts=np.array(doc["counts"], dtype=float),
        smoothing=doc["smoothing"],
        history_window=doc["history_window"],
        cruise_speed=doc["cruise_speed"],
        dt=doc["dt"],
    )
