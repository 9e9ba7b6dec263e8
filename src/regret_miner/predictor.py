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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import (
    ACCEL_LIMIT,
    TURN_LIMIT,
    ActionTraj,
    AgentState,
    Context,
    DrivingCorridor,
    JointState,
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

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=float)
        if arr.shape != BUCKET_SHAPE + (N_MODES,):
            raise ValueError(f"counts must have shape {BUCKET_SHAPE + (N_MODES,)}, got {arr.shape}")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("counts must be finite and non-negative")
        if self.smoothing < 0:
            raise ValueError("smoothing must be >= 0")
        if not isinstance(self.history_window, int) or self.history_window < 1:
            raise ValueError(f"history_window must be an int >= 1, got {self.history_window!r}")
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
        for i, h in enumerate(self.humans):
            for m in h:
                if not 0.0 <= m.prob < math.inf:  # NaN fails both comparisons
                    raise ValueError(f"human {i} mode {m.label!r}: probability {m.prob} "
                                     "is not a finite non-negative number")
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
    speeds = [js.humans[human_idx].speed for js in history[-h:]]
    speeds.append(joint.humans[human_idx].speed)
    return float(np.mean(speeds))


def _fixed_features(human_idx: int, joint: JointState, history: Sequence[JointState],
                    ctx: Context, h: int) -> tuple[int, int, int, float]:
    """(speed bucket, distance bucket, lane bucket, d_now) of one human: the
    features that do not depend on the ego candidate."""
    human = joint.humans[human_idx]
    speed = _mean_recent_speed(human_idx, joint, history, h)
    dist = human.distance_to(joint.robot)
    d_now = float(np.hypot(human.x - joint.robot.x, human.y - joint.robot.y))
    return (_bucket_of(speed, SPEED_EDGES), _bucket_of(dist, DIST_EDGES),
            _lane_bucket(human, ctx), d_now)


def approaching_flags(human: AgentState, d_now: float, ego_xys: np.ndarray) -> list[int]:
    """Approaching flag (0 or 1) of each ego rollout in ego_xys (K, T, 2): 1 when
    its closest point to the human is nearer than d_now - APPROACH_MARGIN."""
    d_future = np.hypot(ego_xys[:, :, 0] - human.x, ego_xys[:, :, 1] - human.y).min(axis=1)
    return (d_future < d_now - APPROACH_MARGIN).astype(int).tolist()


def feature_bucket(human_idx: int, joint: JointState, history: Sequence[JointState],
                   ego_positions: np.ndarray, ctx: Context, h: int) -> tuple:
    """Feature bucket for one human against a candidate ego rollout."""
    speed_b, dist_b, lane_b, d_now = _fixed_features(human_idx, joint, history, ctx, h)
    appr = approaching_flags(joint.humans[human_idx], d_now, ego_positions[None])[0]
    return (speed_b, dist_b, appr, lane_b)


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


def predict(params: PredictorParams, joint: JointState,
            history: Sequence[JointState], ego_xys: np.ndarray, ctx: Context,
            n_modes_out: int, dt: float) -> list[PredictionSet]:
    """Top n_modes_out behavior modes per human, one PredictionSet per ego
    rollout of ego_xys (K, T, 2), made at dt from T actions; the mode
    templates are made at the same dt.

    The robot-approaching feature is computed from each rollout, so
    different candidates can receive different human predictions; one
    candidate is a one-row block. Only the approaching flag depends on the
    rollout, so the other features are computed once per human, and
    candidates whose flags agree share one PredictionSet. Every set holds
    one template trajectory per (human, mode).
    """
    if n_modes_out < 1:
        raise ValueError("n_modes_out must be >= 1")
    n_modes_out = min(n_modes_out, N_MODES)
    K, T = ego_xys.shape[:2]
    templates: dict[tuple[int, int], ActionTraj] = {}
    per_human = []  # per human: {flag: its modes}
    flags = []
    for i, human in enumerate(joint.humans):
        speed_b, dist_b, lane_b, d_now = _fixed_features(i, joint, history, ctx,
                                                         params.history_window)
        flags.append(approaching_flags(human, d_now, ego_xys))
        modes_of = {}
        for appr in set(flags[-1]):
            probs = params.mode_probs((speed_b, dist_b, appr, lane_b))
            order = np.argsort(-probs, kind="stable")[:n_modes_out]
            kept = probs[order]
            kept = kept / kept.sum()
            modes = []
            for j, pj in zip(order.tolist(), kept.tolist()):
                traj = templates.get((i, j))
                if traj is None:
                    acts = _template_actions(MODES[j], human, ctx, T, dt,
                                             params.cruise_speed)
                    traj = templates[(i, j)] = ActionTraj(acts, start_t=joint.t)
                modes.append(ModePrediction(label=MODES[j], prob=pj, traj=traj))
            modes_of[appr] = tuple(modes)
        per_human.append(modes_of)
    sets: dict[tuple[int, ...], PredictionSet] = {}
    out = []
    for key in (zip(*flags) if flags else [()] * K):
        pred = sets.get(key)
        if pred is None:
            pred = sets[key] = PredictionSet(
                humans=tuple(m[appr] for m, appr in zip(per_human, key)))
        out.append(pred)
    return out


@dataclass(frozen=True)
class TablePredictor:
    """Planner-facing handle binding predict to a fixed parameter table."""

    params: PredictorParams

    def predict(self, joint, history, ego_xys, speeds, ctx, n_modes_out, dt):
        """The module's predict of every candidate of one replan, from the
        candidates' stacked (K, T, 2) rollouts at plan()'s dt, at which the templates are
        made too. The table's features read positions only, not speeds."""
        return predict(self.params, joint, history, ego_xys, ctx, n_modes_out, dt)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def label_segment(states: Sequence[JointState], human_idx: int, ctx: Context) -> str:
    """Classify one realized human segment into a behavior mode.

    Rule order: stay (mean speed < 0.1), yield/brake (speed drop > 1, yield
    when the robot was within YIELD_LABEL_RADIUS at segment start), cross
    (lateral displacement beyond half a lane), else go_straight.
    """
    speeds = [js.humans[human_idx].speed for js in states]
    if float(np.mean(speeds)) < 0.1:
        return "stay"
    drop = speeds[0] - min(speeds)
    if drop > 1.0:
        near = states[0].humans[human_idx].distance_to(states[0].robot) < YIELD_LABEL_RADIUS
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
        lam: float = 0.5) -> PredictorParams:
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
                label = label_segment(seg, i, ctx)
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
    )
