"""Reward-based receding-horizon planner.

Candidates come from a small enumerable library (accel levels x steer
profiles, plus the all-zero maintain trajectory) so that offline scoring can
re-evaluate every logged candidate exactly. Each candidate is scored by its
expected reward under the predictor's ego-conditioned mode distribution and
the argmax is executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    ACCEL_LIMIT,
    CAR_RADIUS,
    DT_DEFAULT,
    ROBOT_RADIUS,
    TURN_LIMIT,
    ActionTraj,
    AgentState,
    Context,
    DrivingCorridor,
    JointState,
    NavWorld,
    RngStream,
    rollout_positions,
    rollout_positions_from_speeds,
)
from .predictor import PredictionSet


@dataclass(frozen=True)
class RewardWeights:
    """Linear reward weights: progress, lane-keeping, collision, control."""

    w_progress: float = 1.0
    w_lane: float = -0.5
    w_col: float = -10.0
    w_ctrl: float = -0.1

    def __post_init__(self):
        vals = (self.w_progress, self.w_lane, self.w_col, self.w_ctrl)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("weights must be finite")
        if self.w_col >= 0:
            raise ValueError("w_col must be negative")
        if self.w_progress <= 0:
            raise ValueError("w_progress must be positive")


STEER_PROFILES = ("straight", "lane_left", "lane_right")


@dataclass(frozen=True)
class PlannerHandle:
    weights: RewardWeights = field(default_factory=RewardWeights)
    accel_levels: tuple[float, ...] = (-3.0, -1.0, 0.0, 1.0)
    steer_profiles: tuple[str, ...] = STEER_PROFILES
    two_stage: bool = False
    horizon: int = 30
    dt: float = DT_DEFAULT
    accel_jitter: float = 0.05
    n_modes: int = 1
    lane_change_turn: float = 0.25
    speed_cap: float = 10.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.speed_cap > 0:  # NaN too: it would compare False and lift the cap
            raise ValueError("speed_cap must be positive")
        if not self.accel_jitter >= 0:
            raise ValueError(f"accel_jitter must be non-negative, got {self.accel_jitter}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        for p in self.steer_profiles:
            if p not in STEER_PROFILES:
                raise ValueError(f"unknown steer profile {p!r}")

    @property
    def n_candidates(self) -> int:
        n_acc = len(self.accel_levels) ** (2 if self.two_stage else 1)
        return n_acc * len(self.steer_profiles) + 1


def _steer_sequence(profile: str, T: int, turn: float) -> np.ndarray:
    w = np.zeros(T)
    half = T // 2
    if profile == "lane_left":
        w[:half] = turn
        w[half:] = -turn
    elif profile == "lane_right":
        w[:half] = -turn
        w[half:] = turn
    return w


@lru_cache(maxsize=32)
def _steer_rows(profiles: tuple[str, ...], T: int, turn: float, n_levels: int) -> np.ndarray:
    """Read-only (n_levels * len(profiles), T) turn rates of the library's
    rows after the maintain one: the profiles in order, once per level,
    clipped to TURN_LIMIT."""
    rows = np.clip([_steer_sequence(p, T, turn) for p in profiles],
                   -TURN_LIMIT, TURN_LIMIT).reshape(len(profiles), T)
    rows = np.tile(rows, (n_levels, 1))
    rows.setflags(write=False)
    return rows


def _cap_piece(a: float, n: int, v: float, cap: float, dt: float,
               accels: list, speeds: list) -> float:
    """Cap n steps of the constant acceleration a from speed v: append each
    capped acceleration to accels and the speed after it to speeds, and
    return the last speed.

    Each step is a = min(a, (cap - v) / dt), then a clipped to
    [-ACCEL_LIMIT, ACCEL_LIMIT], then v = max(0.0, v + a * dt). Clipping a
    once first changes no step: min(a, c) clipped equals min(clip(a), c)
    clipped. The minima are written as comparisons: `c if c < a else a` is
    min(a, c) and `u if u > 0.0 else 0.0` is max(0.0, u), NaN and signed
    zeros included, without the builtin calls. A step depends only on the
    speed it starts from (0.0 and -0.0 step alike), so once a step leaves
    the speed unchanged the rest of the piece repeats it.
    """
    lo, hi = -ACCEL_LIMIT, ACCEL_LIMIT
    a = lo if lo > a else a
    a = hi if hi < a else a
    adt = a * dt
    add_a, add_v = accels.append, speeds.append
    for k in range(n):
        c = (cap - v) / dt
        if c < a:
            b = lo if lo > c else c
            u = v + b * dt
        else:
            b = a
            u = v + adt
        u = u if u > 0.0 else 0.0
        if u == v:
            accels.extend([b] * (n - k))
            speeds.extend([u] * (n - k))
            return u
        add_a(b)
        add_v(u)
        v = u
    return v


def _candidate_block(handle: PlannerHandle, v0: float, rng: RngStream, start_t: int
                     ) -> tuple[list[ActionTraj], np.ndarray, np.ndarray]:
    """The candidate library from start speed v0: its trajectories, their
    read-only (K, T, 2) action block, and the (K, T) speed after each step,
    equal bit for bit to the speeds of rollout_speeds on the block.

    The K - 1 jitters are one normal draw, which equals K - 1 scalar draws
    bit for bit. Each candidate holds one or two constant acceleration
    pieces (two_stage), each clipped once and speed-capped by _cap_piece.
    """
    T, dt, cap = handle.horizon, handle.dt, handle.speed_cap
    half = T // 2
    levels = [float(a) for a in handle.accel_levels]
    # Each level row as its constant pieces: (acceleration level, steps).
    rows = ([((a1, half), (a2, T - half)) for a1 in levels for a2 in levels]
            if handle.two_stage else [((a, T),) for a in levels])
    P = len(handle.steer_profiles)
    K = 1 + len(rows) * P
    jits = iter(rng.generator().normal(0.0, handle.accel_jitter, K - 1).tolist())
    accels: list[float] = []
    speeds: list[float] = []
    _cap_piece(0.0, T, v0, cap, dt, accels, speeds)
    for pieces in rows:
        for _ in range(P):
            jit = next(jits)
            v = v0
            for a, n in pieces:
                v = _cap_piece(a + jit, n, v, cap, dt, accels, speeds)
    acts = np.zeros((K, T, 2))
    acts[:, :, 0] = np.array(accels).reshape(K, T)
    acts[1:, :, 1] = _steer_rows(handle.steer_profiles, T, handle.lane_change_turn, len(rows))
    acts.setflags(write=False)
    return (ActionTraj.block(acts, [start_t] * K), acts,
            np.array(speeds).reshape(K, T))


def sample_candidates(handle: PlannerHandle, state: AgentState, ctx: Context,
                      rng: RngStream, start_t: int = 0) -> list[ActionTraj]:
    """Enumerate the candidate library with rng jitter on accelerations: the
    trajectories of _candidate_block, whose action block and speeds plan()
    uses as well.

    In the library, index 0 is the maintain trajectory; every candidate's
    acceleration is clamped so speed stays at or below the handle's speed cap.
    """
    return _candidate_block(handle, state.speed, rng, start_t)[0]


def _overlap_sum(ego_xy: np.ndarray, h_xy: np.ndarray, r: float):
    """Summed footprint overlap of ego rollouts (..., T, 2) against one human
    rollout, cropped to the shorter; one contiguous sum per rollout."""
    L = min(ego_xy.shape[-2], len(h_xy))
    d = np.hypot(ego_xy[..., :L, 0] - h_xy[:L, 0], ego_xy[..., :L, 1] - h_xy[:L, 1])
    return np.maximum(0.0, ROBOT_RADIUS + r - d).sum(axis=-1)


def terms_matrix(ego_xys: np.ndarray, acts: np.ndarray,
                 human_xys: Sequence[np.ndarray], radii: Optional[Sequence[float]],
                 robot: AgentState, ctx: Context):
    """(progress, mean sq lane offset, summed overlap, sum sq actions), each a
    (B,) array, of B ego rollouts (B, T, 2) with their actions (B, T, 2)
    against human rollouts, all cropped to the shortest of them.

    radii defaults to CAR_RADIUS for every human. human_xys pairs with radii
    as zip does: a human without a radius adds no overlap. Each term is a
    per-row contiguous reduction, so row b equals the terms of rollout b
    computed on its own.
    """
    if radii is None:
        radii = [CAR_RADIUS] * len(human_xys)
    B = ego_xys.shape[0]
    L = min([ego_xys.shape[1]] + [len(h) for h in human_xys])
    ego = ego_xys[:, :L]
    if isinstance(ctx, DrivingCorridor):
        progress = ego[:, -1, 0] - robot.x
        centers = np.array(ctx.lane_centers)
        offs = np.abs(ego[:, :, 1][:, :, None] - centers).min(axis=2)
        lane = (offs ** 2).sum(axis=1) / L  # np.mean's arithmetic, without its overhead
    elif isinstance(ctx, NavWorld):
        goal = np.array(ctx.goal_primary)
        d0 = float(np.hypot(robot.x - goal[0], robot.y - goal[1]))
        d1 = np.hypot(ego[:, -1, 0] - goal[0], ego[:, -1, 1] - goal[1])
        progress = d0 - d1
        lane = np.zeros(B)
    else:
        raise TypeError(f"unsupported context {type(ctx)}")
    col = np.zeros(B)
    for h_xy, r in zip(human_xys, radii):
        col = col + _overlap_sum(ego, h_xy, r)
    ctrl = (acts[:, :L] ** 2).reshape(B, -1).sum(axis=1)
    return progress, lane, col, ctrl


def weighted_reward(weights: RewardWeights, terms):
    """R = w_progress*progress + w_lane*lane + w_col*overlap + w_ctrl*ctrl,
    elementwise when the terms are arrays."""
    progress, lane, col, ctrl = terms
    w = weights
    return (w.w_progress * progress + w.w_lane * lane
            + w.w_col * col + w.w_ctrl * ctrl)


def reward_terms(handle: PlannerHandle, ego: ActionTraj,
                 humans: Sequence[ActionTraj], joint: JointState, ctx: Context,
                 human_radii: Optional[Sequence[float]] = None):
    """(progress, mean sq lane offset, summed overlap, sum sq actions) of one
    ego trajectory against human trajectories.

    The package scores blocks of rollouts with terms_matrix; this is the
    one-trajectory reference it is tested against.
    """
    ego_xy = rollout_positions(joint.robot, ego, handle.dt)
    human_xys = [rollout_positions(joint.humans[i], h, handle.dt)
                 for i, h in enumerate(humans)]
    terms = terms_matrix(ego_xy[None], ego.actions[None], human_xys, human_radii,
                         joint.robot, ctx)
    return tuple(float(t[0]) for t in terms)


def reward(handle: PlannerHandle, ego: ActionTraj, humans: Sequence[ActionTraj],
           joint: JointState, ctx: Context,
           human_radii: Optional[Sequence[float]] = None) -> float:
    """R = w_progress*progress + w_lane*lane + w_col*overlap + w_ctrl*ctrl.

    The reference reward of one trajectory, as reward_terms is the reference
    of its terms.
    """
    return weighted_reward(handle.weights,
                           reward_terms(handle, ego, humans, joint, ctx, human_radii))


@dataclass
class ReplanEntry:
    """Log of one replanning decision: candidates, predictions, rewards."""

    t: int
    candidates: list[ActionTraj]
    predicted_humans: PredictionSet
    candidate_rewards_predicted: list[float]
    executed_index: int
    predicted_reward_samples: list[tuple[float, float]]  # (reward, weight)

    def __post_init__(self):
        if not (0 <= self.executed_index < len(self.candidates)):
            raise ValueError("executed_index out of range")
        if len(self.candidate_rewards_predicted) != len(self.candidates):
            raise ValueError("candidate reward list must parallel candidates")


def plan(handle: PlannerHandle, predictor, joint: JointState,
         history: Sequence[JointState], ctx: Context, rng: RngStream,
         human_radii: Optional[Sequence[float]] = None
         ) -> tuple[ActionTraj, ReplanEntry]:
    """Score every candidate by expected reward under the predictor's modes
    and execute the argmax (ties to the lowest candidate index).

    Expected reward decomposes exactly: progress/lane/control depend only on
    the candidate, and the collision term is additive over humans, so the
    expectation over independent per-human modes is a per-human weighted sum.

    The candidate library is built as one block with the speed after each
    step (_candidate_block), and rolled out from those speeds by the position
    half of rollout_positions_batch; each distinct human mode trajectory is
    rolled out once. The predictor is asked once per replan for one
    PredictionSet per candidate, ``predictor.predict_candidates(joint,
    history, ego_xys, speeds, ctx, n_modes, dt)``, with the candidates'
    (K, T, 2) rollouts at ``dt`` and their (K, T) speeds after each step,
    row k being candidate k; no predictor reads the action block.
    Progress, lane and control come from one terms_matrix over the candidates,
    and each (human, mode trajectory) has one overlap pass over all rollouts;
    every candidate's expectation is then accumulated per human and mode in
    the order a per-candidate loop would, so each value is that loop's. The
    chosen plan's reward samples reuse its terms_matrix row and overlap rows.
    A mode trajectory shorter than the horizon would crop every term of a
    sample but only the overlap of the expectation, so it is a ValueError
    naming the human, the mode and the lengths.
    """
    robot = joint.robot
    candidates, acts, speeds = _candidate_block(handle, robot.speed, rng, joint.t)
    M = len(joint.humans)
    radii = list(human_radii) if human_radii is not None else [CAR_RADIUS] * M
    if len(radii) != M:
        raise ValueError(f"need one radius per human: {len(radii)} radii for {M} humans")
    w = handle.weights
    dt = handle.dt
    mode_rollouts: dict[tuple[int, bytes], np.ndarray] = {}

    def human_xy(i: int, traj: ActionTraj) -> np.ndarray:
        # Candidates of one replan often share a mode trajectory.
        key = (i, traj.actions.tobytes())
        if key not in mode_rollouts:
            mode_rollouts[key] = rollout_positions(joint.humans[i], traj, dt)
        return mode_rollouts[key]

    K = len(candidates)
    ego_xys = rollout_positions_from_speeds(np.full(K, robot.x), np.full(K, robot.y),
                                            np.full(K, robot.heading), speeds,
                                            acts[:, :, 1], dt)
    pred_sets = predictor.predict_candidates(joint, history, ego_xys, speeds, ctx,
                                             handle.n_modes, dt)
    progress, lane, _, ctrl = terms_matrix(ego_xys, acts, [], [], robot, ctx)
    expected = w.w_progress * progress + w.w_lane * lane + w.w_ctrl * ctrl
    overlaps: dict[tuple[int, int], np.ndarray] = {}  # (human, id(traj)) -> (K,)
    # Candidates in one predictor bucket share one PredictionSet; each
    # distinct set is accumulated over the rows of its candidates at once.
    rows_of: dict[int, tuple[PredictionSet, list[int]]] = {}
    for k, pred in enumerate(pred_sets):
        rows_of.setdefault(id(pred), (pred, []))[1].append(k)
    for pred, rows in rows_of.values():
        exp_r = expected[rows]
        for i in range(M):
            for mp in pred.humans[i]:
                key = (i, id(mp.traj))
                if key not in overlaps:
                    if len(mp.traj) < handle.horizon:
                        raise ValueError(f"human {i} mode {mp.label!r} is {len(mp.traj)} "
                                         f"steps, shorter than the horizon {handle.horizon}")
                    overlaps[key] = _overlap_sum(ego_xys, human_xy(i, mp.traj), radii[i])
                exp_r = exp_r + w.w_col * mp.prob * overlaps[key][rows]
        expected[rows] = exp_r

    chosen_idx = int(np.argmax(expected))
    chosen = candidates[chosen_idx]
    chosen_pred = pred_sets[chosen_idx]

    # Reward of the chosen plan under every joint prediction mode combo.
    combos = [((), 1.0)]
    for i in range(M):
        combos = [(idx + (k,), p * chosen_pred.humans[i][k].prob)
                  for idx, p in combos
                  for k in range(len(chosen_pred.humans[i]))]
    row = (float(progress[chosen_idx]), float(lane[chosen_idx]), float(ctrl[chosen_idx]))
    samples: list[tuple[float, float]] = []
    for idx, weight in combos:
        # The terms are the replan's own terms_matrix row and overlap rows,
        # summed as terms_matrix does.
        col = 0.0
        for i in range(M):
            col = col + float(overlaps[(i, id(chosen_pred.humans[i][idx[i]].traj))][chosen_idx])
        terms = (row[0], row[1], col, row[2])
        samples.append((weighted_reward(w, terms), float(weight)))

    entry = ReplanEntry(
        t=joint.t,
        candidates=candidates,
        predicted_humans=chosen_pred,
        candidate_rewards_predicted=expected.tolist(),
        executed_index=chosen_idx,
        predicted_reward_samples=samples,
    )
    return chosen, entry
