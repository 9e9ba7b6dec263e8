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
        if self.speed_cap <= 0:
            raise ValueError("speed_cap must be positive")
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


def _cap_speed(accel: np.ndarray, v0: float, cap: float, dt: float) -> list[float]:
    """Clamp an acceleration sequence so rolled-out speed never exceeds cap."""
    out = []
    v = v0
    for a in accel.tolist():
        a = min(a, (cap - v) / dt)
        a = min(max(a, -ACCEL_LIMIT), ACCEL_LIMIT)
        out.append(a)
        v = max(0.0, v + a * dt)
    return out


def sample_candidates(handle: PlannerHandle, state: AgentState, ctx: Context,
                      rng: RngStream, start_t: int = 0) -> list[ActionTraj]:
    """Enumerate the candidate library with rng jitter on accelerations.

    Index 0 is always the maintain trajectory; every candidate's acceleration
    is clamped so speed stays at or below the handle's speed cap.
    """
    gen = rng.generator()
    T = handle.horizon
    cap = handle.speed_cap
    block = np.zeros((handle.n_candidates, T, 2))
    block[0, :, 0] = _cap_speed(np.zeros(T), state.speed, cap, handle.dt)
    steer = {p: np.clip(_steer_sequence(p, T, handle.lane_change_turn),
                        -TURN_LIMIT, TURN_LIMIT)
             for p in handle.steer_profiles}
    if handle.two_stage:
        accel_seqs = []
        half = T // 2
        for a1 in handle.accel_levels:
            for a2 in handle.accel_levels:
                seq = np.full(T, a2)
                seq[:half] = a1
                accel_seqs.append(seq)
    else:
        accel_seqs = [np.full(T, a) for a in handle.accel_levels]
    k = 1
    for accel in accel_seqs:
        for profile in handle.steer_profiles:
            jit = gen.normal(0.0, handle.accel_jitter)
            a = np.clip(accel + jit, -ACCEL_LIMIT, ACCEL_LIMIT)
            block[k, :, 0] = _cap_speed(a, state.speed, cap, handle.dt)
            block[k, :, 1] = steer[profile]
            k += 1
    return ActionTraj.block(block, [start_t] * len(block))


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


def terms_from_positions(ego_xy: np.ndarray, acts: np.ndarray,
                         human_xys: Sequence[np.ndarray],
                         radii: Optional[Sequence[float]],
                         robot: AgentState, ctx: Context):
    """terms_matrix of one ego rollout (T, 2) and its actions (T, 2), as
    floats."""
    terms = terms_matrix(ego_xy[None], acts[None], human_xys, radii, robot, ctx)
    return tuple(float(t[0]) for t in terms)


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
    """(progress, mean sq lane offset, summed overlap, sum sq actions)."""
    ego_xy = rollout_positions(joint.robot, ego, handle.dt)
    human_xys = [rollout_positions(joint.humans[i], h, handle.dt)
                 for i, h in enumerate(humans)]
    return terms_from_positions(ego_xy, ego.actions, human_xys, human_radii,
                                joint.robot, ctx)


def reward(handle: PlannerHandle, ego: ActionTraj, humans: Sequence[ActionTraj],
           joint: JointState, ctx: Context,
           human_radii: Optional[Sequence[float]] = None) -> float:
    """R = w_progress*progress + w_lane*lane + w_col*overlap + w_ctrl*ctrl."""
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

    Each candidate and each distinct human mode trajectory is rolled out once.
    The predictor is asked once per replan for a per-candidate function,
    ``predictor.for_replan(joint, history, ctx, n_modes, dt)``, which is then
    called as ``predict_candidate(candidate, ego_xy)`` with the candidate's
    rollout at ``dt``.
    """
    candidates = sample_candidates(handle, joint.robot, ctx, rng, start_t=joint.t)
    if not candidates:
        raise ValueError("empty candidate set")
    M = len(joint.humans)
    radii = list(human_radii) if human_radii is not None else [CAR_RADIUS] * M
    w = handle.weights
    dt = handle.dt
    predict_candidate = predictor.for_replan(joint, history, ctx, handle.n_modes, dt)
    mode_rollouts: dict[tuple[int, bytes], np.ndarray] = {}

    def human_xy(i: int, traj: ActionTraj) -> np.ndarray:
        # Candidates of one replan often share a mode trajectory.
        key = (i, traj.actions.tobytes())
        if key not in mode_rollouts:
            mode_rollouts[key] = rollout_positions(joint.humans[i], traj, dt)
        return mode_rollouts[key]

    ego_xys = [rollout_positions(joint.robot, cand, dt) for cand in candidates]
    expected = []
    pred_sets = []
    for cand, ego_xy in zip(candidates, ego_xys):
        pred = predict_candidate(cand, ego_xy)
        pred_sets.append(pred)
        progress, lane, _, ctrl = terms_from_positions(ego_xy, cand.actions, [], [],
                                                       joint.robot, ctx)
        exp_r = w.w_progress * progress + w.w_lane * lane + w.w_ctrl * ctrl
        for i in range(M):
            for mp in pred.humans[i]:
                exp_r += w.w_col * mp.prob * float(
                    _overlap_sum(ego_xy, human_xy(i, mp.traj), radii[i]))
        expected.append(exp_r)

    chosen_idx = int(np.argmax(expected))
    chosen = candidates[chosen_idx]
    chosen_xy = ego_xys[chosen_idx]
    chosen_pred = pred_sets[chosen_idx]

    # Reward of the chosen plan under every joint prediction mode combo.
    combos = [((), 1.0)]
    for i in range(M):
        combos = [(idx + (k,), p * chosen_pred.humans[i][k].prob)
                  for idx, p in combos
                  for k in range(len(chosen_pred.humans[i]))]
    samples: list[tuple[float, float]] = []
    for idx, weight in combos:
        h_xys = [human_xy(i, chosen_pred.humans[i][idx[i]].traj) for i in range(M)]
        terms = terms_from_positions(chosen_xy, chosen.actions, h_xys, radii,
                                     joint.robot, ctx)
        samples.append((weighted_reward(w, terms), float(weight)))

    entry = ReplanEntry(
        t=joint.t,
        candidates=candidates,
        predicted_humans=chosen_pred,
        candidate_rewards_predicted=[float(r) for r in expected],
        executed_index=chosen_idx,
        predicted_reward_samples=samples,
    )
    return chosen, entry
