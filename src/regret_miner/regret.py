"""Canonical and generalized (likelihood-space) regret, scene scoring, mining.

Canonical regret is the hindsight reward gap: max candidate reward minus
executed reward, recomputed against the humans' realized behavior. Its scale
tracks the reward function, which makes scenes with different reward
magnitudes incomparable. Generalized regret moves the same comparison into
decision-likelihood space — max candidate likelihood minus executed
likelihood under a counterfactual choice model — and is bounded in [0, 1].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    ActionTraj,
    Context,
    JointState,
    by_length,
    rollout_positions_batch,
)
from .planner import RewardWeights, terms_matrix, weighted_reward


@dataclass(frozen=True)
class LuceShepard:
    """Choice likelihoods proportional to exp(reward)."""

    weights: RewardWeights = field(default_factory=RewardWeights)


def _softmax_rows(r: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax of each row of a (W, K) reward block: a
    per-row max and a per-row sum over the contiguous last axis, so each row
    equals the softmax of that row alone."""
    z = np.exp(r - r.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def softmax_likelihoods(rewards) -> np.ndarray:
    """Max-subtracted softmax over a reward vector."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("rewards must be a non-empty vector")
    return _softmax_rows(r[None])[0]


def canonical_from_rewards(rewards, executed_index: int) -> float:
    r = np.asarray(rewards, dtype=float)
    if not (0 <= executed_index < r.size):
        raise ValueError("executed_index out of range")
    return float(r.max() - r[executed_index])


def generalized_from_rewards(rewards, executed_index: int) -> float:
    p = softmax_likelihoods(rewards)
    return float(p.max() - p[executed_index])


def generalized_from_likelihoods(likelihoods, executed_index: int) -> float:
    p = np.asarray(likelihoods, dtype=float)
    if not (0 <= executed_index < p.size):
        raise ValueError("executed_index out of range")
    return float(p.max() - p[executed_index])


def hindsight_rewards(weights: RewardWeights, windows: Sequence, ctx: Context,
                      human_radii, dt: float) -> list[np.ndarray]:
    """The reward of every robot action sequence of every window against
    that window's realized humans: one (K,) array per window.

    A window is (joint, robot action arrays, realized human action arrays);
    the robot sequences start from joint.robot and realized human n from
    joint.humans[n]. Every rollout of every window goes through one
    rollout_positions_batch call per distinct length. The robot sequences
    of one window that share a length form a block, and all blocks of one
    shape (sequences, their length, the human lengths) are priced by one
    terms_matrix call with a window axis. Its rows are independent, so a
    window of mixed lengths prices each sequence as a window of its own
    would, and every window is priced as a call with it alone would.
    """
    starts, actions = [], []
    for joint, robot_acts, human_acts in windows:
        starts += [joint.robot] * len(robot_acts) + list(joint.humans[:len(human_acts)])
        actions += list(robot_acts) + list(human_acts)
    # Per distinct length: the stacked actions and their rollouts; each
    # action's row in its length's stack.
    stacks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    row_of = [0] * len(actions)
    for T, idx in by_length(actions).items():
        rows = [starts[n] for n in idx]
        acts = np.array([actions[n] for n in idx], dtype=float)
        stacks[T] = acts, rollout_positions_batch(
            [s.x for s in rows], [s.y for s in rows], [s.heading for s in rows],
            [s.speed for s in rows], acts, dt)
        for row, n in enumerate(idx):
            row_of[n] = row
    # Blocks by shape: (window, its rows, their stack rows, its humans' stack rows).
    shapes: dict[tuple, list] = {}
    out, n = [], 0
    for w, (joint, robot_acts, human_acts) in enumerate(windows):
        K, M = len(robot_acts), len(human_acts)
        h_rows = [row_of[n + K + i] for i in range(M)]
        for T, rows in by_length(robot_acts).items():
            key = (len(rows), T, tuple(len(h) for h in human_acts))
            shapes.setdefault(key, []).append(
                (w, rows, [row_of[n + k] for k in rows], h_rows))
        n += K + M
        out.append(np.empty(K))
    for (B, T, human_lens), blocks in shapes.items():
        W = len(blocks)
        ego_rows = [r for _, _, stack_rows, _ in blocks for r in stack_rows]
        acts, xys = stacks[T]
        human_xys = [stacks[Th][1][[h_rows[i] for *_, h_rows in blocks]]
                     for i, Th in enumerate(human_lens)]
        start_xy = [(windows[w][0].robot.x, windows[w][0].robot.y) for w, *_ in blocks]
        r = weighted_reward(weights, terms_matrix(
            xys[ego_rows].reshape(W, B, T, 2), acts[ego_rows].reshape(W, B, T, 2),
            human_xys, human_radii, start_xy, ctx))
        for (w, rows, _, _), rw in zip(blocks, r):
            out[w][rows] = rw
    return out


def luce_shepard_likelihoods(weights: RewardWeights, candidates: Sequence[ActionTraj],
                             realized_humans: Sequence[ActionTraj], joint: JointState,
                             ctx: Context, human_radii: Sequence[float],
                             dt: float) -> np.ndarray:
    """P(candidate i) = exp(r_i - max r) / sum_k exp(r_k - max r), rewards
    evaluated against realized human behavior: hindsight_rewards of one
    window, as score_scene prices each replan."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    window = (joint, [c.actions for c in candidates], [h.actions for h in realized_humans])
    return softmax_likelihoods(hindsight_rewards(weights, [window], ctx, human_radii, dt)[0])


AGGREGATIONS = ("mean", "worst")


@dataclass(frozen=True)
class RegretReport:
    """Per-replan generalized and canonical regrets of one scene. A scene
    score is not stored: `scores` aggregates the replans when it is read."""

    scenario_id: str
    per_t: list[tuple[int, float, float, float]]  # (t, exec_lik, max_lik, regret_t)
    canonical_per_t: list[float]

    def __post_init__(self):
        if not self.per_t:
            raise ValueError(f"regret report {self.scenario_id!r} has no replan")
        if len(self.canonical_per_t) != len(self.per_t):
            raise ValueError(f"regret report {self.scenario_id!r}: "
                             f"{len(self.canonical_per_t)} canonical regrets for "
                             f"{len(self.per_t)} replans")

    def scores(self, aggregation: str) -> tuple[float, float]:
        """(generalized, canonical) scene scores: the mean or the worst
        case of the per-replan regrets. The one place an aggregation name
        becomes a number."""
        regrets = [g for *_, g in self.per_t]
        if aggregation == "mean":
            return float(np.mean(regrets)), float(np.mean(self.canonical_per_t))
        if aggregation == "worst":
            return float(np.max(regrets)), max(self.canonical_per_t)
        raise ValueError(f"unknown aggregation {aggregation!r}")

    @property
    def mean_regret(self) -> float:
        return self.scores("mean")[0]

    @property
    def worst_regret(self) -> float:
        return self.scores("worst")[0]


def realized_human_actions(scene, t0: int, T: int) -> list[np.ndarray]:
    """The humans' realized actions over steps [t0, t0 + T), in human order,
    or [] when the scene's logs end before t0. Every human's log runs to the
    scene's last executed step, so the segments share one length."""
    segs = [scene.human_actions[i].actions[t0:t0 + T]
            for i in range(len(scene.states[0].humans))]
    return segs if segs and len(segs[0]) else []


def _realized_human_segment(scene, human_idx: int, t0: int, T: int) -> Optional[ActionTraj]:
    """Human human_idx's segment of realized_human_actions as a trajectory
    starting at t0, or None when the logs end before t0."""
    segs = realized_human_actions(scene, t0, T)
    return ActionTraj(segs[human_idx], start_t=t0) if segs else None


def score_scene(model: LuceShepard, scene) -> RegretReport:
    """Generalized + canonical regret at every logged replan of a scene.

    Candidate rewards are recomputed against the realized human actions
    sliced from the scene log, never against the predictions that were used
    at planning time: each replan is one hindsight_rewards window, its
    candidates against the realized humans over the first candidate's
    length, and the scene's windows are priced in one call at the scene's dt.
    The likelihoods and both regrets of the replans with K candidates are row
    operations over their (W, K) reward block, each row's values those of
    softmax_likelihoods, generalized_from_likelihoods and
    canonical_from_rewards on that replan alone.
    """
    if not isinstance(model, LuceShepard):
        raise TypeError("score_scene requires the reward-based likelihood model")
    if not scene.replan_log:
        raise ValueError(f"scene {scene.scenario_id} has no replan log to score")
    windows = [(scene.states[e.t], [c.actions for c in e.candidates],
                realized_human_actions(scene, e.t, len(e.candidates[0])))
               for e in scene.replan_log]
    rewards = hindsight_rewards(model.weights, windows, scene.context,
                                scene.human_radii, scene.dt)
    per_t: list = [None] * len(rewards)
    canon: list = [None] * len(rewards)
    for idx in by_length(rewards).values():
        # The replans with K candidates as one (W, K) block, priced by rows.
        r = np.array([rewards[i] for i in idx])
        rows = np.arange(len(idx))
        ex = [scene.replan_log[i].executed_index for i in idx]
        p = _softmax_rows(r)
        p_exec, p_max = p[rows, ex], p.max(axis=1)
        for i, el, ml, g, c in zip(idx, p_exec.tolist(), p_max.tolist(),
                                   (p_max - p_exec).tolist(),
                                   (r.max(axis=1) - r[rows, ex]).tolist()):
            per_t[i] = (scene.replan_log[i].t, el, ml, g)
            canon[i] = c
    return RegretReport(scene.scenario_id, per_t, canon)


def _top_ranked(scores: Sequence[tuple[str, float]], p: float) -> list[str]:
    """The ids of the ceil(N*p/100) highest scores, highest first; ties
    broken by lexicographic id."""
    if not scores:
        raise ValueError("scores must be non-empty")
    if not (0.0 < p < 100.0):
        raise ValueError("p must be in (0, 100)")
    bad = sorted(sid for sid, v in scores if not math.isfinite(v))
    if bad:
        raise ValueError(f"scores must be finite; non-finite ids: {bad}")
    k = math.ceil(len(scores) * p / 100.0)
    return [sid for sid, _ in sorted(scores, key=lambda sv: (-sv[1], sv[0]))[:k]]


def mine_top_quantile(scores: Sequence[tuple[str, float]], p: float) -> set[str]:
    """Flag the ceil(N*p/100) highest scores; ties broken by lexicographic id."""
    return set(_top_ranked(scores, p))


# ---------------------------------------------------------------------------
# Calibration fixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationScene:
    """A bare candidate set in reward space: enough to evaluate both regrets."""

    rewards: tuple[float, ...]
    executed_index: int


def build_calibration_pair():
    """Two decision problems with near-equal canonical regret but clearly
    separated generalized regret.

    Scene A: two strong options, the executed choice is the single bad one —
    the likelihood mass the robot gave up is concentrated.  Scene B: several
    near-tied strong options — the hindsight-best likelihood is split almost
    evenly, so giving it up costs far less likelihood even though the reward
    gap is the same size.
    """
    scene_a = CalibrationScene(rewards=(0.0, -0.25, -11.4), executed_index=2)
    scene_b = CalibrationScene(rewards=(0.0, -0.01, -0.02, -11.7), executed_index=3)
    canon = (
        canonical_from_rewards(scene_a.rewards, scene_a.executed_index),
        canonical_from_rewards(scene_b.rewards, scene_b.executed_index),
    )
    gen = (
        generalized_from_rewards(scene_a.rewards, scene_a.executed_index),
        generalized_from_rewards(scene_b.rewards, scene_b.executed_index),
    )
    return scene_a, scene_b, canon, gen


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_to_dict(rep: RegretReport) -> dict:
    return {
        "schema": "regret/2",
        "scenario_id": rep.scenario_id,
        "per_t": [[t, el, ml, g] for t, el, ml, g in rep.per_t],
        "canonical_per_t": rep.canonical_per_t,
    }


def report_from_dict(d: dict) -> RegretReport:
    if d.get("schema") != "regret/2":
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    return RegretReport(
        scenario_id=d["scenario_id"],
        per_t=[(int(t), el, ml, g) for t, el, ml, g in d["per_t"]],
        canonical_per_t=list(d["canonical_per_t"]),
    )


def reports_to_jsonl(path, reports: Sequence[RegretReport]):
    with open(path, "w") as f:
        for rep in reports:
            f.write(json.dumps(report_to_dict(rep)) + "\n")


def reports_from_jsonl(path) -> list[RegretReport]:
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(report_from_dict(json.loads(line)))
    return out


def mined_to_doc(scores: Sequence[tuple[str, float]], p: float,
                 aggregation: str) -> dict:
    ordered = _top_ranked(scores, p)
    return {
        "schema": "mined/1",
        "p": p,
        "k": len(ordered),
        "aggregation": aggregation,
        "flagged_ids": ordered,
    }
