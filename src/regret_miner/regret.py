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

from .core import ActionTraj, Context, JointState, rollout_positions_batch
from .planner import RewardWeights, terms_from_positions, terms_matrix, weighted_reward


@dataclass(frozen=True)
class LuceShepard:
    """Choice likelihoods proportional to exp(reward)."""

    weights: RewardWeights = field(default_factory=RewardWeights)


def softmax_likelihoods(rewards) -> np.ndarray:
    """Max-subtracted softmax over a reward vector."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("rewards must be a non-empty vector")
    z = np.exp(r - r.max())
    return z / z.sum()


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


def _rewards_from_rollouts(weights: RewardWeights, candidates: Sequence[ActionTraj],
                           ego_xys: Sequence[np.ndarray], human_xys: Sequence[np.ndarray],
                           human_radii, robot, ctx: Context) -> np.ndarray:
    """Reward of every candidate from its rollout against the human rollouts:
    one reward matrix when the candidates share one length, else one
    candidate at a time."""
    if len({len(c) for c in candidates}) == 1:
        acts = np.array([c.actions for c in candidates])
        return weighted_reward(weights, terms_matrix(np.array(ego_xys), acts, human_xys,
                                                     human_radii, robot, ctx))
    return np.array([
        weighted_reward(weights, terms_from_positions(xy, cand.actions, human_xys,
                                                      human_radii, robot, ctx))
        for cand, xy in zip(candidates, ego_xys)
    ])


def _hindsight_rewards(weights: RewardWeights, candidates: Sequence[ActionTraj],
                       realized_humans: Sequence[ActionTraj], joint: JointState,
                       ctx: Context, human_radii=None, dt: float = 0.1) -> np.ndarray:
    """Reward of every candidate against the realized humans; the candidates
    and the realized humans are rolled out together, each human once and
    shared by all candidates."""
    M = len(realized_humans)
    xys = _rollouts_by_length(
        [joint.humans[i] for i in range(M)] + [joint.robot] * len(candidates),
        [h.actions for h in realized_humans] + [c.actions for c in candidates], dt)
    return _rewards_from_rollouts(weights, candidates, xys[M:], xys[:M],
                                  human_radii, joint.robot, ctx)


def luce_shepard_likelihoods(weights: RewardWeights, candidates: Sequence[ActionTraj],
                             realized_humans: Sequence[ActionTraj], joint: JointState,
                             ctx: Context, human_radii=None,
                             dt: float = 0.1) -> np.ndarray:
    """P(candidate i) = exp(r_i - max r) / sum_k exp(r_k - max r), rewards
    evaluated against realized human behavior."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    r = _hindsight_rewards(weights, candidates, realized_humans, joint, ctx,
                           human_radii, dt)
    return softmax_likelihoods(r)


@dataclass
class RegretReport:
    """Per-replan regrets plus aggregates for one scene."""

    scenario_id: str
    per_t: list[tuple[int, float, float, float]]  # (t, exec_lik, max_lik, regret_t)
    mean_regret: float
    worst_regret: float
    canonical_per_t: list[float]
    canonical_mean: float
    aggregation: str = "mean"

    @property
    def score(self) -> float:
        return self.worst_regret if self.aggregation == "worst" else self.mean_regret


def _realized_human_segment(scene, human_idx: int, t0: int, T: int) -> Optional[ActionTraj]:
    acts = scene.human_actions[human_idx].actions
    seg = acts[t0:t0 + T]
    if len(seg) < 1:
        return None
    return ActionTraj(seg, start_t=t0)


def _rollouts_by_length(starts: Sequence, actions: Sequence[np.ndarray],
                        dt: float) -> list[np.ndarray]:
    """rollout_positions of each (start state, (T, 2) actions) pair, with one
    rollout_positions_batch call per distinct T."""
    by_len: dict[int, list[int]] = {}
    for n, acts in enumerate(actions):
        by_len.setdefault(len(acts), []).append(n)
    out: list = [None] * len(actions)
    for idx in by_len.values():
        rows = [starts[n] for n in idx]
        xys = rollout_positions_batch([s.x for s in rows], [s.y for s in rows],
                                      [s.heading for s in rows], [s.speed for s in rows],
                                      [actions[n] for n in idx], dt)
        for n, xy in zip(idx, xys):
            out[n] = xy
    return out


def score_scene(model: LuceShepard, scene, aggregation: str = "mean") -> RegretReport:
    """Generalized + canonical regret at every logged replan of a scene.

    Candidate rewards are recomputed against the realized human actions
    sliced from the scene log, never against the predictions that were used
    at planning time. Every logged candidate and realized human segment of
    the scene is rolled out in one batch before the replans are scored.
    """
    if aggregation not in ("mean", "worst"):
        raise ValueError(f"unknown aggregation {aggregation!r}")
    if not isinstance(model, LuceShepard):
        raise TypeError("score_scene requires the reward-based likelihood model")
    if not scene.replan_log:
        raise ValueError(f"scene {scene.scenario_id} has no replan log to score")
    radii = scene.radii_or_default()
    human_actions = [scene.human_actions[i].actions
                     for i in range(len(scene.states[0].humans))]
    starts, actions, realized = [], [], []
    for entry in scene.replan_log:
        joint = scene.states[entry.t]
        T = len(entry.candidates[0])
        segs = [seg for seg in (h[entry.t:entry.t + T] for h in human_actions) if len(seg)]
        realized.append(len(segs))
        starts += [joint.robot] * len(entry.candidates) + list(joint.humans[:len(segs)])
        actions += [c.actions for c in entry.candidates] + segs
    xys = iter(_rollouts_by_length(starts, actions, dt=0.1))
    per_t = []
    canon = []
    for entry, n_humans in zip(scene.replan_log, realized):
        ego_xys = [next(xys) for _ in entry.candidates]
        human_xys = [next(xys) for _ in range(n_humans)]
        r = _rewards_from_rollouts(model.weights, entry.candidates, ego_xys, human_xys,
                                   radii[:n_humans], scene.states[entry.t].robot,
                                   scene.context)
        p = softmax_likelihoods(r)
        g = generalized_from_likelihoods(p, entry.executed_index)
        per_t.append((entry.t, float(p[entry.executed_index]), float(p.max()), g))
        canon.append(canonical_from_rewards(r, entry.executed_index))
    regrets = [x[3] for x in per_t]
    return RegretReport(
        scenario_id=scene.scenario_id,
        per_t=per_t,
        mean_regret=float(np.mean(regrets)),
        worst_regret=float(np.max(regrets)),
        canonical_per_t=[float(c) for c in canon],
        canonical_mean=float(np.mean(canon)),
        aggregation=aggregation,
    )


def mine_top_quantile(scores: Sequence[tuple[str, float]], p: float) -> set[str]:
    """Flag the ceil(N*p/100) highest scores; ties broken by lexicographic id."""
    if not scores:
        raise ValueError("scores must be non-empty")
    if not (0.0 < p < 100.0):
        raise ValueError("p must be in (0, 100)")
    bad = sorted(sid for sid, v in scores if not math.isfinite(v))
    if bad:
        raise ValueError(f"scores must be finite; non-finite ids: {bad}")
    k = math.ceil(len(scores) * p / 100.0)
    ranked = sorted(scores, key=lambda sv: (-sv[1], sv[0]))
    return {sid for sid, _ in ranked[:k]}


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
        "schema": "regret/1",
        "scenario_id": rep.scenario_id,
        "per_t": [[t, el, ml, g] for t, el, ml, g in rep.per_t],
        "mean_regret": rep.mean_regret,
        "worst_regret": rep.worst_regret,
        "canonical_per_t": rep.canonical_per_t,
        "canonical_mean": rep.canonical_mean,
        "aggregation": rep.aggregation,
    }


def report_from_dict(d: dict) -> RegretReport:
    if d.get("schema") != "regret/1":
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    return RegretReport(
        scenario_id=d["scenario_id"],
        per_t=[(int(t), el, ml, g) for t, el, ml, g in d["per_t"]],
        mean_regret=d["mean_regret"],
        worst_regret=d["worst_regret"],
        canonical_per_t=list(d["canonical_per_t"]),
        canonical_mean=d["canonical_mean"],
        aggregation=d.get("aggregation", "mean"),
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
                 aggregation: str = "mean") -> dict:
    flagged = mine_top_quantile(scores, p)
    ranked = sorted(scores, key=lambda sv: (-sv[1], sv[0]))
    ordered = [sid for sid, _ in ranked if sid in flagged]
    return {
        "schema": "mined/1",
        "p": p,
        "k": len(flagged),
        "aggregation": aggregation,
        "flagged_ids": ordered,
    }
