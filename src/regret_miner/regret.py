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
from typing import Optional, Sequence, Union

import numpy as np

from .core import ActionTraj, Context, JointState, rollout_positions
from .planner import RewardWeights, terms_from_positions, weighted_reward


@dataclass(frozen=True)
class LuceShepard:
    """Choice likelihoods proportional to exp(reward)."""

    weights: RewardWeights = field(default_factory=RewardWeights)


@dataclass(frozen=True)
class GenerativeKDE:
    """Counterfactual likelihoods from a codebook + KDE window masses.

    Evaluation of this variant lives with the generative planner tooling
    (it scores 6-step heading deployments, not corridor scenes).
    """

    codebook: object
    bandwidth: float = 0.05
    delta: float = 0.1
    n_samples: int = 250

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.bandwidth <= 0 or self.delta <= 0:
            raise ValueError("bandwidth and delta must be positive")


LikelihoodModel = Union[LuceShepard, GenerativeKDE]


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


def _hindsight_rewards(weights: RewardWeights, candidates: Sequence[ActionTraj],
                       realized_humans: Sequence[ActionTraj], joint: JointState,
                       ctx: Context, human_radii=None, dt: float = 0.1) -> np.ndarray:
    """Reward of every candidate against the realized humans; each realized
    human is rolled out once and shared by all candidates."""
    human_xys = [rollout_positions(joint.humans[i], h, dt)
                 for i, h in enumerate(realized_humans)]
    return np.array([
        weighted_reward(weights, terms_from_positions(
            rollout_positions(joint.robot, cand, dt), cand.actions, human_xys,
            human_radii, joint.robot, ctx))
        for cand in candidates
    ])


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


def canonical_regret(weights: RewardWeights, candidates: Sequence[ActionTraj],
                     executed_index: int, realized_humans: Sequence[ActionTraj],
                     joint: JointState, ctx: Context, human_radii=None,
                     dt: float = 0.1) -> float:
    r = _hindsight_rewards(weights, candidates, realized_humans, joint, ctx,
                           human_radii, dt)
    return canonical_from_rewards(r, executed_index)


def generalized_regret_t(model: LikelihoodModel, candidates: Sequence[ActionTraj],
                         executed_index: int, realized_humans: Sequence[ActionTraj],
                         joint: JointState, ctx: Context, human_radii=None,
                         dt: float = 0.1) -> float:
    if isinstance(model, LuceShepard):
        p = luce_shepard_likelihoods(model.weights, candidates, realized_humans,
                                     joint, ctx, human_radii, dt)
        return generalized_from_likelihoods(p, executed_index)
    raise TypeError(
        "GenerativeKDE likelihoods apply to 6-step nav deployments; "
        "use the generative planner's regret entry point"
    )


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


def score_scene(model: LikelihoodModel, scene, aggregation: str = "mean") -> RegretReport:
    """Generalized + canonical regret at every logged replan of a scene.

    Candidate rewards are recomputed against the realized human actions
    sliced from the scene log, never against the predictions that were used
    at planning time.
    """
    if aggregation not in ("mean", "worst"):
        raise ValueError(f"unknown aggregation {aggregation!r}")
    if not isinstance(model, LuceShepard):
        raise TypeError("score_scene requires the reward-based likelihood model")
    if not scene.replan_log:
        raise ValueError(f"scene {scene.scenario_id} has no replan log to score")
    radii = scene.radii_or_default()
    M = len(scene.states[0].humans)
    per_t = []
    canon = []
    for entry in scene.replan_log:
        joint = scene.states[entry.t]
        T = len(entry.candidates[0])
        realized = []
        for i in range(M):
            seg = _realized_human_segment(scene, i, entry.t, T)
            if seg is not None:
                realized.append(seg)
        r = _hindsight_rewards(model.weights, entry.candidates,
                               realized, joint, scene.context,
                               radii[:len(realized)], dt=0.1)
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
