"""Competing per-scene failure metrics and mined-set comparison.

Four ways to label a deployment scene as a failure: likelihood-space regret
(GRM), reward-space regret (RM), component-level prediction error (ADE), and
a reward-distribution anomaly test (TRFD). The first three produce scores
mined by top quantile; TRFD is a per-scene binary flag.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import DT_DEFAULT, rollout_positions
from .planner import PlannerHandle
from .predictor import ade_fde
from .regret import RegretReport, hindsight_rewards, mine_top_quantile, realized_human_actions

METRICS = ("GRM", "RM", "ADE", "TRFD")


@dataclass(frozen=True)
class MetricLabeling:
    """One metric's verdict over a scene batch: per-scene score (or 0/1 flag
    for TRFD) plus the mined set of scenario ids."""

    metric: str
    scores: dict[str, float]
    mined: frozenset[str]

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        object.__setattr__(self, "mined", frozenset(self.mined))
        if not set(self.mined) <= set(self.scores):
            raise ValueError("mined ids must be scored")


# ---------------------------------------------------------------------------
# ADE
# ---------------------------------------------------------------------------

def _human_xy_from_states(scene, human_idx: int, t0: int, T: int) -> np.ndarray:
    """(<=T, 2) realized positions of one human in the frames after t0."""
    return scene.states.block[t0 + 1:t0 + 1 + T, 1 + human_idx, :2]


def scene_prediction_errors(scene, dt: float = DT_DEFAULT) -> tuple[float, float]:
    """(ADE, FDE) of the most-likely predicted mode, averaged over every
    (human, replan) pair.

    Uses the predictions logged at planning time, so a scene with humans
    and no replan log is a ValueError naming the scene. Comparisons cover
    only the consumed part of each prediction: once the robot replans, the
    realized humans react to actions the scored candidate never took.
    """
    n_humans = len(scene.states[0].humans)
    if n_humans == 0:
        warnings.warn(f"scene {scene.scenario_id} has no humans; ADE = 0")
        return 0.0, 0.0
    if not scene.replan_log:
        raise ValueError(f"scene {scene.scenario_id} has no replan log to "
                         "take predictions from")
    ades, fdes = [], []
    for e, seg in zip(scene.replan_log, scene.executed_robot):
        joint = scene.states[e.t]
        for i, modes in enumerate(e.predicted_humans.humans):
            best = max(modes, key=lambda m: m.prob)
            pred_xy = rollout_positions(joint.humans[i], best.traj, dt)
            true_xy = _human_xy_from_states(scene, i, e.t, len(best.traj))
            L = min(len(pred_xy), len(true_xy), len(seg))
            if L < 1:
                continue
            a, f = ade_fde(pred_xy[:L], true_xy[:L])
            ades.append(a)
            fdes.append(f)
    if not ades:
        return 0.0, 0.0
    return float(np.mean(ades)), float(np.mean(fdes))


def ade_scene_score(scene, dt: float = DT_DEFAULT) -> float:
    """Mean displacement error of the most-likely predicted mode, averaged
    over every (human, replan) pair."""
    return scene_prediction_errors(scene, dt)[0]


# ---------------------------------------------------------------------------
# TRFD
# ---------------------------------------------------------------------------

def _executed_windows(scene) -> list[tuple]:
    """(replan entry, executed window) of every replan that TRFD compares:
    the actions the robot really executed from the replan's t over its
    executed candidate's horizon, crossing later replans. Empty windows are
    left out, and so are windows cut short by the scene end whenever at
    least one complete window exists."""
    if not scene.replan_log:
        raise ValueError("scene has no replan log")
    all_exec = np.concatenate([seg.actions for seg in scene.executed_robot])
    windows = [(e, all_exec[e.t:e.t + len(e.candidates[e.executed_index])])
               for e in scene.replan_log]
    windows = [(e, w) for e, w in windows if len(w) >= 1]
    complete = [(e, w) for e, w in windows if len(w) == len(e.candidates[e.executed_index])]
    return complete or windows


def realized_scene_reward(scene, handle: Optional[PlannerHandle] = None) -> float:
    """Mean over replans of the reward the robot actually incurred over each
    replan's full planning window.

    The anticipated reward samples logged at a replan cover the whole
    candidate horizon, so the realized counterpart uses the same window:
    the actions the robot really executed (crossing later replans) against
    the realized human motion. The windows are _executed_windows's. Each
    is one regret.hindsight_rewards window, so its reward is
    planner.reward's, and the scene's windows are priced in one call.
    """
    handle = handle if handle is not None else PlannerHandle()
    windows = [(scene.states[e.t], [w], realized_human_actions(scene, e.t, len(w)))
               for e, w in _executed_windows(scene)]
    vals = [float(r[0]) for r in hindsight_rewards(handle.weights, windows, scene.context,
                                                   scene.radii_or_default(), handle.dt)]
    return float(np.mean(vals))


def weighted_quantile(values: Sequence[float], weights: Sequence[float],
                      q: float) -> float:
    """Smallest value whose cumulative normalized weight reaches q."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size < 1 or v.shape != w.shape:
        raise ValueError("need matching non-empty values and weights")
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must be in [0, 1]")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / w.sum()
    idx = int(np.searchsorted(cum, q, side="left"))
    return float(v[order[min(idx, v.size - 1)]])


# Reward slack below the anticipated quantile before a scene is flagged.
# A receding-horizon robot routinely deviates from the tail of the committed
# candidate at the next replan, so even perfectly-predicted windows realize
# a hair more or less reward than anticipated; the slack keeps those benign
# deviations (well under 0.1 on the ~30-per-window reward scale) from
# registering while leaving real shortfalls — stalled progress, collisions,
# uniformly inflated anticipations — far above it.
TRFD_SLACK = 0.05


def trfd_flag(scene, p: float, handle: Optional[PlannerHandle] = None) -> bool:
    """True when the realized scene reward falls materially below the
    p-percent quantile of the reward distribution the planner anticipated.

    Each replan logs a window-level anticipated reward distribution (one
    sample per predicted human mode, weighted by mode probability). The
    threshold is the mean over complete windows of each window's own
    p-quantile: quantiles are taken per window so that ordinary reward
    variation across time (speed-up phases, waiting) does not masquerade as
    anticipation spread. The realized side is the matching per-window mean
    from realized_scene_reward; both sides take the windows of
    _executed_windows.
    """
    if not (0.0 < p < 100.0):
        raise ValueError("p must be in (0, 100)")
    for e in scene.replan_log:
        if not e.predicted_reward_samples:
            raise ValueError(f"replan at t={e.t} has no predicted reward samples")
    quantiles = [weighted_quantile([r for r, _ in e.predicted_reward_samples],
                                   [w for _, w in e.predicted_reward_samples], p / 100.0)
                 for e, _ in _executed_windows(scene)]
    threshold = float(np.mean(quantiles))
    return realized_scene_reward(scene, handle) < threshold - TRFD_SLACK


def with_inflated_predictions(scene, offset: float):
    """Copy of a scene whose anticipated reward samples are shifted by a
    constant — the distribution-shift stressor for TRFD."""
    new_log = [
        replace(e, predicted_reward_samples=[(r + offset, w)
                                             for r, w in e.predicted_reward_samples])
        for e in scene.replan_log
    ]
    return replace(scene, replan_log=new_log)


# ---------------------------------------------------------------------------
# Set comparison
# ---------------------------------------------------------------------------

def overlap(set_a, set_b) -> float:
    """|a intersect b| / |a|."""
    a, b = set(set_a), set(set_b)
    if not a:
        raise ValueError("set_a must be non-empty")
    return len(a & b) / len(a)


def label_scenes(scenes: Sequence, reports: Sequence[RegretReport],
                 p: float = 20.0, handle: Optional[PlannerHandle] = None,
                 aggregation: str = "mean") -> dict[str, MetricLabeling]:
    """All four metric labelings over one scene batch.

    GRM and RM are read from each scene's regret report under `aggregation`,
    whichever aggregation it was written with; ADE from logged predictions;
    TRFD from the anticipated-reward quantile test at the same p.
    """
    if aggregation not in ("mean", "worst"):
        raise ValueError(f"unknown aggregation {aggregation!r}")
    by_id = {rep.scenario_id: rep for rep in reports}
    grm, rm, ade, trfd = {}, {}, {}, {}
    for scene in scenes:
        sid = scene.scenario_id
        rep = by_id.get(sid)
        if rep is None:
            raise ValueError(f"no regret report for scene {sid}")
        if [t for t, *_ in rep.per_t] != [e.t for e in scene.replan_log]:
            raise ValueError(f"regret report for {sid} has other replan times")
        if aggregation == "mean":
            grm[sid], rm[sid] = rep.mean_regret, rep.canonical_mean
        else:
            grm[sid], rm[sid] = rep.worst_regret, max(rep.canonical_per_t)
        ade[sid] = ade_scene_score(scene)
        trfd[sid] = float(trfd_flag(scene, p, handle))
    return {
        "GRM": MetricLabeling("GRM", grm,
                              mine_top_quantile(sorted(grm.items()), p)),
        "RM": MetricLabeling("RM", rm,
                             mine_top_quantile(sorted(rm.items()), p)),
        "ADE": MetricLabeling("ADE", ade,
                              mine_top_quantile(sorted(ade.items()), p)),
        "TRFD": MetricLabeling("TRFD", trfd,
                               frozenset(s for s, f in trfd.items() if f)),
    }


def overlap_matrix(labelings: Sequence[MetricLabeling]) -> list[list[float]]:
    """Row-normalized pairwise overlaps; rows with nothing mined give 0."""
    out = []
    for a in labelings:
        row = []
        for b in labelings:
            row.append(overlap(a.mined, b.mined) if a.mined else 0.0)
        out.append(row)
    return out


def write_comparison(labelings: dict[str, MetricLabeling], out_dir) -> list[Path]:
    """CSV overlap matrix + JSON mined sets; deterministic file contents."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tags = [t for t in METRICS if t in labelings]
    ordered = [labelings[t] for t in tags]
    mat = overlap_matrix(ordered)
    csv_path = out_dir / "metric_overlaps.csv"
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric"] + tags)
        for tag, row in zip(tags, mat):
            w.writerow([tag] + [f"{v:.6f}" for v in row])
    json_path = out_dir / "mined_sets.json"
    doc = {
        "schema": "comparison/1",
        "metrics": {
            t: {"mined": sorted(labelings[t].mined),
                "scores": {k: labelings[t].scores[k]
                           for k in sorted(labelings[t].scores)}}
            for t in tags
        },
    }
    json_path.write_text(json.dumps(doc, indent=2))
    return [csv_path, json_path]
