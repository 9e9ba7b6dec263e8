import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from regret_miner.baselines import (
    METRICS,
    MetricLabeling,
    ade_scene_score,
    label_scenes,
    overlap,
    overlap_matrix,
    realized_scene_reward,
    scene_prediction_errors,
    trfd_flag,
    weighted_quantile,
    with_inflated_predictions,
    write_comparison,
)
from regret_miner.core import AgentState, DrivingCorridor
from regret_miner.planner import PlannerHandle
from regret_miner.regret import (
    LuceShepard,
    mine_top_quantile,
    reports_from_jsonl,
    reports_to_jsonl,
    score_scene,
)
from regret_miner.simkit import (
    OraclePredictor,
    ScenarioSpec,
    generate_scenario_batch,
    run_closed_loop,
)

TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)


@pytest.fixture(scope="module")
def scenes():
    out = []
    for fam, n in (("StrandedTruck", 2), ("Intersection", 2), ("SparseCruise", 2)):
        for spec in generate_scenario_batch(fam, n, base_seed=19, horizon=40):
            out.append(run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10))
    return out


@pytest.fixture(scope="module")
def reports(scenes):
    return [score_scene(LuceShepard(), s) for s in scenes]


def test_oracle_ade_near_zero(scenes):
    """The oracle predictor replays the humans' actual future, so the
    most-likely mode displacement error is numerically zero."""
    for scene in scenes:
        ade, fde = scene_prediction_errors(scene)
        assert ade <= 1e-9
        assert fde <= 1e-9


def test_ade_flat_list_averaging(scenes):
    # the scene score is the plain mean over (human, replan) pairs, which we
    # recompute here from the per-pair errors
    from regret_miner.core import rollout_positions
    from regret_miner.predictor import ade_fde

    scene = scenes[2]  # Intersection, has a human
    pairs = []
    for e, seg in zip(scene.replan_log, scene.executed_robot):
        joint = scene.states[e.t]
        for i, modes in enumerate(e.predicted_humans.humans):
            best = max(modes, key=lambda m: m.prob)
            pred_xy = rollout_positions(joint.humans[i], best.traj, 0.1)
            true_rows = []
            for k in range(len(best.traj)):
                idx = e.t + 1 + k
                if idx >= len(scene.states):
                    break
                h = scene.states[idx].humans[i]
                true_rows.append((h.x, h.y))
            true_xy = np.array(true_rows)
            L = min(len(pred_xy), len(true_xy), len(seg))
            if L >= 1:
                pairs.append(ade_fde(pred_xy[:L], true_xy[:L])[0])
    assert ade_scene_score(scene) == pytest.approx(np.mean(pairs), abs=1e-12)


def test_ade_no_humans_warns():
    spec = ScenarioSpec(TWO_LANE, AgentState(0, 0, 0, 8.0), (), horizon=20,
                        seed=1, scenario_id="empty")
    scene = run_closed_loop(spec, PlannerHandle(horizon=10), OraclePredictor(), 10)
    with pytest.warns(UserWarning):
        assert ade_scene_score(scene) == 0.0


def test_trfd_quantile_logic(scenes):
    scene = scenes[0]
    r = realized_scene_reward(scene)
    # anticipated samples straddling the realized reward: not an anomaly at p=20
    low = [(r - 2.0, 1.0), (r - 1.0, 1.0), (r + 1.0, 1.0), (r + 2.0, 1.0),
           (r + 3.0, 1.0)]
    entries = [replace(e, predicted_reward_samples=list(low))
               for e in scene.replan_log]
    doctored = replace(scene, replan_log=entries)
    assert trfd_flag(doctored, 20.0) is False
    # every anticipated sample above the realized reward: flagged
    high = [(r + 1.0 + k, 1.0) for k in range(5)]
    entries = [replace(e, predicted_reward_samples=list(high))
               for e in scene.replan_log]
    assert trfd_flag(replace(scene, replan_log=entries), 20.0) is True


def test_trfd_ignores_benign_speedup_phase():
    # A cruise scene spends its first windows below steady-state reward while
    # the robot gets up to speed.  With per-window anticipated quantiles those
    # transients must not read as an anomaly when predictions are perfect.
    spec = generate_scenario_batch("SparseCruise", 1, base_seed=31)[0]
    scene = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    assert trfd_flag(scene, 20.0) is False


def test_trfd_inflation_monotone(scenes):
    # raising anticipated rewards can only move a scene toward being flagged
    for scene in scenes:
        base = trfd_flag(scene, 20.0)
        inflated = trfd_flag(with_inflated_predictions(scene, 50.0), 20.0)
        assert inflated >= base
        assert inflated is True
    with pytest.raises(ValueError):
        trfd_flag(scenes[0], 0.0)


def test_with_inflated_predictions_shifts_only_samples(scenes):
    scene = scenes[0]
    bumped = with_inflated_predictions(scene, 7.5)
    assert bumped.scenario_id == scene.scenario_id
    for orig, new in zip(scene.replan_log, bumped.replan_log):
        assert new.t == orig.t and new.executed_index == orig.executed_index
        for (r0, w0), (r1, w1) in zip(orig.predicted_reward_samples,
                                      new.predicted_reward_samples):
            assert r1 == pytest.approx(r0 + 7.5)
            assert w1 == w0


def test_weighted_quantile_matches_numpy():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        vals = rng.normal(0, 5, n)
        q = float(rng.uniform(0, 1))
        ours = weighted_quantile(vals, np.ones(n), q)
        want = np.quantile(vals, q, method="inverted_cdf")
        assert ours == pytest.approx(want, abs=1e-12)
    # monotone in q
    vals = rng.normal(0, 1, 30)
    w = rng.uniform(0.1, 2.0, 30)
    prev = -np.inf
    for q in np.linspace(0, 1, 21):
        cur = weighted_quantile(vals, w, q)
        assert cur >= prev
        prev = cur


def test_weighted_quantile_validation():
    with pytest.raises(ValueError):
        weighted_quantile([], [], 0.5)
    with pytest.raises(ValueError):
        weighted_quantile([1.0], [-1.0], 0.5)
    with pytest.raises(ValueError):
        weighted_quantile([1.0], [1.0], 1.5)
    with pytest.raises(ValueError):
        weighted_quantile([1.0, 2.0], [1.0], 0.5)


def test_overlap():
    assert overlap({"a", "b"}, {"a", "b"}) == 1.0
    assert overlap({"a", "b"}, {"c"}) == 0.0
    a = {f"s{i}" for i in range(20)}
    b = {f"s{i}" for i in range(7)} | {"x", "y"}
    assert overlap(a, b) == pytest.approx(0.35)
    with pytest.raises(ValueError):
        overlap(set(), {"a"})


def test_metric_labeling_validation():
    with pytest.raises(ValueError):
        MetricLabeling("XYZ", {"a": 1.0}, {"a"})
    with pytest.raises(ValueError):
        MetricLabeling("GRM", {"a": 1.0}, {"b"})  # mined id never scored


def test_label_scenes_contract(scenes, reports):
    labelings = label_scenes(scenes, reports, p=34.0)
    assert set(labelings) == set(METRICS)
    ids = {s.scenario_id for s in scenes}
    for tag in METRICS:
        lab = labelings[tag]
        assert set(lab.scores) == ids
        assert lab.mined <= ids
    # GRM/RM/ADE mining is exactly top-quantile over the reported scores
    for tag in ("GRM", "RM", "ADE"):
        lab = labelings[tag]
        assert lab.mined == mine_top_quantile(sorted(lab.scores.items()), 34.0)
    # TRFD mined set is the flagged scenes
    trfd = labelings["TRFD"]
    assert trfd.mined == {s for s, f in trfd.scores.items() if f}


def test_label_scenes_reads_either_aggregation(scenes, tmp_path):
    """GRM and RM are score_scene's values under the requested aggregation,
    whichever aggregation the reports were written with, also after a
    reports.jsonl round trip."""
    model = LuceShepard()
    want = {agg: {s.scenario_id: score_scene(model, s, aggregation=agg)
                  for s in scenes} for agg in ("mean", "worst")}
    for written in ("mean", "worst"):
        path = tmp_path / f"{written}.jsonl"
        reports_to_jsonl(path, list(want[written].values()))
        for reps in (list(want[written].values()), reports_from_jsonl(path)):
            for agg in ("mean", "worst"):
                labs = label_scenes(scenes, reps, p=34.0, aggregation=agg)
                for sid, rep in want[agg].items():
                    assert labs["GRM"].scores[sid] == rep.score
                    assert labs["RM"].scores[sid] == (
                        rep.canonical_mean if agg == "mean"
                        else max(rep.canonical_per_t))


def test_label_scenes_rejects_bad_reports(scenes, reports):
    with pytest.raises(ValueError, match="no regret report"):
        label_scenes(scenes, reports[1:], p=34.0)
    cut = replace(reports[2], per_t=reports[2].per_t[:-1])
    with pytest.raises(ValueError, match="replan times"):
        label_scenes(scenes, reports[:2] + [cut] + reports[3:], p=34.0)
    t, el, ml, g = reports[2].per_t[0]
    moved = replace(reports[2], per_t=[(t + 1, el, ml, g)] + reports[2].per_t[1:])
    with pytest.raises(ValueError, match="replan times"):
        label_scenes(scenes, reports[:2] + [moved] + reports[3:], p=34.0)
    with pytest.raises(ValueError, match="aggregation"):
        label_scenes(scenes, reports, p=34.0, aggregation="median")


def test_overlap_matrix_diagonal(scenes, reports):
    labelings = label_scenes(scenes, reports, p=34.0)
    ordered = [labelings[t] for t in ("GRM", "RM", "ADE")]
    mat = overlap_matrix(ordered)
    for i, row in enumerate(mat):
        assert row[i] == 1.0
        for v in row:
            assert 0.0 <= v <= 1.0


def test_write_comparison_files(tmp_path, scenes, reports):
    labelings = label_scenes(scenes, reports, p=34.0)
    paths = write_comparison(labelings, tmp_path)
    assert [p.name for p in paths] == ["metric_overlaps.csv", "mined_sets.json"]
    with open(paths[0]) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["metric"] + list(METRICS)
    assert len(rows) == 1 + len(METRICS)
    for row in rows[1:]:
        for cell in row[1:]:
            assert 0.0 <= float(cell) <= 1.0
    doc = json.loads(paths[1].read_text())
    assert doc["schema"] == "comparison/1"
    assert set(doc["metrics"]) == set(METRICS)
    for tag in METRICS:
        assert doc["metrics"][tag]["mined"] == sorted(labelings[tag].mined)
    # deterministic bytes on rewrite
    before = [p.read_bytes() for p in paths]
    paths2 = write_comparison(labelings, tmp_path)
    assert [p.read_bytes() for p in paths2] == before
