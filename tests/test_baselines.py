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
    weighted_quantiles,
    with_inflated_predictions,
    write_comparison,
)
from regret_miner.core import ActionTraj, AgentState, DrivingCorridor, rollout_positions
from regret_miner.planner import PlannerHandle, reward
from regret_miner.predictor import PredictorParams, TablePredictor, ade_fde
from regret_miner.regret import (
    LuceShepard,
    mine_top_quantile,
    reports_from_jsonl,
    reports_to_jsonl,
    score_scene,
)
from regret_miner.simkit import (
    FAMILIES,
    OraclePredictor,
    ScenarioSpec,
    generate_scenario_batch,
    run_closed_loop,
    scene_from_dict,
    scene_to_dict,
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


def _windows_reward(handle, scene):
    """The mean reference reward of the scene's complete executed windows."""
    executed = np.concatenate([seg.actions for seg in scene.executed_robot])
    rewards = []
    for e in scene.replan_log:
        W = len(e.candidates[e.executed_index])
        window = executed[e.t:e.t + W]
        if len(window) == W:
            humans = [ActionTraj(h.actions[e.t:e.t + W], start_t=e.t)
                      for h in scene.human_actions]
            rewards.append(reward(handle, ActionTraj(window, start_t=e.t), humans,
                                  scene.states[e.t], scene.context,
                                  scene.human_radii))
    return float(np.mean(rewards))


@pytest.mark.parametrize("dt", [0.05, 0.2])
def test_ade_and_trfd_read_the_scene_dt(dt):
    """ADE rolls the logged modes out, and TRFD prices the executed
    windows, at the dt the scene records, whatever handle is passed: under
    the oracle ADE stays numerically zero, and the realized reward is the
    reference's at the scene's dt."""
    handle = PlannerHandle(dt=dt)
    for spec in generate_scenario_batch("Intersection", 2, base_seed=19, horizon=40):
        scene = run_closed_loop(spec, handle, OraclePredictor(), 10)
        assert max(scene_prediction_errors(scene)) <= 1e-9
        assert realized_scene_reward(scene, PlannerHandle()) == _windows_reward(handle, scene)


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


def test_ade_of_a_logless_scene_names_it(scenes):
    scene = replace(scenes[2], replan_log=[])
    with pytest.raises(ValueError, match=f"^scene {scene.scenario_id} has no replan log"):
        ade_scene_score(scene)


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


def test_realized_scene_reward_is_the_mean_reference_reward_of_complete_windows(scenes):
    """TRFD's realized side: planner.reward of each executed window against
    the realized humans over the same steps, averaged over the windows the
    scene end does not cut short."""
    handle = PlannerHandle()
    cut_short = 0
    for scene in scenes:
        cut_short += sum(len(scene.states) - 1 - e.t < len(e.candidates[e.executed_index])
                         for e in scene.replan_log)
        assert realized_scene_reward(scene, handle) == _windows_reward(handle, scene)
    assert cut_short > 0
    assert any(len(s.human_actions) == 2 for s in scenes)


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


def _row_quantile(values, weights, q):
    """weighted_quantiles of a one-row block."""
    return float(weighted_quantiles(np.asarray(values, dtype=float)[None],
                                    np.asarray(weights, dtype=float)[None], q)[0])


def test_weighted_quantile_matches_numpy():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        vals = rng.normal(0, 5, n)
        q = float(rng.uniform(0, 1))
        ours = _row_quantile(vals, np.ones(n), q)
        want = np.quantile(vals, q, method="inverted_cdf")
        assert ours == pytest.approx(want, abs=1e-12)
    # monotone in q
    vals = rng.normal(0, 1, 30)
    w = rng.uniform(0.1, 2.0, 30)
    prev = -np.inf
    for q in np.linspace(0, 1, 21):
        cur = _row_quantile(vals, w, q)
        assert cur >= prev
        prev = cur


@pytest.fixture(scope="module")
def table_scenes():
    """One scene per family under the untrained table predictor at 2 modes:
    nonzero ADE, and 4 reward samples per window where 2 humans move."""
    out = []
    for family in FAMILIES:
        spec = generate_scenario_batch(family, 1, base_seed=4, horizon=40)[0]
        out.append(run_closed_loop(spec, PlannerHandle(n_modes=2),
                                   TablePredictor(PredictorParams.fresh()), 10))
    return out


def _reference_prediction_errors(scene):
    """scene_prediction_errors with one scalar rollout_positions per
    (replan, human) pair."""
    ades, fdes = [], []
    for e, seg in zip(scene.replan_log, scene.executed_robot):
        joint = scene.states[e.t]
        for i, modes in enumerate(e.predicted_humans.humans):
            best = max(modes, key=lambda m: m.prob)
            pred_xy = rollout_positions(joint.humans[i], best.traj, scene.dt)
            true_xy = scene.states.block[e.t + 1:e.t + 1 + len(best.traj), 1 + i, :2]
            L = min(len(pred_xy), len(true_xy), len(seg))
            if L >= 1:
                a, f = ade_fde(pred_xy[:L], true_xy[:L])
                ades.append(a)
                fdes.append(f)
    return (float(np.mean(ades)), float(np.mean(fdes))) if ades else (0.0, 0.0)


def test_ade_batch_equals_one_rollout_per_pair(scenes, table_scenes):
    """One rollout batch per distinct mode length gives the floats of one
    scalar rollout per (replan, human) pair, before and after decode, with
    modes of two lengths in one scene too."""
    mixed = scene_from_dict(*scene_to_dict(table_scenes[2]))
    for e in mixed.replan_log[::2]:
        for h in e.predicted_humans.humans:
            for m in h:
                object.__setattr__(m, "traj", ActionTraj(m.traj.actions[:-7],
                                                         start_t=m.traj.start_t))
    assert len({len(m.traj) for e in mixed.replan_log
                for h in e.predicted_humans.humans for m in h}) == 2
    nonzero = 0
    for scene in [*scenes, *table_scenes, mixed]:
        for s in (scene, scene_from_dict(*scene_to_dict(scene))):
            got = scene_prediction_errors(s)
            assert [v.hex() for v in got] == \
                [v.hex() for v in _reference_prediction_errors(s)]
        nonzero += got[0] > 0.0
    assert nonzero >= 3


def _reference_quantile(values, weights, q):
    """A window's quantile arithmetic: searchsorted on the
    normalized cumulative weight of the stably sorted values."""
    v, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / w.sum()
    return float(v[order[min(int(np.searchsorted(cum, q, side="left")), v.size - 1)]])


def test_row_quantiles_equal_weighted_quantile_per_window():
    """Ties, zero weights and q at the exact cumulative steps: each row of
    weighted_quantiles is that row's one-row block, and both
    equal the per-window searchsorted arithmetic."""
    rng = np.random.default_rng(22)
    for _ in range(200):
        W, n = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        values = rng.integers(-2, 3, (W, n)).astype(float) * 0.5
        if rng.random() < 0.5:
            values += rng.normal(0.0, 1.0, (W, n))
        weights = rng.choice([0.0, 0.25, 1.0, 1.0 / 3.0, 2.0], (W, n))
        weights[:, int(rng.integers(n))] += 1.0
        for q in (0.0, 1.0, 0.2, float(rng.uniform()), 1.0 / n, 0.5):
            rows = weighted_quantiles(values, weights, q)
            assert rows.shape == (W,)
            assert [v.hex() for v in rows.tolist()] == \
                [_row_quantile(v, w, q).hex() for v, w in zip(values, weights)]
            assert [v.hex() for v in rows.tolist()] == \
                [_reference_quantile(v, w, q).hex() for v, w in zip(values, weights)]


def _reference_threshold(scene, p):
    """trfd_flag's threshold with one one-row quantile per window."""
    from regret_miner.baselines import TRFD_SLACK, _executed_windows

    qs = [_row_quantile([r for r, _ in e.predicted_reward_samples],
                            [w for _, w in e.predicted_reward_samples], p / 100.0)
          for e, _ in _executed_windows(scene)]
    return float(np.mean(qs)) - TRFD_SLACK


def test_trfd_row_quantiles_equal_one_quantile_per_window(table_scenes):
    """On 2-mode scenes (4 samples per window where 2 humans move), and with
    every other window cut to fewer samples, the flag equals the
    per-window reference at offsets that put the threshold a few ulps either
    side of the realized reward."""
    cut = replace(table_scenes[1], replan_log=[
        replace(e, predicted_reward_samples=e.predicted_reward_samples[:3 - k % 2 * 2])
        for k, e in enumerate(table_scenes[1].replan_log)])
    assert any(len(e.predicted_reward_samples) == 4
               for s in table_scenes for e in s.replan_log)
    flags = set()
    for scene in [*table_scenes, cut]:
        realized = realized_scene_reward(scene)
        for p in (10.0, 50.0, 90.0):
            edge = realized - _reference_threshold(scene, p)
            for off in (0.0, edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
                        edge + 1e-12, edge - 1e-12):
                doctored = with_inflated_predictions(scene, float(off))
                flag = trfd_flag(doctored, p)
                assert flag == (realized < _reference_threshold(doctored, p))
                flags.add(flag)
    assert flags == {True, False}


@pytest.mark.parametrize("values, weights", [
    ([1.0, 2.0], [float("nan"), 1.0]),
    ([float("nan"), 2.0], [1.0, 1.0]),
    ([1.0, 2.0], [float("inf"), 1.0]),
    ([float("inf"), 2.0], [1.0, 1.0]),
], ids=["nan-weight", "nan-value", "inf-weight", "inf-value"])
def test_quantiles_reject_non_finite_inputs(values, weights, scenes):
    with pytest.raises(ValueError, match="values and weights must be finite"):
        _row_quantile(values, weights, 0.5)
    with pytest.raises(ValueError, match="values and weights must be finite"):
        weighted_quantiles([values, [0.0, 1.0]], [weights, [1.0, 1.0]], 0.5)
    # A scene with one such logged reward sample fails TRFD, the row path.
    scene = scenes[0]
    e = scene.replan_log[0]
    bad = [(values[0], weights[0])] + list(e.predicted_reward_samples[1:])
    doctored = replace(scene, replan_log=[replace(e, predicted_reward_samples=bad),
                                          *scene.replan_log[1:]])
    with pytest.raises(ValueError, match="values and weights must be finite"):
        trfd_flag(doctored, 20.0)


def test_weighted_quantile_validation():
    with pytest.raises(ValueError):
        _row_quantile([], [], 0.5)
    with pytest.raises(ValueError):
        _row_quantile([1.0], [-1.0], 0.5)
    with pytest.raises(ValueError):
        _row_quantile([1.0], [1.0], 1.5)
    with pytest.raises(ValueError):
        _row_quantile([1.0, 2.0], [1.0], 0.5)


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
    """GRM and RM are the mean or the worst case of each report's
    per-replan regrets, as requested, also after a reports.jsonl round
    trip."""
    reports = [score_scene(LuceShepard(), s) for s in scenes]
    want = {"mean": {r.scenario_id: (r.mean_regret, float(np.mean(r.canonical_per_t)))
                     for r in reports},
            "worst": {r.scenario_id: (r.worst_regret, max(r.canonical_per_t))
                      for r in reports}}
    path = tmp_path / "reports.jsonl"
    reports_to_jsonl(path, reports)
    for reps in (reports, reports_from_jsonl(path)):
        for agg in ("mean", "worst"):
            labs = label_scenes(scenes, reps, p=34.0, aggregation=agg)
            for sid, (grm, rm) in want[agg].items():
                assert labs["GRM"].scores[sid] == grm
                assert labs["RM"].scores[sid] == rm


def test_label_scenes_rejects_bad_reports(scenes, reports):
    with pytest.raises(ValueError, match="no regret report"):
        label_scenes(scenes, reports[1:], p=34.0)
    cut = replace(reports[2], per_t=reports[2].per_t[:-1],
                  canonical_per_t=reports[2].canonical_per_t[:-1])
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
