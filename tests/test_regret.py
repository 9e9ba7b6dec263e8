import math

import numpy as np
import pytest

from regret_miner.core import ROBOT_RADIUS, ActionTraj, DrivingCorridor, unicycle_rollout
from regret_miner.genplan import N_CUE_BUCKETS, Codebook
from regret_miner.planner import PlannerHandle, RewardWeights
from regret_miner.regret import (
    LuceShepard,
    build_calibration_pair,
    canonical_from_rewards,
    canonical_regret,
    generalized_from_likelihoods,
    generalized_from_rewards,
    generalized_regret_t,
    luce_shepard_likelihoods,
    mine_top_quantile,
    mined_to_doc,
    report_from_dict,
    report_to_dict,
    reports_from_jsonl,
    reports_to_jsonl,
    score_scene,
    softmax_likelihoods,
)
from regret_miner.predictor import PredictorParams, TablePredictor
from regret_miner.simkit import (
    FAMILIES,
    OraclePredictor,
    generate_scenario_batch,
    run_closed_loop,
    scene_from_dict,
    scene_to_dict,
)


def test_softmax_known_values():
    np.testing.assert_allclose(softmax_likelihoods([1.0, 1.0]), [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(softmax_likelihoods([0.0, math.log(3)]),
                               [0.25, 0.75], atol=1e-12)
    r = np.array([2.3, 5.1, -1.0, 0.4])
    brute = np.exp(r) / np.exp(r).sum()
    np.testing.assert_allclose(softmax_likelihoods(r), brute, atol=1e-12)


def test_softmax_extreme_rewards_stable():
    # max-subtraction keeps huge magnitudes finite
    p = softmax_likelihoods([1e6, 1e6 - 3.0])
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        softmax_likelihoods([])
    with pytest.raises(ValueError):
        softmax_likelihoods([[1.0, 2.0]])


def test_canonical_regret_values():
    assert canonical_from_rewards([10.0, 7.0], 1) == 3.0
    assert canonical_from_rewards([10.0, 7.0], 0) == 0.0
    # canonical regret is linear in reward scale
    assert canonical_from_rewards([20.0, 14.0], 1) == 6.0
    with pytest.raises(ValueError):
        canonical_from_rewards([1.0, 2.0], 2)


def test_generalized_regret_values():
    assert generalized_from_likelihoods([0.7, 0.2, 0.1], 2) == pytest.approx(0.6)
    assert generalized_from_likelihoods([0.7, 0.2, 0.1], 0) == 0.0
    r = [1.0, 0.0, -2.0]
    assert generalized_from_rewards(r, 0) == 0.0  # executed the argmax


def test_generalized_shift_invariance():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        r = rng.uniform(-50, 50, n)
        idx = int(rng.integers(0, n))
        base = generalized_from_rewards(r, idx)
        assert 0.0 <= base <= 1.0
        for shift in (-1000.0, -3.0, 7.7, 500.0):
            assert abs(generalized_from_rewards(r + shift, idx) - base) < 1e-9


def test_generalized_zero_iff_argmax():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        r = rng.uniform(-5, 5, n)
        idx = int(rng.integers(0, n))
        g = generalized_from_rewards(r, idx)
        if idx == int(np.argmax(r)):
            assert g == 0.0
        else:
            assert g > 0.0


def test_generalized_monotone_in_executed_reward():
    # worsening only the executed candidate's reward never shrinks regret
    rng = np.random.default_rng(8)
    for _ in range(50):
        r = rng.uniform(-3, 3, 6)
        idx = 2
        prev = -1.0
        for penalty in (0.0, 0.5, 1.0, 2.0, 4.0):
            r2 = r.copy()
            r2[idx] -= penalty
            g = generalized_from_rewards(r2, idx)
            assert g >= prev - 1e-12
            prev = g


def test_luce_shepard_matches_hindsight_softmax():
    specs = generate_scenario_batch("Intersection", 2, base_seed=23, horizon=30)
    for spec in specs:
        scene = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
        entry = scene.replan_log[0]
        T = len(entry.candidates[0])
        realized = [ActionTraj(scene.human_actions[i].actions[:T], start_t=0)
                    for i in range(len(scene.states[0].humans))]
        joint = scene.states[0]
        weights = RewardWeights()
        p = luce_shepard_likelihoods(weights, entry.candidates, realized, joint,
                                     scene.context, scene.radii_or_default())
        handle = PlannerHandle(weights=weights, dt=0.1)
        from regret_miner.planner import reward
        r = [reward(handle, c, realized, joint, scene.context,
                    scene.radii_or_default()) for c in entry.candidates]
        np.testing.assert_allclose(p, softmax_likelihoods(r), atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        g = generalized_regret_t(LuceShepard(weights), entry.candidates,
                                 entry.executed_index, realized, joint,
                                 scene.context, scene.radii_or_default())
        assert g == pytest.approx(float(p.max() - p[entry.executed_index]), abs=1e-12)
        c = canonical_regret(weights, entry.candidates, entry.executed_index,
                             realized, joint, scene.context, scene.radii_or_default())
        assert c == pytest.approx(float(np.max(r) - r[entry.executed_index]), abs=1e-9)


def test_generative_model_rejected_for_corridor_scoring():
    # corridor scenes are scored with the reward-based model only; the
    # generative codebook path has its own entry point, genplan.generative_regret
    spec = generate_scenario_batch("SparseCruise", 1, base_seed=4, horizon=20)[0]
    scene = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    enc = np.ones((N_CUE_BUCKETS, 2, 1))
    cb = Codebook(K=1, encoder=enc, means=np.zeros((1, 12)),
                  stds=np.full((1, 12), 0.1))
    with pytest.raises(TypeError):
        score_scene(cb, scene)


def test_score_scene_report_consistency():
    spec = generate_scenario_batch("StoppedTraffic", 1, base_seed=3, horizon=40)[0]
    scene = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    rep = score_scene(LuceShepard(), scene)
    assert rep.scenario_id == scene.scenario_id
    assert len(rep.per_t) == len(scene.replan_log)
    regrets = [g for (_, _, _, g) in rep.per_t]
    assert rep.mean_regret == pytest.approx(np.mean(regrets), abs=1e-12)
    assert rep.worst_regret == pytest.approx(np.max(regrets), abs=1e-12)
    assert rep.canonical_mean == pytest.approx(np.mean(rep.canonical_per_t), abs=1e-12)
    for (_, exec_lik, max_lik, g) in rep.per_t:
        assert g == pytest.approx(max_lik - exec_lik, abs=1e-12)
        assert 0.0 <= g <= 1.0
    assert rep.score == rep.mean_regret
    worst = score_scene(LuceShepard(), scene, aggregation="worst")
    assert worst.score == worst.worst_regret
    # scoring is pure: same scene, same report
    rep2 = score_scene(LuceShepard(), scene)
    assert rep2.per_t == rep.per_t
    with pytest.raises(ValueError):
        score_scene(LuceShepard(), scene, aggregation="median")


def _reference_report(weights, scene):
    """score_scene's per-replan numbers, one candidate at a time, from the
    per-step AgentState rollout."""
    def xy(state, acts):
        return np.array([[s.x, s.y] for s in unicycle_rollout(state, ActionTraj(acts), 0.1)])

    radii = scene.radii_or_default()
    per_t, canon = [], []
    for e in scene.replan_log:
        joint = scene.states[e.t]
        T = len(e.candidates[0])
        humans = [xy(joint.humans[i], h.actions[e.t:e.t + T])
                  for i, h in enumerate(scene.human_actions) if len(h.actions[e.t:e.t + T])]
        rewards = []
        for cand in e.candidates:
            ego = xy(joint.robot, cand.actions)
            L = min([len(ego)] + [len(h) for h in humans])
            ego = ego[:L]
            if isinstance(scene.context, DrivingCorridor):
                progress = float(ego[-1, 0] - joint.robot.x)
                centers = np.array(scene.context.lane_centers)
                lane = float(np.mean(np.abs(ego[:, 1][:, None] - centers[None, :]).min(axis=1) ** 2))
            else:
                gx, gy = scene.context.goal_primary
                progress = (float(np.hypot(joint.robot.x - gx, joint.robot.y - gy))
                            - float(np.hypot(ego[-1, 0] - gx, ego[-1, 1] - gy)))
                lane = 0.0
            col = 0.0
            for h, r in zip(humans, radii):
                d = np.hypot(ego[:, 0] - h[:L, 0], ego[:, 1] - h[:L, 1])
                col += float(np.maximum(0.0, ROBOT_RADIUS + r - d).sum())
            ctrl = float((cand.actions[:L] ** 2).sum())
            rewards.append(weights.w_progress * progress + weights.w_lane * lane
                           + weights.w_col * col + weights.w_ctrl * ctrl)
        r = np.array(rewards)
        z = np.exp(r - r.max())
        p = z / z.sum()
        k = e.executed_index
        per_t.append((e.t, float(p[k]), float(p.max()), float(p.max() - p[k])))
        canon.append(float(r.max() - r[k]))
    return per_t, canon


@pytest.fixture(scope="module")
def family_scenes():
    out = []
    for family in FAMILIES:
        spec = generate_scenario_batch(family, 1, base_seed=4, horizon=40)[0]
        out.append(run_closed_loop(spec, PlannerHandle(),
                                   TablePredictor(PredictorParams.fresh()), 10))
    return out


def test_score_scene_equals_per_candidate_reference(family_scenes):
    weights = RewardWeights()
    assert any(len(s.states[0].humans) == 2 for s in family_scenes)
    cut_short = 0
    for scene in family_scenes:
        per_t, canon = _reference_report(weights, scene)
        cut_short += sum(len(scene.human_actions[0]) - e.t < len(e.candidates[0])
                         for e in scene.replan_log if scene.human_actions)
        decoded = scene_from_dict(scene_to_dict(scene))
        for s in (scene, decoded):
            rep = score_scene(LuceShepard(weights), s)
            assert rep.per_t == per_t
            assert rep.canonical_per_t == canon
            assert rep.mean_regret == float(np.mean([g for *_, g in per_t]))
            assert rep.canonical_mean == float(np.mean(canon))
    assert cut_short > 0


def test_score_scene_mixed_length_candidates_match_reference(family_scenes):
    # A replan whose candidates differ in length is scored one candidate at a
    # time; the other replans of the scene still share one batch.
    scene = scene_from_dict(scene_to_dict(family_scenes[2]))
    entry = scene.replan_log[1]
    entry.candidates = [ActionTraj(c.actions[:len(c) - 3 * (k % 2)], start_t=c.start_t)
                        for k, c in enumerate(entry.candidates)]
    rep = score_scene(LuceShepard(), scene)
    assert (rep.per_t, rep.canonical_per_t) == _reference_report(RewardWeights(), scene)


def test_mine_top_quantile_sizes():
    scores = [(f"s{i:03d}", float(i)) for i in range(96)]
    flagged = mine_top_quantile(scores, 20.0)
    assert len(flagged) == 20
    assert flagged == {f"s{i:03d}" for i in range(76, 96)}
    ten = [(f"s{i}", float(i)) for i in range(10)]
    assert mine_top_quantile(ten, 20.0) == {"s8", "s9"}
    # ceil: 96 * 1% -> 1 scene, never zero
    assert len(mine_top_quantile(scores, 1.0)) == 1


def test_mine_tie_rule():
    # equal scores resolve by lexicographic id
    scores = [("e", 1.0), ("a", 1.0), ("c", 1.0), ("b", 1.0), ("d", 1.0)]
    assert mine_top_quantile(scores, 40.0) == {"a", "b"}


def test_mine_matches_sort_oracle():
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        vals = np.round(rng.uniform(0, 1, n), 2)  # force ties
        scores = [(f"id{i:02d}", float(v)) for i, v in enumerate(vals)]
        p = float(rng.uniform(1, 99))
        k = math.ceil(n * p / 100.0)
        oracle = [sid for sid, _ in sorted(scores, key=lambda sv: (-sv[1], sv[0]))][:k]
        assert mine_top_quantile(scores, p) == set(oracle)


def test_mine_validation():
    with pytest.raises(ValueError):
        mine_top_quantile([], 20.0)
    with pytest.raises(ValueError):
        mine_top_quantile([("a", 1.0)], 0.0)
    with pytest.raises(ValueError):
        mine_top_quantile([("a", 1.0)], 100.0)


def test_mine_rejects_non_finite_scores():
    # With a NaN among them the flagged set would depend on input order.
    scores = [("a", float("nan")), ("b", 0.5), ("c", 0.1), ("d", 0.9)]
    for order in (scores, [scores[1], scores[0]] + scores[2:]):
        with pytest.raises(ValueError, match=r"\['a'\]"):
            mine_top_quantile(order, 25.0)
    with pytest.raises(ValueError, match=r"\['b', 'c'\]"):
        mine_top_quantile([("a", 0.2), ("c", float("-inf")), ("b", float("inf"))], 50.0)


def test_calibration_pair_separates_the_scores():
    scene_a, scene_b, canon, gen = build_calibration_pair()
    assert abs(canon[0] - canon[1]) / max(canon) < 0.05
    assert gen[0] / gen[1] >= 1.5
    # direction: concentrated alternatives (A) hurt more in likelihood space
    assert gen[0] > gen[1]
    assert canon[0] == pytest.approx(
        max(scene_a.rewards) - scene_a.rewards[scene_a.executed_index])


def test_report_serialization_round_trip(tmp_path):
    specs = generate_scenario_batch("SparseCruise", 2, base_seed=29, horizon=30)
    reports = [score_scene(LuceShepard(), run_closed_loop(s, PlannerHandle(),
                                                          OraclePredictor(), 10))
               for s in specs]
    path = tmp_path / "reports.jsonl"
    reports_to_jsonl(path, reports)
    assert '"schema": "regret/1"' in path.read_text().splitlines()[0]
    loaded = reports_from_jsonl(path)
    assert len(loaded) == 2
    for orig, back in zip(reports, loaded):
        assert back.scenario_id == orig.scenario_id
        assert back.per_t == orig.per_t
        assert back.mean_regret == orig.mean_regret
        assert back.worst_regret == orig.worst_regret
        assert back.canonical_per_t == orig.canonical_per_t
    with pytest.raises(ValueError):
        report_from_dict({"schema": "regret/9"})
    doc = report_to_dict(reports[0])
    assert doc["schema"] == "regret/1"


def test_mined_doc():
    scores = [("b", 0.9), ("a", 0.9), ("c", 0.1), ("d", 0.5)]
    doc = mined_to_doc(scores, 50.0)
    assert doc["schema"] == "mined/1"
    assert doc["k"] == 2
    assert doc["flagged_ids"] == ["a", "b"]  # ranked, ties by id
    assert doc["p"] == 50.0
