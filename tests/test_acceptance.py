"""Shipping gate: one test per release criterion.

Each test is self-contained, seeded, and asserts its own wall-clock budget, so
`pytest -v tests/test_acceptance.py` reads as a twelve-line pass/fail report.
The heavy closed-loop criteria (05-07, 12) dominate the runtime; everything
else is seconds.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import norm

from regret_miner.baselines import trfd_flag, with_inflated_predictions
from regret_miner.core import RngStream
from regret_miner.genplan import (
    SensorModel,
    build_mismatch_scenarios,
    fit_codebook,
    generate_nav_dataset,
    kde_window_mass,
    perception_case_study,
)
from regret_miner.harness import (
    ExperimentConfig,
    _SUBSET_STREAM,
    build_subsets,
    deploy,
    finetune_and_redeploy,
    load_deployment,
    pretrain_predictor,
    run_full_pipeline,
    score_deployment,
)
from regret_miner.planner import PlannerHandle, reward
from regret_miner.regret import (
    LuceShepard,
    _realized_human_segment,
    build_calibration_pair,
    canonical_from_rewards,
    generalized_from_rewards,
    luce_shepard_likelihoods,
    mine_top_quantile,
    score_scene,
    softmax_likelihoods,
)
from regret_miner.simkit import (
    OraclePredictor,
    generate_scenario_batch,
    replay_max_deviation,
    run_closed_loop,
)

FAMILIES_4 = ("StrandedTruck", "StoppedTraffic", "Intersection", "SparseCruise")


def _oracle_batch(per_family: int, base_seed: int) -> list:
    scenes = []
    for fam in FAMILIES_4:
        for spec in generate_scenario_batch(fam, per_family, base_seed=base_seed):
            scenes.append(run_closed_loop(spec, PlannerHandle(),
                                          OraclePredictor(), 10))
    return scenes


def test_criterion_01_likelihood_exactness():
    """Likelihoods match a brute-force unshifted softmax to 1e-12 and sum
    to one, both on raw reward vectors and on logged candidate sets."""
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        r = rng.uniform(-500.0, 500.0, n)
        got = softmax_likelihoods(r)
        e = np.exp(r)
        brute = e / e.sum()
        assert np.all(np.isfinite(brute))
        assert np.max(np.abs(got - brute)) < 1e-12
        assert abs(got.sum() - 1.0) < 1e-9

    # the same exactness end to end: likelihoods of logged candidate sets
    # against realized human behavior, oracle = rewards recomputed by hand
    n_sets = 0
    for fam in ("Intersection", "SparseCruise"):
        for spec in generate_scenario_batch(fam, 3, base_seed=41, horizon=40):
            scene = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
            handle = PlannerHandle()
            radii = scene.human_radii
            for e in scene.replan_log:
                T = len(e.candidates[e.executed_index])
                joint = scene.states[e.t]
                humans = []
                for i in range(len(joint.humans)):
                    h = _realized_human_segment(scene, i, e.t, T)
                    if h is not None:
                        humans.append(h)
                got = luce_shepard_likelihoods(handle.weights, e.candidates,
                                               humans, joint, scene.context,
                                               radii, scene.dt)
                rewards = np.array([
                    reward(handle, cand, humans, joint, scene.context, radii)
                    for cand in e.candidates
                ])
                exp_r = np.exp(rewards)
                brute = exp_r / exp_r.sum()
                assert np.max(np.abs(got - brute)) < 1e-12
                assert abs(got.sum() - 1.0) < 1e-9
                n_sets += 1
    assert n_sets >= 20
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_regret_invariants():
    """Bounds, zero-iff-argmax, shift invariance, exact canonical scaling,
    and a scale-stable mined set, over 10,000 randomized candidate sets.

    Sets are drawn with one dominant reward gap (all but the best and the
    executed candidate at least 40 below), the regime where which scenes get
    mined must not depend on the reward units."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260818)
    sets = []
    for i in range(10_000):
        n = int(rng.integers(2, 21))
        base = rng.uniform(-200.0, 200.0)
        gap = rng.uniform(0.05, 6.0)
        r = np.full(n, base) - 40.0 - rng.uniform(0.0, 50.0, n)
        slots = rng.permutation(n)[:2]
        r[slots[0]] = base + gap
        r[slots[1]] = base
        executed = int(slots[0]) if rng.uniform() < 0.5 else int(slots[1])
        sets.append((f"set-{i:05d}", r, executed))

    scores, scaled_scores = [], []
    for sid, r, idx in sets:
        g = generalized_from_rewards(r, idx)
        assert 0.0 <= g <= 1.0
        assert (g == 0.0) == (idx == int(np.argmax(r)))
        g_shift = generalized_from_rewards(r + 123.456, idx)
        assert abs(g_shift - g) <= 1e-9
        c = canonical_from_rewards(r, idx)
        assert canonical_from_rewards(2.0 * r, idx) == 2.0 * c
        scores.append((sid, g))
        scaled_scores.append((sid, generalized_from_rewards(2.0 * r, idx)))

    mined = mine_top_quantile(scores, 20.0)
    assert mine_top_quantile(scaled_scores, 20.0) == mined
    assert len(mined) == 2000
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_calibration_separation():
    """The canonical metric rates the two calibration scenes as near-equal
    failures; the likelihood metric separates them by >= 1.5x."""
    t0 = time.monotonic()
    scene_a, scene_b, canon, gen = build_calibration_pair()
    assert abs(canon[0] - canon[1]) <= 0.05 * max(canon)
    assert gen[0] > gen[1]
    assert gen[0] / gen[1] >= 1.5
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_mining_convention():
    """96 scored scenes at p=20 flag exactly 20; the flagged set always equals
    the sort-oracle top-k under the (-score, id) tie rule."""
    t0 = time.monotonic()
    rng = np.random.default_rng(96)
    pairs = [(f"scene-{i:03d}", float(rng.uniform())) for i in range(96)]
    assert len(mine_top_quantile(pairs, 20.0)) == 20

    for _ in range(1000):
        n = int(rng.integers(1, 121))
        # coarse score pool so duplicate scores are common
        pairs = [(f"s{i:03d}", float(rng.integers(0, 7)) / 4.0)
                 for i in range(n)]
        p = float(rng.uniform(0.5, 99.5))
        k = math.ceil(n * p / 100.0)
        oracle = {sid for sid, _ in
                  sorted(pairs, key=lambda kv: (-kv[1], kv[0]))[:k]}
        got = mine_top_quantile(pairs, p)
        assert len(got) == k
        assert got == oracle
    assert time.monotonic() - t0 < 5.0


def test_criterion_05_oracle_predictor_sanity():
    """A ground-truth-future predictor drives 24 closed-loop scenes with mean
    generalized regret < 0.02 and zero collision frames."""
    t0 = time.monotonic()
    scenes = _oracle_batch(per_family=6, base_seed=2024)
    assert len(scenes) == 24
    regrets = [score_scene(LuceShepard(), s).mean_regret for s in scenes]
    assert float(np.mean(regrets)) < 0.02
    assert sum(s.collision_frames for s in scenes) == 0
    assert time.monotonic() - t0 < 120.0


def test_criterion_06_reward_anomaly_degeneracy():
    """Inflating anticipated rewards by a constant flags all 48 scenes, while
    the same scenes under the ground-truth-future predictor stay at or below
    the p% base rate."""
    t0 = time.monotonic()
    scenes = _oracle_batch(per_family=12, base_seed=77)
    assert len(scenes) == 48
    inflated = [trfd_flag(with_inflated_predictions(s, 50.0), 20.0)
                for s in scenes]
    assert all(inflated)
    base_rate = float(np.mean([trfd_flag(s, 20.0) for s in scenes]))
    assert base_rate <= 0.20
    assert time.monotonic() - t0 < 180.0


def test_criterion_07_case_study_ordering(tmp_path):
    """Fine-tuning on mined high-regret scenes beats both the base predictor
    and low-regret fine-tuning on the high-regret holdout, without degrading
    the low-regret holdout."""
    t0 = time.monotonic()
    config = ExperimentConfig(out_dir=str(tmp_path / "case-study"))
    base_params = pretrain_predictor(config)
    scenes, _ = deploy(config, base_params, tmp_path / "case-study")
    scores, _ = score_deployment(scenes, config)
    subsets = build_subsets([s.scenario_id for s in scenes], scores, config.p,
                            config.holdout_frac,
                            RngStream(config.base_seed, _SUBSET_STREAM))
    scenes_by_id = {s.scenario_id: s for s in scenes}
    specs_by_id = {}
    for fam, n in config.families:
        for spec in generate_scenario_batch(fam, n, config.base_seed):
            specs_by_id[spec.scenario_id] = spec
    case = finetune_and_redeploy(
        config, scenes_by_id, specs_by_id, subsets, base_params,
        arms=("Base", "HighRegretFT", "LowRegretFT", "AllFT"))

    high_ft = case.median_collision_cost("HighRegretFT", "high")
    assert high_ft < case.median_collision_cost("LowRegretFT", "high")
    assert high_ft < case.median_collision_cost("Base", "high")
    assert case.median_collision_cost("AllFT", "high") <= high_ft

    ft_low = np.array(case.pooled_scene_costs("HighRegretFT", "low"))
    base_low = np.array(case.pooled_scene_costs("Base", "low"))
    n1, n2 = len(ft_low), len(base_low)
    pooled_sd = math.sqrt(((n1 - 1) * ft_low.std(ddof=1) ** 2 +
                           (n2 - 1) * base_low.std(ddof=1) ** 2) /
                          (n1 + n2 - 2))
    assert abs(ft_low.mean() - base_low.mean()) <= pooled_sd
    assert time.monotonic() - t0 < 1200.0


def test_criterion_08_generative_path_ordering():
    """Only the collision-causing misprediction scores high generative regret;
    the nominal and task-irrelevant-misprediction scenarios stay low."""
    t0 = time.monotonic()
    data = generate_nav_dataset(3000, rng=RngStream(0))
    cb = fit_codebook(data, K=6)
    regrets = build_mismatch_scenarios(cb, RngStream(5, 17), n_reps=30)
    assert regrets["collision"] >= 2.0 * regrets["nominal"]
    assert regrets["collision"] >= 2.0 * regrets["irrelevant"]
    assert regrets["nominal"] < 0.15
    assert regrets["irrelevant"] < 0.15
    assert time.monotonic() - t0 < 120.0


def test_criterion_09_kde_window_mass():
    """Window mass agrees with grid quadrature of the same kernel density to
    1e-6, and with the closed form to 1e-12 for a single sample."""
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = int(rng.integers(1, 41))
        samples = np.concatenate([rng.uniform(-1.5, 1.5, (m + 1) // 2),
                                  rng.normal(0.0, 0.3, m // 2)])
        h = float(rng.uniform(0.03, 0.5))
        c = float(rng.uniform(-1.0, 1.0))
        d = float(rng.uniform(0.01, 0.6))
        got = kde_window_mass(samples, h, c, d)
        grid = np.linspace(c - d, c + d, 4001)
        dens = norm.pdf((grid[:, None] - samples[None, :]) / h).mean(axis=1) / h
        assert abs(got - simpson(dens, x=grid)) < 1e-6

    for d, h in ((0.1, 0.05), (0.02, 0.3), (0.4, 0.03)):
        got = kde_window_mass(np.array([0.25]), h, 0.25, d)
        assert abs(got - (2.0 * norm.cdf(d / h) - 1.0)) < 1e-12
    assert time.monotonic() - t0 < 10.0


def test_criterion_10_synthetic_rule_frequencies():
    """30,000 generated episodes hit the human-direction thirds and the 0.8
    yield rate among proximity-triggered cases."""
    t0 = time.monotonic()
    stats = {}
    data = generate_nav_dataset(30_000, rng=RngStream(12), stats=stats)
    classes = np.array([s.outcome_class // 2 for s in data])
    for cls in (0, 1, 2):
        assert abs(float(np.mean(classes == cls)) - 1.0 / 3.0) <= 0.02
    assert stats["triggered"] > 0
    assert abs(stats["yielded"] / stats["triggered"] - 0.8) <= 0.02
    assert time.monotonic() - t0 < 30.0


def test_criterion_11_perception_fault_ordering():
    """Both injected perception faults score strictly higher regret than both
    accurate-perception deployments, which stay below 0.1."""
    t0 = time.monotonic()
    rows = dict(perception_case_study(SensorModel(),
                                      n_samples_per_condition=200,
                                      rng=RngStream(0)))
    accurate = (rows["obstacle-detected"], rows["empty-clear"])
    faulty = (rows["obstacle-missed"], rows["empty-false-alarm"])
    assert min(faulty) > max(accurate)
    assert max(accurate) < 0.1
    assert time.monotonic() - t0 < 120.0


def test_criterion_12_replay_and_determinism(tmp_path):
    """Serialized scenes replay to their logged states within 1e-9, and two
    pipeline runs from the same config differ only in recorded timestamps."""
    t0 = time.monotonic()
    config = ExperimentConfig(
        families=(("StrandedTruck", 4), ("SparseCruise", 8)),
        pretrain_families=(("SparseCruise", 6), ("Intersection", 6)),
        seeds=(101, 202),
        p=25.0,
        holdout_frac=0.25,
        out_dir="runs/replay-check",
    )
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_full_pipeline(config, out_dir=run_a)
    rerun_config = ExperimentConfig.from_dict(config.to_dict())
    run_full_pipeline(rerun_config, out_dir=run_b)

    _, scenes, _, _ = load_deployment(run_a)
    assert len(scenes) == 12
    for scene in scenes:
        assert replay_max_deviation(scene) < 1e-9

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        a, b = run_a / rel, run_b / rel
        if rel.name == "manifest.json":
            da, db = json.loads(a.read_text()), json.loads(b.read_text())
            da.pop("created_utc"), db.pop("created_utc")
            assert da == db
        else:
            assert a.read_bytes() == b.read_bytes(), f"{rel} differs"
    assert time.monotonic() - t0 < 300.0
