import json
import math

import numpy as np
import pytest
import yaml

from regret_miner import harness
from regret_miner.core import RngStream
from regret_miner.harness import (
    ALL_METRICS,
    ARMS,
    CaseStudyReport,
    ExperimentConfig,
    Subsets,
    build_subsets,
    config_from_yaml,
    config_to_yaml,
    deploy,
    finetune_and_redeploy,
    finetune_params,
    load_deployment,
    read_case_csv,
    report,
    score_deployment,
    write_case_csv,
    write_case_markdown,
    write_regret_histogram,
)
from regret_miner.predictor import PredictorParams


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(families=())
    with pytest.raises(ValueError):
        ExperimentConfig(families=(("Zeppelin", 4),))
    with pytest.raises(ValueError):
        ExperimentConfig(families=(("StrandedTruck", 0),))
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(p=100.0)
    with pytest.raises(ValueError):
        ExperimentConfig(holdout_frac=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(finetune_lambda=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(aggregation="max")
    with pytest.raises(ValueError):
        ExperimentConfig(replan_every=0)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"familys": []})


def test_config_yaml_round_trip(tmp_path):
    config = ExperimentConfig(families=(("StrandedTruck", 3),), seeds=(5, 6),
                              p=25.0, planner={"horizon": 20},
                              weights={"w_col": -8.0})
    path = config_to_yaml(config, tmp_path / "config.yaml")
    back = config_from_yaml(path)
    assert back.to_dict() == config.to_dict()
    assert back.config_hash() == config.config_hash()
    # the hash tracks content, not object identity
    other = ExperimentConfig(families=(("StrandedTruck", 3),), seeds=(5, 7),
                             p=25.0, planner={"horizon": 20},
                             weights={"w_col": -8.0})
    assert other.config_hash() != config.config_hash()


@pytest.mark.parametrize("config", [
    ExperimentConfig(),
    ExperimentConfig(planner={"horizon": 20, "accel_levels": [-2.0, 0.0]},
                     weights={"w_col": -8.0},
                     predictor={"smoothing": 2.0, "yield_radius": 6.0}),
])
def test_libyaml_and_pure_python_loaders_agree(config, tmp_path, monkeypatch):
    if yaml.__with_libyaml__:
        assert harness._YAML_LOADER is yaml.CSafeLoader
    path = config_to_yaml(config, tmp_path / "config.yaml")
    loaders = [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)]
    loaded = []
    for loader in loaders:
        monkeypatch.setattr(harness, "_YAML_LOADER", loader)
        loaded.append(config_from_yaml(path))
    assert loaded == [config, config]


def test_config_helpers():
    config = ExperimentConfig(planner={"horizon": 20, "accel_levels": [-2, 0]},
                              weights={"w_col": -8.0},
                              predictor={"smoothing": 2.0, "yield_radius": 6.0})
    handle = config.planner_handle()
    assert handle.horizon == 20
    assert handle.accel_levels == (-2, 0)
    assert handle.weights.w_col == -8.0
    params = config.fresh_predictor()
    assert params.smoothing == 2.0
    assert config.fit_kwargs() == {"yield_radius": 6.0}
    assert config.n_scenarios() == 96


def _synthetic_scores(n=96):
    ids = [f"scene-{i:03d}" for i in range(n)]
    return ids, {sid: i / 100.0 for i, sid in enumerate(ids)}


def test_build_subsets_sizes_and_determinism():
    ids, scores = _synthetic_scores()
    rng = RngStream(5, 31)
    subs = build_subsets(ids, scores, 20.0, 0.2, rng)
    assert len(subs.holdout_high) == 4
    assert len(subs.holdout_low) == 16
    assert len(subs.pool_high) == 16
    assert len(subs.pool_low) == 16
    assert len(subs.pool_random) == 16
    assert len(subs.pool_all) == 76
    mined = {f"scene-{i:03d}" for i in range(76, 96)}
    assert subs.holdout_high <= mined
    assert subs.pool_high == mined - subs.holdout_high
    assert subs.pool_random <= subs.pool_all
    again = build_subsets(ids, scores, 20.0, 0.2, RngStream(5, 31))
    assert again == subs


def test_build_subsets_pool_low_is_lowest_scoring():
    ids, scores = _synthetic_scores()
    subs = build_subsets(ids, scores, 20.0, 0.2, RngStream(5, 31))
    low = [i for i in ids if i not in
           {f"scene-{i:03d}" for i in range(76, 96)} | set(subs.holdout_low)]
    manual = set(sorted(low, key=lambda i: (scores[i], i))[:len(subs.pool_high)])
    assert subs.pool_low == manual


def test_build_subsets_validation():
    ids, scores = _synthetic_scores(10)
    incomplete = dict(scores)
    del incomplete[ids[3]]
    with pytest.raises(ValueError):
        build_subsets(ids, incomplete, 20.0, 0.2, RngStream(0))


def test_subsets_dict_round_trip():
    subs = Subsets(holdout_high=frozenset({"a"}), holdout_low=frozenset({"b"}),
                   pool_high=frozenset({"c"}), pool_low=frozenset({"d"}),
                   pool_random=frozenset({"c"}), pool_all=frozenset({"c", "d"}))
    doc = subs.to_dict()
    assert doc["schema"] == "subsets/1"
    assert Subsets.from_dict(doc) == subs
    with pytest.raises(ValueError):
        Subsets.from_dict({**doc, "schema": "subsets/2"})
    with pytest.raises(ValueError):
        Subsets(holdout_high=frozenset({"a"}), holdout_low=frozenset({"b"}),
                pool_high=frozenset({"a"}), pool_low=frozenset({"d"}),
                pool_random=frozenset({"a"}), pool_all=frozenset({"a", "d"}))
    with pytest.raises(ValueError):
        Subsets(holdout_high=frozenset({"a"}), holdout_low=frozenset({"b"}),
                pool_high=frozenset({"c"}), pool_low=frozenset({"d"}),
                pool_random=frozenset({"e"}), pool_all=frozenset({"c", "d"}))


def _cell(costs, frames):
    total = sum(costs.values())
    return {
        "collision_cost": total / len(costs),
        "collision_severity": total / frames if frames else 0.0,
        "mean_regret": 0.01 * (1 + frames),
        "ade": 0.1,
        "fde": 0.2,
        "collision_frames": frames,
        "per_scene_collision_cost": dict(costs),
    }


def _handmade_report():
    return CaseStudyReport(
        seeds=(1, 2),
        values={
            "Base": {
                "high": [_cell({"a": 10.0, "b": 0.0}, 5),
                         _cell({"a": 12.0, "b": 0.0}, 6)],
                "low": [_cell({"c": 0.0}, 0), _cell({"c": 0.0}, 0)],
            },
            "HighRegretFT": {
                "high": [_cell({"a": 0.0, "b": 0.0}, 0),
                         _cell({"a": 2.0, "b": 0.0}, 1)],
                "low": [_cell({"c": 0.0}, 0), _cell({"c": 0.0}, 0)],
            },
        },
    )


def test_case_report_consistency_checks():
    rep = _handmade_report()
    # severity: 10 cost over 5 frames -> 2.0; zero frames -> 0
    assert rep.values["Base"]["high"][0]["collision_severity"] == 2.0
    assert rep.values["Base"]["low"][0]["collision_severity"] == 0.0
    bad = _cell({"a": 10.0}, 5)
    bad["collision_severity"] = 3.0
    with pytest.raises(ValueError):
        CaseStudyReport(seeds=(1,), values={"Base": {"high": [bad]}})
    bad2 = _cell({"a": 10.0}, 5)
    bad2["collision_cost"] = 99.0
    with pytest.raises(ValueError):
        CaseStudyReport(seeds=(1,), values={"Base": {"high": [bad2]}})
    with pytest.raises(ValueError):
        CaseStudyReport(seeds=(1, 2), values={"Base": {"high": [_cell({"a": 0.0}, 0)]}})


def test_case_report_aggregation():
    rep = _handmade_report()
    vals = rep.metric_over_seeds("Base", "high", "collision_cost")
    assert vals == [5.0, 6.0]
    mean, sd = rep.aggregate("Base", "high", "collision_cost")
    assert mean == pytest.approx(np.mean(vals), abs=1e-12)
    assert sd == pytest.approx(np.std(vals, ddof=1), abs=1e-12)
    pooled = rep.pooled_scene_costs("Base", "high")
    assert pooled == [10.0, 0.0, 12.0, 0.0]  # sorted ids per seed, seeds concatenated
    assert rep.median_collision_cost("Base", "high") == 5.0
    assert rep.median_collision_cost("HighRegretFT", "high") == 0.0


def test_case_report_dict_round_trip():
    rep = _handmade_report()
    doc = rep.to_dict()
    assert doc["schema"] == "casestudy/1"
    back = CaseStudyReport.from_dict(json.loads(json.dumps(doc)))
    assert back.seeds == rep.seeds
    assert back.values == rep.values
    with pytest.raises(ValueError):
        CaseStudyReport.from_dict({"schema": "casestudy/2"})


def test_case_csv_round_trip(tmp_path):
    rep = _handmade_report()
    path = write_case_csv(rep, tmp_path / "case.csv")
    table = read_case_csv(path)
    for arm, by_split in rep.values.items():
        for split, cells in by_split.items():
            for seed, cell in zip(rep.seeds, cells):
                for metric in ALL_METRICS:
                    assert table[(arm, split, seed, metric)] == pytest.approx(
                        cell[metric], abs=1e-9)


def test_case_markdown(tmp_path):
    rep = _handmade_report()
    path = write_case_markdown(rep, tmp_path / "case.md")
    text = path.read_text()
    assert "| arm | split | collision cost | collision severity | mean regret |" in text
    assert text.count("| Base |") == 4  # two splits in each of two tables
    assert text.count("| HighRegretFT |") == 4
    assert "±" in text


def test_regret_histogram(tmp_path):
    rng = np.random.default_rng(3)
    scores = {f"s{i:02d}": float(v) for i, v in enumerate(rng.uniform(0, 0.5, 30))}
    path = write_regret_histogram(scores, 20.0, tmp_path / "hist.svg", bins=12)
    text = path.read_text()
    assert text.count("<rect") == 13  # backdrop + one bar per bin
    assert "mine threshold" in text
    assert "stroke-dasharray" in text
    counts, _ = np.histogram(np.array(sorted(scores.values())), bins=12)
    assert counts.sum() == 30
    with pytest.raises(ValueError):
        write_regret_histogram({}, 20.0, tmp_path / "empty.svg")


def test_report_dispatch(tmp_path):
    rep = _handmade_report()
    scores = {f"s{i}": i / 10 for i in range(10)}
    paths = report(rep, ("md", "csv", "svg"), tmp_path, scores=scores, p=20.0)
    assert sorted(p.name for p in paths) == ["case_study.csv", "case_study.md",
                                             "regret_hist.svg"]
    with pytest.raises(ValueError):
        report(rep, ("pdf",), tmp_path)
    with pytest.raises(ValueError):
        report(None, ("md",), tmp_path)
    with pytest.raises(ValueError):
        report(rep, ("svg",), tmp_path, scores=None)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    config = ExperimentConfig(
        families=(("StrandedTruck", 4), ("SparseCruise", 4)),
        base_seed=5, seeds=(11, 22), p=25.0, holdout_frac=0.25,
        planner={"horizon": 20}, out_dir="unused")
    out = tmp_path_factory.mktemp("deploy")
    scenes, paths = deploy(config, PredictorParams.fresh(), out)
    return config, scenes, paths, out


def test_deploy_artifacts(small_run):
    config, scenes, paths, out = small_run
    assert len(scenes) == 8
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["schema"] == "manifest/1"
    assert manifest["n_scenes"] == 8
    assert manifest["config_hash"] == config.config_hash()
    doc = json.loads(paths["scenarios"].read_text())
    assert doc["schema"] == "scenarios/1"
    assert len(doc["scenarios"]) == 8
    loaded_config, loaded_scenes, specs_by_id, params = load_deployment(out)
    assert loaded_config.config_hash() == config.config_hash()
    assert len(loaded_scenes) == 8
    assert set(specs_by_id) == {s.scenario_id for s in scenes}
    np.testing.assert_array_equal(params.counts, PredictorParams.fresh().counts)


def test_score_deployment_keeps_scene_order(small_run):
    config, scenes, _, _ = small_run
    for order in (scenes, scenes[::-1]):
        _, reports = score_deployment(order, config)
        assert [r.scenario_id for r in reports] == [s.scenario_id for s in order]


def test_finetune_chain_on_small_run(small_run):
    config, scenes, _, _ = small_run
    scores, reports = score_deployment(scenes, config)
    assert set(scores) == {s.scenario_id for s in scenes}
    for rep in reports:
        assert rep.score == scores[rep.scenario_id]
    subsets = build_subsets(sorted(scores), scores, config.p,
                            config.holdout_frac, RngStream(config.base_seed, 31))
    assert len(subsets.holdout_high) == 1
    assert len(subsets.holdout_low) == 2
    scenes_by_id = {s.scenario_id: s for s in scenes}
    base = PredictorParams.fresh()
    assert finetune_params("Base", config, base, subsets, scenes_by_id, 11) is base
    ft1 = finetune_params("HighRegretFT", config, base, subsets, scenes_by_id, 11)
    ft2 = finetune_params("HighRegretFT", config, base, subsets, scenes_by_id, 11)
    np.testing.assert_array_equal(ft1.counts, ft2.counts)
    assert ft1.counts.sum() > 0


def test_finetune_and_redeploy_shape(small_run):
    config, scenes, _, out = small_run
    scores, _ = score_deployment(scenes, config)
    subsets = build_subsets(sorted(scores), scores, config.p,
                            config.holdout_frac, RngStream(config.base_seed, 31))
    _, _, specs_by_id, _ = load_deployment(out)
    scenes_by_id = {s.scenario_id: s for s in scenes}
    case = finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets,
                                 PredictorParams.fresh(),
                                 arms=("Base", "HighRegretFT"))
    assert set(case.values) == {"Base", "HighRegretFT"}
    for arm in case.values:
        for split in ("high", "low"):
            assert len(case.values[arm][split]) == 2
    # Base is seed-independent: its per-seed cells are identical
    assert case.values["Base"]["high"][0] == case.values["Base"]["high"][1]
    with pytest.raises(ValueError):
        finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets,
                              PredictorParams.fresh(), arms=("Sideways",))
