import csv
import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest
import yaml

from regret_miner import harness, simkit
from regret_miner.core import AgentState, RngStream
from regret_miner.harness import (
    ALL_METRICS,
    CaseStudyReport,
    ExperimentConfig,
    Subsets,
    build_subsets,
    cell_metric,
    config_from_yaml,
    config_to_yaml,
    deploy,
    finetune_and_redeploy,
    finetune_params,
    load_deployment,
    report,
    score_deployment,
    write_case_csv,
    write_case_markdown,
    write_regret_histogram,
)
from regret_miner.predictor import (
    BUCKET_SHAPE,
    N_MODES,
    PredictorParams,
    TablePredictor,
    bucket_modes,
    replan_buckets,
)
from redeploy_reference import hexed, reference_case


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


def test_config_refuses_a_family_named_twice():
    # A family's scenes take the ids <family>-<base seed>-000, -001, ..., so
    # a family named twice would deploy the same ids twice.
    with pytest.raises(ValueError, match="^family 'StrandedTruck' is named twice in families$"):
        ExperimentConfig(families=(("SparseCruise", 1), ("StrandedTruck", 2),
                                   ("StrandedTruck", 3)))
    # Pretraining scenes are fitted and never written, so their ids may repeat.
    ExperimentConfig(pretrain_families=(("SparseCruise", 1), ("SparseCruise", 2)))


@pytest.mark.parametrize("kw,message", [(dict(base_seed=-3), "base_seed must be >= 0, got -3"),
                                        (dict(pretrain_seed=-1), "pretrain_seed must be >= 0, got -1"),
                                        (dict(seeds=(101, -2, 303)), "seeds must be >= 0, got -2")])
def test_config_refuses_negative_seeds(kw, message):
    # A negative seed is refused at load, naming its key, not when the
    # first stream is drawn.
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(**kw)


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
                     predictor={"smoothing": 2.0}),
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
                              predictor={"smoothing": 2.0})
    handle = config.planner_handle()
    assert handle.horizon == 20
    assert handle.accel_levels == (-2, 0)
    assert handle.weights.w_col == -8.0
    params = config.fresh_predictor()
    assert params.smoothing == 2.0
    assert config.n_scenarios() == 96
    # The yield label radius is a constant: a predictor key naming it fails at load.
    with pytest.raises(TypeError, match="yield_radius"):
        ExperimentConfig(predictor={"yield_radius": 6.0})


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
    return {
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
    assert cell_metric(rep.values["Base"]["high"][0], "collision_severity") == 2.0
    assert cell_metric(rep.values["Base"]["low"][0], "collision_severity") == 0.0
    # cost: the total over the scenes, summed in the stored order; none -> 0
    assert cell_metric(rep.values["Base"]["high"][0], "collision_cost") == 5.0
    tenths = _cell({"a": 0.1, "b": 0.2, "c": 0.3}, 3)
    assert cell_metric(tenths, "collision_cost") == (0.1 + 0.2 + 0.3) / 3
    assert cell_metric(tenths, "collision_severity") == (0.1 + 0.2 + 0.3) / 3
    assert cell_metric(_cell({}, 0), "collision_cost") == 0.0
    for metric in ("mean_regret", "ade", "fde"):
        assert cell_metric(tenths, metric) == tenths[metric]
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
    assert doc["schema"] == "casestudy/2"
    back = CaseStudyReport.from_dict(json.loads(json.dumps(doc)))
    assert back.seeds == rep.seeds
    assert back.values == rep.values
    # casestudy/1 cells also stored collision_cost and collision_severity.
    with pytest.raises(ValueError, match="unsupported schema 'casestudy/1'"):
        CaseStudyReport.from_dict({**doc, "schema": "casestudy/1"})


def test_case_csv_round_trip(tmp_path):
    rep = _handmade_report()
    path = write_case_csv(rep, tmp_path / "case.csv")
    with open(path) as f:
        table = {(row["arm"], row["split"], int(row["seed"]), row["metric"]):
                 float(row["value"]) for row in csv.DictReader(f)}
    for arm, by_split in rep.values.items():
        for split, cells in by_split.items():
            for seed, cell in zip(rep.seeds, cells):
                for metric in ALL_METRICS:
                    assert table[(arm, split, seed, metric)] == cell_metric(cell, metric)


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
    path = write_regret_histogram(scores, 20.0, tmp_path / "hist.svg")
    text = path.read_text()
    assert text.count("<rect") == 17  # backdrop + one bar per bin
    assert "mine threshold" in text
    assert "stroke-dasharray" in text
    counts, _ = np.histogram(np.array(sorted(scores.values())), bins=16)
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


@pytest.mark.parametrize("change", ["edited", "unrecorded", "missing"])
def test_base_table_is_bound_to_its_deployment(small_run, tmp_path, change):
    # manifest.json records the SHA-256 of predictor_base.json's bytes: a
    # table with one count edited, or a manifest without the digest, is not
    # the table the scenes were deployed with, and a missing table cannot
    # be read. Each names `simulate`.
    _, _, paths, out = small_run
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["predictor_base_sha256"] == \
        hashlib.sha256(paths["predictor_base"].read_bytes()).hexdigest()
    run = shutil.copytree(out, tmp_path / "run")
    base = run / "predictor_base.json"
    if change == "edited":
        doc = json.loads(base.read_text())
        counts = np.array(doc["counts"])
        counts.flat[0] += 1.0
        base.write_text(json.dumps({**doc, "counts": counts.tolist()}))
        error, message = harness.StaleRunError, "is not the table this run was deployed with"
    elif change == "unrecorded":
        del manifest["predictor_base_sha256"]
        (run / "manifest.json").write_text(json.dumps(manifest))
        error, message = harness.StaleRunError, "is not the table this run was deployed with"
    else:
        base.unlink()
        error, message = FileNotFoundError, "not found"
    with pytest.raises(error) as err:
        load_deployment(run)
    assert str(err.value) == f"{base} {message} — run `simulate` first"


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
        assert rep.scores(config.aggregation)[0] == scores[rep.scenario_id]
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
    # Given predictors, nothing is fitted: a missing (arm, seed) is named.
    fitted = {("HighRegretFT", config.seeds[0]): PredictorParams.fresh()}
    with pytest.raises(ValueError, match=f"no fitted predictor for arm 'HighRegretFT' "
                                         f"at seed {config.seeds[1]}"):
        finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets,
                              PredictorParams.fresh(), arms=("Base", "HighRegretFT"),
                              fitted=fitted)


@pytest.fixture(scope="module")
def small_split(small_run):
    config, scenes, _, out = small_run
    scores, _ = score_deployment(scenes, config)
    subsets = build_subsets(sorted(scores), scores, config.p,
                            config.holdout_frac, RngStream(config.base_seed, 31))
    _, _, specs_by_id, _ = load_deployment(out)
    return config, {s.scenario_id: s for s in scenes}, specs_by_id, subsets


def test_base_arm_accepts_its_own_deployment(small_split):
    config, scenes_by_id, specs_by_id, subsets = small_split
    case = finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets,
                                 PredictorParams.fresh(), arms=("Base",))
    for split, ids in (("high", subsets.holdout_high), ("low", subsets.holdout_low)):
        assert sorted(case.values["Base"][split][0]["per_scene_collision_cost"]) == \
            sorted(ids)


def _replace_spec_start(spec):
    r = spec.robot_init
    return dataclasses.replace(spec, robot_init=AgentState(r.x + 0.5, r.y, r.heading, r.speed))


@pytest.mark.parametrize("case, config_change, message", [
    ("missing", {}, "is not in the deployment"),
    ("replan", {"replan_every": 20}, "replan times [0, 10"),
    ("count", {"planner": {"horizon": 20, "accel_levels": [-3.0, 0.0]}},
     "does not have 7 candidates of 20 steps"),
    ("length", {"planner": {"horizon": 30}}, "does not have 13 candidates of 30 steps"),
    ("start", {}, "frame 0 is not the initial state"),
])
def test_base_arm_rejects_a_holdout_that_is_not_this_deployment(
        small_split, case, config_change, message):
    config, scenes_by_id, specs_by_id, subsets = small_split
    config = dataclasses.replace(config, **config_change)
    # A config change fails the first holdout checked; the scene or spec
    # changed here is the last.
    sid = sorted(subsets.holdout_high)[0]
    if case == "missing":
        sid = sorted(subsets.holdout_low)[-1]
        scenes_by_id = {k: v for k, v in scenes_by_id.items() if k != sid}
    if case == "start":
        sid = sorted(subsets.holdout_low)[-1]
        specs_by_id = {**specs_by_id, sid: _replace_spec_start(specs_by_id[sid])}
    with pytest.raises(ValueError) as err:
        finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets,
                              PredictorParams.fresh(), arms=("Base",))
    assert repr(sid) in str(err.value)
    assert message in str(err.value)


class _NoPrediction(TablePredictor):
    """A table predictor that fails every replan, so a closed loop under it
    aborts at t=0 with an empty replan log."""

    def predict(self, joint, *args):
        raise ValueError(f"no prediction at t={joint.t}")


def test_redeploy_of_a_holdout_aborted_at_t0_names_the_scene(small_split, monkeypatch):
    # A holdout that aborts at t=0 keeps its collision cost but has no
    # replan to score: the cell leaves it out of mean_regret, ade and fde
    # and names it under "skipped" with its abort reason. The fitted table's
    # other cruise speed predicts unlike Base's, so no deployed record is
    # reused and every fine-tuned loop runs under the failing predictor.
    config, scenes_by_id, specs_by_id, subsets = small_split
    base = PredictorParams.fresh()
    fitted = {("HighRegretFT", seed): dataclasses.replace(base, cruise_speed=9.0)
              for seed in config.seeds}
    monkeypatch.setattr(harness, "TablePredictor", _NoPrediction)
    case = finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets, base,
                                 arms=("Base", "HighRegretFT"), fitted=fitted)
    for split, ids in (("high", subsets.holdout_high), ("low", subsets.holdout_low)):
        assert all("skipped" not in cell for cell in case.values["Base"][split])
        for cell in case.values["HighRegretFT"][split]:
            assert cell["skipped"] == {sid: "planner failed at t=0: no prediction at t=0"
                                       for sid in sorted(ids)}
            assert sorted(cell["per_scene_collision_cost"]) == sorted(ids)
            assert (cell["mean_regret"], cell["ade"], cell["fde"]) == (0.0, 0.0, 0.0)


def _table(cells, **kw):
    """A fresh table with the given {bucket: mode counts}."""
    counts = np.zeros(BUCKET_SHAPE + (N_MODES,))
    for bucket, row in cells.items():
        counts[bucket] = row
    return PredictorParams(counts=counts, **kw)


@pytest.mark.parametrize("case", ["unvisited", "visited", "cruise_speed", "history_window",
                                  "aborted"])
def test_redeploy_reuses_a_loop_only_where_the_table_predicts_alike(
        small_split, case, monkeypatch):
    """small_split is deployed under the empty table, whose every bucket
    predicts go_straight. A fine-tuned table that differs only on buckets no
    holdout looked up takes the deployed records and runs no loop; one that
    differs on a looked-up bucket reruns the holdouts that looked it up; an
    equal prediction table with another cruise speed or history window
    reruns every holdout, and so does an aborted record. Each rerun runs
    once, at the first seed, and the second seed reuses it. The case study
    is the one that reruns every loop."""
    config, scenes_by_id, specs_by_id, subsets = small_split
    base = PredictorParams.fresh()
    ids = sorted(subsets.holdout_high) + sorted(subsets.holdout_low)
    visited = {sid: set(replan_buckets(scenes_by_id[sid], base.history_window,
                                             lambda t: True))
               for sid in ids}
    seen = set().union(*visited.values())
    unseen = [b for b in np.ndindex(*BUCKET_SHAPE) if b not in seen]
    # Three go_straight counts on an unseen bucket keep go_straight the
    # prior's top mode, so a bucket without counts still predicts it.
    straight, brake = [3, 0, 0, 0, 0], [0, 2, 0, 0, 0]
    rerun, changed = ids, None
    if case == "unvisited":
        changed = unseen[1]
        table, rerun = _table({unseen[0]: straight, changed: brake}), []
    elif case == "visited":
        bucket = changed = sorted(visited[ids[0]])[0]
        table = _table({unseen[0]: straight, bucket: brake})
        rerun = [sid for sid in ids if bucket in visited[sid]]
        assert rerun and len(rerun) < len(ids)
    elif case == "cruise_speed":
        table = dataclasses.replace(base, cruise_speed=9.0)
    elif case == "history_window":
        table = dataclasses.replace(base, history_window=5)
    else:
        table = base
        scenes_by_id = {sid: dataclasses.replace(rec, aborted=True, abort_reason="forged")
                        for sid, rec in scenes_by_id.items()}
    n_modes = config.planner_handle().n_modes
    if changed is not None:
        assert bucket_modes(table, changed, n_modes)[0] != bucket_modes(base, changed, n_modes)[0]
    for bucket in seen - {b for sid in rerun for b in visited[sid]}:
        assert [x.tobytes() for x in bucket_modes(table, bucket, n_modes)] == \
            [x.tobytes() for x in bucket_modes(base, bucket, n_modes)]
    fitted = {("HighRegretFT", seed): table for seed in config.seeds}
    loops = []
    real = simkit.run_closed_loop
    monkeypatch.setattr(simkit, "run_closed_loop",
                        lambda *args: loops.append(args[0].scenario_id) or real(*args))
    case_ = finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets, base,
                                  arms=("Base", "HighRegretFT"), fitted=fitted)
    assert loops == rerun
    monkeypatch.setattr(simkit, "run_closed_loop", real)
    want = reference_case(config, scenes_by_id, specs_by_id, subsets, base,
                          ("Base", "HighRegretFT"), fitted)
    assert hexed(case_.to_dict()) == hexed(want.to_dict())


def test_config_builds_its_planner_and_predictor_at_load():
    # planner.dt is the one step setting: any positive finite value loads.
    config = ExperimentConfig.from_dict({"planner": {"dt": 0.2}})
    assert config.planner_handle().dt == 0.2
    # A bad value or an unknown key in the planner, weights or predictor
    # section fails when the config is loaded, not in a later stage; the
    # predictor's dt is retired, since its templates use the planner's.
    for section, value, error in (("planner", {"dt": -0.1}, ValueError),
                                  ("planner", {"dtt": 0.1}, TypeError),
                                  ("weights", {"w_speed": 1.0}, TypeError),
                                  ("predictor", {"dt": 0.1}, TypeError),
                                  ("predictor", {"history_window": 0}, ValueError)):
        with pytest.raises(error):
            ExperimentConfig.from_dict({section: value})
