import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regret_miner
from regret_miner import cli, harness, regret, simkit
from regret_miner.cli import _pick_arms, build_parser, main
from regret_miner.core import RngStream
from regret_miner.harness import ARMS, ExperimentConfig
from regret_miner.predictor import TablePredictor, params_from_json, params_to_json
from redeploy_reference import hexed, reference_case
from scene1_reference import scene1_dict


def test_parser_covers_every_subcommand():
    ap = build_parser()
    cases = [
        ["simulate", "--out", "x"],
        ["score", "--in", "x", "--model", "gen", "--agg", "worst"],
        ["mine", "--in", "x", "--p", "15"],
        ["compare", "--in", "x", "--metrics", "grm,ade"],
        ["finetune", "--in", "x", "--arms", "base,high"],
        ["redeploy", "--in", "x"],
        ["report", "--in", "x", "--format", "md,csv"],
        ["navgen", "--out", "x", "--n", "50", "--codes", "6", "--seed", "3"],
        ["navregret", "--in", "x", "--reps", "5"],
        ["perception-case", "--out", "x", "--n", "10", "--seed", "4"],
    ]
    for argv in cases:
        args = ap.parse_args(argv)
        assert args.command == argv[0]
        assert callable(args.fn)


def test_usage_errors_are_json(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["score"])  # missing --in
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "usage"


def test_runtime_errors_are_json(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--in", str(tmp_path / "nowhere")])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "FileNotFoundError"
    assert "simulate" in err["error"]["message"]  # tells the user what to run


def test_type_errors_are_json(tmp_path, capsys):
    (tmp_path / "scores.json").write_text(json.dumps(
        {"schema": "scores/1", "aggregation": "mean", "scores": {"a": 0.5, "b": "high"}}))
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--in", str(tmp_path), "--p", "50"])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TypeError"


@pytest.mark.parametrize("aggregation", [None, "median"])
def test_mine_refuses_scores_without_a_known_aggregation(aggregation, tmp_path, capsys):
    """mined.json records the aggregation of scores.json, which has no
    default: a missing or unknown one fails with a JSON error naming it."""
    doc = {"schema": "scores/1", "scores": {"a": 0.5, "b": 0.25}}
    if aggregation is not None:
        doc["aggregation"] = aggregation
    (tmp_path / "scores.json").write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--in", str(tmp_path), "--p", "50"])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert "aggregation" in err["message"]
    assert not (tmp_path / "mined.json").exists()


def test_runtime_errors_from_a_stage_are_json(tmp_path, capsys, monkeypatch):
    def broken_report(*args, **kwargs):
        raise RuntimeError("renderer crashed")

    monkeypatch.setattr(harness, "report", broken_report)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--in", str(tmp_path)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "RuntimeError", "message": "renderer crashed"}


def test_pick_arms():
    assert _pick_arms("") == ARMS
    assert _pick_arms("base,high") == ("Base", "HighRegretFT")
    assert _pick_arms("high,high,low") == ("HighRegretFT", "LowRegretFT")
    assert _pick_arms("ALL") == ("AllFT",)
    with pytest.raises(ValueError):
        _pick_arms("base,warp")


def test_navgen_writes_artifacts(tmp_path, capsys):
    rc = main(["navgen", "--out", str(tmp_path), "--n", "400", "--seed", "1"])
    assert rc == 0
    for name in ("nav_samples.json", "codebook.json", "stats.json"):
        assert (tmp_path / name).exists()
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["schema"] == "navstats/1"
    assert stats["n"] == 400
    assert 0 < stats["triggered"] <= 400
    assert stats["yielded"] <= stats["triggered"]
    capsys.readouterr()

    # the generative scorer consumes the navgen directory it was given
    rc = main(["score", "--in", str(tmp_path), "--model", "gen"])
    assert rc == 0
    doc = json.loads((tmp_path / "scores.json").read_text())
    assert doc["schema"] == "scores/1"
    assert len(doc["scores"]) == 400
    assert all(0.0 <= v <= 1.0 for v in doc["scores"].values())

    rc = main(["mine", "--in", str(tmp_path), "--p", "10"])
    assert rc == 0
    mined = json.loads((tmp_path / "mined.json").read_text())
    assert mined["schema"] == "mined/1"
    assert mined["k"] == 40
    top = max(doc["scores"], key=lambda k: (doc["scores"][k], k))
    assert top in mined["flagged_ids"]
    capsys.readouterr()


@pytest.mark.parametrize("agg", ["worst", "mean"])
def test_generative_score_rejects_agg(tmp_path, capsys, agg):
    """The generative scorer has one score per sample, so --agg is a usage
    error that leaves the scores it wrote before untouched."""
    assert main(["navgen", "--out", str(tmp_path), "--n", "50", "--seed", "2"]) == 0
    assert main(["score", "--in", str(tmp_path), "--model", "gen"]) == 0
    before = (tmp_path / "scores.json").read_bytes()
    assert json.loads(before)["aggregation"] == "mean"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["score", "--in", str(tmp_path), "--model", "gen", "--agg", agg])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "usage" and "--agg" in err["message"]
    assert "generative" in err["message"]
    assert (tmp_path / "scores.json").read_bytes() == before


def test_generative_score_rejects_a_config(tmp_path, capsys):
    """The generative scorer reads only the run's codebook and samples, so a
    --config it would ignore, even one that does not exist, is a usage
    error that writes no scores."""
    assert main(["navgen", "--out", str(tmp_path), "--n", "50", "--seed", "2"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["score", "--in", str(tmp_path), "--model", "gen",
              "--config", str(tmp_path / "nonexistent.yaml")])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "usage" and "--config" in err["message"]
    assert "generative" in err["message"]
    assert not (tmp_path / "scores.json").exists()


def test_navregret_and_perception(tmp_path, capsys):
    rc = main(["navgen", "--out", str(tmp_path), "--n", "400", "--seed", "1"])
    assert rc == 0
    rc = main(["navregret", "--in", str(tmp_path), "--reps", "4"])
    assert rc == 0
    doc = json.loads((tmp_path / "mismatch_regret.json").read_text())
    assert doc["schema"] == "mismatch/1"
    assert set(doc["mean_regret"]) == {"nominal", "collision", "irrelevant"}

    rc = main(["perception-case", "--out", str(tmp_path), "--n", "6"])
    assert rc == 0
    pdoc = json.loads((tmp_path / "perception_case.json").read_text())
    assert pdoc["schema"] == "perception/1"
    assert set(pdoc["mean_regret"]) == {"obstacle-detected", "obstacle-missed",
                                        "empty-clear", "empty-false-alarm"}
    capsys.readouterr()


def test_each_nav_command_scores_in_one_pass(tmp_path, monkeypatch, capsys):
    from regret_miner import genplan
    calls = []

    def counted(name):
        real = getattr(genplan, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(genplan, name, wrapper)

    counted("_draw_halves")
    counted("generative_regret")
    assert main(["navgen", "--out", str(tmp_path), "--n", "60", "--seed", "1"]) == 0
    for argv in (["score", "--in", str(tmp_path), "--model", "gen"],
                 ["navregret", "--in", str(tmp_path), "--reps", "4"],
                 ["perception-case", "--out", str(tmp_path / "perc"), "--n", "6"]):
        calls.clear()
        assert main(argv) == 0
        assert sorted(calls) == ["_draw_halves", "generative_regret"], argv[0]
    capsys.readouterr()


def test_generative_score_names_the_sample_out_of_support(tmp_path, capsys):
    # A hand-built K=2 codebook: goal Primary weighs code 0, a narrow
    # decoder of human turns 10 that supports no sample's human; goal Backup
    # weighs code 1, whose decoder covers every turn.
    from regret_miner import genplan
    assert main(["navgen", "--out", str(tmp_path), "--n", "60", "--seed", "1"]) == 0
    enc = np.zeros((genplan.N_CUE_BUCKETS, 2, 2))
    enc[:, 0, 0] = enc[:, 1, 1] = 1.0
    means = np.zeros((2, 12))
    means[0, genplan.NAV_STEPS:] = 10.0
    cb = genplan.Codebook(K=2, encoder=enc, means=means,
                          stds=np.array([np.full(12, 1e-3), np.full(12, 0.5)]))
    (tmp_path / "codebook.json").write_text(genplan.codebook_to_json(cb))
    samples = genplan.nav_samples_from_json((tmp_path / "nav_samples.json").read_text())
    first = next(i for i, s in enumerate(samples) if s.goal == "Primary")
    assert first > 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["score", "--in", str(tmp_path), "--model", "gen"])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "OutOfSupportError"
    assert err["message"].endswith(f"\nsample nav-{first:05d}")
    assert not (tmp_path / "scores.json").exists()


@pytest.mark.parametrize("argv", [["navgen", "--out"], ["navregret", "--in"],
                                  ["perception-case", "--out"]])
@pytest.mark.parametrize("seed", ["-1", "seven"])
def test_nav_commands_refuse_a_seed_that_is_no_stream_seed(tmp_path, capsys, argv, seed):
    # Stream seeds are integers >= 0: any other --seed is a usage error
    # naming the option and the value, and nothing is written.
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path / "run"), "--seed", seed])
    assert exc.value.code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "usage"
    assert err["message"] == f"argument --seed: expected an integer >= 0, got {seed!r}"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--tp", "--fp"])
def test_perception_case_takes_no_sensor_rates(tmp_path, capsys, flag):
    # Every condition forces the sensor's reading, so the detection rates
    # change nothing, and the command has no options for them.
    with pytest.raises(SystemExit) as exc:
        main(["perception-case", "--out", str(tmp_path / "perc"), flag, "0.9"])
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "usage"
    assert not (tmp_path / "perc").exists()


def test_zero_counts_exit_1_and_write_nothing(tmp_path, capsys):
    assert main(["navgen", "--out", str(tmp_path), "--n", "50", "--seed", "2"]) == 0
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    for argv, name in ((["navregret", "--in", str(tmp_path), "--reps", "0"],
                        "n_reps"),
                       (["perception-case", "--out", str(tmp_path / "perc"),
                         "--n", "0"], "n_samples_per_condition")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError" and name in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_navregret_requires_codebook(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["navregret", "--in", str(tmp_path)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)
    assert "navgen" in err["error"]["message"]


def _run_files(run):
    """Every file of a run directory as bytes, the manifest's timestamp aside."""
    out = {}
    for path in sorted(run.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(run).as_posix()
        if rel == "manifest.json":
            doc = json.loads(path.read_text())
            doc.pop("created_utc")
            out[rel] = json.dumps(doc, sort_keys=True).encode()
        else:
            out[rel] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def cli_and_full_runs(tmp_path_factory):
    """One small deployment taken through the CLI stage by stage, and the
    same config through run_full_pipeline."""
    root = tmp_path_factory.mktemp("driving")
    config = ExperimentConfig(
        families=(("StrandedTruck", 2), ("SparseCruise", 3)),
        pretrain_families=(("SparseCruise", 1),), seeds=(101,), p=25.0,
        holdout_frac=0.25, replan_every=20, base_seed=1, pretrain_seed=10_001,
        out_dir="run")
    harness.config_to_yaml(config, root / "config.yaml")
    cli_run, full_run = root / "cli", root / "full"
    r = str(cli_run)
    for argv in (["simulate", "--config", str(root / "config.yaml"), "--out", r],
                 ["score", "--in", r],
                 ["mine", "--in", r, "--p", "25"],
                 ["compare", "--in", r],
                 ["finetune", "--in", r],
                 ["redeploy", "--in", r],
                 ["report", "--in", r]):
        assert main(argv) == 0, argv
    harness.run_full_pipeline(config, out_dir=full_run)
    return cli_run, full_run


def test_cli_stages_match_full_pipeline(cli_and_full_runs, capsys):
    cli_run, full_run = cli_and_full_runs
    capsys.readouterr()
    cli_files, full_files = _run_files(cli_run), _run_files(full_run)
    assert sorted(cli_files) == sorted(full_files)
    for name in ("reports.jsonl", "comparison/mined_sets.json", "subsets.json",
                 "case_study.json", "report/regret_hist.svg"):
        assert name in cli_files
    for name, data in cli_files.items():
        assert data == full_files[name], f"{name} differs"


def test_compare_requires_score(cli_and_full_runs, tmp_path, capsys):
    cli_run, _ = cli_and_full_runs
    for name in ("scenes.jsonl", "scenes.bin"):
        shutil.copy(cli_run / name, tmp_path / name)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--in", str(tmp_path)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "FileNotFoundError"
    assert "reports.jsonl" in err["error"]["message"]
    assert "`score`" in err["error"]["message"]


def _copy_run(src, dst):
    shutil.copytree(src, dst)
    return dst


@pytest.mark.parametrize("stage, kind, first", [
    ("score", "FileNotFoundError", "simulate"),
    ("mine", "FileNotFoundError", "score"),
    ("compare", "FileNotFoundError", "simulate"),
    ("finetune", "FileNotFoundError", "simulate"),
    ("redeploy", "FileNotFoundError", "finetune"),
    ("report", "ValueError", "redeploy"),
])
def test_stage_on_an_empty_run_names_the_stage_to_run_first(stage, kind, first,
                                                            tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([stage, "--in", str(tmp_path)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == kind
    assert f"run `{first}` first" in err["message"]


def _run_stats(run):
    """Every file of a run directory with its bytes and modification time, so
    a rewrite with the same bytes shows too."""
    return {path.relative_to(run).as_posix(): (path.read_bytes(), path.stat().st_mtime_ns)
            for path in sorted(run.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("stage, flag, value, choices", [
    ("compare", "--metrics", "", "grm,rm,ade,trfd"),
    ("compare", "--metrics", ",", "grm,rm,ade,trfd"),
    ("compare", "--metrics", "grm,bogus", "grm,rm,ade,trfd"),
    ("report", "--format", "", "md,csv,svg"),
    ("report", "--format", ",", "md,csv,svg"),
    ("report", "--format", "md,bogus", "md,csv,svg"),
])
def test_compare_and_report_refuse_no_or_unknown_choices_and_write_nothing(
        stage, flag, value, choices, cli_and_full_runs, tmp_path, capsys):
    cli_run, _ = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    before = _run_stats(run)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([stage, "--in", str(run), flag, value])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    err = json.loads(err)["error"]
    assert err["type"] == "ValueError" and choices in err["message"]
    assert out == ""
    assert _run_stats(run) == before


def test_compare_and_report_take_each_choice_once(cli_and_full_runs, tmp_path, capsys):
    cli_run, _ = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    capsys.readouterr()
    assert main(["compare", "--in", str(run), "--metrics", "grm, GRM,ade,grm"]) == 0
    assert capsys.readouterr().out == f"compared GRM,ADE -> {run / 'comparison'}\n"
    doc = json.loads((run / "comparison" / "mined_sets.json").read_text())
    assert list(doc["metrics"]) == ["GRM", "ADE"]
    assert main(["report", "--in", str(run), "--format", "md,md, md"]) == 0
    assert capsys.readouterr().out == f"wrote case_study.md -> {run / 'report'}\n"


def test_simulate_refuses_a_yield_radius(tmp_path, capsys):
    # The yield label radius is the constant YIELD_LABEL_RADIUS: a config
    # naming it fails at load, before anything is simulated or written.
    (tmp_path / "cfg.yaml").write_text("predictor:\n  yield_radius: 6.0\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "TypeError" and "yield_radius" in err["message"]
    assert not (tmp_path / "run").exists()


def test_simulate_refuses_a_family_named_twice(tmp_path, capsys):
    # Two entries of one family would deploy each of its ids twice, so the
    # config fails at load, before anything is simulated or written.
    (tmp_path / "cfg.yaml").write_text(
        "families:\n- [StrandedTruck, 2]\n- [StrandedTruck, 3]\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "ValueError",
                   "message": "family 'StrandedTruck' is named twice in families"}
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, text, field", [
    ("planner", "lane_change_turn: .nan", "lane_change_turn"),
    ("planner", "accel_levels: [.nan]", "accel_levels"),
    ("planner", "horizon: 2.5", "horizon"),
    ("predictor", "cruise_speed: .nan", "cruise_speed"),
    ("predictor", "smoothing: .nan", "smoothing"),
])
def test_simulate_refuses_a_setting_every_scene_would_fail_on(section, text, field,
                                                                tmp_path, capsys):
    # Each value would load and then abort every scene, or fail mid-loop:
    # simulate exits 1 with a ValueError naming the field, and writes nothing.
    (tmp_path / "cfg.yaml").write_text(f"{section}:\n  {text}\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(tmp_path / "cfg.yaml"),
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError" and err["message"].startswith(field)
    assert not (tmp_path / "run").exists()


def test_stages_read_the_manifest_config_not_config_yaml(cli_and_full_runs, tmp_path,
                                                         capsys):
    cli_run, _ = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    text = (run / "config.yaml").read_text()
    assert "\np: 25.0\n" in text and "\naggregation: mean\n" in text
    (run / "config.yaml").write_text(
        text.replace("\np: 25.0\n", "\np: 50\n")
            .replace("\naggregation: mean\n", "\naggregation: worst\n"))
    for stage in ("score", "compare", "finetune", "report"):
        assert main([stage, "--in", str(run)]) == 0, stage
    capsys.readouterr()
    got, want = _run_files(run), _run_files(cli_run)
    assert got.pop("config.yaml") != want.pop("config.yaml")
    assert sorted(got) == sorted(want)
    for name, data in got.items():
        assert data == want[name], f"{name} differs"


def test_score_rejects_a_scene1_run(cli_and_full_runs, tmp_path, capsys):
    """scene/1 is no longer read: score on a run whose scenes are scene/1
    lines exits 1 and names the schema, the line and the scene."""
    cli_run, _ = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    scenes = simkit.scenes_from_jsonl(run / "scenes.jsonl")
    (run / "scenes.jsonl").write_text(
        "".join(json.dumps(scene1_dict(s)) + "\n" for s in scenes))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["score", "--in", str(run)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "ValueError",
                   "message": "unsupported schema 'scene/1'\n"
                              f"{run / 'scenes.jsonl'}: line 1, "
                              f"scenario {scenes[0].scenario_id!r}"}


class _NoPrediction(TablePredictor):
    """A table predictor that fails every replan, so a closed loop under it
    aborts at t=0 with an empty replan log."""

    def predict(self, joint, *args):
        raise ValueError(f"no prediction at t={joint.t}")


def test_redeploy_of_a_holdout_aborted_at_t0_names_the_scene(cli_and_full_runs, tmp_path,
                                                            monkeypatch):
    # Every fine-tuned holdout aborts at t=0: redeploy still writes the case
    # study, and each fine-tuned cell names its holdouts under "skipped".
    # The fitted tables get another cruise speed, so none predicts like
    # Base's table and no deployed record is reused.
    cli_run, _ = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    for fp in (run / "predictors").glob("*-*.json"):
        params = params_from_json(fp.read_text())
        fp.write_text(params_to_json(dataclasses.replace(
            params, cruise_speed=params.cruise_speed + 1.0)))
    holdout = {split: sorted(json.loads((run / "subsets.json").read_text())[f"holdout_{split}"])
               for split in ("high", "low")}
    monkeypatch.setattr(harness, "TablePredictor", _NoPrediction)
    assert main(["redeploy", "--in", str(run)]) == 0
    values = json.loads((run / "case_study.json").read_text())["values"]
    assert "HighRegretFT" in values
    for arm, by_split in values.items():
        for split, cells in by_split.items():
            for cell in cells:
                if arm == "Base":
                    assert "skipped" not in cell
                else:
                    assert cell["skipped"] == {
                        sid: "planner failed at t=0: no prediction at t=0"
                        for sid in holdout[split]}
                    assert cell["mean_regret"] == 0.0


def _count_decodes(monkeypatch):
    """The scenario id of every scene_from_dict call, in call order."""
    decoded = []
    real = simkit.scene_from_dict
    monkeypatch.setattr(simkit, "scene_from_dict",
                        lambda d, sidecar: decoded.append(d["scenario_id"])
                        or real(d, sidecar))
    return decoded


def _subsets(run):
    return json.loads((run / "subsets.json").read_text())


def _count_fits(monkeypatch):
    """The (arm, seed) of every harness.finetune_params call, in call order."""
    fits = []
    real = harness.finetune_params
    monkeypatch.setattr(harness, "finetune_params",
                        lambda arm, *args: fits.append((arm, args[-1]))
                        or real(arm, *args))
    return fits


def test_redeploy_with_every_predictor_decodes_only_the_holdouts(
        cli_and_full_runs, tmp_path, monkeypatch, capsys):
    cli_run, full_run = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    (run / "case_study.json").unlink()
    decoded = _count_decodes(monkeypatch)
    fits = _count_fits(monkeypatch)
    assert main(["redeploy", "--in", str(run)]) == 0
    assert fits == []
    subsets = _subsets(run)
    assert sorted(decoded) == sorted(subsets["holdout_high"] + subsets["holdout_low"])
    assert (run / "case_study.json").read_bytes() == (full_run / "case_study.json").read_bytes()
    # Base's closed loops are held under Base's table, so redeploy needs it.
    (run / "predictor_base.json").unlink()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["redeploy", "--in", str(run)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "FileNotFoundError",
                   "message": f"{run / 'predictor_base.json'} not found — run `simulate` first"}
    # The Base arm is read from the deployment, so redeploy needs the scenes.
    (run / "scenes.jsonl").unlink()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["redeploy", "--in", str(run)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "FileNotFoundError"
    assert "run `simulate` first" in err["message"]


@pytest.mark.parametrize("stage", ["score", "compare", "finetune", "redeploy"])
def test_a_run_without_its_scene_sidecar_names_simulate(stage, cli_and_full_runs, tmp_path,
                                                         capsys):
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    (run / "scenes.bin").unlink()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([stage, "--in", str(run)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "FileNotFoundError",
                   "message": f"{run / 'scenes.bin'} not found — run `simulate` first"}


def test_compare_fails_on_a_flipped_sidecar_byte(cli_and_full_runs, tmp_path, capsys):
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    data = (run / "scenes.bin").read_bytes()
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0x80
    (run / "scenes.bin").write_bytes(flipped)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--in", str(run)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    lines = [json.loads(line) for line in (run / "scenes.jsonl").read_text().splitlines()]
    n, d = next((n, d) for n, d in enumerate(lines, 1)
                if d["bin"]["at"] <= len(data) // 2 < d["bin"]["at"] + d["bin"]["n"])
    assert err == {"type": "ValueError",
                   "message": f"bin: the SHA-256 of the scene's span at byte "
                              f"{d['bin']['at']} is not the one its line records\n"
                              f"{run / 'scenes.jsonl'}: line {n}, "
                              f"scenario {d['scenario_id']!r}"}
    (run / "scenes.bin").write_bytes(data)
    assert main(["compare", "--in", str(run)]) == 0
    capsys.readouterr()


def _edit_scene_line(run, n, edit):
    """Apply edit to the dict of line n (1-based) of the run's scenes.jsonl;
    return the line's scenario id."""
    path = run / "scenes.jsonl"
    lines = path.read_text().splitlines()
    d = json.loads(lines[n - 1])
    edit(d)
    lines[n - 1] = json.dumps(d)
    path.write_text("\n".join(lines) + "\n")
    return d["scenario_id"]


def test_score_and_compare_reject_nan_probabilities_and_weights(cli_and_full_runs, tmp_path,
                                                                capsys):
    # A NaN mode probability fails decode, so score names the line and the
    # scene; a NaN reward-sample weight decodes and scores, and TRFD refuses
    # it in compare, naming the scene. Restored, both stages pass again.
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    r, path = str(run), run / "scenes.jsonl"
    original = path.read_bytes()

    def set_prob(d):
        d["replan_log"][0]["predicted_humans"]["prob"][0][0] = float("nan")

    def set_weight(d):
        d["replan_log"][0]["predicted_reward_samples"][0][1] = float("nan")

    sid = _edit_scene_line(run, 2, set_prob)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["score", "--in", r])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith("human 0 mode ")
    assert err["message"].endswith(f"\n{path}: line 2, scenario {sid!r}")
    path.write_bytes(original)
    _edit_scene_line(run, 2, set_weight)
    assert main(["score", "--in", r]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--in", r])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError", "message": f"values and weights must be finite\nscenario {sid!r}"}
    path.write_bytes(original)
    for argv in (["score", "--in", r], ["compare", "--in", r]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_finetune_decodes_only_the_pools_it_fits(cli_and_full_runs, tmp_path,
                                                 monkeypatch, capsys):
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    decoded = _count_decodes(monkeypatch)
    assert main(["finetune", "--in", str(run), "--arms", "high"]) == 0
    assert sorted(decoded) == _subsets(run)["pool_high"]
    assert (run / "subsets.json").read_bytes() == \
        (cli_and_full_runs[0] / "subsets.json").read_bytes()
    decoded.clear()
    assert main(["finetune", "--in", str(run), "--arms", "low,random"]) == 0
    subsets = _subsets(run)
    assert sorted(decoded) == sorted(set(subsets["pool_low"] + subsets["pool_random"]))
    capsys.readouterr()


@pytest.fixture(scope="module")
def two_seed_run(tmp_path_factory):
    """A small deployment fine-tuned and redeployed for one arm at two seeds."""
    root = tmp_path_factory.mktemp("two-seed")
    config = ExperimentConfig(
        families=(("StrandedTruck", 2), ("SparseCruise", 3)),
        pretrain_families=(("SparseCruise", 1),), seeds=(101, 102), p=25.0,
        holdout_frac=0.25, replan_every=20, base_seed=2, pretrain_seed=10_002,
        out_dir="run")
    harness.config_to_yaml(config, root / "config.yaml")
    run = root / "run"
    r = str(run)
    for argv in (["simulate", "--config", str(root / "config.yaml"), "--out", r],
                 ["score", "--in", r],
                 ["finetune", "--in", r, "--arms", "high"],
                 ["redeploy", "--in", r]):
        assert main(argv) == 0, argv
    return run


def test_redeploy_with_a_missing_predictor_names_finetune(two_seed_run, tmp_path,
                                                          monkeypatch, capsys):
    run = _copy_run(two_seed_run, tmp_path / "run")
    missing = run / "predictors" / "HighRegretFT-102.json"
    missing.unlink()
    (run / "case_study.json").unlink()
    decoded = _count_decodes(monkeypatch)
    fits = _count_fits(monkeypatch)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["redeploy", "--in", str(run)])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "FileNotFoundError", "message": f"{missing} not found — run `finetune` first"}
    assert not (run / "case_study.json").exists()
    assert (decoded, fits) == ([], [])
    # finetune fits both seeds again, to the predictors it saved before, and
    # redeploy then writes the old case study without fitting one.
    assert main(["finetune", "--in", str(run), "--arms", "high"]) == 0
    assert fits == [("HighRegretFT", 101), ("HighRegretFT", 102)]
    assert main(["redeploy", "--in", str(run)]) == 0
    assert len(fits) == 2
    assert (run / "case_study.json").read_bytes() == \
        (two_seed_run / "case_study.json").read_bytes()
    capsys.readouterr()


def test_finetune_names_an_unknown_arm_and_writes_nothing(two_seed_run, tmp_path):
    """harness.finetune checks its arms where the predictors are fitted, with
    finetune_and_redeploy's ValueError, before it writes a file."""
    run = _copy_run(two_seed_run, tmp_path / "run")
    files = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    with pytest.raises(ValueError, match=r"^unknown arm 'Sideways'; known: \('Base', "):
        harness.finetune(run, harness.run_config(run), ("HighRegretFT", "Sideways"))
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == files


@pytest.mark.parametrize("name", ["Foo-101.json", "HighRegretFT-x.json", "HighRegretFT-999.json"])
def test_redeploy_names_a_predictor_file_it_cannot_read(name, two_seed_run, tmp_path,
                                                        capsys):
    """A predictor file not named for a fine-tuned arm and a seed of the
    config is refused, not skipped: the case study would omit it."""
    run = _copy_run(two_seed_run, tmp_path / "run")
    shutil.copy(run / "predictors" / "HighRegretFT-101.json", run / "predictors" / name)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["redeploy", "--in", str(run)])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ValueError",
        "message": f"{run / 'predictors' / name}: a predictor file is named "
                   "<arm>-<seed>.json, with an arm of HighRegretFT, LowRegretFT, "
                   "RandomFT, AllFT and a seed of 101, 102"}


@pytest.mark.parametrize("base_seed, planner", [
    pytest.param(3, {}, id="3"), pytest.param(4, {}, id="4"),
    pytest.param(3, {"n_modes": 2}, id="3-n_modes2")])
def test_base_arm_equals_a_closed_loop_rerun_of_its_holdouts(base_seed, planner, tmp_path,
                                                             capsys, monkeypatch):
    """Redeploy reuses Base's deployed records and the loops it ran whenever
    a table predicts alike on the buckets they looked up; the case study is
    the one that runs every loop again, float.hex for float.hex, here and
    through finetune_and_redeploy with every arm fitted."""
    config = ExperimentConfig(
        families=(("StrandedTruck", 2), ("SparseCruise", 3)),
        pretrain_families=(("SparseCruise", 1),), seeds=(101, 102), p=25.0,
        holdout_frac=0.25, replan_every=20, base_seed=base_seed,
        pretrain_seed=10_000 + base_seed, planner=planner, out_dir="run")
    harness.config_to_yaml(config, tmp_path / "config.yaml")
    run = tmp_path / "run"
    r = str(run)
    for argv in (["simulate", "--config", str(tmp_path / "config.yaml"), "--out", r],
                 ["score", "--in", r],
                 ["finetune", "--in", r, "--arms", "high,low,all"]):
        assert main(argv) == 0, argv
    loops = []
    real = simkit.run_closed_loop
    monkeypatch.setattr(simkit, "run_closed_loop",
                        lambda *args: loops.append(args[0].scenario_id) or real(*args))
    assert main(["redeploy", "--in", r]) == 0
    monkeypatch.setattr(simkit, "run_closed_loop", real)
    capsys.readouterr()
    config, scenes, specs_by_id, base_params = harness.load_deployment(run)
    scenes_by_id = {s.scenario_id: s for s in scenes}
    subsets = harness.Subsets.from_dict(_subsets(run))
    arms = ("Base", "HighRegretFT", "LowRegretFT", "AllFT")
    fitted = {(arm, seed): params_from_json(
        (run / "predictors" / f"{arm}-{seed}.json").read_text())
        for arm in arms[1:] for seed in config.seeds}
    # A rerun runs one loop per fine-tuned arm, seed and holdout.
    assert len(loops) < 3 * 2 * (len(subsets.holdout_high) + len(subsets.holdout_low))
    want = reference_case(config, scenes_by_id, specs_by_id, subsets, base_params,
                          arms, fitted)
    assert (run / "case_study.json").read_text() == json.dumps(want.to_dict(), indent=2)
    assert hexed(json.loads((run / "case_study.json").read_text())) == \
        hexed(want.to_dict())
    for split, ids in (("high", subsets.holdout_high), ("low", subsets.holdout_low)):
        assert sorted(want.values["Base"][split][0]["per_scene_collision_cost"]) == \
            sorted(ids)
    got = harness.finetune_and_redeploy(config, scenes_by_id, specs_by_id, subsets,
                                        base_params)
    assert hexed(got.to_dict()) == hexed(reference_case(
        config, scenes_by_id, specs_by_id, subsets, base_params, ARMS, None).to_dict())


def test_finetune_drops_predictors_it_did_not_fit(cli_and_full_runs, tmp_path, capsys):
    """A rescore changes the split; the low arm fitted on the old split is
    not redeployed on the new holdouts."""
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    r = str(run)
    for argv in (["finetune", "--in", r, "--arms", "high,low"],
                 ["score", "--in", r, "--agg", "worst"],
                 ["finetune", "--in", r, "--arms", "high"]):
        assert main(argv) == 0, argv
    assert sorted(p.name for p in (run / "predictors").iterdir()) == ["HighRegretFT-101.json"]
    assert main(["redeploy", "--in", r]) == 0
    case = json.loads((run / "case_study.json").read_text())
    assert case["arms"] == ["Base", "HighRegretFT"]
    assert "LowRegretFT" not in case["values"]
    capsys.readouterr()


def _fresh_cli(argv):
    """(exit code, stdout, stderr) of the CLI in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(regret_miner.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "regret_miner.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_cli_starts_without_scipy_or_genplan():
    """Only the nav commands import genplan, and with it scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(regret_miner.__file__).parents[1]))
    code = ("import sys, regret_miner.cli as cli; cli.build_parser(); "
            "print(sorted(m for m in ('scipy', 'regret_miner.genplan') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _in_process_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    runs = {}
    for name, scores in (("a", {"s1": 0.9, "s2": 0.1, "s3": 0.5, "s4": 0.7}),
                         ("b", {"t1": 0.2, "t2": 0.8})):
        runs[name] = tmp_path / name
        runs[name].mkdir()
        (runs[name] / "scores.json").write_text(json.dumps(
            {"schema": "scores/1", "aggregation": "mean", "scores": scores}))
    calls = [["mine", "--in", str(runs["a"]), "--p", "50"],
             ["mine", "--in", str(runs["a"]), "--p", "lots"],   # usage error
             ["mine", "--in", str(runs["b"]), "--p", "50"],
             ["score"]]                                          # usage error
    fresh = []
    for argv in calls:
        fresh.append((_fresh_cli(argv), {n: (d / "mined.json").read_bytes()
                                         for n, d in runs.items()
                                         if (d / "mined.json").exists()}))
    for d in runs.values():
        (d / "mined.json").unlink()

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    try:
        for argv, (want, want_files) in zip(calls, fresh):
            got = _in_process_cli(argv, capsys)
            assert got == want, argv
            assert {n: (d / "mined.json").read_bytes() for n, d in runs.items()
                    if (d / "mined.json").exists()} == want_files
    finally:
        cli._parser.cache_clear()
    assert [code for (code, _, _), _ in fresh] == [0, 2, 0, 2]
    for (_, _, err), _ in fresh[1::2]:
        assert json.loads(err)["error"]["type"] == "usage"
    assert builds == [1]


def test_a_scene_aborted_at_t0_is_skipped_by_every_stage(tmp_path, capsys):
    root = tmp_path
    config = ExperimentConfig(
        families=(("StrandedTruck", 2), ("SparseCruise", 4)),
        pretrain_families=(("SparseCruise", 1),), seeds=(101,), p=25.0,
        holdout_frac=0.25, replan_every=20, base_seed=3, pretrain_seed=10_003,
        out_dir="run")
    harness.config_to_yaml(config, root / "config.yaml")
    run = root / "run"
    r = str(run)
    assert main(["simulate", "--config", str(root / "config.yaml"), "--out", r]) == 0
    reason = "planner failed at t=0: empty candidate set"
    sid = _abort_at_t0(run, 2, reason)
    for argv in (["score", "--in", r], ["mine", "--in", r, "--p", "25"],
                 ["compare", "--in", r], ["finetune", "--in", r],
                 ["redeploy", "--in", r], ["report", "--in", r]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    doc = json.loads((run / "scores.json").read_text())
    assert doc["skipped"] == {sid: reason}
    assert len(doc["scores"]) == 5 and sid not in doc["scores"]
    assert sid not in (run / "reports.jsonl").read_text()
    mined_sets = json.loads((run / "comparison" / "mined_sets.json").read_text())
    assert all(sid not in m["scores"] for m in mined_sets["metrics"].values())
    assert sid not in (run / "subsets.json").read_text()
    # finetune splits scores.json's ids, which are the scene lines' ids but
    # the skipped one.
    lines = [json.loads(line) for line in (run / "scenes.jsonl").read_text().splitlines()]
    want = harness.build_subsets([d["scenario_id"] for d in lines if d["scenario_id"] != sid],
                                 doc["scores"], config.p, config.holdout_frac,
                                 RngStream(config.base_seed, harness._SUBSET_STREAM))
    assert json.loads((run / "subsets.json").read_text()) == {
        **want.to_dict(),
        "scores_sha256": hashlib.sha256((run / "scores.json").read_bytes()).hexdigest()}
    assert (run / "case_study.json").is_file()


def test_scores_json_has_no_skipped_key_when_nothing_was_skipped(cli_and_full_runs):
    doc = json.loads((cli_and_full_runs[0] / "scores.json").read_text())
    assert "skipped" not in doc


def _abort_at_t0(run, line: int, reason: str) -> str:
    """Replace scene `line` (0-based) of run's scenes.jsonl by its record
    aborted at t=0, with an empty replan log. Returns the scene id."""
    scenes = simkit.scenes_from_jsonl(run / "scenes.jsonl")
    scene = scenes[line]
    scenes[line] = simkit.SceneRecord(scene.scenario_id, scene.context, scene.states[:1],
                                      [], [], [], [], aborted=True, abort_reason=reason,
                                      human_radii=scene.human_radii, dt=scene.dt)
    simkit.scenes_to_jsonl(run / "scenes.jsonl", scenes)
    return scene.scenario_id


def _scored_files(run):
    return {name: (run / name).read_bytes() for name in ("reports.jsonl", "scores.json")}


def _full_rescore(run, dst, argv=()):
    """_scored_files of a copy of run whose reports.jsonl was deleted, scored
    with the extra argv."""
    copy = _copy_run(run, dst)
    (copy / "reports.jsonl").unlink(missing_ok=True)
    assert main(["score", "--in", str(copy), *argv]) == 0
    return _scored_files(copy)


def _forbid_rescoring(monkeypatch):
    def rescored(*args, **kwargs):
        raise AssertionError("score decoded or rescored a scene, or rewrote reports.jsonl")

    monkeypatch.setattr(simkit, "scenes_from_jsonl", rescored)
    monkeypatch.setattr(regret, "score_scene", rescored)
    monkeypatch.setattr(harness, "score_scene", rescored)
    monkeypatch.setattr(harness, "reports_to_jsonl", rescored)


@pytest.mark.parametrize("abort", [False, True])
def test_score_reaggregates_an_unchanged_deployment_without_decoding(
        abort, cli_and_full_runs, tmp_path, monkeypatch, capsys):
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    reason = "planner failed at t=0: empty candidate set"
    sid = _abort_at_t0(run, 2, reason) if abort else None
    r = str(run)
    assert main(["score", "--in", r]) == 0
    first = _scored_files(run)
    assert first == _full_rescore(run, tmp_path / "fresh-mean")
    assert json.loads(first["scores.json"]).get("skipped") == ({sid: reason} if abort else None)

    with monkeypatch.context() as m:
        _forbid_rescoring(m)
        assert main(["score", "--in", r, "--agg", "worst"]) == 0
    worst = _scored_files(run)
    assert worst["reports.jsonl"] == first["reports.jsonl"]
    assert worst["scores.json"] != first["scores.json"]
    assert worst == _full_rescore(run, tmp_path / "fresh-worst", ["--agg", "worst"])
    assert json.loads(worst["scores.json"]).get("skipped") == ({sid: reason} if abort else None)

    with monkeypatch.context() as m:
        _forbid_rescoring(m)
        assert main(["score", "--in", r]) == 0
        assert _scored_files(run) == first
        # The patches do catch a full rescore.
        (run / "reports.jsonl").unlink()
        with pytest.raises(AssertionError, match="rescored"):
            main(["score", "--in", r])
    capsys.readouterr()


def _edit_reports(run, edit):
    lines = (run / "reports.jsonl").read_text().splitlines(keepends=True)
    (run / "reports.jsonl").write_text("".join(edit(lines)))


def _change_score(run):
    doc = json.loads((run / "scores.json").read_text())
    sid = min(doc["scores"])
    doc["scores"][sid] += 0.125
    (run / "scores.json").write_text(json.dumps(doc, indent=2))


def _change_worst(lines):
    doc = json.loads(lines[0])
    worst = max(range(len(doc["per_t"])), key=lambda i: doc["per_t"][i][3])
    assert doc["per_t"][worst][3] < 0.9
    doc["per_t"][worst][3] = 0.9
    return [json.dumps(doc) + "\n"] + lines[1:]


def _as_regret_1(lines):
    """The lines in the regret/1 format, which stored the aggregates too."""
    out = []
    for line in lines:
        doc = json.loads(line)
        regrets = [g for *_, g in doc["per_t"]]
        out.append(json.dumps({
            "schema": "regret/1", "scenario_id": doc["scenario_id"],
            "per_t": doc["per_t"], "mean_regret": float(np.mean(regrets)),
            "worst_regret": float(np.max(regrets)),
            "canonical_per_t": doc["canonical_per_t"],
            "canonical_mean": float(np.mean(doc["canonical_per_t"])),
            "aggregation": "mean"}) + "\n")
    return out


def _extra_id(lines):
    doc = json.loads(lines[0])
    doc["scenario_id"] = "Extra-0-000"
    return lines + [json.dumps(doc) + "\n"]


def _drop_key(run):
    doc = json.loads((run / "scores.json").read_text())
    del doc["inputs_sha256"]
    (run / "scores.json").write_text(json.dumps(doc, indent=2))


def _heavier_collisions(run, tmp_path):
    config = harness.run_config(run)
    harness.config_to_yaml(dataclasses.replace(config, weights={"w_col": -20.0}),
                           tmp_path / "weights.yaml")
    return ["--config", str(tmp_path / "weights.yaml")]


@pytest.mark.parametrize("case", ["scene byte", "weights", "no reports",
                                  "changed score", "changed worst", "dropped line",
                                  "extra id", "no key", "regret/1"])
def test_each_invalidation_forces_a_full_rescore(case, cli_and_full_runs, tmp_path,
                                                 monkeypatch, capsys):
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    argv = []
    if case == "scene byte":
        # One space of the first line's JSON becomes a tab: the same scenes.
        data = (run / "scenes.jsonl").read_bytes()
        at = data.index(b": ")
        (run / "scenes.jsonl").write_bytes(data[:at + 1] + b"\t" + data[at + 2:])
    elif case == "weights":
        argv = _heavier_collisions(run, tmp_path)
    elif case == "no reports":
        (run / "reports.jsonl").unlink()
    elif case == "changed score":
        _change_score(run)
    elif case == "changed worst":
        # One per-replan regret, the worst, becomes 0.9: the stored scores
        # are means, and only re-aggregating the reports finds the edit.
        _edit_reports(run, _change_worst)
        argv = ["--agg", "worst"]
    elif case == "regret/1":
        # A report line of the old format is refused, so score rescores
        # and writes regret/2.
        _edit_reports(run, _as_regret_1)
    elif case == "dropped line":
        _edit_reports(run, lambda lines: lines[1:])
    elif case == "extra id":
        _edit_reports(run, _extra_id)
    else:
        _drop_key(run)
    want = _full_rescore(run, tmp_path / "fresh", argv)
    reads = []
    real = simkit.scenes_from_jsonl
    monkeypatch.setattr(simkit, "scenes_from_jsonl",
                        lambda path, ids=None: reads.append(Path(path).name)
                        or real(path, ids))
    assert main(["score", "--in", str(run), *argv]) == 0
    assert reads == ["scenes.jsonl"]
    assert _scored_files(run) == want
    assert json.loads(want["reports.jsonl"].splitlines()[0])["schema"] == "regret/2"
    if case == "weights":
        assert want != _scored_files(cli_and_full_runs[0])
    capsys.readouterr()


def test_compare_names_the_file_and_the_stage_of_old_reports(cli_and_full_runs, tmp_path,
                                                             capsys):
    # Reports written in the regret/1 format are refused with the file and
    # the stage that rewrites them named, and nothing is written.
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    _edit_reports(run, _as_regret_1)
    shutil.rmtree(run / "comparison")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--in", str(run)])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == (f"unsupported schema 'regret/1'\n{run / 'reports.jsonl'} "
                              "cannot be read — run `score` to rewrite it")
    assert not (run / "comparison").exists()
    for argv in (["score", "--in", str(run)], ["compare", "--in", str(run)]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_finetune_and_redeploy_refuse_scores_of_other_scenes(cli_and_full_runs, tmp_path,
                                                            capsys):
    # Simulate again into the scored run at another replan_every: the scene
    # ids are the same, but scores.json was priced from the old scenes.
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    r = str(run)
    config = dataclasses.replace(harness.run_config(run), replan_every=10)
    harness.config_to_yaml(config, tmp_path / "every10.yaml")
    assert main(["simulate", "--config", str(tmp_path / "every10.yaml"), "--out", r]) == 0
    subsets = (run / "subsets.json").read_bytes()
    for argv in (["finetune", "--in", r, "--arms", "high"], ["redeploy", "--in", r]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "StaleRunError"
        assert "scenes.jsonl" in err["message"] and "run `score` first" in err["message"]
    assert (run / "subsets.json").read_bytes() == subsets
    for argv in (["score", "--in", r], ["finetune", "--in", r, "--arms", "high"],
                 ["redeploy", "--in", r]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_finetune_and_redeploy_refuse_an_edited_base_table(cli_and_full_runs, tmp_path,
                                                           capsys):
    # manifest.json records the SHA-256 of predictor_base.json: with one
    # count edited, the table is not the one the scenes were deployed with,
    # so finetune and redeploy exit 1 naming `simulate` and write nothing.
    # Restored, both pass again.
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    r, base = str(run), run / "predictor_base.json"
    original = base.read_bytes()
    doc = json.loads(original)
    counts = np.array(doc["counts"])
    counts.flat[0] += 1.0
    base.write_text(json.dumps({**doc, "counts": counts.tolist()}))
    written = {name: (run / name).read_bytes() for name in ("subsets.json", "case_study.json")}
    for argv in (["finetune", "--in", r], ["redeploy", "--in", r]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "StaleRunError",
                       "message": f"{base} is not the table this run was deployed with "
                                  "— run `simulate` first"}
    assert {name: (run / name).read_bytes() for name in written} == written
    base.write_bytes(original)
    for argv in (["finetune", "--in", r], ["redeploy", "--in", r]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_compare_refuses_scores_of_other_scenes(cli_and_full_runs, tmp_path, capsys):
    # Simulate again into the scored run under other reward weights: the
    # scene ids and replan times are the same, but the scenes are not, so
    # reports.jsonl no longer prices them.
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    r = str(run)
    old_scenes = simkit.scenes_from_jsonl(run / "scenes.jsonl")
    assert main(["simulate", *_heavier_collisions(run, tmp_path), "--out", r]) == 0
    new_scenes = simkit.scenes_from_jsonl(run / "scenes.jsonl")
    assert [(s.scenario_id, [e.t for e in s.replan_log]) for s in new_scenes] == \
        [(s.scenario_id, [e.t for e in s.replan_log]) for s in old_scenes]
    assert (run / "scenes.jsonl").read_bytes() != \
        (cli_and_full_runs[0] / "scenes.jsonl").read_bytes()
    comparison = {p.name: p.read_bytes() for p in (run / "comparison").iterdir()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--in", r])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "StaleRunError"
    assert "scenes.jsonl" in err["message"] and "run `score` first" in err["message"]
    assert {p.name: p.read_bytes() for p in (run / "comparison").iterdir()} == comparison
    for argv in (["score", "--in", r], ["compare", "--in", r]):
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_finetune_and_redeploy_take_scores_of_other_weights(cli_and_full_runs, tmp_path,
                                                           capsys):
    # score --config may price the run's scenes under other reward weights;
    # the scores are still of the current scenes, so the later stages, run
    # with the recorded config, take them.
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    r = str(run)
    for argv in (["score", "--in", r, *_heavier_collisions(run, tmp_path)],
                 ["finetune", "--in", r, "--arms", "high"], ["redeploy", "--in", r]):
        assert main(argv) == 0, argv
    assert (run / "scores.json").read_bytes() != \
        (cli_and_full_runs[0] / "scores.json").read_bytes()
    capsys.readouterr()


def test_redeploy_refuses_a_split_made_from_other_scores(cli_and_full_runs, tmp_path,
                                                         capsys):
    run = _copy_run(cli_and_full_runs[0], tmp_path / "run")
    r = str(run)
    for argv in (["score", "--in", r], ["finetune", "--in", r]):
        assert main(argv) == 0, argv
    mean_scores = (run / "scores.json").read_bytes()
    case_study = (run / "case_study.json").read_bytes()
    assert main(["score", "--in", r, "--agg", "worst"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["redeploy", "--in", r])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "StaleRunError"
    assert "scores.json" in err["message"] and "run `finetune` first" in err["message"]
    assert (run / "case_study.json").read_bytes() == case_study

    assert main(["score", "--in", r, "--agg", "mean"]) == 0
    assert (run / "scores.json").read_bytes() == mean_scores
    (run / "case_study.json").unlink()
    assert main(["redeploy", "--in", r]) == 0
    assert (run / "case_study.json").read_bytes() == case_study

    doc = _subsets(run)
    del doc["scores_sha256"]
    (run / "subsets.json").write_text(json.dumps(doc, indent=2))
    with pytest.raises(harness.StaleRunError, match="run `finetune` first"):
        harness.redeploy(run, harness.run_config(run))
    assert issubclass(harness.StaleRunError, ValueError)
    capsys.readouterr()
