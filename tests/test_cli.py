import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import regret_miner
from regret_miner import cli, harness, simkit
from regret_miner.cli import _pick_arms, _pick_seeds, build_parser, main
from regret_miner.harness import ARMS, ExperimentConfig
from scene1_reference import scene1_dict


def test_parser_covers_every_subcommand():
    ap = build_parser()
    cases = [
        ["simulate", "--out", "x"],
        ["score", "--in", "x", "--model", "gen", "--agg", "worst"],
        ["mine", "--in", "x", "--p", "15"],
        ["compare", "--in", "x", "--metrics", "grm,ade"],
        ["finetune", "--in", "x", "--arms", "base,high", "--seeds", "2"],
        ["redeploy", "--in", "x"],
        ["report", "--in", "x", "--format", "md,csv"],
        ["navgen", "--out", "x", "--n", "50", "--codes", "6", "--seed", "3"],
        ["navregret", "--in", "x", "--reps", "5"],
        ["perception-case", "--out", "x", "--n", "10", "--tp", "0.9"],
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
        {"schema": "scores/1", "scores": {"a": 0.5, "b": "high"}}))
    with pytest.raises(SystemExit) as exc:
        main(["mine", "--in", str(tmp_path), "--p", "50"])
    assert exc.value.code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "TypeError"


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


def test_pick_seeds():
    config = ExperimentConfig(seeds=(101, 202, 303))
    assert _pick_seeds("", config) == (101, 202, 303)
    assert _pick_seeds("2", config) == (101, 202)  # count prefix
    assert _pick_seeds("3", config) == (101, 202, 303)
    # Only a count in 1..len(config.seeds); never a literal seed.
    for raw in ("7", "5,6", "0", "-1", "two", "1.5"):
        with pytest.raises(ValueError, match=r"1\.\.3"):
            _pick_seeds(raw, config)


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
    shutil.copy(cli_run / "scenes.jsonl", tmp_path / "scenes.jsonl")
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


def test_scene1_run_scores_like_scene2(cli_and_full_runs, tmp_path, capsys):
    cli_run, _ = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    assert '"schema": "scene/2"' in (run / "scenes.jsonl").read_text().splitlines()[0]
    scenes = simkit.scenes_from_jsonl(run / "scenes.jsonl")
    (run / "scenes.jsonl").write_text(
        "".join(json.dumps(scene1_dict(s)) + "\n" for s in scenes))
    for name in ("reports.jsonl", "scores.json", "subsets.json"):
        (run / name).unlink()
    shutil.rmtree(run / "comparison")
    shutil.rmtree(run / "predictors")
    r = str(run)
    for argv in (["score", "--in", r], ["compare", "--in", r], ["finetune", "--in", r]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    got, want = _run_files(run), _run_files(cli_run)
    names = [n for n in want if n in ("reports.jsonl", "scores.json", "subsets.json")
             or n.startswith(("comparison/", "predictors/"))]
    assert len(names) > 5
    for name in names:
        assert got[name] == want[name], f"{name} differs"


def test_redeploy_with_every_predictor_reads_no_scenes(cli_and_full_runs, tmp_path, capsys):
    cli_run, full_run = cli_and_full_runs
    run = _copy_run(cli_run, tmp_path / "run")
    (run / "scenes.jsonl").unlink()
    (run / "case_study.json").unlink()
    assert main(["redeploy", "--in", str(run)]) == 0
    assert (run / "case_study.json").read_bytes() == (full_run / "case_study.json").read_bytes()
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


def test_redeploy_with_a_missing_predictor_reads_scenes(two_seed_run, tmp_path,
                                                        monkeypatch, capsys):
    run = _copy_run(two_seed_run, tmp_path / "run")
    (run / "predictors" / "HighRegretFT-102.json").unlink()
    (run / "case_study.json").unlink()
    reads = []
    real = simkit.scenes_from_jsonl
    monkeypatch.setattr(simkit, "scenes_from_jsonl",
                        lambda path: reads.append(Path(path).name) or real(path))
    assert main(["redeploy", "--in", str(run)]) == 0
    assert reads == ["scenes.jsonl"]
    # The refit predictor is the one finetune saved, so the case study is too.
    assert (run / "case_study.json").read_bytes() == \
        (two_seed_run / "case_study.json").read_bytes()
    # Without the scenes the missing predictor cannot be fitted.
    (run / "scenes.jsonl").unlink()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["redeploy", "--in", str(run)])
    assert exc.value.code == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "FileNotFoundError"


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
    lines = (run / "scenes.jsonl").read_text().splitlines(keepends=True)
    scene = simkit.scene_from_dict(json.loads(lines[2]))
    reason = "planner failed at t=0: empty candidate set"
    aborted = simkit.SceneRecord(scene.scenario_id, scene.context, scene.states[:1],
                                 [], [], [], [], aborted=True, abort_reason=reason,
                                 human_radii=scene.human_radii)
    lines[2] = json.dumps(simkit.scene_to_dict(aborted)) + "\n"
    (run / "scenes.jsonl").write_text("".join(lines))
    for argv in (["score", "--in", r], ["mine", "--in", r, "--p", "25"],
                 ["compare", "--in", r], ["finetune", "--in", r],
                 ["redeploy", "--in", r], ["report", "--in", r]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    sid = scene.scenario_id
    doc = json.loads((run / "scores.json").read_text())
    assert doc["skipped"] == {sid: reason}
    assert len(doc["scores"]) == 5 and sid not in doc["scores"]
    assert sid not in (run / "reports.jsonl").read_text()
    mined_sets = json.loads((run / "comparison" / "mined_sets.json").read_text())
    assert all(sid not in m["scores"] for m in mined_sets["metrics"].values())
    assert sid not in (run / "subsets.json").read_text()
    assert (run / "case_study.json").is_file()


def test_scores_json_has_no_skipped_key_when_nothing_was_skipped(cli_and_full_runs):
    doc = json.loads((cli_and_full_runs[0] / "scores.json").read_text())
    assert "skipped" not in doc
