import json
import shutil

import pytest

from regret_miner import harness
from regret_miner.cli import _pick_arms, _pick_seeds, build_parser, main
from regret_miner.harness import ARMS, ExperimentConfig


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
    assert _pick_seeds("7", config) == (7,)        # too large for a count: literal
    assert _pick_seeds("5,6", config) == (5, 6)


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
