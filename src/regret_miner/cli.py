"""Command-line front end.

One subcommand per pipeline stage so stages can run (and be rerun)
separately against the same run directory (`compare` reads the regret
reports in reports.jsonl, so `score` must run before it):

    regret-miner simulate --config cfg.yaml --out runs/exp
    regret-miner score --in runs/exp --model luce --agg mean
    regret-miner mine --in runs/exp --p 20
    regret-miner compare --in runs/exp --metrics grm,rm,ade,trfd
    regret-miner finetune --in runs/exp --arms base,low,random,high,all
    regret-miner redeploy --in runs/exp
    regret-miner report --in runs/exp --format md,csv,svg
    regret-miner navgen --out runs/nav
    regret-miner navregret --in runs/nav
    regret-miner perception-case --out runs/perception

Failures exit nonzero after printing a one-line error JSON to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import genplan, harness, simkit
from .baselines import label_scenes, write_comparison
from .core import RngStream
from .predictor import params_from_json
from .regret import reports_from_jsonl

_ARM_ALIASES = {"base": "Base", "low": "LowRegretFT", "random": "RandomFT",
                "high": "HighRegretFT", "all": "AllFT"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as JSON like every other failure."""

    def error(self, message):
        _fail("usage", message, code=2)


def _fail(kind: str, message: str, code: int = 1):
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}})
                     + "\n")
    raise SystemExit(code)


def _load_config(args) -> harness.ExperimentConfig:
    """--config wins; otherwise the run directory's saved config; otherwise
    defaults."""
    if getattr(args, "config", None):
        return harness.config_from_yaml(args.config)
    run_dir = getattr(args, "in_dir", None)
    if run_dir:
        for name in ("config.yaml", "manifest.json"):
            p = Path(run_dir) / name
            if p.exists():
                if name == "config.yaml":
                    return harness.config_from_yaml(p)
                return harness.ExperimentConfig.from_dict(
                    json.loads(p.read_text())["config"])
    return harness.ExperimentConfig()


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"{path} not found — run `{hint}` first")
    return path


# ---------------------------------------------------------------------------
# Driving-pipeline stages
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = Path(args.out or config.out_dir)
    params = harness.pretrain_predictor(config)
    scenes, paths = harness.deploy(config, params, out)
    harness.config_to_yaml(config, out / "config.yaml")
    print(f"simulated {len(scenes)} scenes -> {paths['scenes']}")
    return 0


def cmd_score(args) -> int:
    run = Path(args.in_dir)
    config = _load_config(args)
    if args.agg:
        config = harness.ExperimentConfig.from_dict(
            {**config.to_dict(), "aggregation": args.agg})
    if args.model == "gen":
        return _score_generative(run)
    scenes = simkit.scenes_from_jsonl(_require(run / "scenes.jsonl", "simulate"))
    _, reports = harness.score_deployment(scenes, config)
    scores = harness.write_scores(run, reports, config.aggregation)
    print(f"scored {len(scores)} scenes -> {run / 'scores.json'}")
    return 0


def _score_generative(run: Path) -> int:
    cb = genplan.codebook_from_json(
        _require(run / "codebook.json", "navgen").read_text())
    samples = genplan.nav_samples_from_json(
        _require(run / "nav_samples.json", "navgen").read_text())
    scores = {}
    for i, s in enumerate(samples):
        scores[f"nav-{i:05d}"] = genplan.generative_regret(
            cb, s.robot_traj, s.human_traj, s.delta_h, s.goal)
    (run / "scores.json").write_text(json.dumps({
        "schema": "scores/1", "aggregation": "mean",
        "scores": scores}, indent=2))
    print(f"scored {len(scores)} nav samples -> {run / 'scores.json'}")
    return 0


def cmd_mine(args) -> int:
    run = Path(args.in_dir)
    doc = json.loads(_require(run / "scores.json", "score").read_text())
    mined = harness.write_mined(run, doc["scores"], args.p,
                                doc.get("aggregation", "mean"))
    print(f"mined {mined['k']} of {len(doc['scores'])} (p={args.p:g}%) "
          f"-> {run / 'mined.json'}")
    return 0


def cmd_compare(args) -> int:
    run = Path(args.in_dir)
    config = _load_config(args)
    wanted = [m.strip().upper() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in ("GRM", "RM", "ADE", "TRFD")]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; choose from grm,rm,ade,trfd")
    scenes = simkit.scenes_from_jsonl(_require(run / "scenes.jsonl", "simulate"))
    reports = reports_from_jsonl(_require(run / "reports.jsonl", "score"))
    labelings = label_scenes(scenes, reports, p=config.p,
                             handle=config.planner_handle(),
                             aggregation=config.aggregation)
    labelings = {m: labelings[m] for m in wanted}
    paths = write_comparison(labelings, run / "comparison")
    print(f"compared {','.join(wanted)} -> {paths[0].parent}")
    return 0


def cmd_finetune(args) -> int:
    run = Path(args.in_dir)
    config, scenes, _, base_params = harness.load_deployment(run)
    seeds = _pick_seeds(args.seeds, config)
    arms = _pick_arms(args.arms)
    doc = json.loads(_require(run / "scores.json", "score").read_text())
    _, fitted = harness.fit_arms(run, config, base_params, scenes,
                                 doc["scores"], arms, seeds)
    print(f"fitted {len(fitted)} predictors ({','.join(arms)} x seeds "
          f"{','.join(str(s) for s in seeds)}) -> {run / 'predictors'}")
    return 0


def _pick_seeds(raw: str, config: harness.ExperimentConfig) -> tuple[int, ...]:
    if not raw:
        return config.seeds
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) == 1 and int(parts[0]) <= len(config.seeds):
        return config.seeds[:int(parts[0])]
    return tuple(int(p) for p in parts)


def _pick_arms(raw: str) -> tuple[str, ...]:
    if not raw:
        return harness.ARMS
    out = []
    for part in raw.split(","):
        key = part.strip().lower()
        if key not in _ARM_ALIASES:
            raise ValueError(f"unknown arm {part.strip()!r}; choose from "
                             f"{','.join(_ARM_ALIASES)}")
        out.append(_ARM_ALIASES[key])
    return tuple(dict.fromkeys(out))


def cmd_redeploy(args) -> int:
    run = Path(args.in_dir)
    config, _, specs_by_id, base_params = harness.load_deployment(
        run, with_scenes=False)
    subsets = harness.Subsets.from_dict(json.loads(
        _require(run / "subsets.json", "finetune").read_text()))
    fitted = {}
    for fp in sorted((run / "predictors").glob("*-*.json")):
        arm, seed = fp.stem.rsplit("-", 1)
        fitted[(arm, int(seed))] = params_from_json(fp.read_text())
    arms = tuple(["Base"] + sorted({a for a, _ in fitted},
                                   key=harness.ARMS.index))
    # The scenes are needed only to fit an (arm, seed) with no saved predictor.
    scenes_by_id = {}
    if any((arm, seed) not in fitted
           for arm in arms if arm != "Base" for seed in config.seeds):
        scenes_by_id = {s.scenario_id: s
                        for s in simkit.scenes_from_jsonl(run / "scenes.jsonl")}
    case = harness.finetune_and_redeploy(
        config, scenes_by_id, specs_by_id, subsets, base_params, arms=arms,
        fitted=fitted)
    path = harness.write_case_study(run, case)
    print(f"redeployed {','.join(arms)} -> {path}")
    return 0


def cmd_report(args) -> int:
    run = Path(args.in_dir)
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    case = scores = None
    if (run / "case_study.json").exists():
        case = harness.CaseStudyReport.from_dict(
            json.loads((run / "case_study.json").read_text()))
    if (run / "scores.json").exists():
        scores = json.loads((run / "scores.json").read_text())["scores"]
    config = _load_config(args)
    paths = harness.report(case, formats, run / "report", scores=scores,
                           p=config.p)
    print(f"wrote {', '.join(p.name for p in paths)} -> {run / 'report'}")
    return 0


# ---------------------------------------------------------------------------
# Generative-planner stages
# ---------------------------------------------------------------------------

def cmd_navgen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    data = genplan.generate_nav_dataset(args.n, rng=RngStream(args.seed),
                                        stats=stats)
    cb = genplan.fit_codebook(data, K=args.codes)
    (out / "nav_samples.json").write_text(genplan.nav_samples_to_json(data))
    (out / "codebook.json").write_text(genplan.codebook_to_json(cb))
    (out / "stats.json").write_text(json.dumps(
        {"schema": "navstats/1", "n": len(data), **stats}, indent=2))
    print(f"generated {len(data)} samples, K={args.codes} codebook -> {out}")
    return 0


def cmd_navregret(args) -> int:
    run = Path(args.in_dir)
    cb = genplan.codebook_from_json(
        _require(run / "codebook.json", "navgen").read_text())
    rng = RngStream(args.seed, 17)
    results = genplan.build_mismatch_scenarios(cb, rng, n_reps=args.reps)
    (run / "mismatch_regret.json").write_text(json.dumps(
        {"schema": "mismatch/1", "n_reps": args.reps,
         "mean_regret": results}, indent=2))
    for name, val in results.items():
        print(f"{name:12s} mean generative regret {val:.4f}")
    return 0


def cmd_perception_case(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sensor = genplan.SensorModel(detect_true_positive=args.tp,
                                 detect_false_positive=args.fp)
    rows = genplan.perception_case_study(
        sensor, n_samples_per_condition=args.n, rng=RngStream(args.seed))
    (out / "perception_case.json").write_text(json.dumps(
        {"schema": "perception/1", "n_per_condition": args.n,
         "mean_regret": dict(rows)}, indent=2))
    for tag, val in rows:
        print(f"{tag:20s} mean generative regret {val:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="regret-miner", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, help=kw.pop("help", None))
        p.set_defaults(fn=fn)
        return p

    p = add("simulate", cmd_simulate, help="pretrain + closed-loop deployment")
    p.add_argument("--config", help="experiment config YAML")
    p.add_argument("--out", help="run directory (default: config out_dir)")

    p = add("score", cmd_score, help="per-scene regret scores")
    p.add_argument("--in", dest="in_dir", required=True, help="run directory")
    p.add_argument("--config")
    p.add_argument("--model", choices=("luce", "gen"), default="luce",
                   help="reward-softmax or codebook-KDE likelihoods")
    p.add_argument("--agg", choices=("mean", "worst"), default=None)

    p = add("mine", cmd_mine, help="flag the top-p%% regret scenes")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--p", type=float, default=20.0)

    p = add("compare", cmd_compare, help="mined-set overlap across metrics")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--config")
    p.add_argument("--metrics", default="grm,rm,ade,trfd")

    p = add("finetune", cmd_finetune, help="fit per-arm fine-tuned predictors")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--arms", default="", help="comma list: base,low,random,high,all")
    p.add_argument("--seeds", default="", help="count or comma list of seeds")

    p = add("redeploy", cmd_redeploy, help="re-run holdouts per arm and seed")
    p.add_argument("--in", dest="in_dir", required=True)

    p = add("report", cmd_report, help="render case-study tables and plots")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--config")
    p.add_argument("--format", default="md,csv,svg")

    p = add("navgen", cmd_navgen, help="synthetic nav dataset + codebook")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--codes", type=int, default=6, help="codebook size K")
    p.add_argument("--seed", type=int, default=0)

    p = add("navregret", cmd_navregret,
            help="generative regret for the canned mismatch deployments")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="navgen output directory")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--seed", type=int, default=5)

    p = add("perception-case", cmd_perception_case,
            help="fault-injected perception deployments")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200, help="samples per condition")
    p.add_argument("--tp", type=float, default=1.0,
                   help="true-positive detection rate")
    p.add_argument("--fp", type=float, default=0.0,
                   help="false-positive detection rate")
    p.add_argument("--seed", type=int, default=0)
    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TypeError, RuntimeError, FileNotFoundError, KeyError,
            OSError, genplan.OutOfSupportError) as exc:
        _fail(type(exc).__name__, str(exc))
    except np.linalg.LinAlgError as exc:
        _fail("LinAlgError", str(exc))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
