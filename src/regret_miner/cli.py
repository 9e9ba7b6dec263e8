"""Command-line front end.

One subcommand per pipeline stage, so stages can run (and be rerun)
separately against the same run directory. Each driving subcommand parses
its arguments, calls the `harness` stage of the same name (`report` calls
`harness.render`) and prints one line; `harness.run_full_pipeline` calls
the same stages in order. A missing input names the stage to run first:

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

A stage uses its --config file if given, else the config `simulate`
recorded in the run's manifest.json, else the defaults. Failures exit
nonzero after printing a one-line error JSON to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import genplan, harness
from .core import RngStream

_RUN_CONFIG_HELP = "config YAML (default: the one recorded in manifest.json)"
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


# ---------------------------------------------------------------------------
# Driving-pipeline stages
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = harness.run_config(None, args.config)
    run = Path(args.out or config.out_dir)
    scenes = harness.simulate(config, run)
    print(f"simulated {len(scenes)} scenes -> {run / 'scenes.jsonl'}")
    return 0


def cmd_score(args) -> int:
    run = Path(args.in_dir)
    if args.model == "gen":
        if args.agg:
            _fail("usage", "--agg is not supported by the generative scorer "
                  "(--model gen), which has one score per sample", code=2)
        return _score_generative(run)
    config = harness.run_config(run, args.config)
    if args.agg:
        config = replace(config, aggregation=args.agg)
    scores = harness.score(run, config)
    print(f"scored {len(scores)} scenes -> {run / 'scores.json'}")
    return 0


def _score_generative(run: Path) -> int:
    cb = genplan.codebook_from_json(
        harness.need(run, "codebook.json", "navgen").read_text())
    samples = genplan.nav_samples_from_json(
        harness.need(run, "nav_samples.json", "navgen").read_text())
    scores = {f"nav-{i:05d}": genplan.generative_regret(
                  cb, s.robot_traj, s.human_traj, s.delta_h, s.goal)
              for i, s in enumerate(samples)}
    harness.write_scores(run, scores, "mean")
    print(f"scored {len(scores)} nav samples -> {run / 'scores.json'}")
    return 0


def cmd_mine(args) -> int:
    run = Path(args.in_dir)
    mined = harness.mine(run, args.p)
    print(f"mined {mined['k']} scenes (p={args.p:g}%) -> {run / 'mined.json'}")
    return 0


def cmd_compare(args) -> int:
    run = Path(args.in_dir)
    wanted = [m.strip().upper() for m in args.metrics.split(",") if m.strip()]
    harness.compare(run, harness.run_config(run, args.config), wanted)
    print(f"compared {','.join(wanted)} -> {run / 'comparison'}")
    return 0


def cmd_finetune(args) -> int:
    run = Path(args.in_dir)
    config = harness.run_config(run)
    seeds = _pick_seeds(args.seeds, config)
    arms = _pick_arms(args.arms)
    fitted = harness.finetune(run, config, arms, seeds)
    print(f"fitted {len(fitted)} predictors ({','.join(arms)} x seeds "
          f"{','.join(str(s) for s in seeds)}) -> {run / 'predictors'}")
    return 0


def _pick_seeds(raw: str, config: harness.ExperimentConfig) -> tuple[int, ...]:
    """The first `raw` of config.seeds; all of them when raw is empty."""
    if not raw:
        return config.seeds
    n = len(config.seeds)
    if not raw.strip().isdigit() or not 1 <= int(raw) <= n:
        raise ValueError(f"--seeds must be a count in 1..{n} (the config's "
                         f"seeds are {list(config.seeds)}), got {raw!r}")
    return config.seeds[:int(raw)]


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
    case = harness.redeploy(run, harness.run_config(run))
    print(f"redeployed {','.join(case.values)} -> {run / 'case_study.json'}")
    return 0


def cmd_report(args) -> int:
    run = Path(args.in_dir)
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    paths = harness.render(run, harness.run_config(run, args.config), formats)
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
        harness.need(run, "codebook.json", "navgen").read_text())
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
    sensor = genplan.SensorModel(detect_true_positive=args.tp,
                                 detect_false_positive=args.fp)
    rows = genplan.perception_case_study(
        sensor, n_samples_per_condition=args.n, rng=RngStream(args.seed))
    out.mkdir(parents=True, exist_ok=True)
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
    p.add_argument("--config", help=_RUN_CONFIG_HELP)
    p.add_argument("--model", choices=("luce", "gen"), default="luce",
                   help="reward-softmax or codebook-KDE likelihoods")
    p.add_argument("--agg", choices=("mean", "worst"), default=None)

    p = add("mine", cmd_mine, help="flag the top-p%% regret scenes")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--p", type=float, default=20.0)

    p = add("compare", cmd_compare, help="mined-set overlap across metrics")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--config", help=_RUN_CONFIG_HELP)
    p.add_argument("--metrics", default="grm,rm,ade,trfd")

    p = add("finetune", cmd_finetune, help="fit per-arm fine-tuned predictors")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--arms", default="", help="comma list: base,low,random,high,all")
    p.add_argument("--seeds", default="",
                   help="fit the first N of the config's seeds (default: all)")

    p = add("redeploy", cmd_redeploy, help="re-run holdouts per arm and seed")
    p.add_argument("--in", dest="in_dir", required=True)

    p = add("report", cmd_report, help="render case-study tables and plots")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--config", help=_RUN_CONFIG_HELP)
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
