"""End-to-end experiment pipelines.

The driving case study is seven stages over one run directory: simulate ->
score -> mine -> compare -> finetune -> redeploy -> render. Each stage
reads its inputs from the directory (`need` names the stage to run first
when one is missing) and is the only writer of its own files. The CLI
subcommand of the same name calls one stage; `run_full_pipeline` calls all
seven in order. The run's config has one reader, `run_config`.

Every stage is a pure function of (config, seeds) and the files the
previous stage wrote, so a rerun from the same config reproduces every
artifact byte for byte (manifest timestamp aside).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import yaml

from . import simkit
from .baselines import (
    METRICS,
    label_scenes,
    scene_prediction_errors,
    write_comparison,
)
from .core import JointState, RngStream
from .planner import PlannerHandle, RewardWeights
from .predictor import (
    PredictorParams,
    TablePredictor,
    fit,
    params_from_json,
    params_to_json,
)
from .regret import (
    AGGREGATIONS,
    LuceShepard,
    mine_top_quantile,
    mined_to_doc,
    reports_from_jsonl,
    reports_to_jsonl,
    score_scene,
)

ARMS = ("Base", "HighRegretFT", "LowRegretFT", "RandomFT", "AllFT")
SPLITS = ("high", "low")
CORE_METRICS = ("collision_cost", "collision_severity", "mean_regret")
ALL_METRICS = CORE_METRICS + ("ade", "fde")
REPORT_FORMATS = ("md", "csv", "svg")

_ARM_STREAM = {"HighRegretFT": 21, "LowRegretFT": 22, "RandomFT": 23, "AllFT": 24}
_ARM_POOL = {"HighRegretFT": "pool_high", "LowRegretFT": "pool_low",
             "RandomFT": "pool_random", "AllFT": "pool_all"}
_SUBSET_STREAM = 31


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Everything a pipeline run depends on; YAML-round-trippable."""

    families: tuple[tuple[str, int], ...] = (("StrandedTruck", 20),
                                             ("SparseCruise", 76))
    base_seed: int = 99
    pretrain_families: tuple[tuple[str, int], ...] = (("SparseCruise", 24),
                                                      ("Intersection", 24))
    pretrain_seed: int = 7
    seeds: tuple[int, ...] = (101, 202, 303)
    p: float = 20.0
    holdout_frac: float = 0.2
    finetune_lambda: float = 0.5
    aggregation: str = "mean"
    replan_every: int = 10
    planner: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    predictor: dict = field(default_factory=dict)
    out_dir: str = "runs/case-study"

    def __post_init__(self):
        self.families = tuple((str(f), int(n)) for f, n in self.families)
        self.pretrain_families = tuple((str(f), int(n))
                                       for f, n in self.pretrain_families)
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.families:
            raise ValueError("families must be non-empty")
        for fam, n in self.families + self.pretrain_families:
            if fam not in simkit.FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
            if n < 1:
                raise ValueError(f"family count must be >= 1, got {n}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for key, values in (("base_seed", (self.base_seed,)),
                            ("pretrain_seed", (self.pretrain_seed,)), ("seeds", self.seeds)):
            bad = [v for v in values if v < 0]
            if bad:
                raise ValueError(f"{key} must be >= 0, got {bad[0]}")
        if not (0.0 < self.p < 100.0):
            raise ValueError("p must be in (0, 100)")
        if not (0.0 < self.holdout_frac < 1.0):
            raise ValueError("holdout_frac must be in (0, 1)")
        if not (0.0 < self.finetune_lambda <= 1.0):
            raise ValueError("finetune_lambda must be in (0, 1]")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError("aggregation must be 'mean' or 'worst'")
        if self.replan_every < 1:
            raise ValueError("replan_every must be >= 1")
        # A bad or unknown planner, weights or predictor key fails at load.
        self.planner_handle()
        self.fresh_predictor()

    def planner_handle(self) -> PlannerHandle:
        kw = dict(self.planner)
        if "steer_profiles" in kw:
            kw["steer_profiles"] = tuple(kw["steer_profiles"])
        if "accel_levels" in kw:
            kw["accel_levels"] = tuple(kw["accel_levels"])
        return PlannerHandle(weights=RewardWeights(**self.weights), **kw)

    def fresh_predictor(self) -> PredictorParams:
        return PredictorParams.fresh(**self.predictor)

    def n_scenarios(self) -> int:
        return sum(n for _, n in self.families)

    def to_dict(self) -> dict:
        """Plain lists and dicts, keys in field order."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**d, "families": [list(x) for x in self.families],
                "pretrain_families": [list(x) for x in self.pretrain_families],
                "seeds": list(self.seeds), "planner": dict(self.planner),
                "weights": dict(self.weights), "predictor": dict(self.predictor)}

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        unknown = set(d) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kw = dict(d)
        for key in ("families", "pretrain_families"):
            if key in kw:
                kw[key] = tuple((f, n) for f, n in kw[key])
        if "seeds" in kw:
            kw["seeds"] = tuple(kw["seeds"])
        return ExperimentConfig(**kw)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def config_to_yaml(config: ExperimentConfig, path) -> Path:
    path = Path(path)
    path.write_text(yaml.safe_dump(config.to_dict(), sort_keys=False))
    return path


# libyaml's loader parses a config about 10x faster and gives an equal dict.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def config_from_yaml(path) -> ExperimentConfig:
    doc = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a mapping")
    return ExperimentConfig.from_dict(doc)


def run_config(run, path=None) -> ExperimentConfig:
    """The run's config: the `path` YAML file if given, else the config that
    `deploy` recorded in run/manifest.json, else the defaults.

    run/config.yaml is written for people to read and is never read back.
    """
    if path:
        return config_from_yaml(path)
    if run is not None and (Path(run) / "manifest.json").exists():
        doc = json.loads((Path(run) / "manifest.json").read_text())
        return ExperimentConfig.from_dict(doc["config"])
    return ExperimentConfig()


class StaleRunError(ValueError):
    """A stage's input was made from other files than the run holds now."""


def need(run, name: str, stage: str) -> Path:
    """run/name, or FileNotFoundError naming the stage that writes it."""
    path = Path(run) / name
    if not path.exists():
        raise FileNotFoundError(f"{path} not found — run `{stage}` first")
    return path


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------

def _batch_specs(families, base_seed) -> list[simkit.ScenarioSpec]:
    specs = []
    for fam, n in families:
        specs.extend(simkit.generate_scenario_batch(fam, n, base_seed))
    return specs


def pretrain_predictor(config: ExperimentConfig) -> PredictorParams:
    """Base predictor: fit on closed-loop runs of the pretraining families
    under the ground-truth-future predictor (clean demonstrations)."""
    if not config.pretrain_families:
        raise ValueError("pretrain_families must be non-empty")
    specs = _batch_specs(config.pretrain_families, config.pretrain_seed)
    handle = config.planner_handle()

    scenes = [simkit.run_closed_loop(spec, handle, simkit.OraclePredictor(),
                                     config.replan_every)
              for spec in specs]
    return fit(scenes, init=config.fresh_predictor(), learning="full")


def deploy(config: ExperimentConfig, params: PredictorParams,
           out_dir=None) -> tuple[list, dict[str, Path]]:
    """Closed-loop deployment of every configured scenario with the base
    predictor; writes scenes.jsonl, scenarios.json, predictor_base.json, and
    manifest.json (the only file carrying a timestamp)."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = _batch_specs(config.families, config.base_seed)
    handle = config.planner_handle()

    scenes = [simkit.run_closed_loop(spec, handle, TablePredictor(params),
                                     config.replan_every)
              for spec in specs]
    paths = {
        "scenes": out / "scenes.jsonl",
        "scenarios": out / "scenarios.json",
        "predictor_base": out / "predictor_base.json",
        "manifest": out / "manifest.json",
    }
    simkit.scenes_to_jsonl(paths["scenes"], scenes)
    paths["scenarios"].write_text(json.dumps({
        "schema": "scenarios/1",
        "scenarios": [simkit.spec_to_dict(s) for s in specs],
    }, indent=2))
    paths["predictor_base"].write_text(params_to_json(params))
    paths["manifest"].write_text(json.dumps({
        "schema": "manifest/1",
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "n_scenes": len(scenes),
        "aborted_ids": sorted(s.scenario_id for s in scenes if s.aborted),
    }, indent=2))
    return scenes, paths


def _scenes_path(run) -> Path:
    """run/scenes.jsonl, when it and its sidecar scenes.bin both exist; else
    FileNotFoundError naming `simulate`."""
    path = need(run, "scenes.jsonl", "simulate")
    need(run, "scenes.bin", "simulate")
    return path


def _scores_doc(run) -> dict:
    return json.loads(need(run, "scores.json", "score").read_text())


def _specs_by_id(run) -> dict:
    doc = json.loads(need(run, "scenarios.json", "simulate").read_text())
    specs = [simkit.spec_from_dict(d) for d in doc["scenarios"]]
    return {s.scenario_id: s for s in specs}


def _base_params(run) -> PredictorParams:
    return params_from_json(need(run, "predictor_base.json", "simulate").read_text())


def load_deployment(out_dir) -> tuple[ExperimentConfig, list, dict, PredictorParams]:
    """(config, scenes, specs_by_id, base params) from a deployment directory."""
    need(out_dir, "manifest.json", "simulate")
    return (run_config(out_dir), simkit.scenes_from_jsonl(_scenes_path(out_dir)),
            _specs_by_id(out_dir), _base_params(out_dir))


# ---------------------------------------------------------------------------
# Scoring and subset construction
# ---------------------------------------------------------------------------

def score_deployment(scenes: Sequence, config: ExperimentConfig):
    """(scores by scenario id under config.aggregation, full per-scene
    regret reports)."""
    model = LuceShepard(config.planner_handle().weights)
    reports = [score_scene(model, scene) for scene in scenes]
    return _scene_scores(reports, config.aggregation), reports


def _scene_scores(reports: Sequence, aggregation: str) -> dict[str, float]:
    """{scenario id: generalized regret score under aggregation}."""
    return {r.scenario_id: r.scores(aggregation)[0] for r in reports}


def write_scores(run, scores: dict[str, float], aggregation: str,
                 skipped: Optional[dict[str, str]] = None,
                 inputs_sha256: Optional[str] = None) -> None:
    """Write scores.json, the scores sorted by scene id, and, when a scene
    was skipped, "skipped": {scene id: reason} sorted by scene id. The
    "inputs_sha256" key of the scores is written when given."""
    doc = {"schema": "scores/1", "aggregation": aggregation}
    if inputs_sha256 is not None:
        doc["inputs_sha256"] = inputs_sha256
    doc["scores"] = {k: scores[k] for k in sorted(scores)}
    if skipped:
        doc["skipped"] = {k: skipped[k] for k in sorted(skipped)}
    (Path(run) / "scores.json").write_text(json.dumps(doc, indent=2))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scenes_part(scenes_path: Path) -> str:
    """The scenes part of a scoring key: the first 128 bits, in hex, of the
    SHA-256 of scenes.jsonl's bytes."""
    return _sha256(scenes_path.read_bytes())[:32]


def _scoring_key(scenes_path: Path, weights: RewardWeights) -> str:
    """The scenes part followed by the first 128 bits, in hex, of the
    SHA-256 of the reward weights: everything a scene's regret report is
    priced from, in the 64 hex digits of one SHA-256."""
    return _scenes_part(scenes_path) + _sha256(json.dumps(asdict(weights)).encode())[:32]


def _check_scored(scenes_path: Path, doc: dict) -> None:
    """StaleRunError naming `score` unless doc, the run's scores.json, was
    scored from the scenes.jsonl at scenes_path, under any reward weights."""
    key = doc.get("inputs_sha256")
    if not isinstance(key, str) or key[:32] != _scenes_part(scenes_path):
        raise StaleRunError(f"{scenes_path.parent / 'scores.json'} was not scored from "
                            f"the current {scenes_path} — run `score` first")


def _stored_reports(run: Path, key: str) -> Optional[tuple[list, dict]]:
    """(reports, skipped) of the last `score` of run, when its scores.json
    carries key, reports.jsonl parses, holds one report per scored scene,
    and aggregates under the recorded aggregation to the stored scores;
    else None."""
    try:
        doc = json.loads((run / "scores.json").read_text())
        if doc.get("inputs_sha256") != key:
            return None
        reports = reports_from_jsonl(run / "reports.jsonl")
        if (len(reports) != len(doc["scores"])
                or _scene_scores(reports, doc["aggregation"]) != doc["scores"]):
            return None
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return reports, doc.get("skipped", {})


@dataclass(frozen=True)
class Subsets:
    """Holdout/fine-tuning split of a scored deployment."""

    holdout_high: frozenset[str]
    holdout_low: frozenset[str]
    pool_high: frozenset[str]
    pool_low: frozenset[str]
    pool_random: frozenset[str]
    pool_all: frozenset[str]

    def __post_init__(self):
        holdouts = self.holdout_high | self.holdout_low
        for name in ("pool_high", "pool_low", "pool_random", "pool_all"):
            if getattr(self, name) & holdouts:
                raise ValueError(f"{name} overlaps a holdout set")
        if not self.pool_random <= self.pool_all:
            raise ValueError("pool_random must be a subset of pool_all")

    def to_dict(self) -> dict:
        return {"schema": "subsets/1",
                **{k: sorted(getattr(self, k)) for k in (
                    "holdout_high", "holdout_low", "pool_high", "pool_low",
                    "pool_random", "pool_all")}}

    @staticmethod
    def from_dict(d: dict) -> "Subsets":
        if d.get("schema") != "subsets/1":
            raise ValueError(f"unsupported schema {d.get('schema')!r}")
        return Subsets(**{k: frozenset(d[k]) for k in (
            "holdout_high", "holdout_low", "pool_high", "pool_low",
            "pool_random", "pool_all")})


def _rng_sample(ids: Sequence[str], k: int, rng: RngStream) -> frozenset[str]:
    ids = sorted(ids)
    gen = rng.generator()
    take = gen.choice(len(ids), size=k, replace=False)
    return frozenset(ids[int(j)] for j in take)


def build_subsets(scene_ids: Sequence[str], scores: dict[str, float],
                  p: float, holdout_frac: float, rng: RngStream) -> Subsets:
    """Mine the top-p% as the high-regret set, hold out holdout_frac of both
    halves (ceil), and build equal-size fine-tuning pools.

    pool_high: mined scenes not held out. pool_low: the |pool_high|
    lowest-scoring non-holdout scenes. pool_random: |pool_high| scenes
    sampled uniformly from pool_all (everything not held out).
    """
    ids = list(scene_ids)
    missing = [i for i in ids if i not in scores]
    if missing:
        raise ValueError(f"scores missing for {missing[:3]}...")
    mined = mine_top_quantile(sorted((i, scores[i]) for i in ids), p)
    low = [i for i in ids if i not in mined]
    n_hold_high = math.ceil(holdout_frac * len(mined))
    n_hold_low = math.ceil(holdout_frac * len(low))
    holdout_high = _rng_sample(sorted(mined), n_hold_high, rng.derive(0))
    holdout_low = _rng_sample(low, n_hold_low, rng.derive(1))
    pool_high = frozenset(mined) - holdout_high
    pool_all = frozenset(ids) - holdout_high - holdout_low
    k = len(pool_high)
    if k < 1:
        raise ValueError("pool_high is empty after holdout")
    low_candidates = sorted((i for i in low if i not in holdout_low),
                            key=lambda i: (scores[i], i))
    if len(low_candidates) < k:
        raise ValueError(f"need {k} low-regret scenes, have {len(low_candidates)}")
    pool_low = frozenset(low_candidates[:k])
    if len(pool_all) < k:
        raise ValueError(f"need {k} scenes for the random pool, have {len(pool_all)}")
    pool_random = _rng_sample(sorted(pool_all), k, rng.derive(2))
    return Subsets(holdout_high=holdout_high, holdout_low=holdout_low,
                   pool_high=pool_high, pool_low=pool_low,
                   pool_random=pool_random, pool_all=pool_all)


# ---------------------------------------------------------------------------
# Fine-tuning case study
# ---------------------------------------------------------------------------

def cell_metric(cell: dict, metric: str) -> float:
    """A metric of one case-study cell. Collision cost is the cell's total
    collision cost per scene and collision severity its total per collision
    frame, each 0.0 with nothing to divide by; every other metric is stored."""
    if metric not in ("collision_cost", "collision_severity"):
        return cell[metric]
    total = sum(cell["per_scene_collision_cost"].values())
    n = (len(cell["per_scene_collision_cost"]) if metric == "collision_cost"
         else cell["collision_frames"])
    return total / n if n > 0 else 0.0


@dataclass
class CaseStudyReport:
    """Per-arm, per-split, per-seed closed-loop metrics.

    values[arm][split] is a list of cells aligned with seeds; each cell holds
    mean regret, ADE and FDE, the per-scene collision costs and the
    collision frame count, from which cell_metric computes the rest.
    """

    seeds: tuple[int, ...]
    values: dict[str, dict[str, list[dict]]]

    def __post_init__(self):
        self.seeds = tuple(int(s) for s in self.seeds)
        for arm, by_split in self.values.items():
            for split, cells in by_split.items():
                if len(cells) != len(self.seeds):
                    raise ValueError(f"{arm}/{split}: {len(cells)} cells for "
                                     f"{len(self.seeds)} seeds")

    def metric_over_seeds(self, arm: str, split: str, metric: str) -> list[float]:
        return [cell_metric(cell, metric) for cell in self.values[arm][split]]

    def aggregate(self, arm: str, split: str, metric: str) -> tuple[float, float]:
        vals = np.array(self.metric_over_seeds(arm, split, metric))
        sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        return float(vals.mean()), sd

    def pooled_scene_costs(self, arm: str, split: str) -> list[float]:
        out = []
        for cell in self.values[arm][split]:
            out.extend(cell["per_scene_collision_cost"][k]
                       for k in sorted(cell["per_scene_collision_cost"]))
        return out

    def median_collision_cost(self, arm: str, split: str) -> float:
        return float(np.median(self.pooled_scene_costs(arm, split)))

    def to_dict(self) -> dict:
        return {"schema": "casestudy/2", "seeds": list(self.seeds),
                "arms": list(self.values), "values": self.values}

    @staticmethod
    def from_dict(d: dict) -> "CaseStudyReport":
        if d.get("schema") != "casestudy/2":
            raise ValueError(f"unsupported schema {d.get('schema')!r}")
        return CaseStudyReport(seeds=tuple(d["seeds"]), values=d["values"])


def finetune_params(arm: str, config: ExperimentConfig,
                    base_params: PredictorParams, subsets: Subsets,
                    scenes_by_id: dict, seed: int) -> PredictorParams:
    """One arm's predictor for one seed: bootstrap-resample the arm's pool
    and blend the refit counts into the base table. Base passes through."""
    if arm == "Base":
        return base_params
    pool_ids = sorted(getattr(subsets, _ARM_POOL[arm]))
    if not pool_ids:
        raise ValueError(f"{arm}: empty fine-tuning pool")
    gen = RngStream(seed, _ARM_STREAM[arm]).generator()
    take = gen.integers(0, len(pool_ids), size=len(pool_ids))
    scenes = [scenes_by_id[pool_ids[int(j)]] for j in take]
    return fit(scenes, init=base_params, learning="finetune",
               lam=config.finetune_lambda)


def _fit_arms(config: ExperimentConfig, base_params: PredictorParams,
              subsets: Subsets, scenes_by_id: dict, arms: Sequence[str]) -> dict:
    """{(arm, seed): params} for every arm of arms, which must be of ARMS,
    but Base at every seed of config.seeds: the one fitting place."""
    unknown = [arm for arm in arms if arm not in ARMS]
    if unknown:
        raise ValueError(f"unknown arm {unknown[0]!r}; known: {ARMS}")
    return {(arm, seed): finetune_params(arm, config, base_params, subsets,
                                         scenes_by_id, seed)
            for arm in arms if arm != "Base" for seed in config.seeds}


def _split_cell(scenes: Sequence, config: ExperimentConfig) -> dict:
    """One (arm, split, seed) cell. A scene with no replan log (aborted at
    t=0) keeps its collision cost but is left out of mean_regret, ade and
    fde, and the cell lists it as "skipped": {scene id: abort reason}."""
    scored = [s for s in scenes if s.replan_log]
    skipped = {s.scenario_id: s.abort_reason for s in scenes if not s.replan_log}
    regrets = list(score_deployment(scored, config)[0].values())
    errs = [scene_prediction_errors(s) for s in scored]
    cell = {
        "mean_regret": float(np.mean(regrets)) if regrets else 0.0,
        "ade": float(np.mean([e[0] for e in errs])) if errs else 0.0,
        "fde": float(np.mean([e[1] for e in errs])) if errs else 0.0,
        "collision_frames": sum(s.collision_frames for s in scenes),
        "per_scene_collision_cost": {s.scenario_id: s.total_collision_cost
                                     for s in scenes},
    }
    if skipped:
        cell["skipped"] = skipped
    return cell


def _deployed_holdouts(ids: Sequence[str], scenes_by_id: dict, specs_by_id: dict,
                       config: ExperimentConfig, handle: PlannerHandle) -> list:
    """The deployed records of the holdout ids, each checked to be a run of
    config's closed loop from its spec: replans every
    min(replan_every, horizon) steps from t=0, each with the handle's
    candidate set, and frame 0 the spec's initial state."""
    step = min(config.replan_every, handle.horizon)
    out = []
    for sid in ids:
        rec = scenes_by_id.get(sid)
        if rec is None:
            raise ValueError(f"holdout scene {sid!r} is not in the deployment")
        spec = specs_by_id[sid]
        ts = [e.t for e in rec.replan_log]
        if ts != list(range(0, step * len(ts), step)):
            raise ValueError(f"holdout scene {sid!r}: replan times {ts} are not "
                             f"every {step} steps from 0")
        if any(len(e.candidates) != handle.n_candidates
               or any(len(c) != handle.horizon for c in e.candidates)
               for e in rec.replan_log):
            raise ValueError(f"holdout scene {sid!r}: a replan does not have "
                             f"{handle.n_candidates} candidates of "
                             f"{handle.horizon} steps")
        if rec.states[0] != JointState(spec.robot_init,
                                       tuple(s for s, _ in spec.humans), 0):
            raise ValueError(f"holdout scene {sid!r}: frame 0 is not the initial "
                             "state of its scenario")
        out.append(rec)
    return out


def finetune_and_redeploy(config: ExperimentConfig, scenes_by_id: dict,
                          specs_by_id: dict, subsets: Subsets,
                          base_params: Optional[PredictorParams],
                          arms: Sequence[str] = ARMS,
                          fitted: Optional[dict] = None) -> CaseStudyReport:
    """Re-run the holdout scenarios closed-loop under each arm's fine-tuned
    predictor per seed, and collect metrics.

    scenes_by_id must be the deployment of base_params under config. The
    Base arm is not fine-tuned, so its holdout cells are those deployed
    records, the closed loops a Base redeployment would run again; each is
    checked to fit config's closed loop (ValueError naming the scene
    otherwise), and Base's cells are the same for every seed.
    fitted={(arm, seed): params} must hold every other arm at every seed of
    config.seeds (ValueError naming the first missing one). With
    fitted=None, _fit_arms fits them from base_params and the pool scenes
    of scenes_by_id, which are read for nothing else.
    """
    handle = config.planner_handle()
    split_ids = {"high": sorted(subsets.holdout_high),
                 "low": sorted(subsets.holdout_low)}
    for split, ids in split_ids.items():
        missing = [i for i in ids if i not in specs_by_id]
        if missing:
            raise ValueError(f"{split} holdout specs missing: {missing[:3]}")
    if fitted is None:
        fitted = _fit_arms(config, base_params, subsets, scenes_by_id, arms)
    missing = [(arm, seed) for arm in arms if arm != "Base"
               for seed in config.seeds if (arm, seed) not in fitted]
    if missing:
        arm, seed = missing[0]
        raise ValueError(f"no fitted predictor for arm {arm!r} at seed {seed}")

    def run_split(params, ids):
        return _split_cell([simkit.run_closed_loop(specs_by_id[sid], handle,
                                                   TablePredictor(params),
                                                   config.replan_every)
                            for sid in ids], config)

    values: dict[str, dict[str, list[dict]]] = {}
    for arm in arms:
        if arm == "Base":
            values[arm] = {}
            for split, ids in split_ids.items():
                cell = _split_cell(_deployed_holdouts(ids, scenes_by_id, specs_by_id,
                                                      config, handle), config)
                values[arm][split] = [dict(cell) for _ in config.seeds]
            continue
        values[arm] = {"high": [], "low": []}
        for seed in config.seeds:
            for split, ids in split_ids.items():
                values[arm][split].append(run_split(fitted[(arm, seed)], ids))
    return CaseStudyReport(seeds=config.seeds, values=values)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def write_case_markdown(report: CaseStudyReport, path) -> Path:
    """Arm x split table of the three closed-loop metrics (mean +/- sd over
    seeds), with prediction errors in a second table."""
    path = Path(path)
    lines = ["# Fine-tuning case study", "",
             f"Seeds: {', '.join(str(s) for s in report.seeds)}", ""]
    for title, header, metrics in (
            ("Closed-loop metrics",
             "collision cost | collision severity | mean regret", CORE_METRICS),
            ("Prediction errors", "ADE | FDE", ("ade", "fde"))):
        lines += [f"## {title}", "", f"| arm | split | {header} |",
                  "| --- " * (2 + len(metrics)) + "|"]
        for arm in report.values:
            for split in SPLITS:
                cells = ["{:.4f} ± {:.4f}".format(*report.aggregate(arm, split, m))
                         for m in metrics]
                lines.append(f"| {arm} | {split} | " + " | ".join(cells) + " |")
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def write_case_csv(report: CaseStudyReport, path) -> Path:
    """Long-form arm,split,seed,metric,value rows at full float precision."""
    path = Path(path)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["arm", "split", "seed", "metric", "value"])
        for arm, by_split in report.values.items():
            for split in SPLITS:
                for seed, cell in zip(report.seeds, by_split[split]):
                    for metric in ALL_METRICS:
                        w.writerow([arm, split, seed, metric,
                                    repr(float(cell_metric(cell, metric)))])
    return path


def write_regret_histogram(scores: dict[str, float], p: float, path) -> Path:
    """Hand-rolled SVG histogram of per-scene regret in 16 bins with the
    mining threshold marked."""
    path = Path(path)
    vals = np.array([scores[k] for k in sorted(scores)])
    if vals.size < 1:
        raise ValueError("scores must be non-empty")
    mined = mine_top_quantile(sorted(scores.items()), p)
    threshold = min(scores[i] for i in mined)
    counts, edges = np.histogram(vals, bins=16)
    W, H, ml, mb, mt, mr = 640, 360, 60, 40, 24, 16
    pw, ph = W - ml - mr, H - mt - mb
    cmax = max(1, int(counts.max()))
    lo, hi = float(edges[0]), float(edges[-1])
    span = hi - lo if hi > lo else 1.0

    def x_at(v):
        return ml + (v - lo) / span * pw

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{ml}" y="16" font-family="sans-serif" font-size="13">'
             f'Scene regret distribution (N={vals.size}, p={p:g}%)</text>']
    for i, c in enumerate(counts):
        x0, x1 = x_at(edges[i]), x_at(edges[i + 1])
        h = ph * c / cmax
        parts.append(f'<rect x="{x0:.2f}" y="{mt + ph - h:.2f}" '
                     f'width="{max(0.5, x1 - x0 - 1):.2f}" height="{h:.2f}" '
                     f'fill="#4c78a8"/>')
    tx = x_at(threshold)
    parts.append(f'<line x1="{tx:.2f}" y1="{mt}" x2="{tx:.2f}" y2="{mt + ph}" '
                 f'stroke="#d62728" stroke-width="1.5" stroke-dasharray="5,3"/>')
    parts.append(f'<text x="{min(tx + 4, W - 130):.2f}" y="{mt + 12}" '
                 f'font-family="sans-serif" font-size="11" fill="#d62728">'
                 f'mine threshold {threshold:.4g}</text>')
    parts.append(f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
                 f'stroke="black"/>')
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * span
        parts.append(f'<text x="{x_at(v):.2f}" y="{H - 14}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{v:.4g}</text>')
    parts.append(f'<text x="{ml - 8}" y="{mt + 4}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{cmax}</text>')
    parts.append(f'<text x="{ml - 8}" y="{mt + ph}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">0</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def report(case: Optional[CaseStudyReport], formats: Sequence[str], out_dir,
           scores: Optional[dict[str, float]] = None,
           p: float = 20.0) -> list[Path]:
    """Render the requested formats, each once: md/csv need the case study,
    svg needs deployment scores. Every format is checked before any write."""
    formats = tuple(dict.fromkeys(formats))
    unknown = [fmt for fmt in formats if fmt not in REPORT_FORMATS]
    if unknown or not formats:
        raise ValueError(f"need one or more report formats, got {list(formats)}; "
                         f"choose from {','.join(REPORT_FORMATS)}")
    for fmt in formats:
        if fmt == "svg" and scores is None:
            raise ValueError("svg histogram needs deployment scores — run `score` first")
        if fmt != "svg" and case is None:
            raise ValueError(f"{fmt} report needs a case study — run `redeploy` first")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "svg":
            written.append(write_regret_histogram(scores, p, out_dir / "regret_hist.svg"))
        else:
            writer = write_case_markdown if fmt == "md" else write_case_csv
            written.append(writer(case, out_dir / f"case_study.{fmt}"))
    return written


# ---------------------------------------------------------------------------
# Stages over a run directory
# ---------------------------------------------------------------------------

def simulate(config: ExperimentConfig, run) -> list:
    """Pretrain the base predictor and deploy it into run; writes the files of
    `deploy` and config.yaml. Returns the scenes."""
    scenes, _ = deploy(config, pretrain_predictor(config), run)
    config_to_yaml(config, Path(run) / "config.yaml")
    return scenes


def score(run, config: ExperimentConfig) -> dict[str, float]:
    """Score every deployed scene under config.aggregation; writes
    reports.jsonl and scores.json, keyed by digests of scenes.jsonl and of
    the reward weights. A scene aborted before its first replan has no
    replan to score: it is left out, and scores.json lists it under
    "skipped" with its abort reason. When the run's last `score` had the
    same key and left its files as written, its reports are re-aggregated
    without decoding a scene, and reports.jsonl, which holds no aggregate,
    is left as it is. Returns the scores by scene id."""
    run = Path(run)
    scenes_path = _scenes_path(run)
    key = _scoring_key(scenes_path, config.planner_handle().weights)
    stored = _stored_reports(run, key)
    if stored is not None:
        reports, skipped = stored
        scores = _scene_scores(reports, config.aggregation)
    else:
        scenes = simkit.scenes_from_jsonl(scenes_path)
        skipped = {s.scenario_id: s.abort_reason for s in scenes if not s.replan_log}
        scores, reports = score_deployment([s for s in scenes if s.replan_log], config)
        reports_to_jsonl(run / "reports.jsonl", reports)
    write_scores(run, scores, config.aggregation, skipped, key)
    return scores


def mine(run, p: float) -> dict:
    """Flag the top p% of scores.json under its aggregation; writes
    mined.json. Returns its document."""
    doc = json.loads(need(run, "scores.json", "score").read_text())
    if doc["aggregation"] not in AGGREGATIONS:
        raise ValueError(f"scores.json: unknown aggregation {doc['aggregation']!r}")
    mined = mined_to_doc(sorted(doc["scores"].items()), p, doc["aggregation"])
    (Path(run) / "mined.json").write_text(json.dumps(mined, indent=2))
    return mined


def compare(run, config: ExperimentConfig,
            metrics: Sequence[str] = METRICS) -> list[Path]:
    """Mined-set overlap of the regret reports and the baselines over the
    scenes `score` did not skip; writes comparison/. Returns the written
    paths. Raises StaleRunError as finetune does, and ValueError naming the
    choices, before any write, when metrics is empty or names an unknown
    metric."""
    unknown = [m for m in metrics if m not in METRICS]
    if unknown or not metrics:
        raise ValueError(f"need one or more metrics, got {list(metrics)}; choose "
                         f"from {','.join(METRICS).lower()}")
    scenes_path = _scenes_path(run)
    reports_path = need(run, "reports.jsonl", "score")
    try:
        reports = reports_from_jsonl(reports_path)
    except ValueError as exc:
        # such as regret/1 reports, which `score` rescores and rewrites
        exc.add_note(f"{reports_path} cannot be read — run `score` to rewrite it")
        raise
    doc = _scores_doc(run)
    _check_scored(scenes_path, doc)
    scenes = simkit.scenes_from_jsonl(scenes_path)
    skipped = doc.get("skipped", {})
    labelings = label_scenes([s for s in scenes if s.scenario_id not in skipped],
                             reports, p=config.p,
                             handle=config.planner_handle(),
                             aggregation=config.aggregation)
    return write_comparison({m: labelings[m] for m in metrics},
                            Path(run) / "comparison")


def finetune(run, config: ExperimentConfig, arms: Sequence[str] = ARMS) -> dict:
    """Split the scored deployment into holdouts and fine-tuning pools and fit
    one predictor per (arm, seed), Base excepted, for every seed of
    config.seeds; writes subsets.json and predictors/<arm>-<seed>.json. It
    is the only stage that fits or writes a predictor. The split covers
    every scene of scenes.jsonl that `score` did not skip, and only the
    pools of the fitted arms are decoded, and subsets.json records the
    SHA-256 of the scores.json it was split from. finetune owns
    predictors/: it deletes every predictor this call did not fit, since one
    fitted on an earlier split would be redeployed on these holdouts.
    Raises StaleRunError when scores.json was not scored from the run's
    current scenes.jsonl, under whichever reward weights, and _fit_arms's
    ValueError before it writes anything. Returns {(arm, seed): params}."""
    run = Path(run)
    scenes_path = _scenes_path(run)
    scores_bytes = need(run, "scores.json", "score").read_bytes()
    doc = json.loads(scores_bytes)
    _check_scored(scenes_path, doc)
    scores, skipped = doc["scores"], doc.get("skipped", {})
    base_params = _base_params(run)
    subsets = None

    def pools(scene_ids):
        nonlocal subsets
        subsets = build_subsets([i for i in scene_ids if i not in skipped],
                                scores, config.p, config.holdout_frac,
                                RngStream(config.base_seed, _SUBSET_STREAM))
        return frozenset().union(*(getattr(subsets, _ARM_POOL[arm])
                                   for arm in arms if arm in _ARM_POOL))

    scenes_by_id = {s.scenario_id: s
                    for s in simkit.scenes_from_jsonl(scenes_path, pools)}
    fitted = _fit_arms(config, base_params, subsets, scenes_by_id, arms)
    (run / "subsets.json").write_text(json.dumps(
        {**subsets.to_dict(), "scores_sha256": _sha256(scores_bytes)}, indent=2))
    (run / "predictors").mkdir(exist_ok=True)
    for (arm, seed), params in fitted.items():
        (run / "predictors" / f"{arm}-{seed}.json").write_text(params_to_json(params))
    written = {f"{arm}-{seed}.json" for arm, seed in fitted}
    for fp in (run / "predictors").glob("*-*.json"):
        if fp.name not in written:
            fp.unlink()
    return fitted


def redeploy(run, config: ExperimentConfig) -> CaseStudyReport:
    """Re-run the holdouts for every arm with a saved predictor, and take
    Base's holdouts from the deployment; writes case_study.json. Decodes
    only the holdout scenes of scenes.jsonl and fits nothing. Raises
    FileNotFoundError naming `finetune` when such an arm has no
    predictors/<arm>-<seed>.json for a seed of config.seeds, ValueError
    naming a predictors/*-*.json file not named for a fine-tuned arm and a
    seed of config.seeds, and StaleRunError when scores.json was not scored from
    the run's current scenes.jsonl, under whichever reward weights, or
    subsets.json was not split from the run's current scores.json."""
    run = Path(run)
    doc = json.loads(need(run, "subsets.json", "finetune").read_text())
    scores_path = need(run, "scores.json", "score")
    scores_bytes = scores_path.read_bytes()
    scenes_path = _scenes_path(run)
    _check_scored(scenes_path, json.loads(scores_bytes))
    if doc.get("scores_sha256") != _sha256(scores_bytes):
        raise StaleRunError(f"{run / 'subsets.json'} was not split from the current "
                            f"{scores_path} — run `finetune` first")
    subsets = Subsets.from_dict(doc)
    saved = set()
    for fp in sorted((run / "predictors").glob("*-*.json")):
        arm, _, seed = fp.stem.rpartition("-")
        if arm not in ARMS[1:] or not seed.isdecimal() or int(seed) not in config.seeds:
            raise ValueError(f"{fp}: a predictor file is named <arm>-<seed>.json, "
                             f"with an arm of {', '.join(ARMS[1:])} and a seed "
                             f"of {', '.join(map(str, config.seeds))}")
        saved.add(arm)
    arms = ("Base",) + tuple(sorted(saved, key=ARMS.index))
    fitted = {(arm, seed): params_from_json(
                  need(run, f"predictors/{arm}-{seed}.json", "finetune").read_text())
              for arm in arms[1:] for seed in config.seeds}
    scenes = simkit.scenes_from_jsonl(scenes_path,
                                      subsets.holdout_high | subsets.holdout_low)
    case = finetune_and_redeploy(config, {s.scenario_id: s for s in scenes},
                                 _specs_by_id(run), subsets, None,
                                 arms=arms, fitted=fitted)
    (run / "case_study.json").write_text(json.dumps(case.to_dict(), indent=2))
    return case


def render(run, config: ExperimentConfig,
           formats: Sequence[str] = REPORT_FORMATS) -> list[Path]:
    """Render the case study and the scores that exist under run/report.
    Returns the written paths."""
    run = Path(run)
    case = scores = None
    if (run / "case_study.json").exists():
        case = CaseStudyReport.from_dict(
            json.loads((run / "case_study.json").read_text()))
    if (run / "scores.json").exists():
        scores = json.loads((run / "scores.json").read_text())["scores"]
    return report(case, formats, run / "report", scores=scores, p=config.p)


def run_full_pipeline(config: ExperimentConfig, out_dir=None) -> None:
    """Every stage in order, all under one run directory."""
    run = Path(out_dir if out_dir is not None else config.out_dir)
    simulate(config, run)
    score(run, config)
    mine(run, config.p)
    compare(run, config)
    finetune(run, config)
    redeploy(run, config)
    render(run, config)
