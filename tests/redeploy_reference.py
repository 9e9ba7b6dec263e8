"""The case study with every closed loop run again, kept as the redeploy tests' reference.

harness.finetune_and_redeploy takes Base's cells from the deployment, reuses
a record wherever a table predicts alike on the buckets it looked up, and
scores each distinct record once. This reference does none of that: it runs
every holdout loop of every arm, Base included, under its own table, and
scores every cell's records on their own. The two must agree to the bit.
"""

import numpy as np

from regret_miner import harness, simkit
from regret_miner.baselines import scene_prediction_errors
from regret_miner.predictor import TablePredictor


def rerun_cell(scenes, config):
    """One (arm, split, seed) cell of scenes, each scored on its own."""
    scored = [s for s in scenes if s.replan_log]
    skipped = {s.scenario_id: s.abort_reason for s in scenes if not s.replan_log}
    regrets = list(harness.score_deployment(scored, config)[0].values())
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


def reference_case(config, scenes_by_id, specs_by_id, subsets, base_params, arms,
                   fitted):
    """The case study when the Base arm ran its holdouts closed-loop again
    with base_params and every other arm ran each of its loops."""
    handle = config.planner_handle()
    split_ids = {"high": sorted(subsets.holdout_high),
                 "low": sorted(subsets.holdout_low)}

    def run_split(params, ids):
        return rerun_cell([simkit.run_closed_loop(specs_by_id[sid], handle,
                                                  TablePredictor(params),
                                                  config.replan_every)
                           for sid in ids], config)

    values = {}
    for arm in arms:
        values[arm] = {"high": [], "low": []}
        if arm == "Base":
            base_cells = {split: run_split(base_params, ids)
                          for split, ids in split_ids.items()}
            for split in harness.SPLITS:
                values[arm][split] = [dict(base_cells[split]) for _ in config.seeds]
            continue
        for seed in config.seeds:
            if fitted is not None and (arm, seed) in fitted:
                params = fitted[(arm, seed)]
            else:
                params = harness.finetune_params(arm, config, base_params, subsets,
                                                 scenes_by_id, seed)
            for split, ids in split_ids.items():
                values[arm][split].append(run_split(params, ids))
    return harness.CaseStudyReport(seeds=config.seeds, values=values)


def hexed(obj):
    """obj with every float spelled by float.hex, so that == compares bits
    (-0.0 apart from 0.0)."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    return obj
