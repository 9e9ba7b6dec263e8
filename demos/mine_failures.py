"""Deploy a predictor, score every scene, and mine the failures.

Runs a scaled-down version of the driving case study: pretrain a table
predictor on clean families, deploy it closed-loop into a mixed batch that
includes stranded-truck scenes it has never bucketed, then rank scenes by
likelihood-space regret and compare the mined set against the ADE and TRFD
baselines.

Takes a few seconds. Pass --out to keep the run artifacts.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from regret_miner.baselines import label_scenes, overlap
from regret_miner.harness import (
    ExperimentConfig,
    deploy,
    pretrain_predictor,
    score_deployment,
)
from regret_miner.regret import mine_top_quantile


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for run artifacts (default: temp dir)")
    args = ap.parse_args()
    out = args.out if args.out is not None else Path(tempfile.mkdtemp())

    config = ExperimentConfig(
        families=(("StrandedTruck", 4), ("SparseCruise", 12)),
        pretrain_families=(("SparseCruise", 8), ("Intersection", 8)),
        seeds=(101,),
        p=25.0,
        holdout_frac=0.25,
        out_dir=str(out),
    )

    print("pretraining on clean families ...")
    params = pretrain_predictor(config)
    print(f"deploying into {config.n_scenarios()} scenes ...")
    scenes, _ = deploy(config, params, out)
    collisions = sum(s.collision_frames > 0 for s in scenes)
    print(f"  {collisions} scenes ended in collision")

    scores, reports = score_deployment(scenes, config)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    print("\nhighest-regret scenes:")
    for sid, score in ranked[:6]:
        frames = next(s.collision_frames for s in scenes if s.scenario_id == sid)
        print(f"  {sid:28s} regret {score:.3f}  collision frames {frames}")

    mined = mine_top_quantile(sorted(scores.items()), config.p)
    print(f"\nmined {len(mined)} of {len(scenes)} scenes at p={config.p:g}: "
          + ", ".join(sorted(mined)))

    labelings = label_scenes(scenes, reports, p=config.p)
    grm = labelings["GRM"].mined
    print("mined-set overlap with baselines (fraction of the regret set):")
    for name in ("RM", "ADE", "TRFD"):
        other = labelings[name].mined
        frac = overlap(grm, other) if grm else float("nan")
        print(f"  {name:4s} flags {len(other):2d} scenes, overlap {frac:.2f}")

    mean_regret = float(np.mean(list(scores.values())))
    print(f"\nmean deployment regret {mean_regret:.3f}; artifacts in {out}")


if __name__ == "__main__":
    main()
