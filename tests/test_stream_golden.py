"""Seeded outputs of the loops that key one random stream per index.

stream_golden.json holds these outputs as float.hex values, recorded when
every loop still called RngStream.derive(...).generator() once per index.
The loops now key their streams in one pass (core.derive_streams and
core.stream_generators), and must give the same bits. To re-record after a
deliberate change of the streams:

    PYTHONPATH=src python tests/test_stream_golden.py > tests/stream_golden.json
"""

import json
import sys
from pathlib import Path

import pytest

from regret_miner.core import RngStream
from regret_miner.genplan import (SensorModel, _fit_perception_codebook, build_mismatch_scenarios,
                                  fit_codebook, generate_nav_dataset, perception_case_study)
from regret_miner.simkit import FAMILIES, generate_scenario_batch

GOLDEN = Path(__file__).with_name("stream_golden.json")


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _state_hex(s) -> list[str]:
    return _hex([s.x, s.y, s.heading, s.speed])


def nav_dataset():
    return [{"delta_h": float(s.delta_h).hex(), "goal": s.goal,
             "robot": _hex(s.robot_traj.actions.ravel()),
             "human": _hex(s.human_traj.actions.ravel())}
            for s in generate_nav_dataset(60, rng=RngStream(1))]


def perception_codebook():
    cb = _fit_perception_codebook(200, 0.02, RngStream(1).derive(0))
    return {"means": _hex(cb.means.ravel()), "stds": _hex(cb.stds.ravel())}


def perception_case():
    return [[tag, float(v).hex()]
            for tag, v in perception_case_study(SensorModel(), 5, RngStream(1))]


def mismatch():
    cb = fit_codebook(generate_nav_dataset(60, rng=RngStream(1)), K=2)
    return {name: float(v).hex()
            for name, v in build_mismatch_scenarios(cb, RngStream(1, 17), n_reps=2).items()}


def perception_case_bench():
    # The bench's size: 25 samples per condition, at its two seeds.
    return {str(s): [[tag, float(v).hex()]
                     for tag, v in perception_case_study(SensorModel(), 25, RngStream(s))]
            for s in (1, 7919)}


def nav_dataset_7919():
    return [{"delta_h": float(s.delta_h).hex(), "goal": s.goal,
             "robot": _hex(s.robot_traj.actions.ravel()),
             "human": _hex(s.human_traj.actions.ravel())}
            for s in generate_nav_dataset(60, rng=RngStream(7919))]


def mismatch_k6():
    # navregret at the bench's size, on the K=6 codebook navgen fits.
    cb = fit_codebook(generate_nav_dataset(60, rng=RngStream(7919)), K=6)
    return {name: float(v).hex()
            for name, v in build_mismatch_scenarios(cb, RngStream(7919, 17), n_reps=10).items()}


def scenario_batch():
    return {fam: [{"seed": s.seed, "robot_init": _state_hex(s.robot_init),
                   "humans": [_state_hex(h) for h, _ in s.humans]}
                  for s in generate_scenario_batch(fam, 2, 1)]
            for fam in FAMILIES}


OUTPUTS = {f.__name__: f for f in (nav_dataset, perception_codebook, perception_case,
                                   mismatch, scenario_batch, perception_case_bench,
                                   nav_dataset_7919, mismatch_k6)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", OUTPUTS)
def test_stream_loops_reproduce_the_pinned_outputs(golden, name):
    assert OUTPUTS[name]() == golden[name]


if __name__ == "__main__":
    json.dump({name: f() for name, f in OUTPUTS.items()}, sys.stdout, indent=1)
    print()
