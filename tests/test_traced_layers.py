"""The benchmark's per-layer tracer wraps package functions by name, so a
rename silences a layer metric and a deletion breaks a traced run. These
tests read bench/layers.py as it is and check both against the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from regret_miner import genplan, planner, simkit
from regret_miner.core import RngStream
from regret_miner.predictor import PredictorParams, TablePredictor

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# The kernels the pipeline runs under the names the benchmark traces.
KERNEL_SPANS = (
    "planner.sample_candidates",
    "predictor.predict",
    "simkit.OraclePredictor.predict",
    "genplan.generative_regret",
    "genplan.default_hindsight_candidates",
)


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(layers):
    # Tracer.install reads a method from its class's own __dict__ and a
    # function from its module.
    for owner, attr, _ in layers.TRACED:
        module_name, _, cls_name = owner.partition(":")
        module = importlib.import_module(module_name)
        target = vars(getattr(module, cls_name)) if cls_name else vars(module)
        assert callable(target.get(attr)), f"{owner}.{attr}"
    assert set(KERNEL_SPANS) <= {layers.span_name(o, a) for o, a, _ in layers.TRACED}


def test_the_kernels_record_spans(layers):
    spec = simkit.generate_scenario_batch("StoppedTraffic", 1, base_seed=5, horizon=20)[0]
    samples = genplan.generate_nav_dataset(60, rng=RngStream(1))
    cb = genplan.fit_codebook(samples, K=1)
    originals = (planner.sample_candidates, simkit.OraclePredictor.__dict__["predict"])
    tracer = layers.Tracer()
    tracer.install()
    try:
        simkit.run_closed_loop(spec, planner.PlannerHandle(),
                               TablePredictor(PredictorParams.fresh()), 10)
        simkit.run_closed_loop(spec, planner.PlannerHandle(), simkit.OraclePredictor(), 10)
        genplan.sample_regrets(cb, samples[:5])
    finally:
        tracer.uninstall()
    assert (planner.sample_candidates, simkit.OraclePredictor.__dict__["predict"]) == originals
    names = [span[0] for span in tracer.spans]
    assert {name: names.count(name) > 0 for name in KERNEL_SPANS} == \
        dict.fromkeys(KERNEL_SPANS, True)
