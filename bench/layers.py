"""Per-layer tracing for the benchmark.

A traced repetition wraps each function in TRACED, in every
``regret_miner`` module namespace that binds it (``score_scene`` is bound in
``regret``, ``harness`` and ``baselines``; ``plan`` in ``planner`` and
``simkit``), and records one span per call: name, tag, start, end and the
index of the enclosing span. Spans stay in memory until the run ends.

The wrappers live only in this file; the package is not edited. Functions
too hot to wrap (``unicycle_step``, about 3M calls per pipeline) are covered
by their callers: rollouts are counted at ``rollout_positions``.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import math
import statistics
import sys
import time


def _predictor_kind(args, kwargs):
    pred = args[2] if len(args) > 2 else kwargs.get("predictor")
    return "oracle" if type(pred).__name__ == "OraclePredictor" else "table"


def _scene_id(args, kwargs):
    scene = args[1] if len(args) > 1 else kwargs.get("scene")
    return scene.scenario_id


# (owner, attribute, tag): owner is "module" or "module:Class"; tag, when
# given, maps the call's (args, kwargs) to a label stored on the span.
TRACED = (
    ("regret_miner.core", "rollout_positions", None),
    ("regret_miner.core:RngStream", "derive", None),
    ("regret_miner.simkit", "run_closed_loop", _predictor_kind),
    ("regret_miner.simkit", "simulate_humans", None),
    ("regret_miner.simkit:OraclePredictor", "predict", None),
    ("regret_miner.simkit", "scenes_to_jsonl", None),
    ("regret_miner.simkit", "scenes_from_jsonl", None),
    ("regret_miner.planner", "plan", None),
    ("regret_miner.planner", "sample_candidates", None),
    ("regret_miner.planner", "reward", None),
    ("regret_miner.predictor", "predict", None),
    ("regret_miner.predictor", "fit", None),
    ("regret_miner.regret", "score_scene", _scene_id),
    ("regret_miner.baselines", "label_scenes", None),
    ("regret_miner.baselines", "trfd_flag", None),
    ("regret_miner.baselines", "scene_prediction_errors", None),
    ("regret_miner.baselines", "realized_scene_reward", None),
    ("regret_miner.harness", "pretrain_predictor", None),
    ("regret_miner.harness", "deploy", None),
    ("regret_miner.harness", "score_deployment", None),
    ("regret_miner.harness", "finetune_and_redeploy", None),
    ("regret_miner.genplan", "generate_nav_dataset", None),
    ("regret_miner.genplan", "simulate_nav_scene", None),
    ("regret_miner.genplan", "fit_codebook", None),
    ("regret_miner.genplan", "generative_regret", None),
    ("regret_miner.genplan", "default_hindsight_candidates", None),
    ("regret_miner.genplan", "build_mismatch_scenarios", None),
    ("regret_miner.genplan", "perception_case_study", None),
    ("regret_miner.genplan", "nav_samples_from_json", None),
)


def span_name(owner: str, attr: str) -> str:
    """``regret_miner.simkit:OraclePredictor`` + ``predict`` ->
    ``simkit.OraclePredictor.predict``."""
    module, _, cls = owner.partition(":")
    layer = module.rsplit(".", 1)[-1]
    return ".".join(p for p in (layer, cls, attr) if p)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        # Each span is [name, tag, start_s, end_s, parent_index].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, tagger(args, kwargs) if tagger else None, 0.0, 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "regret_miner" or n.startswith("regret_miner.")]
        for owner, attr, tagger in TRACED:
            module_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(module_name)
            name = span_name(owner, attr)
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, tagger))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, tagger)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """Span around one CLI stage, so every traced call has a root."""
        self._stack.append(len(self.spans))
        span = [name, None, time.perf_counter(), 0.0, -1]
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [name, tag, start_us, end_us, parent]."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as f:
            for name, tag, start, end, parent in self.spans:
                f.write(json.dumps([name, tag, round((start - t0) * 1e6, 3),
                                    round((end - t0) * 1e6, 3), parent]))
                f.write("\n")


class Aggregate:
    """Per-name totals over one repetition's spans.

    ``s`` is inclusive time, counting a call only when no call of the same
    name encloses it; ``self_s`` subtracts the time covered by direct child
    spans.
    """

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.durs: dict[str, list[float]] = {}
        self.tagged: dict[tuple[str, str], list[float]] = {}
        self.tags: dict[str, set] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for i, (name, tag, start, end, parent) in enumerate(spans):
            dur = end - start
            self.durs.setdefault(name, []).append(dur)
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[i]
            if tag is not None:
                self.tagged.setdefault((name, tag), []).append(dur)
                self.tags.setdefault(name, set()).add(tag)
            if not self._nested_in_same(spans, i, name):
                self.incl[name] = self.incl.get(name, 0.0) + dur

    @staticmethod
    def _nested_in_same(spans, i, name) -> bool:
        parent = spans[i][4]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][4]
        return False

    def calls(self, name) -> int:
        return len(self.durs.get(name, ()))

    def s(self, name) -> float:
        return self.incl.get(name, 0.0)

    def self_s(self, name) -> float:
        return self.self_time.get(name, 0.0)

    def per_s(self, name) -> float:
        return self.calls(name) / self.s(name) if self.s(name) > 0 else 0.0

    def distinct_tags(self, name) -> int:
        return len(self.tags.get(name, ()))

    def durations(self, name, tag=None) -> list[float]:
        if tag is None:
            return self.durs.get(name, [])
        return self.tagged.get((name, tag), [])


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(durations) -> tuple[float, str]:
    """The highest of TAIL_PERCENTILES (nearest rank) with at least 10
    samples beyond it, as (value, label); the maximum when no percentile
    qualifies (fewer than 20 samples)."""
    n = len(durations)
    if n == 0:
        return 0.0, "none"
    ordered = sorted(durations)
    for q in TAIL_PERCENTILES:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= 10:
            return ordered[rank - 1], f"p{q:g}"
    return ordered[-1], "max"


def p50(durations) -> float:
    return statistics.median(durations) if durations else 0.0


# Per-layer metrics derived from spans: (name, unit, better, value).
def _calls(span):
    return lambda a: a.calls(span)


def _secs(span):
    return lambda a: a.s(span)


def _self(span):
    return lambda a: a.self_s(span)


def _p50_ms(span, tag=None):
    return lambda a: 1e3 * p50(a.durations(span, tag))


def _tail_ms(span, tag=None):
    return lambda a: 1e3 * tail(a.durations(span, tag))[0]


def _count(span, tag):
    return lambda a: len(a.durations(span, tag))


def _rate(span):
    return lambda a: a.per_s(span)


def _calls_per_scene(a):
    n = a.distinct_tags("regret.score_scene")
    return a.calls("regret.score_scene") / n if n else 0.0


SPAN_METRICS = (
    ("harness.pretrain_predictor.s", "s", "lower", _secs("harness.pretrain_predictor")),
    ("harness.deploy.s", "s", "lower", _secs("harness.deploy")),
    ("harness.score_deployment.s", "s", "lower", _secs("harness.score_deployment")),
    ("harness.finetune_and_redeploy.s", "s", "lower", _secs("harness.finetune_and_redeploy")),
    ("simkit.run_closed_loop.calls", "count", "lower", _calls("simkit.run_closed_loop")),
    ("simkit.run_closed_loop.self_s", "s", "lower", _self("simkit.run_closed_loop")),
    ("simkit.run_closed_loop.table.p50_ms", "ms", "lower", _p50_ms("simkit.run_closed_loop", "table")),
    ("simkit.run_closed_loop.table.tail_ms", "ms", "lower", _tail_ms("simkit.run_closed_loop", "table")),
    ("simkit.run_closed_loop.table.n", "count", "lower", _count("simkit.run_closed_loop", "table")),
    ("simkit.run_closed_loop.oracle.p50_ms", "ms", "lower", _p50_ms("simkit.run_closed_loop", "oracle")),
    ("simkit.run_closed_loop.oracle.tail_ms", "ms", "lower", _tail_ms("simkit.run_closed_loop", "oracle")),
    ("simkit.run_closed_loop.oracle.n", "count", "lower", _count("simkit.run_closed_loop", "oracle")),
    ("simkit.scenes_per_s", "1/s", "higher", _rate("simkit.run_closed_loop")),
    ("simkit.simulate_humans.calls", "count", "lower", _calls("simkit.simulate_humans")),
    ("simkit.simulate_humans.s", "s", "lower", _secs("simkit.simulate_humans")),
    ("simkit.OraclePredictor.predict.calls", "count", "lower", _calls("simkit.OraclePredictor.predict")),
    ("simkit.OraclePredictor.predict.s", "s", "lower", _secs("simkit.OraclePredictor.predict")),
    ("simkit.scenes_to_jsonl.s", "s", "lower", _secs("simkit.scenes_to_jsonl")),
    ("simkit.scenes_from_jsonl.s", "s", "lower", _secs("simkit.scenes_from_jsonl")),
    ("planner.plan.calls", "count", "lower", _calls("planner.plan")),
    ("planner.plan.self_s", "s", "lower", _self("planner.plan")),
    ("planner.plan.p50_ms", "ms", "lower", _p50_ms("planner.plan")),
    ("planner.plan.tail_ms", "ms", "lower", _tail_ms("planner.plan")),
    ("planner.replans_per_s", "1/s", "higher", _rate("planner.plan")),
    ("planner.sample_candidates.s", "s", "lower", _secs("planner.sample_candidates")),
    ("planner.reward.calls", "count", "lower", _calls("planner.reward")),
    ("planner.reward.s", "s", "lower", _secs("planner.reward")),
    ("predictor.predict.calls", "count", "lower", _calls("predictor.predict")),
    ("predictor.predict.s", "s", "lower", _secs("predictor.predict")),
    ("predictor.predict.p50_us", "us", "lower",
     lambda a: 1e6 * p50(a.durations("predictor.predict"))),
    ("predictor.fit.calls", "count", "lower", _calls("predictor.fit")),
    ("predictor.fit.s", "s", "lower", _secs("predictor.fit")),
    ("core.rollout_positions.calls", "count", "lower", _calls("core.rollout_positions")),
    ("core.rollout_positions.s", "s", "lower", _secs("core.rollout_positions")),
    ("core.rollouts_per_s", "1/s", "higher", _rate("core.rollout_positions")),
    ("core.RngStream.derive.calls", "count", "lower", _calls("core.RngStream.derive")),
    ("core.RngStream.derive.s", "s", "lower", _secs("core.RngStream.derive")),
    ("regret.score_scene.calls", "count", "lower", _calls("regret.score_scene")),
    ("regret.score_scene.s", "s", "lower", _secs("regret.score_scene")),
    ("regret.score_scene.p50_ms", "ms", "lower", _p50_ms("regret.score_scene")),
    ("regret.score_scene.tail_ms", "ms", "lower", _tail_ms("regret.score_scene")),
    ("regret.score_scene.calls_per_scene", "ratio", "lower", _calls_per_scene),
    ("baselines.label_scenes.s", "s", "lower", _secs("baselines.label_scenes")),
    ("baselines.trfd_flag.s", "s", "lower", _secs("baselines.trfd_flag")),
    ("baselines.scene_prediction_errors.s", "s", "lower", _secs("baselines.scene_prediction_errors")),
    ("baselines.realized_scene_reward.s", "s", "lower", _secs("baselines.realized_scene_reward")),
    ("genplan.generate_nav_dataset.s", "s", "lower", _secs("genplan.generate_nav_dataset")),
    ("genplan.simulate_nav_scene.calls", "count", "lower", _calls("genplan.simulate_nav_scene")),
    ("genplan.fit_codebook.s", "s", "lower", _secs("genplan.fit_codebook")),
    ("genplan.generative_regret.calls", "count", "lower", _calls("genplan.generative_regret")),
    ("genplan.generative_regret.s", "s", "lower", _secs("genplan.generative_regret")),
    ("genplan.generative_regret.p50_ms", "ms", "lower", _p50_ms("genplan.generative_regret")),
    ("genplan.generative_regret.tail_ms", "ms", "lower", _tail_ms("genplan.generative_regret")),
    ("genplan.default_hindsight_candidates.s", "s", "lower", _secs("genplan.default_hindsight_candidates")),
    ("genplan.build_mismatch_scenarios.s", "s", "lower", _secs("genplan.build_mismatch_scenarios")),
    ("genplan.perception_case_study.s", "s", "lower", _secs("genplan.perception_case_study")),
    ("genplan.nav_samples_from_json.s", "s", "lower", _secs("genplan.nav_samples_from_json")),
)

# Which spans each metric reads, for explaining a metric that reads 0.
_TAIL_SPANS = {
    "simkit.run_closed_loop.table.tail_ms": ("simkit.run_closed_loop", "table"),
    "simkit.run_closed_loop.oracle.tail_ms": ("simkit.run_closed_loop", "oracle"),
    "planner.plan.tail_ms": ("planner.plan", None),
    "regret.score_scene.tail_ms": ("regret.score_scene", None),
    "genplan.generative_regret.tail_ms": ("genplan.generative_regret", None),
}


def span_metrics(agg: Aggregate) -> dict[str, float]:
    return {name: float(fn(agg)) for name, _, _, fn in SPAN_METRICS}


def tail_labels(agg: Aggregate) -> dict[str, str]:
    """Which percentile each ``tail_ms`` metric reports, with its sample count."""
    out = {}
    for metric, (span, tag) in _TAIL_SPANS.items():
        durs = agg.durations(span, tag)
        out[metric] = f"{tail(durs)[1]} of n={len(durs)}"
    return out
