"""regret-miner benchmark: three workloads driven through the CLI.

    python3 bench/run.py --workload pipeline-small --seed 1 --seconds 30 --trace 0

Each workload calls ``regret_miner.cli.main(argv)`` in-process, once per
pipeline stage, and times every call from outside. The stage sequence is
repeated on fresh copies of the same inputs until the next repetition would
run past ``--seconds``. Every timed call is scaled to the host's speed by
the reference block of ``bench/reference.py``, run before and after it; a
stage's time is the median over repetitions, and ``wall_s`` sums those.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``bench/layers.py`` instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The line before it holds
the details: environment stamp, output digest, stage times, checks.
The package is imported from the ``src/`` directory beside ``bench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from reference import REF_S, reference_block

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
# Not used to tune the benchmark; re-check claimed gains on it.
HELDOUT_SEED = 7919
SETUP_REPS = 5


# ---------------------------------------------------------------------------
# Correctness bookkeeping
# ---------------------------------------------------------------------------

class Ops:
    """Attempted and failed operations: stage calls plus correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def _finite01(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


def check_replay(run: Path, ops: Ops) -> None:
    from regret_miner import simkit
    for scene in simkit.scenes_from_jsonl(run / "scenes.jsonl"):
        dev = simkit.replay_max_deviation(scene)
        ops.check(f"replay {scene.scenario_id}", dev < 1e-9, f"deviation {dev!r}")


def check_regret(run: Path, ops: Ops) -> None:
    from regret_miner.regret import reports_from_jsonl
    for rep in reports_from_jsonl(run / "reports.jsonl"):
        ok = (bool(rep.per_t) and _finite01(rep.mean_regret)
              and _finite01(rep.worst_regret)
              and all(_finite01(g) and _finite01(el) and _finite01(ml) and el <= ml
                      for _, el, ml, g in rep.per_t))
        ops.check(f"regret {rep.scenario_id}", ok, "score outside [0, 1] "
                  "or executed likelihood above max")
    scores = json.loads((run / "scores.json").read_text())["scores"]
    ops.check("scores in [0, 1]", all(_finite01(v) for v in scores.values()))


def check_replay_and_regret(run: Path, ops: Ops) -> None:
    check_replay(run, ops)
    check_regret(run, ops)


def check_mined(run: Path, ops: Ops) -> None:
    mined = json.loads((run / "mined.json").read_text())
    n = len(json.loads((run / "scores.json").read_text())["scores"])
    want = math.ceil(n * mined["p"] / 100.0)
    ops.check("mined k", mined["k"] == want == len(mined["flagged_ids"]),
              f"k={mined['k']} flagged={len(mined['flagged_ids'])} want {want}")


def check_case_study(run: Path, ops: Ops) -> None:
    from regret_miner.harness import CaseStudyReport
    CaseStudyReport.from_dict(json.loads((run / "case_study.json").read_text()))
    ops.check("case_study.json loads", True)


def check_generative_scores(run: Path, ops: Ops) -> None:
    scores = json.loads((run / "scores.json").read_text())["scores"]
    for sid, v in scores.items():
        ops.check(f"generative score {sid}", _finite01(v), repr(v))


def check_mean_regrets(name: str) -> Callable[[Path, Ops], None]:
    def check(run: Path, ops: Ops) -> None:
        doc = json.loads((run / name).read_text())
        for tag, v in doc["mean_regret"].items():
            ops.check(f"{name} {tag}", _finite01(v), repr(v))
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Stage:
    metric: str                       # its time is reported as stage.<metric>_s
    argv: list[str]
    check: Optional[Callable[[Path, Ops], None]] = None


@dataclass
class Workload:
    name: str
    setup: Callable[[int, Path, Ops], None]
    stages: Callable[[int, Path], list[Stage]]


def _write_config(path: Path, **overrides) -> None:
    from regret_miner import harness
    harness.config_to_yaml(harness.ExperimentConfig(out_dir="run", **overrides),
                           path)


def _pipeline_setup(seed: int, d: Path, ops: Ops) -> None:
    _write_config(d / "bench.yaml",
                  families=(("StrandedTruck", 2), ("SparseCruise", 3)),
                  pretrain_families=(("SparseCruise", 1),),
                  seeds=(101,), p=25.0, holdout_frac=0.25, replan_every=20,
                  base_seed=seed, pretrain_seed=seed + 10_000)


def _pipeline_stages(seed: int, d: Path) -> list[Stage]:
    r = str(d)
    return [
        Stage("simulate", ["simulate", "--config", f"{r}/bench.yaml", "--out", r],
              check_replay),
        Stage("score", ["score", "--in", r], check_regret),
        Stage("mine", ["mine", "--in", r, "--p", "25"], check_mined),
        Stage("compare", ["compare", "--in", r]),
        Stage("finetune", ["finetune", "--in", r, "--arms", "high"]),
        Stage("redeploy", ["redeploy", "--in", r], check_case_study),
        Stage("report", ["report", "--in", r]),
    ]


FLEET_PER_FAMILY = 1


def _fleet_setup(seed: int, d: Path, ops: Ops) -> None:
    from regret_miner import simkit
    _write_config(d / "bench.yaml",
                  families=tuple((f, FLEET_PER_FAMILY) for f in simkit.FAMILIES),
                  pretrain_families=(("SparseCruise", 1),), replan_every=20,
                  base_seed=seed, pretrain_seed=seed + 10_000)
    rc, err = call_cli(["simulate", "--config", str(d / "bench.yaml"),
                        "--out", str(d)])
    ops.check("setup simulate", rc == 0, err.strip())


def _fleet_stages(seed: int, d: Path) -> list[Stage]:
    r = str(d)
    return [
        Stage("score", ["score", "--in", r], check_replay_and_regret),
        Stage("mine", ["mine", "--in", r, "--p", "20"], check_mined),
        Stage("compare", ["compare", "--in", r]),
        Stage("score_worst", ["score", "--in", r, "--agg", "worst"], check_regret),
        Stage("mine", ["mine", "--in", r, "--p", "10"], check_mined),
    ]


NAV_SAMPLES = 60
NAV_REPS = 10
PERCEPTION_SAMPLES = 25


def _nav_setup(seed: int, d: Path, ops: Ops) -> None:
    """Nothing to build: navgen makes the inputs inside the timed part."""


def _nav_stages(seed: int, d: Path) -> list[Stage]:
    r, seed = str(d), str(seed)
    return [
        Stage("navgen", ["navgen", "--out", r, "--n", str(NAV_SAMPLES),
                         "--seed", seed]),
        Stage("score_gen", ["score", "--in", r, "--model", "gen"],
              check_generative_scores),
        Stage("mine", ["mine", "--in", r, "--p", "20"], check_mined),
        Stage("navregret", ["navregret", "--in", r, "--reps", str(NAV_REPS),
                            "--seed", seed],
              check_mean_regrets("mismatch_regret.json")),
        Stage("perception", ["perception-case", "--out", f"{r}/perception",
                             "--n", str(PERCEPTION_SAMPLES), "--seed", seed],
              check_mean_regrets("perception/perception_case.json")),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("pipeline-small", _pipeline_setup, _pipeline_stages),
    Workload("score-fleet", _fleet_setup, _fleet_stages),
    Workload("nav-generative", _nav_setup, _nav_stages),
)}

ALL_STAGE_METRICS = ("simulate", "score", "mine", "compare", "finetune",
                     "redeploy", "report", "score_worst", "navgen",
                     "score_gen", "navregret", "perception")


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, captured stderr) of one in-process CLI call."""
    from regret_miner import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a stage that crashes is a failed op, not a crash
            rc = 1
            err.write(traceback.format_exc())
    return rc, err.getvalue()


def _file_bytes(path: Path) -> bytes:
    if path.name == "manifest.json":
        doc = json.loads(path.read_text())
        doc.pop("created_utc", None)
        return json.dumps(doc, sort_keys=True).encode()
    return path.read_bytes()


def snapshot(d: Path) -> dict[str, tuple[int, str]]:
    """relative path -> (size, sha256) of every file under d; manifests
    are hashed without their timestamp."""
    out = {}
    for p in sorted(d.rglob("*")):
        if p.is_file():
            out[p.relative_to(d).as_posix()] = (
                p.stat().st_size, hashlib.sha256(_file_bytes(p)).hexdigest())
    return out


def digest(snap: dict[str, tuple[int, str]]) -> str:
    h = hashlib.sha256()
    for rel, (_, sha) in sorted(snap.items()):
        h.update(rel.encode() + b"\0" + sha.encode() + b"\n")
    return h.hexdigest()


def scaled(dt: float, ref_before: float, ref_after: float) -> float:
    """dt in seconds at reference speed, from the reference blocks run just
    before and just after it."""
    return dt * REF_S / ((ref_before + ref_after) / 2.0)


@dataclass
class Rep:
    traced: bool
    stage_s: dict[str, float]       # scaled to reference speed
    raw_stage_s: dict[str, float]   # as measured
    ref_s: list[float]
    output_bytes: int
    digest: str
    ok: bool
    scene_mb: float = 0.0


def run_rep(wl: Workload, seed: int, src: Path, dst: Path, ops: Ops,
            checks: bool, tracer=None) -> Rep:
    """Copy the set-up inputs to dst and run the stage sequence once."""
    shutil.copytree(src, dst)
    stages = wl.stages(seed, dst)
    stage_s, raw_stage_s = {}, {}
    written = 0
    before = snapshot(dst)
    ok = True
    gc.collect()
    refs = [reference_block()]
    for st in stages:
        if tracer is not None:
            tracer.install()
            try:
                with tracer.root(f"cli.{st.metric}"):
                    t0 = time.perf_counter()
                    rc, err = call_cli(st.argv)
                    dt = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        else:
            t0 = time.perf_counter()
            rc, err = call_cli(st.argv)
            dt = time.perf_counter() - t0
        refs.append(reference_block())
        raw_stage_s[st.metric] = raw_stage_s.get(st.metric, 0.0) + dt
        stage_s[st.metric] = (stage_s.get(st.metric, 0.0)
                              + scaled(dt, refs[-2], refs[-1]))
        if not ops.check(f"stage {st.argv[0]} ({st.metric})", rc == 0,
                         err.strip()[-500:]):
            ok = False
            break
        after = snapshot(dst)
        written += sum(size for rel, (size, sha) in after.items()
                       if rel != "manifest.json" and before.get(rel) != (size, sha))
        before = after
        if checks and st.check is not None:
            try:
                st.check(dst, ops)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                ops.check(f"check after {st.metric}", False, repr(exc))
    scene_mb = 0.0
    scenes = dst / "scenes.jsonl"
    if scenes.is_file():
        n = sum(1 for line in scenes.open() if line.strip())
        scene_mb = scenes.stat().st_size / 1e6 / max(n, 1)
    return Rep(traced=tracer is not None, stage_s=stage_s,
               raw_stage_s=raw_stage_s, ref_s=refs, output_bytes=written,
               digest=digest(before), ok=ok, scene_mb=scene_mb)


def warm_up() -> None:
    """Pay import and first-call costs before any timed call."""
    import numpy as np
    import yaml
    from scipy.special import ndtr

    from regret_miner import cli, genplan, harness  # noqa: F401

    ndtr(np.linspace(-1.0, 1.0, 8))
    np.random.Generator(np.random.Philox(np.random.SeedSequence(0))).normal(size=4)
    yaml.safe_load(yaml.safe_dump({"a": [1, 2]}))
    cli.build_parser()


def fresh_start(ops: Ops) -> float:
    """Wall time of a fresh interpreter that imports the package and pays
    the first-call costs of ``warm_up``: the start-up a CLI user waits for."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]; "
            "import run; run.warm_up()")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    dt = time.perf_counter() - t0
    ops.check("fresh start", proc.returncode == 0, proc.stderr.strip()[-500:])
    return dt


def env_stamp(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


def median(xs):
    return statistics.median(xs) if xs else 0.0


def stage_medians(reps: list[Rep]) -> dict[str, float]:
    """Each stage's scaled time, median over the repetitions."""
    return {m: median([r.stage_s.get(m, 0.0) for r in reps])
            for m in ALL_STAGE_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "regret_miner" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no package source at {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    os.environ.pop("REGRET_MINER_THREADS", None)
    sys.path.insert(0, str(SRC))
    warm_up()
    import regret_miner
    if Path(regret_miner.__file__).resolve().parent != SRC / "regret_miner":
        sys.stderr.write(f"bench: imported {regret_miner.__file__}, not {SRC}\n")
        return 2

    wl = WORKLOADS[args.workload]
    ops = Ops()
    work = BENCH_DIR / "work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        return _measure(wl, args, ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _measure(wl: Workload, args, ops: Ops, work: Path) -> int:
    # Set-up, several times: a fresh interpreter's start-up plus one build of
    # the inputs. The last build feeds every repetition.
    raw_setup_times, setup_times, setup_digests = [], [], []
    for i in range(SETUP_REPS):
        d = work / f"setup-{i}"
        d.mkdir()
        ref_before = reference_block()
        start_s = fresh_start(ops)
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(args.seed, d, ops)
        raw_setup_times.append(start_s + time.perf_counter() - t0)
        setup_times.append(scaled(raw_setup_times[-1], ref_before,
                                  reference_block()))
        setup_digests.append(digest(snapshot(d)))
        if i > 0:
            ops.check("set-up repeats byte for byte",
                      setup_digests[i] == setup_digests[0])
        if i < SETUP_REPS - 1:
            shutil.rmtree(d)
    src = work / f"setup-{SETUP_REPS - 1}"
    setup_s = median(setup_times)

    tracer_cls = None
    if args.trace:
        from layers import Tracer
        tracer_cls = Tracer
    reps: list[Rep] = []
    traced_tracers = []
    window0 = time.perf_counter()
    while True:
        i = len(reps)
        tracer = tracer_cls() if (tracer_cls and i % 2 == 1) else None
        t_rep = time.perf_counter()
        rep = run_rep(wl, args.seed, src, work / f"rep-{i}", ops,
                      checks=(i == 0), tracer=tracer)
        shutil.rmtree(work / f"rep-{i}")
        reps.append(rep)
        if tracer is not None:
            traced_tracers.append(tracer)
        if i > 0 and rep.ok:
            ops.check(f"rep {i} output digest", rep.digest == reps[0].digest,
                      f"{rep.digest} != {reps[0].digest}")
        if not rep.ok:
            break
        rep_cost = time.perf_counter() - t_rep
        elapsed = time.perf_counter() - window0
        need_traced = tracer_cls is not None and not traced_tracers
        if not need_traced and elapsed + rep_cost > args.seconds:
            break

    plain = [r for r in reps if not r.traced] or reps
    stage_s = stage_medians(plain)
    wall_s = sum(stage_s.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    output_mb = reps[0].output_bytes / 1e6
    correct = ops.failed == 0 and all(r.ok for r in reps)

    detail = {
        "bench": "regret-miner",
        "workload": wl.name,
        "trace": args.trace,
        "env": env_stamp(args.seed),
        "digest": reps[0].digest,
        "reps": len(plain),
        "ref_s": REF_S,
        "rep_wall_s": [round(sum(r.stage_s.values()), 6) for r in plain],
        "rep_raw_wall_s": [round(sum(r.raw_stage_s.values()), 6) for r in plain],
        "rep_raw_stage_s": [{m: round(v, 6) for m, v in r.raw_stage_s.items()}
                            for r in plain],
        "rep_ref_block_s": [[round(t, 6) for t in r.ref_s] for r in plain],
        "stage_order": [st.metric for st in wl.stages(args.seed, work)],
        "setup_reps": SETUP_REPS,
        "setup_times_s": [round(t, 6) for t in setup_times],
        "raw_setup_times_s": [round(t, 6) for t in raw_setup_times],
        "stage_s": {m: round(v, 6) for m, v in stage_s.items() if v > 0},
        "ops": ops.attempted,
        "failed_ops": ops.failed,
        "failures": ops.failures,
    }
    if args.trace:
        metrics, extra = _layer_metrics(reps, traced_tracers, stage_s, wall_s,
                                         args, wl)
        detail.update(extra)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "output_mb": {"value": output_mb, "unit": "MB"},
        }

    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(
        {"detail": detail, "metrics": metrics}, indent=2) + "\n")
    print(f"workload {wl.name}  seed {args.seed}  reps {len(plain)}  "
          f"failed_ops/ops {ops.failed}/{ops.attempted}  digest {reps[0].digest[:16]}")
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def _layer_metrics(reps, tracers, stage_s, wall_s, args, wl):
    from layers import SPAN_METRICS, Aggregate, span_metrics, tail_labels

    aggs = [Aggregate(t.spans) for t in tracers]
    per_rep = [span_metrics(a) for a in aggs]
    values = {name: median([m[name] for m in per_rep])
              for name, _, _, _ in SPAN_METRICS}
    traced = [r for r in reps if r.traced]
    values["trace.overhead_s"] = sum(stage_medians(traced).values()) - wall_s
    values["trace.spans"] = float(len(tracers[0].spans)) if tracers else 0.0
    values["simkit.scene_mb"] = reps[0].scene_mb

    metrics = {f"stage.{m}_s": {"value": stage_s[m], "unit": "s"}
               for m in ALL_STAGE_METRICS}
    units = {name: unit for name, unit, _, _ in SPAN_METRICS}
    units.update({"trace.overhead_s": "s", "trace.spans": "count",
                  "simkit.scene_mb": "MB"})
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}

    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
    if tracers:
        tracers[0].write(spans_path)
    absent = {k: "no call in this workload's timed stages"
              for k, m in metrics.items() if m["value"] == 0
              and not k.startswith("trace.")}
    extra = {
        "traced_reps": len(tracers),
        "traced_rep_wall_s": [round(sum(r.stage_s.values()), 6)
                              for r in traced],
        "tail_percentiles": tail_labels(aggs[0]) if aggs else {},
        "absent": absent,
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
    }
    return metrics, extra


if __name__ == "__main__":
    raise SystemExit(main())
