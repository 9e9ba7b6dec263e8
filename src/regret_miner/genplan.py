"""Reward-free generative planner path for the social-nav world.

A discrete codebook (categorical encoder over latent codes conditioned on the
human cue and robot goal, diagonal-Gaussian decoder over the concatenated
joint action trajectory) stands in for a learned trajectory model. Regret is
computed without rewards: candidate likelihoods come from kernel-density
window masses around the executed and counterfactual actions, conditioned on
the human's realized behavior.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .core import (TURN_LIMIT, ActionTraj, AgentState, NavWorld, RngStream, derive_streams,
                   rollout_positions, stream_generators, unicycle_step_floats, wrap_angle)

GOALS = ("Primary", "Backup")
HUMAN_CLASSES = ("left", "straight", "right")

NAV_STEPS = 6
NAV_DT = 1.0
ROBOT_NAV_SPEED = 0.8
HUMAN_NAV_SPEED = 0.5
YIELD_PROB = 0.8
PROXIMITY_TRIGGER = 1.0
N_CUE_BUCKETS = 12
# Std of an episode's per-step turn noise, robot and human.
NAV_EXEC_NOISE = 0.05

_HUMAN_TARGETS = {"left": (-3.0, 3.0), "straight": (0.0, 0.0), "right": (3.0, 3.0)}

# Fixed internal stream for decoder sampling, so likelihood evaluation is a
# deterministic function of (codebook, query, n_samples).
_KDE_SEED = 987654321


class OutOfSupportError(ValueError):
    """Raised when the conditioning denominator has no sampled support."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _clamp_turn(w: float) -> float:
    """Clamp to the turn limit. NaN stays NaN (w is the first argument of
    both max and min), so the step kernel still rejects it."""
    return min(max(w, -TURN_LIMIT), TURN_LIMIT)


def classify_human_direction(human_traj: ActionTraj,
                             ctx: Optional[NavWorld] = None) -> int:
    """0 left / 1 straight / 2 right, by nearest rollout endpoint target.

    The human starts at ctx.human_start heading -pi/2 at HUMAN_NAV_SPEED; a
    nav human's accelerations are 0.0 (_turns_traj), so it keeps that speed.
    """
    ctx = ctx if ctx is not None else NavWorld()
    start = AgentState(*ctx.human_start, -math.pi / 2, HUMAN_NAV_SPEED)
    end = rollout_positions(start, human_traj, NAV_DT)[-1]
    targets = [_HUMAN_TARGETS[c] for c in HUMAN_CLASSES]
    d = [math.hypot(end[0] - tx, end[1] - ty) for tx, ty in targets]
    return int(np.argmin(d))


@dataclass(frozen=True)
class NavSample:
    """One synthetic social-nav episode.

    delta_h is the human's scalar cue in [0,1]; goal is the robot's intended
    goal; outcome_class indexes (human direction x robot final goal).
    """

    delta_h: float
    goal: str
    human_traj: ActionTraj
    robot_traj: ActionTraj
    outcome_class: int

    def __post_init__(self):
        if not (0.0 <= self.delta_h <= 1.0):
            raise ValueError("delta_h must be in [0, 1]")
        if self.goal not in GOALS:
            raise ValueError(f"goal must be one of {GOALS}")
        if len(self.human_traj) != NAV_STEPS or len(self.robot_traj) != NAV_STEPS:
            raise ValueError(f"trajectories must have exactly {NAV_STEPS} steps")
        if not (0 <= self.outcome_class < 6):
            raise ValueError("outcome_class must be in 0..5")
        derived = classify_human_direction(self.human_traj) * 2 + \
            GOALS.index(self.goal)
        if derived != self.outcome_class:
            raise ValueError(
                f"outcome_class {self.outcome_class} inconsistent with "
                f"(human direction x robot goal) classification {derived}"
            )


@dataclass
class Codebook:
    """Categorical encoder + per-code diagonal-Gaussian decoder.

    encoder has shape (cue buckets, goals, K) with each row a distribution;
    means/stds have shape (K, 12): robot turn commands then human turn
    commands, one scalar per timestep per agent.
    """

    K: int
    encoder: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    # Memos of values fixed by the arrays above (see _draw_halves,
    # _robot_masses and _human_masses); the arrays are read-only copies,
    # so they cannot go stale.
    _halves: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _robot_masses: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)
    _human_memo: Optional[tuple] = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self):
        for name in ("encoder", "means", "stds"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            setattr(self, name, arr)
        if self.encoder.shape != (N_CUE_BUCKETS, len(GOALS), self.K):
            raise ValueError("encoder table shape mismatch")
        sums = self.encoder.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=1e-12):
            raise ValueError("encoder rows must sum to 1 within 1e-12")
        # Weights >= 0 and finite means keep every window mass finite and
        # let generative_regret skip the codes of weight 0.
        if not np.all(self.encoder >= 0):
            raise ValueError("encoder weights must be >= 0")
        if self.means.shape != (self.K, 2 * NAV_STEPS):
            raise ValueError("decoder means shape mismatch")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("decoder means must be finite")
        if self.stds.shape != (self.K, 2 * NAV_STEPS):
            raise ValueError("decoder stds shape mismatch")
        if not np.all(self.stds > 0):
            raise ValueError("decoder variances must be positive")

    def encoder_row(self, delta_h: float, goal: str) -> np.ndarray:
        b = cue_bucket(delta_h)
        return self.encoder[b, GOALS.index(goal)]


@dataclass(frozen=True)
class SensorModel:
    """Binary obstacle sensor with optional forced output."""

    detect_true_positive: float = 1.0
    detect_false_positive: float = 0.0
    injected_fault: Optional[bool] = None

    def __post_init__(self):
        for p in (self.detect_true_positive, self.detect_false_positive):
            if not (0.0 <= p <= 1.0):
                raise ValueError("sensor probabilities must be in [0, 1]")

    def sense(self, obstacle_present: bool, gen: np.random.Generator) -> bool:
        if self.injected_fault is not None:
            return bool(self.injected_fault)
        p = self.detect_true_positive if obstacle_present else self.detect_false_positive
        return bool(gen.uniform() < p)


def cue_bucket(delta_h: float) -> int:
    return min(N_CUE_BUCKETS - 1, int(delta_h * N_CUE_BUCKETS))


# ---------------------------------------------------------------------------
# Synthetic rule dataset
# ---------------------------------------------------------------------------

def _pc_turn(x: float, y: float, h: float, target, gain: float = 1.0) -> float:
    desired = math.atan2(target[1] - y, target[0] - x)
    return _clamp_turn(gain * wrap_angle(desired - h))


def _turns_traj(turns: list[float]) -> ActionTraj:
    return ActionTraj(np.column_stack([np.zeros(NAV_STEPS), turns]))


def _steer(start_xy, heading: float, speed: float, target, noise: Sequence[float],
           gain: float = 1.0) -> tuple[list[float], list[tuple[float, float]]]:
    """Proportional control toward target at constant speed from start_xy
    and heading, one step per noise term: the turn is gain times the bearing
    error plus the noise term, clamped. Returns the turns and the position
    after each step, as plain floats."""
    x, y, h = start_xy[0], start_xy[1], wrap_angle(heading)
    turns, pos = [], []
    for e in noise:
        w = _clamp_turn(_pc_turn(x, y, h, target, gain) + e)
        x, y, h = unicycle_step_floats(x, y, h, speed, 0.0, w, NAV_DT)[:3]
        turns.append(w)
        pos.append((x, y))
    return turns, pos


def _simulate_human(cue_class: str, gen: np.random.Generator,
                    exec_noise: float, ctx: NavWorld
                    ) -> tuple[ActionTraj, list[tuple[float, float]]]:
    # One normal(0, s, 6) call draws the values of six scalar draws.
    noise = gen.normal(0.0, exec_noise, NAV_STEPS).tolist()
    turns, pos = _steer(ctx.human_start, -math.pi / 2, HUMAN_NAV_SPEED,
                        _HUMAN_TARGETS[cue_class], noise)
    return _turns_traj(turns), pos


def _simulate_robot(goal: str, human_pos: Sequence[tuple[float, float]],
                    gen: np.random.Generator, exec_noise: float, ctx: NavWorld,
                    yield_draw: Optional[bool] = None
                    ) -> tuple[ActionTraj, bool, str]:
    """Returns (robot_traj, triggered, final_goal)."""
    targets = {"Primary": ctx.goal_primary, "Backup": ctx.goal_backup}
    current = goal
    x, y, h = ctx.robot_start[0], ctx.robot_start[1], wrap_angle(math.pi / 2)
    triggered = False
    turns = []
    for hx, hy in human_pos:
        if not triggered and math.hypot(x - hx, y - hy) < PROXIMITY_TRIGGER:
            triggered = True
            do_yield = yield_draw if yield_draw is not None \
                else bool(gen.uniform() < YIELD_PROB)
            if do_yield:
                current = GOALS[1 - GOALS.index(current)]
        w = _clamp_turn(_pc_turn(x, y, h, targets[current])
                        + float(gen.normal(0.0, exec_noise)))
        x, y, h = unicycle_step_floats(x, y, h, ROBOT_NAV_SPEED, 0.0, w, NAV_DT)[:3]
        turns.append(w)
    return _turns_traj(turns), triggered, current


def _cue_class(delta: float) -> str:
    if delta < 1.0 / 3.0:
        return "left"
    if delta > 2.0 / 3.0:
        return "right"
    return "straight"


def simulate_nav_scene(delta_h: float, goal: str, rng: RngStream,
                       epsilon_sigma: float = 0.05, exec_noise: float = NAV_EXEC_NOISE,
                       yield_draw: Optional[bool] = None):
    """One episode of the rule world.

    Returns (NavSample, triggered flag, final goal). The human heads left /
    straight / right according to its noisy cue; the robot runs proportional
    control to its goal and, on first coming within the proximity threshold
    of the human, diverts to the other goal with probability 0.8 (or per
    yield_draw when forced).
    """
    return _nav_episode(delta_h, goal, rng.generator(), epsilon_sigma, exec_noise,
                        yield_draw)


def _nav_episode(delta_h: float, goal: str, gen: np.random.Generator,
                 epsilon_sigma: float, exec_noise: float, yield_draw: Optional[bool]):
    """simulate_nav_scene on the generator of its stream."""
    ctx = NavWorld()
    eps = gen.normal(0.0, epsilon_sigma)
    cls = _cue_class(delta_h + eps)
    human_traj, human_pos = _simulate_human(cls, gen, exec_noise, ctx)
    robot_traj, triggered, final_goal = _simulate_robot(
        goal, human_pos, gen, exec_noise, ctx, yield_draw)
    outcome = HUMAN_CLASSES.index(cls) * 2 + GOALS.index(goal)
    sample = NavSample(delta_h=delta_h, goal=goal, human_traj=human_traj,
                       robot_traj=robot_traj, outcome_class=outcome)
    return sample, triggered, final_goal


def generate_nav_dataset(n: int = 10_000, epsilon_sigma: float = 0.05,
                         rng: Optional[RngStream] = None,
                         stats: Optional[dict] = None) -> list[NavSample]:
    """Uniform cue and goal draws; if a dict is passed as stats, it is filled
    with 'triggered' and 'yielded' episode counts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    root = rng if rng is not None else RngStream(0)
    if stats is not None:
        stats.update(triggered=0, yielded=0)
    out = []
    children = derive_streams((root, (4, i)) for i in range(n))
    scenes = derive_streams((child, (1,)) for child in children)
    for gen, scene_gen in zip(stream_generators(children), stream_generators(scenes)):
        delta = float(gen.uniform())
        goal = GOALS[int(gen.integers(0, 2))]
        sample, trig, final = _nav_episode(delta, goal, scene_gen, epsilon_sigma,
                                           NAV_EXEC_NOISE, None)
        if stats is not None:
            stats["triggered"] += int(trig)
            stats["yielded"] += int(final != goal)
        out.append(sample)
    return out


# ---------------------------------------------------------------------------
# Codebook fit / sample
# ---------------------------------------------------------------------------

def _class_to_code(outcome_class: int, K: int) -> int:
    if K >= 6:
        return outcome_class
    return outcome_class % K


def _joint_vector(s: NavSample) -> np.ndarray:
    return np.concatenate([s.robot_traj.actions[:, 1], s.human_traj.actions[:, 1]])


def fit_codebook(data: Sequence[NavSample], K: int = 6,
                 smoothing: float = 0.5) -> Codebook:
    """Codes are anchored to outcome classes; the encoder is the smoothed
    empirical code frequency per (cue bucket, goal); the decoder is the
    per-code sample mean/std of the concatenated joint turn trajectory."""
    if not data:
        raise ValueError("data must be non-empty")
    if K < 1:
        raise ValueError("K must be >= 1")
    codes = np.array([_class_to_code(s.outcome_class, K) for s in data])
    counts = np.bincount(codes, minlength=K)
    if np.any(counts < 2):
        missing = [int(z) for z in np.flatnonzero(counts < 2)]
        raise ValueError(f"codes {missing} have fewer than 2 samples")
    enc = np.full((N_CUE_BUCKETS, len(GOALS), K), smoothing)
    for s, z in zip(data, codes):
        enc[cue_bucket(s.delta_h), GOALS.index(s.goal), z] += 1.0
    enc /= enc.sum(axis=2, keepdims=True)
    means = np.empty((K, 2 * NAV_STEPS))
    stds = np.empty((K, 2 * NAV_STEPS))
    vecs = np.array([_joint_vector(s) for s in data])
    for z in range(K):
        sel = vecs[codes == z]
        means[z] = sel.mean(axis=0)
        stds[z] = np.maximum(sel.std(axis=0), 1e-3)
    return Codebook(K=K, encoder=enc, means=means, stds=stds)


# ---------------------------------------------------------------------------
# KDE likelihoods
# ---------------------------------------------------------------------------

def _check_kde(delta: float, bandwidth: float,
               n_samples: Optional[int] = None) -> None:
    """Raise ValueError unless delta and bandwidth are > 0 (NaN is not) and
    n_samples, when given, is >= 1."""
    if n_samples is not None and not n_samples >= 1:
        raise ValueError("n_samples must be >= 1")
    if not (bandwidth > 0 and delta > 0):
        raise ValueError("bandwidth and delta must be positive")


def kde_window_mass(samples, bandwidth: float, center: float,
                    delta: float) -> float:
    """Mass of the Gaussian KDE within [center-delta, center+delta]:
    (1/n) sum_i [Phi((c+d-x_i)/h) - Phi((c-d-x_i)/h)]."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("samples must be a non-empty vector")
    _check_kde(delta, bandwidth)
    hi = ndtr((center + delta - x) / bandwidth)
    lo = ndtr((center - delta - x) / bandwidth)
    return float(np.mean(hi - lo))


def _draw_halves(cb: Codebook, n_samples: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The robot and human halves of the (K, n_samples, 12) decoder draws
    from a fixed internal stream, each a read-only C-contiguous
    (K, n_samples, 6) array, drawn once per (codebook, n_samples)."""
    out = cb._halves.get(n_samples)
    if out is None:
        out = (np.empty((cb.K, n_samples, NAV_STEPS)),
               np.empty((cb.K, n_samples, NAV_STEPS)))
        root = RngStream(_KDE_SEED, 11)
        gens = stream_generators(derive_streams((root, (z, n_samples)) for z in range(cb.K)))
        for z, gen in enumerate(gens):
            draws = cb.means[z] + cb.stds[z] * gen.standard_normal(
                (n_samples, 2 * NAV_STEPS))
            out[0][z], out[1][z] = draws[:, :NAV_STEPS], draws[:, NAV_STEPS:]
        for half in out:
            half.setflags(write=False)
        cb._halves[n_samples] = out
    return out


def _window_masses(draws: np.ndarray, queries: np.ndarray, delta: float,
                   bandwidth: float) -> np.ndarray:
    """draws (K, n, D), queries (..., D) -> masses (K, ..., D).

    Each bound is computed in one buffer, in the order of
    ndtr((q + delta - d) / bandwidth), so the masses equal that
    expression's bit for bit.
    """
    q = queries[np.newaxis, ..., np.newaxis, :]       # (1, ..., 1, D)
    d = draws.reshape(draws.shape[0], *([1] * (queries.ndim - 1)),
                      draws.shape[1], draws.shape[2])  # (K, 1.., n, D)
    hi = np.subtract(q + delta, d)
    hi /= bandwidth
    ndtr(hi, out=hi)
    lo = np.subtract(q - delta, d)
    lo /= bandwidth
    ndtr(lo, out=lo)
    hi -= lo
    return np.mean(hi, axis=-2)                        # (K, ..., D)


_DEN_FLOOR = 1e-300


@functools.lru_cache(maxsize=None)
def _proportional_candidates(ctx: NavWorld) -> tuple[ActionTraj, ...]:
    """The 9 noise-free proportional-control robot trajectories
    (3 bearings x 3 gains) of a world, built once per world."""
    mid = ((ctx.goal_primary[0] + ctx.goal_backup[0]) / 2.0,
           (ctx.goal_primary[1] + ctx.goal_backup[1]) / 2.0)
    # x + -0.0 is x for every x, signed zeros included, and _pc_turn's turn
    # is already clamped, so these steps are the noise-free controller's.
    return tuple(_turns_traj(_steer(ctx.robot_start, math.pi / 2, ROBOT_NAV_SPEED, target,
                                    [-0.0] * NAV_STEPS, gain)[0])
                 for target in (ctx.goal_primary, ctx.goal_backup, mid)
                 for gain in (0.5, 1.0, 2.0))


def default_hindsight_candidates(executed: ActionTraj,
                                 ctx: Optional[NavWorld] = None
                                 ) -> list[ActionTraj]:
    """9 proportional-control trajectories (3 bearings x 3 gains) plus the
    executed trajectory (always last)."""
    ctx = ctx if ctx is not None else NavWorld()
    return [*_proportional_candidates(ctx), executed]


def _robot_masses(cb: Codebook, turns: np.ndarray, n_samples: int,
                  delta: float, bandwidth: float,
                  executed_turns: bytes, live: np.ndarray) -> np.ndarray:
    """(K, 6) robot window masses of one candidate's turns.

    Memoised on the codebook by (n_samples, delta, bandwidth, turns) for
    every candidate but the executed one: in every caller the other
    candidates are a fixed set, so the memo does not grow with the number
    of trajectories scored. The executed one is computed fresh, and only
    for the codes in live (those of encoder weight > 0); the rows of the
    other codes are 0, which leaves every weighted sum unchanged, since
    0 * finite = +0.0 whatever the mass.
    """
    key = (n_samples, delta, bandwidth, turns.tobytes())
    out = cb._robot_masses.get(key)
    if out is None:
        robot = _draw_halves(cb, n_samples)[0]
        if key[3] != executed_turns:
            out = _window_masses(robot, turns, delta, bandwidth)
            out.setflags(write=False)
            cb._robot_masses[key] = out
        else:
            out = np.zeros((cb.K, NAV_STEPS))
            out[live] = _window_masses(robot[live], turns, delta, bandwidth)
    return out


def _human_masses(cb: Codebook, observed: np.ndarray, n_samples: int,
                  delta: float, bandwidth: float) -> np.ndarray:
    """(K, 6) window masses of the observed human turns.

    The codebook keeps the last result, one entry: callers that score many
    deployments against the same human (the perception study) compute it
    once, and any other call replaces it.
    """
    key = (n_samples, delta, bandwidth, observed.tobytes())
    memo = cb._human_memo
    if memo is not None and memo[0] == key:
        return memo[1]
    out = _window_masses(_draw_halves(cb, n_samples)[1], observed, delta,
                         bandwidth)
    out.setflags(write=False)
    cb._human_memo = (key, out)
    return out


def _executed_index(cands: Sequence[ActionTraj], executed: ActionTraj) -> int:
    """Index of the first candidate equal to executed (ActionTraj.__eq__),
    found by one comparison over the stacked candidates."""
    if cands and all(c.actions.shape == executed.actions.shape for c in cands):
        hit = (np.array([c.actions for c in cands]) == executed.actions).all(
            axis=(1, 2))
        hit &= np.array([c.start_t for c in cands]) == executed.start_t
        if hit.any():
            return int(hit.argmax())
    raise ValueError("executed trajectory must be in hindsight_candidates")


def generative_regret(cb: Codebook, executed_robot_traj: ActionTraj,
                      observed_human_traj: ActionTraj, delta_h: float,
                      goal: str,
                      hindsight_candidates: Optional[Sequence[ActionTraj]] = None,
                      n_samples: int = 250, delta: float = 0.1,
                      bandwidth: float = 0.05) -> float:
    """Mean over timesteps of (max candidate likelihood - executed
    likelihood), with per-timestep likelihoods from the code-mixture KDE.

    What is fixed per codebook is computed once and kept on it: the
    decoder draws, the robot masses of every candidate but the executed
    one, and the masses of the last observed human (see _robot_masses and
    _human_masses). The executed trajectory's masses are computed only for
    codes of encoder weight > 0; the others contribute 0 to every sum
    either way.
    """
    _check_kde(delta, bandwidth, n_samples)
    if hindsight_candidates is None:
        cands = default_hindsight_candidates(executed_robot_traj)
    else:
        cands = list(hindsight_candidates)
    exec_idx = _executed_index(cands, executed_robot_traj)

    w = cb.encoder_row(delta_h, goal)
    live = np.flatnonzero(w > 0)
    m_h = _human_masses(cb, observed_human_traj.actions[:, 1], n_samples,
                        delta, bandwidth)                      # (K, 6)
    exec_turns = executed_robot_traj.actions[:, 1].tobytes()
    m_r = np.stack([_robot_masses(cb, c.actions[:, 1], n_samples, delta,
                                  bandwidth, exec_turns, live)
                    for c in cands], axis=1)                   # (K, C, 6)
    den = np.einsum("k,kt->t", w, m_h)                        # (6,)
    if np.any(den < _DEN_FLOOR):
        raise OutOfSupportError(
            "observed human behavior has no support under the codebook")
    num = np.einsum("k,kt,kct->ct", w, m_h, m_r)              # (C, 6)
    lik = np.clip(num / den[np.newaxis, :], 0.0, 1.0)
    per_t = lik.max(axis=0) - lik[exec_idx]
    return float(np.mean(per_t))


# ---------------------------------------------------------------------------
# Mismatch scenario builders (nominal / collision / irrelevant)
# ---------------------------------------------------------------------------

def divert_shape_candidate() -> ActionTraj:
    """Noise-free robot trajectory of the yield policy branch: proportional
    control to the primary goal until the proximity trigger, then to backup."""
    sample, triggered, _ = simulate_nav_scene(
        0.5, "Primary", RngStream(7, 13), epsilon_sigma=0.0, exec_noise=0.0,
        yield_draw=True)
    assert triggered
    return sample.robot_traj


def build_mismatch_scenarios(cb: Codebook, rng: RngStream, n_reps: int = 30,
                             **regret_kw) -> dict[str, float]:
    """Mean generative regret for the three canned deployments.

    nominal: head-on human, robot yields to the backup goal (the common
    branch). collision: head-on human, robot pushes to the primary goal
    through the human's path. irrelevant: crossing human the robot never
    interacts with; the robot's path is unaffected regardless of what was
    anticipated for the human.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    # (goal, yield draw, range of the uniform cue) of each deployment.
    configs = {
        "nominal": ("Primary", True, (0.4, 0.6)),
        "collision": ("Primary", False, (0.4, 0.6)),
        "irrelevant": ("Primary", None, (0.05, 0.28)),
    }
    divert = divert_shape_candidate()
    # Each rep draws its cue from stream (tag, i, 0) and runs its episode on
    # stream (tag, i), every config's streams keyed in one pass.
    gens = stream_generators(derive_streams(
        (rng, ids) for name in configs for i in range(n_reps)
        for ids in ((hashn(name), i, 0), (hashn(name), i))))
    out = {}
    for name, (goal, yield_draw, cue_range) in configs.items():
        vals = []
        for _ in range(n_reps):
            cue = next(gens).uniform(*cue_range)
            sample, _, _ = _nav_episode(cue, goal, next(gens), epsilon_sigma=0.0,
                                        exec_noise=0.02, yield_draw=yield_draw)
            cands = default_hindsight_candidates(sample.robot_traj)
            cands.insert(0, divert)
            vals.append(generative_regret(cb, sample.robot_traj,
                                          sample.human_traj, sample.delta_h,
                                          goal, hindsight_candidates=cands,
                                          **regret_kw))
        out[name] = float(np.mean(vals))
    return out


def hashn(name: str) -> int:
    """Stable small integer tag for a scenario name (process-independent)."""
    return sum((i + 1) * b for i, b in enumerate(name.encode())) % 65521


# ---------------------------------------------------------------------------
# Perception-failure case study
# ---------------------------------------------------------------------------

def _perception_turns(goal: str, noise: Sequence[float],
                      ctx: NavWorld) -> list[float]:
    """Turns of proportional control to the goal plus one noise term per
    step, clamped, as plain floats."""
    target = ctx.goal_primary if goal == "Primary" else ctx.goal_backup
    return _steer(ctx.robot_start, math.pi / 2, ROBOT_NAV_SPEED, target, noise)[0]


def _perception_robot(goal: str, gen: np.random.Generator, exec_noise: float,
                      ctx: NavWorld) -> ActionTraj:
    # One normal(0, s, 6) call draws the values of six scalar draws.
    noise = gen.normal(0.0, exec_noise, NAV_STEPS).tolist()
    return _turns_traj(_perception_turns(goal, noise, ctx))


def _fit_perception_codebook(n_fit: int, exec_noise: float,
                             rng: RngStream) -> Codebook:
    """K=2 codebook over robot behavior: code 0 = clear path to the primary
    goal, code 1 = obstacle ahead, divert to the backup goal. The encoder
    keys on the goal implied by the ground-truth obstacle bit; human
    dimensions are inert (no walker in this world)."""
    ctx = NavWorld()
    rows = {0: [], 1: []}
    inert = [0.0] * NAV_STEPS
    gens = stream_generators(derive_streams(
        (rng, (bit, i)) for i in range(n_fit) for bit in range(len(GOALS))))
    for i in range(n_fit):
        for bit, goal in enumerate(GOALS):
            noise = next(gens).normal(0.0, exec_noise, NAV_STEPS).tolist()
            rows[bit].append(_perception_turns(goal, noise, ctx) + inert)
    means = np.empty((2, 2 * NAV_STEPS))
    stds = np.empty((2, 2 * NAV_STEPS))
    for bit in (0, 1):
        arr = np.array(rows[bit])
        means[bit] = arr.mean(axis=0)
        stds[bit] = np.maximum(arr.std(axis=0), 1e-3)
    enc = np.zeros((N_CUE_BUCKETS, len(GOALS), 2))
    enc[:, 0, 0] = 1.0   # goal Primary rows -> code 0
    enc[:, 1, 1] = 1.0   # goal Backup rows -> code 1
    return Codebook(K=2, encoder=enc, means=means, stds=stds)


def perception_case_study(sensor: SensorModel,
                          n_samples_per_condition: int = 500,
                          rng: Optional[RngStream] = None,
                          delta: float = 0.1, bandwidth: float = 0.05,
                          n_samples: int = 250,
                          exec_noise: float = 0.02) -> list[tuple[str, float]]:
    """Four deployments of an obstacle-conditional goal policy.

    The robot diverts to the backup goal iff its sensor reports an obstacle.
    Regret conditions on the ground-truth obstacle bit, so deployments where
    the sensed bit disagrees with reality score high.
    """
    if n_samples_per_condition < 1:
        raise ValueError("n_samples_per_condition must be >= 1")
    if rng is None:
        rng = RngStream(0)
    ctx = NavWorld()
    cb = _fit_perception_codebook(200, exec_noise, rng.derive(0))
    flat_human = ActionTraj(np.zeros((NAV_STEPS, 2)))
    conditions = [
        ("obstacle-detected", True, True),
        ("obstacle-missed", True, False),
        ("empty-clear", False, False),
        ("empty-false-alarm", False, True),
    ]
    gens = stream_generators(derive_streams(
        (rng, (hashn(tag), i)) for tag, _, _ in conditions
        for i in range(n_samples_per_condition)))
    results = []
    for tag, obstacle, forced_reading in conditions:
        forced = replace(sensor, injected_fault=forced_reading)
        true_goal = "Backup" if obstacle else "Primary"
        vals = []
        for _ in range(n_samples_per_condition):
            gen = next(gens)
            sensed = forced.sense(obstacle, gen)
            exec_goal = "Backup" if sensed else "Primary"
            executed = _perception_robot(exec_goal, gen, exec_noise, ctx)
            vals.append(generative_regret(
                cb, executed, flat_human, 0.5, true_goal,
                n_samples=n_samples, delta=delta, bandwidth=bandwidth))
        results.append((tag, float(np.mean(vals))))
    return results


# ---------------------------------------------------------------------------
# Serialization (nav/1, codebook/1)
# ---------------------------------------------------------------------------

def nav_samples_to_json(samples: Sequence[NavSample]) -> str:
    return json.dumps({
        "schema": "nav/1",
        "samples": [
            {
                "delta_h": s.delta_h,
                "goal": s.goal,
                "human_actions": s.human_traj.actions.tolist(),
                "robot_actions": s.robot_traj.actions.tolist(),
                "outcome_class": s.outcome_class,
            }
            for s in samples
        ],
    })


def nav_samples_from_json(text: str) -> list[NavSample]:
    doc = json.loads(text)
    if doc.get("schema") != "nav/1":
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    return [
        NavSample(
            delta_h=d["delta_h"],
            goal=d["goal"],
            human_traj=ActionTraj(np.array(d["human_actions"])),
            robot_traj=ActionTraj(np.array(d["robot_actions"])),
            outcome_class=d["outcome_class"],
        )
        for d in doc["samples"]
    ]


def codebook_to_json(cb: Codebook) -> str:
    return json.dumps({
        "schema": "codebook/1",
        "K": cb.K,
        "encoder": cb.encoder.tolist(),
        "means": cb.means.tolist(),
        "stds": cb.stds.tolist(),
    })


def codebook_from_json(text: str) -> Codebook:
    doc = json.loads(text)
    if doc.get("schema") != "codebook/1":
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    return Codebook(
        K=doc["K"],
        encoder=np.array(doc["encoder"]),
        means=np.array(doc["means"]),
        stds=np.array(doc["stds"]),
    )
