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
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .core import (TURN_LIMIT, TWO_PI, ActionTraj, AgentState, NavWorld, RngStream,
                   derive_streams, rollout_positions, stream_generators, unicycle_step_floats,
                   wrap_angle)

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
# Std of the noise on the human's cue before its direction is drawn.
NAV_CUE_NOISE = 0.05
# Std of the per-step turn noise in the mismatch and perception studies.
STUDY_EXEC_NOISE = 0.02
# The studies' KDE likelihoods: decoder draws per code, half-width of the
# window around each turn, and kernel bandwidth.
KDE_SAMPLES = 250
KDE_DELTA = 0.1
KDE_BANDWIDTH = 0.05
# Pseudo-count added to every encoder cell of a fitted codebook.
ENCODER_SMOOTHING = 0.5

_HUMAN_TARGETS = {"left": (-3.0, 3.0), "straight": (0.0, 0.0), "right": (3.0, 3.0)}

# Fixed internal stream for decoder sampling, so likelihood evaluation is a
# deterministic function of (codebook, query, n_samples).
_KDE_SEED = 987654321


class OutOfSupportError(ValueError):
    """Raised when the conditioning denominator of a scored row has no
    sampled support; row is the index of the first such row in its block."""

    def __init__(self, row: int):
        super().__init__(f"observed human behavior of row {row} has no support "
                         "under the codebook")
        self.row = row


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _clamp_turn(w: float) -> float:
    """Clamp to the turn limit. NaN stays NaN (w is the first argument of
    both max and min), so the step kernel still rejects it."""
    return min(max(w, -TURN_LIMIT), TURN_LIMIT)


def classify_human_direction(human_traj: ActionTraj) -> int:
    """0 left / 1 straight / 2 right, by nearest rollout endpoint target.

    The human starts at NavWorld().human_start heading -pi/2 at
    HUMAN_NAV_SPEED; a nav human's accelerations are 0.0 (_turns_traj), so
    it keeps that speed.
    """
    start = AgentState(*NavWorld().human_start, -math.pi / 2, HUMAN_NAV_SPEED)
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
    """Perfect binary obstacle sensor whose reading an injected fault forces."""

    injected_fault: Optional[bool] = None

    def sense(self, obstacle_present: bool) -> bool:
        if self.injected_fault is not None:
            return bool(self.injected_fault)
        return bool(obstacle_present)


def cue_bucket(delta_h: float) -> int:
    return min(N_CUE_BUCKETS - 1, int(delta_h * N_CUE_BUCKETS))


# ---------------------------------------------------------------------------
# Synthetic rule dataset
# ---------------------------------------------------------------------------

def _pc_turn(x: float, y: float, h: float, target, gain: float = 1.0) -> float:
    desired = math.atan2(target[1] - y, target[0] - x)
    return _clamp_turn(gain * wrap_angle(desired - h))


def _turns_traj(turns: Sequence[float]) -> ActionTraj:
    return ActionTraj(np.column_stack([np.zeros(NAV_STEPS), turns]))


def _clamp_turns(w: np.ndarray) -> np.ndarray:
    """_clamp_turn on an array: np.maximum and np.minimum return NaN and
    -0.0 where Python's max and min do."""
    return np.minimum(np.maximum(w, -TURN_LIMIT), TURN_LIMIT)


def _steer_block(x, y, heading, speed, targets, gains, noise) -> tuple[np.ndarray, np.ndarray]:
    """Proportional control of B rows at constant speed, one column per step.

    Row b starts at (x[b], y[b]) with heading[b], runs at speed[b] and
    steers toward targets[b] with gain gains[b]: step k's turn is the
    clamped gain times the bearing error, plus noise[b, k], clamped again,
    followed by one unicycle step of NAV_DT. x, y, heading, speed and gains
    are scalars or (B,) arrays, targets a (2,) or (B, 2) array and noise a
    (B, T) array. Returns the (B, T) turns and the (B, T, 2) positions after
    each step.

    Each row repeats the float loop of _pc_turn and unicycle_step_floats
    operation by operation, so it equals it bit for bit: the bearing is
    math.atan2 per row (np.arctan2 may differ from it in the last bit), the
    wraps are np.remainder, which equals Python's float %, and the step is
    unicycle_step_floats's straight or arc expressions. A step that kernel
    would refuse (a non-finite turn or speed, or a step leaving the finite
    range) is taken again by it on the first row at fault, which raises its
    ValueError.
    """
    noise = np.asarray(noise, dtype=float)
    B, T = noise.shape

    def rows(a):
        return np.broadcast_to(np.asarray(a, dtype=float), (B,))

    tx, ty = np.broadcast_to(np.asarray(targets, dtype=float), (B, 2)).T
    x, y, speed, gain = rows(x), rows(y), rows(speed), rows(gains)
    pi, dt = math.pi, NAV_DT
    turns, pos = np.empty((B, T)), np.empty((B, T, 2))
    with np.errstate(all="ignore"):
        h = np.remainder(rows(heading) + pi, TWO_PI) - pi
        v = speed + 0.0 * dt
        v = np.where(v > 0.0, v, 0.0)  # max(0.0, v), NaN and -0.0 included
        for k in range(T):
            bearing = np.array(list(map(math.atan2, (ty - y).tolist(), (tx - x).tolist())),
                               dtype=float)
            w = _clamp_turns(gain * (np.remainder(bearing - h + pi, TWO_PI) - pi))
            w = _clamp_turns(w + noise[:, k])
            straight = np.abs(w) < 1e-12
            h1 = h + w * dt
            r = v / np.where(straight, 1.0, w)
            x1 = np.where(straight, x + v * np.cos(h) * dt, x + r * (np.sin(h1) - np.sin(h)))
            y1 = np.where(straight, y + v * np.sin(h) * dt, y + -r * (np.cos(h1) - np.cos(h)))
            once = np.remainder(h + w * dt + pi, TWO_PI) - pi
            bad = ~(np.isfinite(w) & np.isfinite(v) & np.isfinite(x1) & np.isfinite(y1)
                    & np.isfinite(once))
            if bad.any():
                b = int(bad.argmax())
                unicycle_step_floats(float(x[b]), float(y[b]), float(h[b]), float(speed[b]),
                                     0.0, float(w[b]), dt)
            x, y, h = x1, y1, np.remainder(once + pi, TWO_PI) - pi
            turns[:, k] = w
            pos[:, k, 0], pos[:, k, 1] = x, y
    return turns, pos


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
                       epsilon_sigma: float = NAV_CUE_NOISE,
                       exec_noise: float = NAV_EXEC_NOISE,
                       yield_draw: Optional[bool] = None):
    """One episode of the rule world.

    Returns (NavSample, triggered flag, final goal). The human heads left /
    straight / right according to its noisy cue; the robot runs proportional
    control to its goal and, on first coming within the proximity threshold
    of the human, diverts to the other goal with probability 0.8 (or per
    yield_draw when forced).
    """
    return _nav_episodes([(delta_h, goal, rng.generator())], epsilon_sigma, exec_noise,
                         yield_draw)[0]


def _nav_episodes(episodes: Sequence[tuple[float, str, np.random.Generator]],
                  epsilon_sigma: float, exec_noise: float, yield_draw: Optional[bool]):
    """simulate_nav_scene for each (delta_h, goal, generator of its stream).

    Each episode draws its cue noise and its human's turn noise first, then
    all humans are steered as one block, then each robot runs on the same
    generator, so every generator sees the draws of one episode in order.
    """
    ctx = NavWorld()
    classes, noise = [], np.empty((len(episodes), NAV_STEPS))
    for (delta_h, _, gen), row in zip(episodes, noise):
        classes.append(_cue_class(delta_h + gen.normal(0.0, epsilon_sigma)))
        # One normal(0, s, 6) call draws the values of six scalar draws.
        row[:] = gen.normal(0.0, exec_noise, NAV_STEPS)
    human_turns, human_pos = _steer_block(
        *ctx.human_start, -math.pi / 2, HUMAN_NAV_SPEED,
        [_HUMAN_TARGETS[c] for c in classes], 1.0, noise)
    out = []
    for (delta_h, goal, gen), cls, turns, pos in zip(episodes, classes, human_turns,
                                                    human_pos.tolist()):
        robot_traj, triggered, final_goal = _simulate_robot(
            goal, pos, gen, exec_noise, ctx, yield_draw)
        outcome = HUMAN_CLASSES.index(cls) * 2 + GOALS.index(goal)
        sample = NavSample(delta_h=delta_h, goal=goal, human_traj=_turns_traj(turns),
                           robot_traj=robot_traj, outcome_class=outcome)
        out.append((sample, triggered, final_goal))
    return out


# Episodes simulated as one block by generate_nav_dataset: their generators
# (about 1 kB each) are alive together.
_EPISODE_BLOCK = 1024


def generate_nav_dataset(n: int = 10_000, rng: Optional[RngStream] = None,
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
    pairs = zip(stream_generators(children), stream_generators(scenes))
    for _ in range(0, n, _EPISODE_BLOCK):
        episodes = [(float(gen.uniform()), GOALS[int(gen.integers(0, 2))], scene_gen)
                    for gen, scene_gen in islice(pairs, _EPISODE_BLOCK)]
        for sample, trig, final in _nav_episodes(episodes, NAV_CUE_NOISE, NAV_EXEC_NOISE,
                                                 None):
            if stats is not None:
                stats["triggered"] += int(trig)
                stats["yielded"] += int(final != sample.goal)
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


def fit_codebook(data: Sequence[NavSample], K: int = 6) -> Codebook:
    """Codes are anchored to outcome classes; the encoder is the empirical
    code frequency per (cue bucket, goal), smoothed by ENCODER_SMOOTHING;
    the decoder is the per-code sample mean/std of the concatenated joint
    turn trajectory."""
    if not data:
        raise ValueError("data must be non-empty")
    if K < 1:
        raise ValueError("K must be >= 1")
    codes = np.array([_class_to_code(s.outcome_class, K) for s in data])
    counts = np.bincount(codes, minlength=K)
    if np.any(counts < 2):
        missing = [int(z) for z in np.flatnonzero(counts < 2)]
        raise ValueError(f"codes {missing} have fewer than 2 samples")
    enc = np.full((N_CUE_BUCKETS, len(GOALS), K), ENCODER_SMOOTHING)
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
    from a fixed internal stream, each a C-contiguous (K, n_samples, 6)
    array."""
    robot = np.empty((cb.K, n_samples, NAV_STEPS))
    human = np.empty((cb.K, n_samples, NAV_STEPS))
    root = RngStream(_KDE_SEED, 11)
    gens = stream_generators(derive_streams((root, (z, n_samples)) for z in range(cb.K)))
    for z, gen in enumerate(gens):
        draws = cb.means[z] + cb.stds[z] * gen.standard_normal((n_samples, 2 * NAV_STEPS))
        robot[z], human[z] = draws[:, :NAV_STEPS], draws[:, NAV_STEPS:]
    return robot, human


# Bytes of one chunk's temporary in _window_masses (256 KiB). Each worker
# holds two buffers of this size, so a pass's peak scratch memory is
# workers x 2 x _MASS_BYTES.
_MASS_BYTES = 1 << 18


def _mass_workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _window_masses(jobs: Sequence[tuple[np.ndarray, np.ndarray]], delta: float,
                   bandwidth: float) -> list[np.ndarray]:
    """One (K, Q, D) array of masses per (draws (K, n, D), queries (Q, D))
    job.

    Each job's queries are taken in chunks of rows that keep a temporary
    under _MASS_BYTES (one row when a single row is larger). Each bound is
    computed in one buffer, in the order of ndtr((q + delta - d) /
    bandwidth), so the masses equal that expression's bit for bit, in any
    chunk. The chunks of all jobs are shared by min(_mass_workers(), chunks)
    workers: the calling thread and threads started and joined in this
    call. A worker takes the next chunk under a lock and writes it into a
    disjoint slice of its job's output, so no mass depends on which worker
    computes it. Each worker reuses its own two buffers, so peak scratch
    memory is workers x 2 x _MASS_BYTES. A worker's exception is raised
    here, after every thread has been joined.
    """
    outs, chunks = [], []
    for draws, queries in jobs:
        out = np.empty((draws.shape[0], len(queries), draws.shape[2]))
        outs.append(out)
        rows = max(1, _MASS_BYTES // draws.nbytes)
        d = draws[:, np.newaxis]                                   # (K, 1, n, D)
        for i in range(0, len(queries), rows):
            q = queries[i:i + rows, np.newaxis]                    # (r, 1, D)
            shape = (d.shape[0], len(q), *d.shape[2:])             # (K, r, n, D)
            chunks.append((shape, d, q + delta, q - delta, out[:, i:i + rows]))
    if not chunks:
        return outs
    size = max(math.prod(c[0]) for c in chunks)
    todo = iter(chunks)
    lock = threading.Lock()

    def work(hi_buf: np.ndarray, lo_buf: np.ndarray) -> None:
        while True:
            with lock:
                chunk = next(todo, None)
            if chunk is None:
                return
            shape, d, q_hi, q_lo, out = chunk
            hi = hi_buf[:math.prod(shape)].reshape(shape)
            lo = lo_buf[:hi.size].reshape(shape)
            np.subtract(q_hi, d, out=hi)
            hi /= bandwidth
            ndtr(hi, out=hi)
            np.subtract(q_lo, d, out=lo)
            lo /= bandwidth
            ndtr(lo, out=lo)
            hi -= lo
            np.mean(hi, axis=-2, out=out)

    workers = min(_mass_workers(), len(chunks))
    # The pool starts a thread per submitted worker, none for one worker,
    # and leaving the block joins them all.
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(work, np.empty(size), np.empty(size))
                   for _ in range(workers - 1)]
        work(np.empty(size), np.empty(size))
    for f in futures:
        f.result()
    return outs


_DEN_FLOOR = 1e-300


@functools.lru_cache(maxsize=None)
def default_hindsight_candidates(ctx: NavWorld) -> tuple[ActionTraj, ...]:
    """The 9 noise-free proportional-control robot trajectories
    (3 bearings x 3 gains) of a world, built once per world: the shared
    candidates every nav command scores against."""
    mid = ((ctx.goal_primary[0] + ctx.goal_backup[0]) / 2.0,
           (ctx.goal_primary[1] + ctx.goal_backup[1]) / 2.0)
    targets = [t for t in (ctx.goal_primary, ctx.goal_backup, mid) for _ in range(3)]
    # x + -0.0 is x for every x, signed zeros included, and the bearing term
    # is already clamped, so these steps are the noise-free controller's.
    turns = _steer_block(*ctx.robot_start, math.pi / 2, ROBOT_NAV_SPEED, targets,
                         [0.5, 1.0, 2.0] * 3, np.full((9, NAV_STEPS), -0.0))[0]
    return tuple(_turns_traj(row) for row in turns)


def generative_regret(cb: Codebook, shared: Sequence[ActionTraj], executed: np.ndarray,
                      observed: np.ndarray, weights: np.ndarray, n_samples: int,
                      delta: float, bandwidth: float) -> np.ndarray:
    """(S,) generative regret of S deployments: row s scores its executed
    turns executed[s] against the shared candidates plus itself, with
    observed human turns observed[s] and encoder row weights[s] ((S, 6),
    (S, 6) and (S, K) arrays). One deployment is a one-row block.

    Per row: the mean over timesteps of (max candidate likelihood - executed
    likelihood), with per-timestep likelihoods from the code-mixture KDE.
    The decoder draws are made once per call, and every window mass of the
    call comes from one _window_masses pass: the masses of each distinct
    observed human row, the shared candidates' robot masses, and per code
    the executed masses of the rows that weigh it > 0. A row's other
    executed masses are 0, which leaves every weighted sum unchanged, since
    0 * finite = +0.0 whatever the mass. A shared candidate equal to a row's
    executed turns has its likelihood too, so the maximum is the same with
    or without it. The batched einsums and reductions give each row the
    bits of the same computation on that row alone. A row whose denominator
    is under _DEN_FLOOR fails the block with an OutOfSupportError naming the
    first such row. An empty block returns an empty array without drawing.
    Bad KDE settings, trajectories of other than NAV_STEPS steps, and a
    block whose row counts or encoder width disagree are ValueErrors.
    """
    _check_kde(delta, bandwidth, n_samples)
    for name, steps in (("executed", executed.shape[1]), ("observed", observed.shape[1]),
                        *(("hindsight candidate", len(c)) for c in shared)):
        if steps != NAV_STEPS:
            raise ValueError(f"{name} trajectory has {steps} steps, not NAV_STEPS = "
                             f"{NAV_STEPS}")
    S, C = len(executed), len(shared)
    if len(observed) != S or weights.shape != (S, cb.K):
        raise ValueError(f"a block of {S} executed rows needs observed ({S}, {NAV_STEPS}) "
                         f"and weights ({S}, {cb.K}), got executed {executed.shape}, "
                         f"observed {observed.shape} and weights {weights.shape}")
    if not S:
        return np.empty(0)
    robot, human = _draw_halves(cb, n_samples)
    distinct, inverse = np.unique(observed, axis=0, return_inverse=True)
    shared_turns = np.array([c.actions[:, 1] for c in shared]).reshape(C, NAV_STEPS)
    live = [np.flatnonzero(weights[:, z] > 0) for z in range(cb.K)]  # weights are >= 0
    m_h, m_shared, *m_exec = _window_masses(
        [(human, distinct), (robot, shared_turns),
         *((robot[z:z + 1], executed[rows]) for z, rows in enumerate(live))],
        delta, bandwidth)
    m_h = m_h[:, inverse]                                       # (K, S, 6)
    den = np.einsum("sk,kst->st", weights, m_h)                 # (S, 6)
    short = np.flatnonzero((den < _DEN_FLOOR).any(axis=1))
    if short.size:
        raise OutOfSupportError(int(short[0]))
    m_r = np.zeros((cb.K, S, C + 1, NAV_STEPS))                 # (K, S, C, 6)
    m_r[:, :, :C] = m_shared[:, np.newaxis]
    for z, (rows, m) in enumerate(zip(live, m_exec)):
        m_r[z, rows, C] = m[0]
    num = np.einsum("sk,kst,ksct->sct", weights, m_h, m_r)      # (S, C, 6)
    lik = np.clip(num / den[:, np.newaxis, :], 0.0, 1.0)
    return np.mean(lik.max(axis=1) - lik[:, -1], axis=1)


def _sample_rows(cb: Codebook, samples: Sequence[NavSample],
                 shared: Sequence[ActionTraj]) -> np.ndarray:
    """generative_regret of the samples' robot and human turns, each at the
    encoder row of its cue and goal, with the studies' KDE settings."""
    def turns(trajs):
        return np.array([t.actions[:, 1] for t in trajs]).reshape(-1, NAV_STEPS)

    return generative_regret(cb, shared, turns(s.robot_traj for s in samples),
                             turns(s.human_traj for s in samples),
                             np.array([cb.encoder_row(s.delta_h, s.goal)
                                       for s in samples]).reshape(-1, cb.K),
                             KDE_SAMPLES, KDE_DELTA, KDE_BANDWIDTH)


def sample_regrets(cb: Codebook, samples: Sequence[NavSample]) -> list[float]:
    """generative_regret of each sample's robot trajectory given its human's,
    at its cue and goal, against the default hindsight candidates with the
    studies' KDE settings, the samples scored as one block."""
    return _sample_rows(cb, samples, default_hindsight_candidates(NavWorld())).tolist()


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


def build_mismatch_scenarios(cb: Codebook, rng: RngStream,
                             n_reps: int = 30) -> dict[str, float]:
    """Mean generative regret for the three canned deployments.

    nominal: head-on human, robot yields to the backup goal (the common
    branch). collision: head-on human, robot pushes to the primary goal
    through the human's path. irrelevant: crossing human the robot never
    interacts with; the robot's path is unaffected regardless of what was
    anticipated for the human. The humans of a deployment's reps are
    steered as one block, and the reps of all three are scored as one block
    against the divert candidate and the default hindsight candidates.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    # (goal, yield draw, range of the uniform cue) of each deployment.
    configs = {
        "nominal": ("Primary", True, (0.4, 0.6)),
        "collision": ("Primary", False, (0.4, 0.6)),
        "irrelevant": ("Primary", None, (0.05, 0.28)),
    }
    shared = [divert_shape_candidate(), *default_hindsight_candidates(NavWorld())]
    # Each rep draws its cue from stream (tag, i, 0) and runs its episode on
    # stream (tag, i), every config's streams keyed in one pass.
    gens = stream_generators(derive_streams(
        (rng, ids) for name in configs for i in range(n_reps)
        for ids in ((hashn(name), i, 0), (hashn(name), i))))
    samples = []
    for goal, yield_draw, cue_range in configs.values():
        episodes = [(next(gens).uniform(*cue_range), goal, next(gens))
                    for _ in range(n_reps)]
        samples += [s for s, _, _ in _nav_episodes(episodes, 0.0, STUDY_EXEC_NOISE,
                                                   yield_draw)]
    vals = _sample_rows(cb, samples, shared)
    return dict(zip(configs, map(float, vals.reshape(len(configs), n_reps).mean(axis=1))))


def hashn(name: str) -> int:
    """Stable small integer tag for a scenario name (process-independent)."""
    return sum((i + 1) * b for i, b in enumerate(name.encode())) % 65521


# ---------------------------------------------------------------------------
# Perception-failure case study
# ---------------------------------------------------------------------------

def _perception_turns(goals: Sequence[str], noise: np.ndarray, ctx: NavWorld) -> np.ndarray:
    """(B, 6) turns of proportional control from the robot start, row b to
    goals[b] plus the noise terms noise[b], as one block."""
    targets = {"Primary": ctx.goal_primary, "Backup": ctx.goal_backup}
    return _steer_block(*ctx.robot_start, math.pi / 2, ROBOT_NAV_SPEED,
                        [targets[g] for g in goals], 1.0, noise)[0]


def _fit_perception_codebook(n_fit: int, exec_noise: float,
                             rng: RngStream) -> Codebook:
    """K=2 codebook over robot behavior: code 0 = clear path to the primary
    goal, code 1 = obstacle ahead, divert to the backup goal. The encoder
    keys on the goal implied by the ground-truth obstacle bit; human
    dimensions are inert (no walker in this world)."""
    # Row i of bit b steers on stream (b, i); one normal(0, s, 6) call draws
    # the values of six scalar draws.
    noise = np.empty((n_fit, len(GOALS), NAV_STEPS))
    gens = stream_generators(derive_streams(
        (rng, (bit, i)) for i in range(n_fit) for bit in range(len(GOALS))))
    for row, gen in zip(noise.reshape(-1, NAV_STEPS), gens):
        row[:] = gen.normal(0.0, exec_noise, NAV_STEPS)
    means = np.empty((2, 2 * NAV_STEPS))
    stds = np.empty((2, 2 * NAV_STEPS))
    for bit, goal in enumerate(GOALS):
        arr = np.zeros((n_fit, 2 * NAV_STEPS))  # human dimensions inert
        arr[:, :NAV_STEPS] = _perception_turns([goal] * n_fit, noise[:, bit], NavWorld())
        means[bit] = arr.mean(axis=0)
        stds[bit] = np.maximum(arr.std(axis=0), 1e-3)
    enc = np.zeros((N_CUE_BUCKETS, len(GOALS), 2))
    enc[:, 0, 0] = 1.0   # goal Primary rows -> code 0
    enc[:, 1, 1] = 1.0   # goal Backup rows -> code 1
    return Codebook(K=2, encoder=enc, means=means, stds=stds)


def perception_case_study(sensor: SensorModel,
                          n_samples_per_condition: int = 500,
                          rng: Optional[RngStream] = None) -> list[tuple[str, float]]:
    """Four deployments of an obstacle-conditional goal policy.

    The robot diverts to the backup goal iff its sensor reports an obstacle.
    Regret conditions on the ground-truth obstacle bit, so deployments where
    the sensed bit disagrees with reality score high. Each condition forces
    the sensor's reading (its injected_fault), so no reading is drawn. The
    samples of all four conditions are steered as one block and scored as
    one block against the default hindsight candidates, each at the encoder
    row of its condition's true goal.
    """
    n = n_samples_per_condition
    if n < 1:
        raise ValueError("n_samples_per_condition must be >= 1")
    if rng is None:
        rng = RngStream(0)
    ctx = NavWorld()
    cb = _fit_perception_codebook(200, STUDY_EXEC_NOISE, rng.derive(0))
    conditions = [
        ("obstacle-detected", True, True),
        ("obstacle-missed", True, False),
        ("empty-clear", False, False),
        ("empty-false-alarm", False, True),
    ]
    gens = stream_generators(derive_streams(
        (rng, (hashn(tag), i)) for tag, _, _ in conditions for i in range(n)))
    goals, noise = [], np.empty((len(conditions), n, NAV_STEPS))
    for (_, obstacle, forced_reading), block in zip(conditions, noise):
        reading = replace(sensor, injected_fault=forced_reading).sense(obstacle)
        goals += ["Backup" if reading else "Primary"] * n
        for row, gen in zip(block, islice(gens, n)):
            row[:] = gen.normal(0.0, STUDY_EXEC_NOISE, NAV_STEPS)
    weights = np.repeat([cb.encoder_row(0.5, "Backup" if obstacle else "Primary")
                         for _, obstacle, _ in conditions], n, axis=0)
    vals = generative_regret(cb, default_hindsight_candidates(ctx),
                             _perception_turns(goals, noise.reshape(-1, NAV_STEPS), ctx),
                             np.zeros((len(goals), NAV_STEPS)), weights, KDE_SAMPLES,
                             KDE_DELTA, KDE_BANDWIDTH)
    return [(tag, float(v))
            for (tag, _, _), v in zip(conditions, vals.reshape(len(conditions), n).mean(axis=1))]


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
