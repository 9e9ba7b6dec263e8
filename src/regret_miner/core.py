"""Shared geometry, state containers, unicycle dynamics, and seeded RNG streams.

Everything downstream (simulation, planning, scoring) builds on the small
vocabulary defined here: agent states on SE(2) x speed, bounded action
trajectories, world contexts, and a hierarchical deterministic RNG.

The unicycle step is written three times: once on plain floats
(unicycle_step_floats, which rollout_positions and every other scalar loop
call), once on arrays of given actions (rollout_speeds, then
rollout_positions_from_speeds, the two halves of rollout_positions_batch),
and once in genplan._steer_block, which steers rows in closed loop and so
computes each step's turn from the step before.
plan() rolls its candidate library out with the array halves and hands the
predictor both results, ``predictor.predict(joint, history, ego_xys,
speeds, ctx, n_modes_out, dt)``: the (K, T, 2) positions and the (K, T)
speed after each step, so no predictor steps the robot again.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Default integration step (seconds) and scene horizon (steps).
DT_DEFAULT = 0.1
HORIZON_DEFAULT = 200

# Action component bounds: |accel| m/s^2, |turn_rate| rad/s.
ACCEL_LIMIT = 4.0
TURN_LIMIT = 1.0

# Footprint radii (meters) by agent class.
ROBOT_RADIUS = 1.0
CAR_RADIUS = 1.0
TRUCK_RADIUS = 1.8
PEDESTRIAN_RADIUS = 0.3

# Largest |accel| and |turn_rate| an ActionTraj accepts, one per column.
_ACTION_BOUNDS = np.array([ACCEL_LIMIT + 1e-12, TURN_LIMIT + 1e-12])

TWO_PI = 2.0 * math.pi
_PI, _cos, _sin, _isfinite = math.pi, math.cos, math.sin, math.isfinite


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    return (theta + math.pi) % TWO_PI - math.pi


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class AgentState:
    """Pose and forward speed of one agent.

    heading is stored wrapped to [-pi, pi); speed is non-negative (m/s).
    """

    x: float
    y: float
    heading: float
    speed: float = 0.0

    def __post_init__(self):
        # JointStates builds its frames' AgentStates without running this
        # method: a check or normalisation added here must be added there too.
        _require_finite("AgentState", self.x, self.y, self.heading, self.speed)
        if self.speed < 0.0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    def distance_to(self, other: "AgentState") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class JointState:
    """World snapshot at discrete time t: robot plus all humans."""

    robot: AgentState
    humans: tuple[AgentState, ...]
    t: int = 0

    def __post_init__(self):
        # JointStates builds its frames without running this method: a
        # check or normalisation added here must be added there too.
        object.__setattr__(self, "humans", tuple(self.humans))
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")


class JointStates(Sequence):
    """A scene's states, one JointState per frame, held as one read-only
    (F, 1+M, 4) block of (x, y, heading, speed) rows, robot first, with the
    frame times ts.

    Every check of AgentState and JointState runs on the whole block when it
    is built: finite values, speed >= 0 and t >= 0. When a frame fails one,
    its states are passed to the constructors, so the error raised is the
    one building the states one by one raises. A frame's JointState is built
    without re-running the checks when the frame is first read, and is then
    kept, so this class must mirror both __post_init__ methods.

    JointStates(block, ts) takes raw rows and wraps the heading column once,
    as AgentState wraps it; of() and concat() take states built already and
    keep their headings, since wrap_angle is not idempotent (an AgentState
    can hold +pi, which wraps again to -pi). Code that scans every frame
    reads the block instead of the frames.
    """

    __slots__ = ("block", "ts", "_frames")

    def __init__(self, block, ts: Sequence[int]):
        arr = np.array(block, dtype=float)
        self._check(arr, ts)
        arr[:, :, 2] = (arr[:, :, 2] + _PI) % TWO_PI - _PI
        self._freeze(arr, ts, None)

    @classmethod
    def of(cls, frames: Sequence[JointState]) -> "JointStates":
        """The states of existing JointStates, which are kept as the frames."""
        frames = list(frames)
        arr = np.array([[(s.x, s.y, s.heading, s.speed) for s in (js.robot, *js.humans)]
                        for js in frames], dtype=float)
        ts = [js.t for js in frames]
        out = cls.__new__(cls)
        out._check(arr, ts)
        out._freeze(arr, ts, frames)
        return out

    @classmethod
    def concat(cls, parts: Sequence["JointStates"]) -> "JointStates":
        """The frames of parts, in order, with the frames each has built."""
        out = cls.__new__(cls)
        out._freeze(np.concatenate([p.block for p in parts]),
                    [t for p in parts for t in p.ts],
                    [js for p in parts for js in p._frames])
        return out

    def prefix(self, n: int) -> "JointStates":
        """The first n frames, with the frames built so far; frames built in
        the prefix later are not shared back."""
        out = type(self).__new__(type(self))
        out._freeze(self.block[:n], self.ts[:n], self._frames[:n])
        return out

    @staticmethod
    def _check(arr: np.ndarray, ts: Sequence[int]) -> None:
        if (arr.ndim != 3 or arr.shape[1] < 1 or arr.shape[2] != 4
                or len(arr) != len(ts)):
            raise ValueError(f"need a (F, 1+M, 4) block with one time per frame, "
                             f"got shape {arr.shape} and {len(ts)} times")
        if np.isfinite(arr).all() and (arr[:, :, 3] >= 0.0).all() and min(ts, default=0) >= 0:
            return
        bad = ((~np.isfinite(arr)).any(axis=(1, 2)) | (arr[:, :, 3] < 0.0).any(axis=1)
               | np.array([t < 0 for t in ts], dtype=bool))
        f = int(np.argmax(bad))
        robot, *humans = (AgentState(*s) for s in arr[f].tolist())
        JointState(robot, tuple(humans), ts[f])

    def _freeze(self, arr: np.ndarray, ts: Sequence[int], frames) -> None:
        arr.setflags(write=False)
        self.block = arr
        self.ts = tuple(ts)
        self._frames = frames if frames is not None else [None] * len(arr)

    def _build(self, f: int, rows: list) -> JointState:
        new = object.__new__
        agents = []
        for x, y, heading, speed in rows:
            s = new(AgentState)
            d = s.__dict__
            d["x"], d["y"], d["heading"], d["speed"] = x, y, heading, speed
            agents.append(s)
        js = new(JointState)
        d = js.__dict__
        d["robot"], d["humans"], d["t"] = agents[0], tuple(agents[1:]), self.ts[f]
        self._frames[f] = js
        return js

    def __getitem__(self, i):
        frames = self._frames
        if isinstance(i, slice):
            idx = range(*i.indices(len(frames)))
            if any(frames[f] is None for f in idx):
                for f, rows in zip(idx, self.block[i].tolist()):
                    if frames[f] is None:
                        self._build(f, rows)
            return [frames[f] for f in idx]
        js = frames[i]
        if js is None:
            f = range(len(frames))[i]
            js = self._build(f, self.block[f].tolist())
        return js

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other) -> bool:
        if isinstance(other, JointStates):
            return self.ts == other.ts and np.array_equal(self.block, other.block)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"JointStates(F={len(self)}, humans={self.block.shape[1] - 1})"


class ActionTraj:
    """A bounded (accel, turn_rate) action sequence starting at step start_t.

    actions has shape (T, 2) with T >= 1; components are validated against
    ACCEL_LIMIT and TURN_LIMIT and the stored array is frozen read-only.
    """

    __slots__ = ("actions", "start_t")

    def __init__(self, actions, start_t: int = 0):
        arr = np.asarray(actions, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"actions must have shape (T>=1, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("actions must be finite")
        if np.any(np.abs(arr[:, 0]) > ACCEL_LIMIT + 1e-12):
            raise ValueError(f"|accel| exceeds bound {ACCEL_LIMIT}")
        if np.any(np.abs(arr[:, 1]) > TURN_LIMIT + 1e-12):
            raise ValueError(f"|turn_rate| exceeds bound {TURN_LIMIT}")
        if start_t < 0:
            raise ValueError(f"start_t must be >= 0, got {start_t}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.actions = arr
        self.start_t = int(start_t)

    @classmethod
    def block(cls, actions, start_ts: Sequence[int],
              lens: Sequence[int]) -> list["ActionTraj"]:
        """K trajectories from one (sum(lens), 2) action block, validated at
        once: the K trajectories are stacked in order, trajectory k holding
        lens[k] rows.

        The block is copied and frozen read-only, and each trajectory's
        actions are a view of its rows. The checks are those of __init__:
        when a trajectory fails one, its rows are passed to __init__ so the
        error raised is the one constructing the trajectories one by one
        raises.
        """
        arr = np.array(actions, dtype=float)
        if (arr.ndim != 2 or arr.shape[1] != 2 or len(lens) != len(start_ts)
                or sum(lens) != len(arr)):
            raise ValueError(f"need a (sum of lens, 2) action block with one start_t "
                             f"per length, got shape {arr.shape}, {len(lens)} lengths "
                             f"and {len(start_ts)} start_t")
        lens, start_ts = list(lens), list(start_ts)
        # |a| <= limit is False for NaN and inf, so one test covers the
        # finiteness and bound checks.
        ok = np.abs(arr) <= _ACTION_BOUNDS
        if not (ok.all() and min(lens, default=1) >= 1 and min(start_ts, default=0) >= 0):
            ends = np.cumsum(lens, dtype=np.int64)
            bad = (np.array(lens) < 1) | (np.array(start_ts) < 0)
            bad_rows = np.flatnonzero(~ok.all(axis=1))
            bad[np.searchsorted(ends, bad_rows, side="right")] = True
            k = int(np.argmax(bad))
            cls(arr[ends[k] - lens[k]:ends[k]], start_ts[k])
        arr.setflags(write=False)
        if len(set(lens)) == 1:
            rows = list(arr.reshape(len(lens), lens[0], 2))
        else:
            ends = list(accumulate(lens))
            rows = [arr[e - n:e] for n, e in zip(lens, ends)]
        new = cls.__new__
        out = []
        for row, start_t in zip(rows, start_ts):
            traj = new(cls)
            traj.actions = row
            traj.start_t = int(start_t)
            out.append(traj)
        return out

    def __len__(self) -> int:
        return self.actions.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionTraj):
            return NotImplemented
        return self.start_t == other.start_t and np.array_equal(self.actions, other.actions)

    def __repr__(self) -> str:
        return f"ActionTraj(T={len(self)}, start_t={self.start_t})"


@dataclass(frozen=True)
class DrivingCorridor:
    """Straight multi-lane corridor along +x.

    lane_centers are lateral (y) offsets of each lane center; lane_width is
    shared by all lanes; length is the corridor extent in x.
    """

    lane_centers: tuple[float, ...] = (0.0, 3.7)
    lane_width: float = 3.7
    length: float = 200.0

    def __post_init__(self):
        object.__setattr__(self, "lane_centers", tuple(float(c) for c in self.lane_centers))
        if len(self.lane_centers) < 1:
            raise ValueError("need at least one lane")
        if self.lane_width <= 0 or self.length <= 0:
            raise ValueError("lane_width and length must be positive")

    def nearest_center(self, y: float) -> float:
        """The lane center nearest y; the first of equally near ones."""
        best = None
        for c in self.lane_centers:
            d = abs(y - c)
            if best is None or d < best_d:
                best, best_d = c, d
        return best


@dataclass(frozen=True)
class NavWorld:
    """Open-floor navigation world with a primary and a backup goal."""

    goal_primary: tuple[float, float] = (0.0, 5.0)
    goal_backup: tuple[float, float] = (4.0, 0.0)
    human_start: tuple[float, float] = (0.0, 3.0)
    robot_start: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for name in ("goal_primary", "goal_backup", "human_start", "robot_start"):
            v = getattr(self, name)
            object.__setattr__(self, name, (float(v[0]), float(v[1])))
        if self.goal_primary == self.goal_backup:
            raise ValueError("goals must be distinct")


Context = Union[DrivingCorridor, NavWorld]


@dataclass(frozen=True)
class RngStream:
    """Deterministic hierarchical RNG handle.

    A (seed, stream_id) pair names one stream; derive(*ids) folds extra
    integers into a child stream via SeedSequence so sibling streams are
    independent and reproducible regardless of draw order elsewhere.
    """

    seed: int
    stream_id: int = 0

    def derive(self, *ids: int) -> "RngStream":
        ss = np.random.SeedSequence(entropy=(self.seed, self.stream_id) + tuple(int(i) for i in ids))
        child_seed, child_stream = (int(x) for x in ss.generate_state(2, dtype=np.uint64))
        return RngStream(child_seed, child_stream)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=(self.seed, self.stream_id))
        return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool
# is 4 uint32 words, hashed in with the INIT_A/MULT_A multipliers, mixed by
# MIX_MULT_L/MIX_MULT_R, and read out with the INIT_B/MULT_B multipliers.
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SS_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _entropy_words(row: Sequence[int]) -> list[int]:
    """The uint32 words numpy assembles from a row of ints: each int's words,
    least significant first, and one 0 word for 0."""
    out = []
    for n in row:
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        out.append(n & _MASK32)
        n >>= 32
        while n:
            out.append(n & _MASK32)
            n >>= 32
    return out


def _seed_states_block(words: np.ndarray) -> np.ndarray:
    """(N, L) uint32 entropy words -> (N, 2) uint64 states, numpy's
    mix_entropy then generate_state(2, np.uint64) on every row at once. The
    hash multipliers depend only on L, so they are plain ints shared by the
    rows; uint32 array arithmetic wraps mod 2**32 as the C code does."""
    n, width = words.shape
    hash_a = _SS_INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = (hash_a * _SS_MULT_A) & _MASK32
        value *= np.uint32(hash_a)
        value ^= value >> _SS_SHIFT
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _SS_MIX_L * x
        out -= _SS_MIX_R * y
        out ^= out >> _SS_SHIFT
        return out

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < width else zeros) for i in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_SS_POOL, width):
        for dst in range(_SS_POOL):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    hash_b = _SS_INIT_B
    state = np.empty((n, _SS_POOL), dtype=np.uint32)
    for i in range(_SS_POOL):
        value = pool[i] ^ np.uint32(hash_b)
        hash_b = (hash_b * _SS_MULT_B) & _MASK32
        value *= np.uint32(hash_b)
        value ^= value >> _SS_SHIFT
        state[:, i] = value
    return state.astype("<u4").view("<u8").astype(np.uint64)


def seed_sequence_states(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """(N, 2) uint64: row n is
    np.random.SeedSequence(entropy=rows[n]).generate_state(2, np.uint64),
    bit for bit, for rows of non-negative ints (ValueError on a negative).

    Rows are grouped by their word count, so each group is one array pass
    and an int of any size is keyed as numpy keys it. tests/test_core.py
    checks the kernel against numpy's SeedSequence, which stays the scalar
    reference: RngStream.derive and RngStream.generator call it.
    """
    words = [_entropy_words(row) for row in rows]
    out = np.empty((len(words), 2), dtype=np.uint64)
    for width, idx in by_length(words).items():
        block = np.array([words[i] for i in idx], dtype=np.uint32).reshape(len(idx), width)
        out[idx] = _seed_states_block(block)
    return out


def derive_streams(rows: Iterable[tuple[RngStream, Sequence[int]]]) -> list[RngStream]:
    """[parent.derive(*ids) for parent, ids in rows], keyed in one pass."""
    entropy = [(p.seed, p.stream_id, *(int(i) for i in ids)) for p, ids in rows]
    return [RngStream(seed, stream_id)
            for seed, stream_id in seed_sequence_states(entropy).tolist()]


class _PhiloxKey(ISeedSequence):
    """Hands Philox a key computed ahead: the generate_state(2, np.uint64)
    that Philox asks its seed sequence for. It does not spawn."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a precomputed Philox key is 2 uint64 words")
        return self.key


def stream_generators(streams: Iterable[RngStream]) -> Iterator[np.random.Generator]:
    """s.generator() for s in streams, bit for bit: every Philox key is
    computed in one pass, and each Generator is built as the caller takes it.
    Its bit_generator.state equals that of s.generator()."""
    keys = seed_sequence_states([(s.seed, s.stream_id) for s in streams])
    return (np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in keys)


def unicycle_step_floats(x: float, y: float, heading: float, speed: float,
                         accel: float, turn_rate: float, dt: float = DT_DEFAULT
                         ) -> tuple[float, float, float, float, float]:
    """One unicycle step on plain floats: (x, y, heading, speed, heading_once).

    The reference is unicycle_step in tests/kinematics_reference.py, one
    AgentState per step: the speed updated first, then an exact Dubins step
    at the new speed. This kernel repeats its operations in order: the speed
    update clamped at 0, the |turn_rate| < 1e-12 straight or arc branch, and
    the heading wrapped twice, once by dubins_step and once by AgentState
    (wrap_angle is not idempotent near -pi). So x, y, heading and speed equal
    the fields of unicycle_step's state bit for bit. heading_once is the
    heading after the first wrap: AgentState(x, y, heading_once, speed) is
    that state. It raises the ValueErrors of dubins_step (dt <= 0; a
    non-finite turn rate, speed or dt) and of AgentState (a non-finite x, y
    or heading).
    """
    v = speed + accel * dt
    v = v if v > 0.0 else 0.0  # max(0.0, v), NaN and -0.0 included
    if not (_isfinite(turn_rate) and _isfinite(v) and _isfinite(dt)):
        _require_finite("dubins_step", turn_rate, v, dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if abs(turn_rate) < 1e-12:
        x = x + v * _cos(heading) * dt
        y = y + v * _sin(heading) * dt
    else:
        h1 = heading + turn_rate * dt
        x = x + (v / turn_rate) * (_sin(h1) - _sin(heading))
        y = y + -(v / turn_rate) * (_cos(h1) - _cos(heading))
    once = (heading + turn_rate * dt + _PI) % TWO_PI - _PI
    if not (_isfinite(x) and _isfinite(y) and _isfinite(once)):
        _require_finite("AgentState", x, y, once, v)
    return x, y, (once + _PI) % TWO_PI - _PI, v, once


def by_length(items: Sequence) -> dict[int, list[int]]:
    """Indices of the items grouped by length, in order: the rows that one
    block operation can take at once."""
    out: dict[int, list[int]] = {}
    for n, item in enumerate(items):
        out.setdefault(len(item), []).append(n)
    return out


def rollout_positions(state: AgentState, traj: ActionTraj,
                      dt: float = DT_DEFAULT) -> np.ndarray:
    """(T, 2) array of x,y positions along a rollout: unicycle_step_floats
    once per action, so the positions equal those of the reference
    unicycle_rollout (in tests/kinematics_reference.py) bit for bit. It
    raises the kernel's ValueErrors: dt <= 0, a non-finite dt, and a step
    leaving the finite range.
    """
    x, y, h, v = state.x, state.y, state.heading, state.speed
    out = []
    for accel, turn in traj.actions.tolist():
        x, y, h, v, _ = unicycle_step_floats(x, y, h, v, accel, turn, dt)
        out.append((x, y))
    return np.array(out)


def rollout_speeds(v0, accel: np.ndarray, dt: float) -> np.ndarray:
    """(B, T) speeds after each step of B rollouts from start speeds v0 (B,)
    under a (B, T) acceleration array: v_k = max(0.0, v_{k-1} + a_k*dt), the
    speed update of unicycle_step_floats, bit for bit.

    While max(0.0, v) leaves v unchanged, v_k = v_{k-1} + a_k*dt is one
    cumsum over [v0, a_1*dt..a_T*dt], a sequential left fold like the scalar
    loop. A row whose sum is negative, -0.0 or NaN at some step would be
    clamped there, so it is stepped one by one instead (such rows are few,
    and one cumsum costs less than T steps over the block). Non-finite
    values raise nothing here; rollout_positions_from_speeds rejects what
    they lead to.
    """
    B, T = accel.shape
    with np.errstate(all="ignore"):
        vs = np.empty((B, T + 1))
        vs[:, 0] = v0
        vs[:, 1:] = accel * dt
        V = np.cumsum(vs, axis=1)[:, 1:]
        clamped = ~(V >= 0.0) | np.signbit(V)
        for b in np.flatnonzero(clamped.any(axis=1)).tolist():
            vb, speeds = float(vs[b, 0]), []
            for a in accel[b].tolist():
                vb = vb + a * dt
                vb = vb if vb > 0.0 else 0.0  # max(0.0, vb), NaN and -0.0 included
                speeds.append(vb)
            V[b] = speeds
    return V


def rollout_positions_from_speeds(x0, y0, h0, speeds: np.ndarray, turns: np.ndarray,
                                  dt: float = DT_DEFAULT) -> np.ndarray:
    """(B, T, 2) positions of B rollouts from per-row start poses x0, y0, h0
    (each of shape (B,)), (B, T) speeds after each step and (B, T) turn rates.

    With speeds from rollout_speeds, or any speeds equal to them bit for bit,
    every row equals rollout_positions of that row's start state and actions:
    - heading: one scalar loop (wrapped twice per step) per distinct row of
      [start heading, turn*dt], which the heading depends on alone; rows are
      keyed by their bytes, so -0.0 and 0.0 stay apart;
    - positions: the straight or arc increments of all (B, T) steps in one
      pass, with unicycle_step_floats's expressions, then one cumsum over
      [x0, dx_1..dx_T], so x_k = x_{k-1} + dx_k as in the scalar loop.
    It raises the ValueErrors of rollout_positions: dt <= 0, a non-finite dt,
    and a rollout leaving the finite range.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _require_finite("rollout_positions", dt)
    B, T = speeds.shape
    V, turn = speeds, turns
    pi, two_pi = _PI, TWO_PI
    with np.errstate(all="ignore"):
        hw = np.empty((B, T + 1))
        hw[:, 0] = h0
        hw[:, 1:] = turn * dt
        index: dict[bytes, int] = {}
        heads, inv = [], []
        for b, key in enumerate(hw.view(f"V{8 * (T + 1)}").ravel().tolist()):
            u = index.get(key)
            if u is None:
                u = index[key] = len(heads)
                hb, *row = hw[b].tolist()
                seq = [hb]
                for wdt in row:
                    hb = (hb + wdt + pi) % two_pi - pi
                    hb = (hb + pi) % two_pi - pi
                    seq.append(hb)
                heads.append(seq)
            inv.append(u)
        H = np.array(heads, dtype=float).reshape(len(heads), T + 1)[inv]
        h0s = H[:, :-1]
        h1s = h0s + hw[:, 1:]
        sin_h, cos_h = np.sin(h0s), np.cos(h0s)
        straight = np.abs(turn) < 1e-12
        r = V / np.where(straight, 1.0, turn)
        steps = np.empty((B, T + 1, 2))
        steps[:, 0, 0] = x0
        steps[:, 0, 1] = y0
        steps[:, 1:, 0] = np.where(straight, V * cos_h * dt, r * (np.sin(h1s) - sin_h))
        steps[:, 1:, 1] = np.where(straight, V * sin_h * dt, -r * (np.cos(h1s) - cos_h))
        out = np.cumsum(steps, axis=1)[:, 1:]
    if not (np.isfinite(H[:, -1]).all() and np.isfinite(V[:, -1:]).all()
            and np.isfinite(out).all()):
        raise ValueError("rollout_positions: rollout left the finite range")
    return np.ascontiguousarray(out)


def rollout_positions_batch(x0, y0, h0, v0, actions: np.ndarray,
                            dt: float = DT_DEFAULT) -> np.ndarray:
    """(B, T, 2) positions of B rollouts, one per row of a (B, T, 2) action
    array, from per-row start states x0, y0, h0, v0 (each of shape (B,)).

    Every row equals rollout_positions of that row's start state and actions
    bit for bit. It is its speed half, rollout_speeds, followed by its
    position half, rollout_positions_from_speeds; only the speed and heading
    recurrences are sequential. It raises the ValueErrors of
    rollout_positions: dt <= 0, a non-finite dt, and a rollout leaving the
    finite range. Non-finite start states or actions, which AgentState and
    ActionTraj reject, raise ValueError as well.
    """
    acts = np.asarray(actions, dtype=float)
    if acts.ndim != 3 or acts.shape[2] != 2:
        raise ValueError(f"actions must have shape (B, T, 2), got {acts.shape}")
    B = acts.shape[0]
    x, y, h, v = (np.asarray(s, dtype=float) for s in (x0, y0, h0, v0))
    if any(a.shape != (B,) for a in (x, y, h, v)):
        raise ValueError(f"start states must have shape ({B},)")
    if not all(np.isfinite(a).all() for a in (x, y, h, v, acts)):
        raise ValueError("rollout_positions_batch: start states and actions must be finite")
    return rollout_positions_from_speeds(x, y, h, rollout_speeds(v, acts[:, :, 0], dt),
                                         acts[:, :, 1], dt)
