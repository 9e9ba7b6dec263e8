"""Shared geometry, state containers, unicycle dynamics, and seeded RNG streams.

Everything downstream (simulation, planning, scoring) builds on the small
vocabulary defined here: agent states on SE(2) x speed, bounded action
trajectories, world contexts, and a hierarchical deterministic RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

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
        _require_finite("AgentState", self.x, self.y, self.heading, self.speed)
        if self.speed < 0.0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def distance_to(self, other: "AgentState") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class JointState:
    """World snapshot at discrete time t: robot plus all humans."""

    robot: AgentState
    humans: tuple[AgentState, ...]
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "humans", tuple(self.humans))
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")


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
    def block(cls, actions, start_ts: Sequence[int]) -> list["ActionTraj"]:
        """K trajectories from one (K, T, 2) action block, validated at once.

        The block is copied and frozen read-only, and each trajectory's
        actions are a view of one row. The checks are those of __init__:
        when a row fails one, that row is passed to __init__ so the error
        raised is the one constructing the trajectories one by one raises.
        """
        arr = np.array(actions, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"action block must have shape (K, T, 2), got {arr.shape}")
        if len(start_ts) != arr.shape[0]:
            raise ValueError("need one start_t per trajectory")
        if arr.shape[0] == 0:
            return []
        if arr.shape[1] < 1 or arr.shape[2] != 2:
            raise ValueError(f"actions must have shape (T>=1, 2), got {arr.shape[1:]}")
        bad = ((~np.isfinite(arr)).any(axis=(1, 2))
               | (np.abs(arr[:, :, 0]) > ACCEL_LIMIT + 1e-12).any(axis=1)
               | (np.abs(arr[:, :, 1]) > TURN_LIMIT + 1e-12).any(axis=1)
               | (np.asarray(start_ts) < 0))
        if bad.any():
            k = int(np.argmax(bad))
            cls(arr[k], start_ts[k])
        arr.setflags(write=False)
        out = []
        for row, start_t in zip(arr, start_ts):
            traj = cls.__new__(cls)
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


def dubins_step(state: AgentState, turn_rate: float, speed: float,
                dt: float = DT_DEFAULT) -> AgentState:
    """One step of constant-speed Dubins dynamics (xdot = v cos h, ydot = v sin h,
    hdot = u), integrated exactly over dt.

    For turn_rate == 0 this is the straight-line update x += v cos(h) dt;
    for turn_rate != 0 the exact circular arc is used, which makes the step
    invariant to substep refinement (stepping dt is identical to stepping
    dt/k k times). Speed is carried through unchanged. Only unicycle_step
    calls it; it stays as part of the reference the float kernels are
    tested against.
    """
    _require_finite("dubins_step", turn_rate, speed, dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    h0 = state.heading
    if abs(turn_rate) < 1e-12:
        dx = speed * math.cos(h0) * dt
        dy = speed * math.sin(h0) * dt
    else:
        h1 = h0 + turn_rate * dt
        dx = (speed / turn_rate) * (math.sin(h1) - math.sin(h0))
        dy = -(speed / turn_rate) * (math.cos(h1) - math.cos(h0))
    return AgentState(
        x=state.x + dx,
        y=state.y + dy,
        heading=wrap_angle(h0 + turn_rate * dt),
        speed=max(0.0, speed),
    )


def unicycle_step(state: AgentState, accel: float, turn_rate: float,
                  dt: float = DT_DEFAULT) -> AgentState:
    """One unicycle step: speed updates first (clamped at 0), then a
    dubins_step at the new speed.

    The package steps agents with unicycle_step_floats and
    rollout_positions; this is the reference they are tested against.
    """
    new_speed = max(0.0, state.speed + accel * dt)
    return dubins_step(state, turn_rate, new_speed, dt)


def unicycle_step_floats(x: float, y: float, heading: float, speed: float,
                         accel: float, turn_rate: float, dt: float = DT_DEFAULT
                         ) -> tuple[float, float, float, float, float]:
    """unicycle_step on plain floats: (x, y, heading, speed, heading_once).

    It repeats unicycle_step's operations in order: the speed update clamped
    at 0, the |turn_rate| < 1e-12 straight or arc branch, and the heading
    wrapped twice, once by dubins_step and once by AgentState (wrap_angle is
    not idempotent near -pi). So x, y, heading and speed equal the fields of
    unicycle_step's state bit for bit. heading_once is the heading after the
    first wrap: AgentState(x, y, heading_once, speed) is that state. It
    raises the ValueErrors of dubins_step (dt <= 0; a non-finite turn rate,
    speed or dt) and of AgentState (a non-finite x, y or heading).
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


def unicycle_rollout(state: AgentState, traj: ActionTraj,
                     dt: float = DT_DEFAULT) -> list[AgentState]:
    """Roll an action trajectory forward from state.

    Returns the T states reached after each of the T actions (the initial
    state is not included). The package rolls out with rollout_positions;
    this is the reference it is tested against.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    out: list[AgentState] = []
    cur = state
    for accel, turn in traj.actions:
        cur = unicycle_step(cur, float(accel), float(turn), dt)
        out.append(cur)
    return out


def rollout_positions(state: AgentState, traj: ActionTraj,
                      dt: float = DT_DEFAULT) -> np.ndarray:
    """(T, 2) array of x,y positions along a rollout.

    A scalar kernel of unicycle_rollout that builds no per-step AgentState.
    It repeats unicycle_step's operations in the same order, so its positions
    equal unicycle_rollout's bit for bit. The heading is wrapped twice per
    step, as dubins_step and AgentState each wrap it: wrap_angle is not
    idempotent near -pi in floating point.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _require_finite("rollout_positions", dt)
    pi, two_pi, cos, sin = math.pi, TWO_PI, math.cos, math.sin
    x, y, h, v = state.x, state.y, state.heading, state.speed
    out = []
    for accel, turn in traj.actions.tolist():
        v = max(0.0, v + accel * dt)
        if abs(turn) < 1e-12:
            x = x + v * cos(h) * dt
            y = y + v * sin(h) * dt
        else:
            h1 = h + turn * dt
            x = x + (v / turn) * (sin(h1) - sin(h))
            y = y + -(v / turn) * (cos(h1) - cos(h))
        h = (h + turn * dt + pi) % two_pi - pi
        h = (h + pi) % two_pi - pi
        out.append((x, y))
    # A non-finite x, y, heading or speed stays non-finite in every later
    # step, so checking once at the end rejects what a per-step check would.
    xy = np.array(out)
    if not (math.isfinite(h) and math.isfinite(v) and np.isfinite(xy).all()):
        raise ValueError("rollout_positions: rollout left the finite range")
    return xy


def rollout_positions_batch(x0, y0, h0, v0, actions: np.ndarray,
                            dt: float = DT_DEFAULT) -> np.ndarray:
    """(B, T, 2) positions of B rollouts, one per row of a (B, T, 2) action
    array, from per-row start states x0, y0, h0, v0 (each of shape (B,)).

    Each row repeats rollout_positions's operations in the same order, with
    the turn branch chosen per element, so every row equals rollout_positions
    of that row's start state and actions bit for bit. It raises the same
    ValueErrors: dt <= 0, a non-finite dt, and a rollout leaving the finite
    range. Non-finite start states or actions, which AgentState and
    ActionTraj reject, raise ValueError as well.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _require_finite("rollout_positions", dt)
    acts = np.asarray(actions, dtype=float)
    if acts.ndim != 3 or acts.shape[2] != 2:
        raise ValueError(f"actions must have shape (B, T, 2), got {acts.shape}")
    B, T = acts.shape[:2]
    pi, two_pi = math.pi, TWO_PI
    x, y, h, v = (np.asarray(s, dtype=float) for s in (x0, y0, h0, v0))
    if any(a.shape != (B,) for a in (x, y, h, v)):
        raise ValueError(f"start states must have shape ({B},)")
    if not all(np.isfinite(a).all() for a in (x, y, h, v, acts)):
        raise ValueError("rollout_positions_batch: start states and actions must be finite")
    out = np.empty((B, T, 2))
    with np.errstate(all="ignore"):
        for k in range(T):
            accel, turn = acts[:, k, 0], acts[:, k, 1]
            v = v + accel * dt
            v = np.where(v > 0.0, v, 0.0)  # max(0.0, v) exactly: -0.0 becomes 0.0
            straight = np.abs(turn) < 1e-12
            safe_turn = np.where(straight, 1.0, turn)
            h1 = h + turn * dt
            sin_h, cos_h = np.sin(h), np.cos(h)
            x = np.where(straight, x + v * cos_h * dt,
                         x + (v / safe_turn) * (np.sin(h1) - sin_h))
            y = np.where(straight, y + v * sin_h * dt,
                         y + -(v / safe_turn) * (np.cos(h1) - cos_h))
            h = (h + turn * dt + pi) % two_pi - pi
            h = (h + pi) % two_pi - pi
            out[:, k, 0] = x
            out[:, k, 1] = y
    if not (np.isfinite(h).all() and np.isfinite(v).all() and np.isfinite(out).all()):
        raise ValueError("rollout_positions: rollout left the finite range")
    return out


def footprint_overlap(a: AgentState, b: AgentState, radius_a: float,
                      radius_b: float) -> float:
    """Penetration depth of two disc footprints: max(0, ra + rb - dist)."""
    if radius_a < 0 or radius_b < 0:
        raise ValueError("radii must be non-negative")
    return max(0.0, radius_a + radius_b - a.distance_to(b))
