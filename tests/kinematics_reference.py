"""The unicycle kernels on AgentState, kept as the kinematics tests' reference.

The package writes the unicycle step twice: core.unicycle_step_floats on
plain floats, which core.rollout_positions and every other scalar loop
call, and core.rollout_speeds followed by core.rollout_positions_from_speeds
on arrays, which core.rollout_positions_batch chains. These are the per-step
AgentState kernels both repeat operation by operation; the property tests
compare every kernel with them bit for bit. footprint_overlap, the disc
overlap on AgentState, is the frame-cost tests' reference in the same way,
and steer, genplan's proportional controller as a float loop, is the
reference of its block kernel genplan._steer_block. one_row builds the
one-row block a predictor is asked for when a test predicts one candidate.
"""

import math

from regret_miner.core import (DT_DEFAULT, ActionTraj, AgentState, _require_finite,
                               rollout_positions, rollout_speeds, unicycle_step_floats,
                               wrap_angle)
from regret_miner.genplan import NAV_DT, _clamp_turn, _pc_turn


def dubins_step(state: AgentState, turn_rate: float, speed: float,
                dt: float = DT_DEFAULT) -> AgentState:
    """One step of constant-speed Dubins dynamics (xdot = v cos h, ydot = v sin h,
    hdot = u), integrated exactly over dt.

    For turn_rate == 0 this is the straight-line update x += v cos(h) dt;
    for turn_rate != 0 the exact circular arc is used, which makes the step
    invariant to substep refinement (stepping dt is identical to stepping
    dt/k k times). Speed is carried through unchanged.
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
    dubins_step at the new speed."""
    new_speed = max(0.0, state.speed + accel * dt)
    return dubins_step(state, turn_rate, new_speed, dt)


def unicycle_rollout(state: AgentState, traj: ActionTraj,
                     dt: float = DT_DEFAULT) -> list[AgentState]:
    """Roll an action trajectory forward from state.

    Returns the T states reached after each of the T actions (the initial
    state is not included).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    out: list[AgentState] = []
    cur = state
    for accel, turn in traj.actions:
        cur = unicycle_step(cur, float(accel), float(turn), dt)
        out.append(cur)
    return out


def footprint_overlap(a: AgentState, b: AgentState, radius_a: float,
                      radius_b: float) -> float:
    """Penetration depth of two disc footprints: max(0, ra + rb - dist).
    simkit._frame_cost prices a frame with this expression on floats."""
    if radius_a < 0 or radius_b < 0:
        raise ValueError("radii must be non-negative")
    return max(0.0, radius_a + radius_b - a.distance_to(b))


def steer(start_xy, heading: float, speed: float, target, noise, gain: float = 1.0
          ) -> tuple[list[float], list[tuple[float, float]]]:
    """Proportional control toward target at constant speed from start_xy
    and heading, one step per noise term: the turn is gain times the bearing
    error, clamped, plus the noise term, clamped again. Returns the turns and
    the position after each step, as plain floats."""
    x, y, h = start_xy[0], start_xy[1], wrap_angle(heading)
    turns, pos = [], []
    for e in noise:
        w = _clamp_turn(_pc_turn(x, y, h, target, gain) + e)
        x, y, h = unicycle_step_floats(x, y, h, speed, 0.0, w, NAV_DT)[:3]
        turns.append(w)
        pos.append((x, y))
    return turns, pos


def one_row(robot: AgentState, traj: ActionTraj, dt: float):
    """One candidate as a one-row block at dt: its (1, T, 2) rollout by
    core.rollout_positions and its (1, T) speed after each step by
    core.rollout_speeds, the arguments plan() passes a predictor."""
    return (rollout_positions(robot, traj, dt)[None],
            rollout_speeds([robot.speed], traj.actions[None, :, 0], dt))
