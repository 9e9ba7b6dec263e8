"""The unicycle kernels on AgentState, kept as the kinematics tests' reference.

The package writes the unicycle step twice: core.unicycle_step_floats on
plain floats, which core.rollout_positions and every other scalar loop
call, and core.rollout_speeds followed by core.rollout_positions_from_speeds
on arrays, which core.rollout_positions_batch chains. These are the per-step
AgentState kernels both repeat operation by operation; the property tests
compare every kernel with them bit for bit.
"""

import math

from regret_miner.core import DT_DEFAULT, ActionTraj, AgentState, _require_finite, wrap_angle


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
