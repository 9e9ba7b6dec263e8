import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regret_miner.core import (
    ActionTraj,
    AgentState,
    DrivingCorridor,
    JointState,
    JointStates,
    NavWorld,
    RngStream,
    footprint_overlap,
    rollout_positions,
    rollout_positions_batch,
    rollout_positions_from_speeds,
    rollout_speeds,
    unicycle_step_floats,
    wrap_angle,
)
from regret_miner.genplan import NAV_DT
from kinematics_reference import dubins_step, unicycle_rollout, unicycle_step


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(-math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.25) == pytest.approx(0.25)
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-50, 50, size=200):
        w = wrap_angle(theta)
        assert -math.pi <= w < math.pi


def test_agent_state_validation():
    s = AgentState(0, 0, 3 * math.pi / 2, 1.0)
    assert s.heading == pytest.approx(-math.pi / 2)
    with pytest.raises(ValueError):
        AgentState(0, 0, 0, -0.5)
    with pytest.raises(ValueError):
        AgentState(float("nan"), 0, 0, 1)
    with pytest.raises(ValueError):
        AgentState(0, float("inf"), 0, 1)


def test_joint_state():
    js = JointState(AgentState(0, 0, 0, 1), [AgentState(5, 0, 0, 0)], t=3)
    assert isinstance(js.humans, tuple)
    with pytest.raises(ValueError):
        JointState(AgentState(0, 0, 0, 1), (), t=-1)


def test_action_traj_validation():
    traj = ActionTraj([[1.0, 0.2], [-3.0, -0.5]], start_t=4)
    assert len(traj) == 2
    assert traj.start_t == 4
    assert not traj.actions.flags.writeable
    assert traj == ActionTraj([[1.0, 0.2], [-3.0, -0.5]], start_t=4)
    with pytest.raises(ValueError):
        ActionTraj(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ActionTraj([[5.0, 0.0]])  # accel bound
    with pytest.raises(ValueError):
        ActionTraj([[0.0, 1.5]])  # turn bound
    with pytest.raises(ValueError):
        ActionTraj([[0.0, float("nan")]])
    with pytest.raises(ValueError):
        ActionTraj([[0.0, 0.0]], start_t=-1)


def test_dubins_step_straight():
    s = dubins_step(AgentState(0, 0, 0, 1), turn_rate=0.0, speed=1.0, dt=0.1)
    assert (s.x, s.y, s.heading, s.speed) == pytest.approx((0.1, 0, 0, 1))
    s = dubins_step(AgentState(0, 0, math.pi / 2, 1), turn_rate=0.0, speed=1.0, dt=0.5)
    assert (s.x, s.y, s.heading, s.speed) == pytest.approx((0, 0.5, math.pi / 2, 1))


def test_dubins_step_refinement_oracle():
    # 100 coarse steps of a constant turn vs 10x finer integration.
    coarse = AgentState(0, 0, 0, 1)
    for _ in range(100):
        coarse = dubins_step(coarse, turn_rate=0.3, speed=1.0, dt=0.1)
    fine = AgentState(0, 0, 0, 1)
    for _ in range(1000):
        fine = dubins_step(fine, turn_rate=0.3, speed=1.0, dt=0.01)
    assert math.hypot(coarse.x - fine.x, coarse.y - fine.y) < 1e-2


def test_dubins_step_preserves_speed_and_wraps():
    rng = np.random.default_rng(1)
    s = AgentState(0, 0, 0, 2.5)
    for _ in range(500):
        u = rng.uniform(-1, 1)
        s = dubins_step(s, u, s.speed, dt=0.1)
        assert s.speed == 2.5
        assert -math.pi <= s.heading < math.pi


def test_dubins_step_rejects_bad_input():
    with pytest.raises(ValueError):
        dubins_step(AgentState(0, 0, 0, 1), float("nan"), 1.0, 0.1)
    with pytest.raises(ValueError):
        dubins_step(AgentState(0, 0, 0, 1), 0.0, 1.0, dt=0.0)


def test_unicycle_rollout_fixed_point():
    traj = ActionTraj(np.zeros((5, 2)))
    states = unicycle_rollout(AgentState(2, 3, 0.7, 0.0), traj, dt=0.1)
    assert len(states) == 5
    for s in states:
        assert (s.x, s.y, s.heading, s.speed) == pytest.approx((2, 3, 0.7, 0))


def test_unicycle_rollout_constant_accel_speeds():
    traj = ActionTraj([[1.0, 0.0]] * 3)
    states = unicycle_rollout(AgentState(0, 0, 0, 0), traj, dt=1.0)
    assert [s.speed for s in states] == pytest.approx([1, 2, 3])


def test_unicycle_rollout_speed_clamped_at_zero():
    traj = ActionTraj([[-4.0, 0.0]] * 4)
    states = unicycle_rollout(AgentState(0, 0, 0, 1.0), traj, dt=0.5)
    assert all(s.speed >= 0 for s in states)
    assert states[-1].speed == 0


def test_unicycle_rollout_compositional_oracle():
    rng = np.random.default_rng(7)
    actions = np.column_stack([rng.uniform(-4, 4, 20), rng.uniform(-1, 1, 20)])
    traj = ActionTraj(actions)
    start = AgentState(1.0, -2.0, 0.4, 3.0)
    states = unicycle_rollout(start, traj, dt=0.1)
    cur = start
    for (a, u), s in zip(actions, states):
        cur = unicycle_step(cur, a, u, dt=0.1)
        assert (cur.x, cur.y, cur.heading, cur.speed) == (s.x, s.y, s.heading, s.speed)


def _reference_positions(state, traj, dt):
    return np.array([[s.x, s.y] for s in unicycle_rollout(state, traj, dt)])


_NEAR_PI = st.sampled_from([
    math.pi, -math.pi, math.nextafter(-math.pi, 0.0), math.nextafter(math.pi, 0.0),
    math.nextafter(-math.pi, -4.0), math.pi / 2, 0.0])
# Turn rates on both sides of the 1e-12 straight-line threshold, a few whose
# heading step lands just below -pi, and ordinary ones.
_TURNS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-13, -5e-13, 9.99e-13, -9.99e-13, 1e-12, -1e-12,
                     1.01e-12, -1.5e-12, 2e-12, -3e-15, -5e-15, 3e-15]),
    st.floats(-1.0, 1.0),
)
# Hard braking (to zero speed and past it) as well as ordinary accelerations.
_ACCELS = st.one_of(st.sampled_from([-4.0, -3.5, 0.0, 4.0]), st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(-1e3, 1e3),
    y=st.floats(-1e3, 1e3),
    heading=st.one_of(_NEAR_PI, st.floats(-math.pi, math.pi)),
    speed=st.one_of(st.sampled_from([0.0, 0.05, 8.0]), st.floats(0.0, 12.0)),
    actions=st.lists(st.tuples(_ACCELS, _TURNS), min_size=1, max_size=40),
    # NAV_DT: classify_human_direction rolls the nav human out at it
    dt=st.one_of(st.sampled_from([0.05, 0.1, 0.2, 0.5, NAV_DT]), st.floats(1e-3, 1.0)),
)
@example(x=0.0, y=0.0, heading=-math.pi, speed=1.0,
         actions=[(0.0, -3e-15), (0.0, 0.0)], dt=0.1)
@example(x=0.0, y=0.0, heading=0.0, speed=0.3,
         actions=[(-4.0, 0.5)] * 5, dt=0.1)
def test_rollout_positions_equals_unicycle_rollout(x, y, heading, speed, actions, dt):
    state = AgentState(x, y, heading, speed)
    traj = ActionTraj(actions)
    got = rollout_positions(state, traj, dt)
    want = _reference_positions(state, traj, dt)
    assert got.shape == want.shape == (len(actions), 2)
    assert np.array_equal(got, want)


def test_rollout_positions_double_wrap_near_minus_pi():
    # One wrap of -pi - 4e-16 gives +pi; the second gives -pi. sin(+pi) and
    # sin(-pi) differ in sign, so the next step's y shows which one was kept.
    assert wrap_angle(-math.pi - 4e-16) == math.pi
    state = AgentState(0.0, 0.0, -math.pi, 1.0)
    traj = ActionTraj([(0.0, -3e-15), (0.0, 0.0)])
    got = rollout_positions(state, traj, 0.1)
    assert np.array_equal(got, _reference_positions(state, traj, 0.1))
    assert got[1, 1] < 0.0


def test_rollout_positions_rejects_bad_input():
    state = AgentState(0, 0, 0, 1)
    traj = ActionTraj([[1.0, 0.0]] * 3)
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            rollout_positions(state, traj, dt)
    # A step so long that the position overflows: the reference rejects it too.
    with pytest.raises(ValueError):
        unicycle_rollout(state, traj, 1e308)
    with pytest.raises(ValueError):
        rollout_positions(state, traj, 1e308)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(-1e3, 1e3),
    y=st.floats(-1e3, 1e3),
    heading=st.one_of(_NEAR_PI, st.floats(-math.pi, math.pi)),
    speed=st.one_of(st.sampled_from([0.0, 0.05, 8.0]), st.floats(0.0, 12.0)),
    actions=st.lists(st.tuples(_ACCELS, _TURNS), min_size=1, max_size=40),
    dt=st.one_of(st.sampled_from([0.05, 0.1, 0.2, 0.5]), st.floats(1e-3, 1.0)),
)
@example(x=0.0, y=0.0, heading=-math.pi, speed=1.0,
         actions=[(0.0, -3e-15), (0.0, 0.0)], dt=0.1)
@example(x=0.0, y=0.0, heading=0.0, speed=0.3,
         actions=[(-4.0, 0.5)] * 5, dt=0.1)
@example(x=-0.0, y=0.0, heading=-0.0, speed=-0.0,
         actions=[(-0.0, -0.0), (-0.0, 0.0)], dt=0.1)
def test_unicycle_step_floats_equals_unicycle_step(x, y, heading, speed, actions, dt):
    # Each kernel steps from its own previous output, as the simulation does.
    # float.hex tells -0.0 from 0.0, which serialized scenes tell apart too.
    state = AgentState(x, y, heading, speed)
    cur = (state.x, state.y, state.heading, state.speed)
    for accel, turn in actions:
        state = unicycle_step(state, accel, turn, dt)
        got = unicycle_step_floats(*cur, accel, turn, dt)
        assert [v.hex() for v in got[:4]] == \
            [v.hex() for v in (state.x, state.y, state.heading, state.speed)]
        assert AgentState(got[0], got[1], got[4], got[3]) == state
        cur = got[:4]


def test_unicycle_step_floats_double_wrap_near_minus_pi():
    # The heading step lands on -pi - 3e-16: one wrap gives +pi, two give -pi.
    got = unicycle_step_floats(0.0, 0.0, -math.pi, 1.0, 0.0, -3e-15, 0.1)
    assert got[4] == math.pi
    assert got[2] == -math.pi
    state = unicycle_step(AgentState(0.0, 0.0, -math.pi, 1.0), 0.0, -3e-15, 0.1)
    assert state.heading == got[2]


def _error(fn):
    with pytest.raises(ValueError) as err:
        fn()
    return str(err.value)


@pytest.mark.parametrize("start,accel,turn,dt", [
    ((0.0, 0.0, 0.0, 1.0), 0.0, 0.0, 0.0),                   # dt = 0
    ((0.0, 0.0, 0.0, 1.0), 0.0, 0.5, -0.1),                  # dt < 0
    ((0.0, 0.0, 0.0, 1.0), 0.0, 0.0, float("nan")),          # non-finite dt
    ((0.0, 0.0, 0.0, 1.0), 1.0, 0.0, float("inf")),
    ((0.0, 0.0, 0.0, 1.0), 0.0, float("nan"), 0.1),          # non-finite turn
    ((0.0, 0.0, 0.0, 1.0), 0.0, float("-inf"), 0.1),
    ((0.0, 0.0, 0.0, 1.0), float("inf"), 0.0, 0.1),          # non-finite speed
    ((0.0, 0.0, 0.0, 1.0), float("nan"), float("inf"), 0.1), # NaN accel brakes to 0
    ((1e308, 0.0, 0.0, 8.0), 0.0, 0.0, 1e308),               # x overflows
    ((0.0, 1e308, math.pi / 2, 8.0), 0.0, 0.0, 1e308),       # y overflows
    ((0.0, 0.0, 0.0, 1.0), 0.0, 1e308, 10.0),                # the heading step overflows
])
def test_unicycle_step_floats_rejects_what_unicycle_step_rejects(start, accel, turn, dt):
    want = _error(lambda: unicycle_step(AgentState(*start), accel, turn, dt))
    assert _error(lambda: unicycle_step_floats(*start, accel, turn, dt)) == want


def test_unicycle_step_floats_accepts_what_unicycle_step_accepts():
    # A NaN or -inf acceleration brakes to speed 0 in both.
    for accel in (float("nan"), float("-inf")):
        state = unicycle_step(AgentState(0.0, 0.0, 0.3, 2.0), accel, 0.2, 0.1)
        got = unicycle_step_floats(0.0, 0.0, 0.3, 2.0, accel, 0.2, 0.1)
        assert got[:4] == (state.x, state.y, state.heading, state.speed)
        assert got[3] == 0.0 and math.copysign(1.0, got[3]) == 1.0


_BATCH_ROW = st.tuples(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
    st.one_of(_NEAR_PI, st.floats(-math.pi, math.pi)),
    st.one_of(st.sampled_from([0.0, 0.05, 8.0]), st.floats(0.0, 12.0)),
)


@settings(max_examples=200, deadline=None)
@given(
    starts=st.lists(_BATCH_ROW, min_size=1, max_size=6),
    T=st.integers(1, 25),
    data=st.data(),
    dt=st.one_of(st.sampled_from([0.05, 0.1, 0.2, 0.5]), st.floats(1e-3, 1.0)),
)
def test_rollout_positions_batch_rows_equal_rollout_positions(starts, T, data, dt):
    # Rows mix start states, and straight and arc steps mix within one step.
    acts = data.draw(st.lists(st.lists(st.tuples(_ACCELS, _TURNS), min_size=T, max_size=T),
                              min_size=len(starts), max_size=len(starts)))
    states = [AgentState(*s) for s in starts]
    got = rollout_positions_batch([s.x for s in states], [s.y for s in states],
                                  [s.heading for s in states], [s.speed for s in states],
                                  np.array(acts), dt)
    assert got.shape == (len(states), T, 2)
    for b, state in enumerate(states):
        assert np.array_equal(got[b], rollout_positions(state, ActionTraj(acts[b]), dt))


def test_rollout_positions_batch_mixed_branches_and_braking():
    states = [AgentState(0.0, 0.0, -math.pi, 1.0), AgentState(1.0, 2.0, math.pi / 2, 0.3),
              AgentState(-5.0, 3.7, 0.0, 8.0)]
    acts = np.array([[(0.0, -3e-15), (0.0, 0.0), (1.0, 0.5)],
                     [(-4.0, 0.5), (-4.0, 9.99e-13), (-4.0, -1e-12)],
                     [(0.0, 1.01e-12), (2.0, -1.0), (0.0, 5e-13)]])
    got = rollout_positions_batch([s.x for s in states], [s.y for s in states],
                                  [s.heading for s in states], [s.speed for s in states],
                                  acts, 0.1)
    for b, state in enumerate(states):
        assert np.array_equal(got[b], rollout_positions(state, ActionTraj(acts[b]), 0.1))


def test_rollout_positions_batch_rejects_what_rollout_positions_rejects():
    acts = np.array([[[1.0, 0.0]] * 3, [[0.0, 0.5]] * 3])
    for dt in (0.0, -0.1, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError):
            rollout_positions(AgentState(0, 0, 0, 1), ActionTraj(acts[0]), dt)
        with pytest.raises(ValueError):
            rollout_positions_batch([0, 0], [0, 0], [0, 0], [1, 1], acts, dt)
    for bad in (float("nan"), float("inf")):
        for j in range(4):
            start = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]
            start[j][1] = bad
            with pytest.raises(ValueError):
                rollout_positions_batch(*start, acts, 0.1)
        for at in ((1, 2, 1), (0, 1, 0)):
            nonfinite = acts.copy()
            nonfinite[at] = bad
            with pytest.raises(ValueError):
                rollout_positions_batch([0, 0], [0, 0], [0, 0], [1, 1], nonfinite, 0.1)
    with pytest.raises(ValueError):
        rollout_positions_batch(0, 0, 0, 1, acts[0], 0.1)
    with pytest.raises(ValueError):
        rollout_positions_batch(0.0, 0.0, 0.0, 1.0, acts, 0.1)  # start states must be (B,)


def test_rollout_positions_from_speeds_keeps_the_batch_checks():
    acts = np.array([[[1.0, 0.0]] * 3, [[0.0, 0.5]] * 3])
    start = ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    speeds = rollout_speeds(np.array([1.0, 1.0]), acts[:, :, 0], 0.1)
    assert np.array_equal(rollout_positions_from_speeds(*start, speeds, acts[:, :, 1], 0.1),
                          rollout_positions_batch(*start, [1.0, 1.0], acts, 0.1))
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            rollout_positions_from_speeds(*start, speeds, acts[:, :, 1], dt)
    for bad in (float("nan"), float("inf")):
        for at in ((0, 2), (1, 0)):
            nonfinite = speeds.copy()
            nonfinite[at] = bad
            with pytest.raises(ValueError, match="left the finite range"):
                rollout_positions_from_speeds(*start, nonfinite, acts[:, :, 1], 0.1)


# Start states as the batch kernel takes them, unwrapped: signed zeros, +pi
# and -pi, and ordinary values.
_RAW_START = st.tuples(
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
    st.one_of(_NEAR_PI, st.just(-0.0), st.floats(-math.pi, math.pi)),
    st.one_of(st.sampled_from([0.0, -0.0, 0.05, 8.0]), st.floats(0.0, 12.0)),
)


def _hexes(xy):
    return [v.hex() for v in np.asarray(xy).ravel().tolist()]


@settings(max_examples=60, deadline=None)
@given(
    starts=st.lists(_RAW_START, min_size=1, max_size=4),
    T=st.integers(1, 40),
    data=st.data(),
    dt=st.one_of(st.sampled_from([0.05, 0.1, 0.2]), st.floats(1e-3, 1.0)),
)
@example(starts=[(0.0, -0.0, -0.0, 8.0), (0.0, -0.0, 0.0, 8.0), (0.0, 0.0, -math.pi, 1.0),
                 (-0.0, -0.0, 0.0, -0.0)], T=3, data=None, dt=0.1)
def test_rollout_positions_batch_on_plan_shaped_blocks(starts, T, data, dt):
    # A replan's candidates share one start state and a few turn rows, and a
    # scene's block stacks many replans: rows pick a start, a turn row and an
    # acceleration row from small pools, so rows share heading sequences, the
    # same turns run from different start headings, and constant braking
    # levels reach zero speed.
    if data is None:
        # -0.0 against 0.0 start headings going straight; a heading step to
        # just below -pi; a -0.0 speed that max(0.0, v) turns into 0.0.
        turns = [[0.0] * T, [-3e-15] + [0.0] * (T - 1)]
        accels = [[0.0] * T, [-0.0] * T]
        rows = [(i, w, a) for i in range(len(starts)) for w in range(2) for a in range(2)]
    else:
        turns = data.draw(st.lists(st.lists(_TURNS, min_size=T, max_size=T),
                                   min_size=1, max_size=4))
        accels = data.draw(st.lists(
            st.one_of(st.sampled_from([-4.0, -3.0, -1.0, 0.0, 1.0]).map(lambda a: [a] * T),
                      st.lists(_ACCELS, min_size=T, max_size=T)),
            min_size=1, max_size=5))
        rows = data.draw(st.lists(st.tuples(st.integers(0, len(starts) - 1),
                                            st.integers(0, len(turns) - 1),
                                            st.integers(0, len(accels) - 1)),
                                  min_size=1, max_size=160))
    acts = np.array([np.column_stack([accels[a], turns[w]]) for _, w, a in rows])
    sel = [SimpleNamespace(x=starts[i][0], y=starts[i][1], heading=starts[i][2],
                           speed=starts[i][3]) for i, _, _ in rows]
    got = rollout_positions_batch([s.x for s in sel], [s.y for s in sel],
                                  [s.heading for s in sel], [s.speed for s in sel], acts, dt)
    assert got.shape == (len(rows), T, 2) and got.flags.c_contiguous
    for b, s in enumerate(sel):
        assert _hexes(got[b]) == _hexes(rollout_positions(s, ActionTraj(acts[b]), dt))


def _states_one_by_one(block, ts):
    return [JointState(AgentState(*frame[0]), tuple(AgentState(*h) for h in frame[1:]), t)
            for frame, t in zip(np.asarray(block).tolist(), ts)]


def _state_hexes(js):
    return [js.t, type(js.t)] + [[v.hex() for v in (a.x, a.y, a.heading, a.speed)]
                                 for a in (js.robot, *js.humans)]


_STATE_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.pi, -math.pi]),
                         st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(F=st.integers(1, 6), A=st.integers(1, 3), data=st.data())
def test_joint_states_equal_the_constructors(F, A, data):
    xyh = data.draw(st.lists(_STATE_VALUE, min_size=F * A * 3, max_size=F * A * 3))
    speeds = data.draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 1e308)),
        min_size=F * A, max_size=F * A))
    block = np.column_stack([np.reshape(xyh, (-1, 3)), speeds]).reshape(F, A, 4)
    ts = data.draw(st.lists(st.integers(0, 10**6), min_size=F, max_size=F))
    got = JointStates(block, ts)
    want = _states_one_by_one(block, ts)
    assert [_state_hexes(js) for js in got] == [_state_hexes(js) for js in want]
    assert got == want and [hash(js) for js in got] == [hash(js) for js in want]
    assert all(isinstance(js.humans, tuple) for js in got)


def test_joint_states_rewraps_a_stored_plus_pi():
    block = [[[-0.0, 5e-324, math.pi, -0.0], [1.0, -0.0, math.nextafter(-math.pi, -4.0), 5e-324]]]
    (js,) = JointStates(block, [0])
    assert js.robot.heading == -math.pi
    assert js.humans[0].heading == math.pi  # one wrap of -pi - 4e-16, as AgentState does
    assert _state_hexes(js) == _state_hexes(_states_one_by_one(block, [0])[0])


@pytest.mark.parametrize("at,value,t_bad", [
    ((1, 0, 0), float("nan"), None),
    ((1, 1, 2), float("inf"), None),
    ((2, 0, 3), -0.5, None),
    ((1, 1, 3), float("nan"), None),
    (None, None, 1),         # a negative t before a bad state
    ((1, 1, 1), float("-inf"), 1),  # a bad state and t in one frame: the state first
])
def test_joint_states_raise_the_first_one_by_one_error(at, value, t_bad):
    block = np.tile([[0.0, 1.0, 0.5, 2.0], [3.0, 4.0, -0.5, 0.0]], (4, 1, 1))
    if at is not None:
        block[at] = value
    block[3, 0, 1] = float("nan")  # a later bad frame never wins
    ts = [0, 1, 2, 3]
    if t_bad is not None:
        ts[t_bad] = -1
    with pytest.raises(ValueError) as block_err:
        JointStates(block, ts)
    with pytest.raises(ValueError) as one_err:
        _states_one_by_one(block, ts)
    assert str(block_err.value) == str(one_err.value)


def test_joint_states_reject_a_block_of_the_wrong_shape():
    for block, ts in [(np.zeros((2, 1, 3)), [0, 1]), (np.zeros((2, 0, 4)), [0, 1]),
                      (np.zeros((2, 1, 4)), [0]), (np.zeros((1, 4)), [0])]:
        with pytest.raises(ValueError):
            JointStates(block, ts)


_EDGE_HEADINGS = (-math.pi - 4e-16, -math.pi, math.pi, -0.0)


@settings(max_examples=100, deadline=None)
@given(F=st.integers(1, 5), M=st.integers(0, 2), data=st.data())
def test_joint_states_frames_equal_the_constructors_read_in_any_order(F, M, data):
    # -pi - 4e-16 wraps to +pi, which a second wrap turns into -pi.
    heading = st.one_of(st.sampled_from(_EDGE_HEADINGS), st.floats(-4.0, 4.0))
    block = np.array([[[data.draw(_STATE_VALUE), data.draw(_STATE_VALUE), data.draw(heading),
                        data.draw(st.sampled_from([0.0, -0.0, 5e-324, 7.5]))]
                       for _ in range(1 + M)] for _ in range(F)])
    ts = data.draw(st.lists(st.integers(0, 10**6), min_size=F, max_size=F))
    want = _states_one_by_one(block, ts)
    got = JointStates(block, ts)
    for f in data.draw(st.permutations(range(-F, F))):
        assert _state_hexes(got[f]) == _state_hexes(want[f])
    assert got[0] is got[-F]  # a frame is built once
    again = JointStates(block, ts)
    start, stop = data.draw(st.integers(-F, F)), data.draw(st.integers(-F, F))
    assert [_state_hexes(js) for js in again[start:stop]] == \
        [_state_hexes(js) for js in want[start:stop]]
    assert [_state_hexes(js) for js in again] == [_state_hexes(js) for js in want]
    # Built from JointStates, the headings are kept: a stored +pi stays +pi.
    kept = JointStates.of(want)
    assert [_state_hexes(js) for js in kept] == [_state_hexes(js) for js in want]
    assert all(a is b for a, b in zip(kept, want))
    assert [v.hex() for v in kept.block.ravel()] == [v.hex() for v in got.block.ravel()]
    assert not got.block.flags.writeable


@pytest.mark.parametrize("frame", [0, 2, 4])
@pytest.mark.parametrize("agent,field,value,t", [
    (0, 0, float("nan"), None),
    (1, 2, float("inf"), None),
    (1, 3, -0.5, None),
    (None, None, None, -1),
])
def test_joint_states_check_every_frame_when_built(frame, agent, field, value, t):
    block = np.tile([[0.0, 1.0, 0.5, 2.0], [3.0, 4.0, -0.5, 0.0]], (5, 1, 1))
    ts = [0, 1, 2, 3, 4]
    if agent is not None:
        block[frame, agent, field] = value
    else:
        ts[frame] = t
    with pytest.raises(ValueError) as one_err:
        _states_one_by_one(block, ts)
    with pytest.raises(ValueError) as err:
        JointStates(block, ts)  # no frame is read
    assert str(err.value) == str(one_err.value)


def test_joint_states_is_a_sequence_of_its_frames():
    block = np.arange(4 * 2 * 4, dtype=float).reshape(4, 2, 4)
    ts = [0, 1, 2, 3]
    states = JointStates(block, ts)
    frames = _states_one_by_one(block, ts)
    assert len(states) == 4
    assert states[1] == frames[1] and states[-1] == frames[3]
    assert states[1:3] == frames[1:3] and states[::-2] == frames[::-2]
    assert states[5:] == []
    with pytest.raises(IndexError):
        states[4]
    with pytest.raises(IndexError):
        states[-5]
    assert list(states) == frames and [js for js in states] == frames
    assert states == frames and frames == states and states == tuple(frames)
    assert states != frames[:3] and states != frames[::-1]
    assert states == JointStates(block, ts) and states != JointStates(block, [0, 1, 2, 4])
    assert frames[2] in states and states.index(frames[2]) == 2
    assert len(JointStates(block[:1], [7])) == 1 and JointStates(block[:1], [7])[0].t == 7
    with pytest.raises(TypeError):
        hash(states)
    tail = JointStates(block[2:], ts[2:])
    last = tail[1]
    joined = JointStates.concat([JointStates(block[:2], ts[:2]), tail])
    assert joined == states and joined[3] is last
    with pytest.raises(ValueError):  # frames with other human counts
        JointStates.of(frames + [JointState(AgentState(0.0, 0.0, 0.0, 0.0), (), 4)])


def test_action_traj_block_views_and_checks():
    rng = np.random.default_rng(0)
    arr = np.stack([rng.uniform(-4, 4, (7, 2)) * [1.0, 0.25] for _ in range(3)])
    trajs = ActionTraj.block(arr, [5, 5, 6])
    assert trajs == [ActionTraj(a, start_t=t) for a, t in zip(arr, [5, 5, 6])]
    arr[0, 0, 0] = 0.123  # the block is a copy
    assert trajs[0].actions[0, 0] != 0.123
    for tr in trajs:
        assert not tr.actions.flags.writeable
        with pytest.raises(ValueError):
            tr.actions[0, 0] = 1.0
    assert trajs[1].actions.base is trajs[0].actions.base
    assert ActionTraj.block(np.zeros((0, 4, 2)), []) == []
    # A bad row raises what constructing that row alone raises; the first bad
    # row wins, as when constructing the rows in order.
    cases = [((1, 3, 0), np.nan, 0, "actions must be finite"),
             ((1, 2, 0), 4.5, 0, "|accel| exceeds bound 4.0"),
             ((1, 0, 1), -1.5, 0, "|turn_rate| exceeds bound 1.0"),
             (None, None, -1, "start_t must be >= 0, got -1")]
    for at, value, start_t, msg in cases:
        bad = np.zeros((3, 4, 2))
        if at is not None:
            bad[at] = value
        bad[2, 0, 0] = np.inf
        starts = [0, start_t, 0]
        with pytest.raises(ValueError) as block_err:
            ActionTraj.block(bad, starts)
        with pytest.raises(ValueError) as row_err:
            [ActionTraj(a, start_t=t) for a, t in zip(bad, starts)]
        assert str(block_err.value) == str(row_err.value) == msg
    with pytest.raises(ValueError, match=r"got \(4, 3\)"):
        ActionTraj.block(np.zeros((2, 4, 3)), [0, 0])
    with pytest.raises(ValueError):
        ActionTraj.block(np.zeros((4, 2)), [0] * 4)
    with pytest.raises(ValueError):
        ActionTraj.block(np.zeros((2, 4, 2)), [0])


def test_action_traj_block_of_stacked_rows_of_mixed_lengths():
    rng = np.random.default_rng(1)
    lens = [3, 1, 4, 2]
    flat = rng.uniform(-1, 1, (sum(lens), 2))
    parts = np.split(flat, np.cumsum(lens)[:-1])
    trajs = ActionTraj.block(flat, [0, 2, 2, 9], lens)
    assert trajs == [ActionTraj(a, start_t=t) for a, t in zip(parts, [0, 2, 2, 9])]
    assert [tr.actions.shape for tr in trajs] == [(n, 2) for n in lens]
    assert not any(tr.actions.flags.writeable for tr in trajs)
    assert ActionTraj.block(np.zeros((0, 2)), [], []) == []
    # The first bad trajectory raises what constructing it alone raises.
    for row, value, start_t, bad_len, msg in [
            (4, np.nan, 0, 4, "actions must be finite"),
            (3, -4.5, 0, 4, "|accel| exceeds bound 4.0"),
            (9, 0.0, -3, 4, "start_t must be >= 0, got -3"),
            (9, 0.0, 0, 0, "actions must have shape (T>=1, 2), got (0, 2)")]:
        bad = flat.copy()
        bad[row, 0] = value
        bad[-1, 1] = 2.0  # a later bad trajectory never wins
        bad_lens = [3, 1, bad_len, 6 - bad_len]
        with pytest.raises(ValueError) as err:
            ActionTraj.block(bad, [0, 0, start_t, 0], bad_lens)
        assert str(err.value) == msg
    for flat_shape, lens_, starts in [((10, 3), lens, [0] * 4), ((9, 2), lens, [0] * 4),
                                      ((10, 2), lens, [0] * 3)]:
        with pytest.raises(ValueError, match="^need a"):
            ActionTraj.block(np.zeros(flat_shape), starts, lens_)


def test_footprint_overlap():
    a = AgentState(0, 0, 0, 0)
    assert footprint_overlap(a, AgentState(5, 0, 0, 0), 1, 1) == 0
    assert footprint_overlap(a, AgentState(0, 0, 0, 0), 1, 1) == 2
    assert footprint_overlap(a, AgentState(1.5, 0, 0, 0), 1, 1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        footprint_overlap(a, a, -1, 1)


def test_contexts():
    c = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=100)
    assert c.nearest_center(1.0) == 0.0
    assert c.nearest_center(2.5) == 3.7
    with pytest.raises(ValueError):
        DrivingCorridor(lane_centers=())
    with pytest.raises(ValueError):
        NavWorld(goal_primary=(1, 1), goal_backup=(1, 1))


_CENTER = st.one_of(st.sampled_from([0.0, -0.0, 3.7, -3.7]),
                    st.floats(-50.0, 50.0, allow_subnormal=True))


@given(centers=st.lists(_CENTER, min_size=1, max_size=4), data=st.data())
@example(centers=[0.0, 3.7], data=None)
@example(centers=[-0.0, 0.0], data=None)
@example(centers=[3.7, 0.0, 3.7], data=None)
@example(centers=[0.0], data=None)
def test_nearest_center_equals_min_with_key(centers, data):
    corridor = DrivingCorridor(lane_centers=tuple(centers))
    ys = [-0.0, 0.0, 1.85, -1.85, float("nan"), float("inf")]
    ys += [(a + b) / 2.0 for a in centers for b in centers]  # midway: ties
    if data is not None:
        ys.append(data.draw(st.floats(allow_nan=False, allow_infinity=False)))
    for y in ys:
        want = min(corridor.lane_centers, key=lambda c: abs(y - c))
        assert corridor.nearest_center(y).hex() == want.hex()


def test_rng_stream_determinism():
    a = RngStream(12345, 6).generator().uniform(size=8)
    b = RngStream(12345, 6).generator().uniform(size=8)
    assert np.array_equal(a, b)
    c = RngStream(12345, 7).generator().uniform(size=8)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("n", [1, 12, 48])
def test_rng_stream_normal_block_equals_scalar_draws(sigma, n):
    # The planner's candidate jitters and the perception codebook draw their
    # normals as one block where they were drawn one by one.
    block = RngStream(2024, 3).generator().normal(0.0, sigma, n)
    gen = RngStream(2024, 3).generator()
    scalars = [gen.normal(0.0, sigma) for _ in range(n)]
    assert [v.hex() for v in block.tolist()] == [float(v).hex() for v in scalars]


def test_rng_stream_derive():
    root = RngStream(99, 0)
    assert root.derive(1, 2) == root.derive(1, 2)
    assert root.derive(1, 2) != root.derive(2, 1)
    # sibling independence: derived draws differ
    d1 = root.derive(0).generator().uniform(size=4)
    d2 = root.derive(1).generator().uniform(size=4)
    assert not np.array_equal(d1, d2)
