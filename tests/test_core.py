import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regret_miner.core import (
    ActionTraj,
    AgentState,
    DrivingCorridor,
    JointState,
    NavWorld,
    RngStream,
    dubins_step,
    footprint_overlap,
    rollout_positions,
    rollout_positions_batch,
    unicycle_rollout,
    unicycle_step,
    unicycle_step_floats,
    wrap_angle,
)


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
    dt=st.one_of(st.sampled_from([0.05, 0.1, 0.2, 0.5]), st.floats(1e-3, 1.0)),
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


def test_rng_stream_derive():
    root = RngStream(99, 0)
    assert root.derive(1, 2) == root.derive(1, 2)
    assert root.derive(1, 2) != root.derive(2, 1)
    # sibling independence: derived draws differ
    d1 = root.derive(0).generator().uniform(size=4)
    d2 = root.derive(1).generator().uniform(size=4)
    assert not np.array_equal(d1, d2)
