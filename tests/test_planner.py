import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regret_miner.core import (
    ACCEL_LIMIT,
    CAR_RADIUS,
    ROBOT_RADIUS,
    TURN_LIMIT,
    ActionTraj,
    AgentState,
    DrivingCorridor,
    JointState,
    NavWorld,
    RngStream,
    rollout_positions,
    rollout_positions_batch,
    rollout_speeds,
)
from regret_miner.planner import (
    PlannerHandle,
    ReplanEntry,
    RewardWeights,
    _cap_piece,
    plan,
    reward,
    reward_terms,
    sample_candidates,
)
from regret_miner.predictor import (
    BUCKET_SHAPE,
    N_MODES,
    ModePrediction,
    PredictionSet,
    PredictorParams,
    TablePredictor,
    predict,
)
from regret_miner.simkit import OraclePredictor, generate_scenario_batch, run_closed_loop
from kinematics_reference import one_row, unicycle_rollout

TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)
UNIFORM = TablePredictor(PredictorParams.fresh())


def test_candidate_counts():
    assert PlannerHandle().n_candidates == 13
    assert PlannerHandle(accel_levels=()).n_candidates == 1
    assert len(sample_candidates(PlannerHandle(accel_levels=()), 5.0, RngStream(0), 0)[0]) == 1
    h = PlannerHandle(accel_levels=(-1.0, 1.0))
    assert h.n_candidates == 7
    assert len(sample_candidates(h, 5.0, RngStream(0), 0)[0]) == 7


def _reference_candidates(h, state, rng, start_t):
    """The candidate library built one ActionTraj at a time."""
    def cap(accel):
        out, v = np.empty_like(accel), state.speed
        for k in range(len(accel)):
            a = min(max(min(float(accel[k]), (h.speed_cap - v) / h.dt), -ACCEL_LIMIT),
                    ACCEL_LIMIT)
            out[k] = a
            v = max(0.0, v + a * h.dt)
        return out

    T, half = h.horizon, h.horizon // 2
    gen = rng.generator()
    cands = [ActionTraj(np.column_stack([cap(np.zeros(T)), np.zeros(T)]), start_t=start_t)]
    for level in h.accel_levels:
        for profile in ("straight", "lane_left", "lane_right"):
            accel = np.full(T, float(level))
            a = cap(np.clip(accel + gen.normal(0.0, h.accel_jitter), -ACCEL_LIMIT, ACCEL_LIMIT))
            w = np.zeros(T)
            sign = {"straight": 0.0, "lane_left": 1.0, "lane_right": -1.0}[profile]
            w[:half], w[half:] = sign * h.lane_change_turn, -sign * h.lane_change_turn
            cands.append(ActionTraj(np.column_stack([a, np.clip(w, -TURN_LIMIT, TURN_LIMIT)]),
                                    start_t=start_t))
    return cands


@pytest.mark.parametrize("handle", [PlannerHandle(), PlannerHandle(horizon=17),
                                    PlannerHandle(speed_cap=6.0, lane_change_turn=1.5),
                                    # an int level next to a float one
                                    PlannerHandle(accel_levels=(-3, 1.5), horizon=9)])
@pytest.mark.parametrize("speed", [0.0, 0.1, 5.95, 9.99])
def test_sample_candidates_equal_per_candidate_construction(handle, speed):
    state = AgentState(0.0, 1.0, 0.2, speed)
    got = sample_candidates(handle, state.speed, RngStream(8), 40)[0]
    assert got == _reference_candidates(handle, state, RngStream(8), 40)
    for cand in got:
        assert not cand.actions.flags.writeable


def _cap_speed_min_max(accel, v0, cap, dt):
    """Speed capping written with the builtin min and max: the capped
    accelerations and the speed after each step."""
    accels, speeds, v = [], [], v0
    for a in accel:
        a = min(a, (cap - v) / dt)
        a = min(max(a, -ACCEL_LIMIT), ACCEL_LIMIT)
        accels.append(a)
        v = max(0.0, v + a * dt)
        speeds.append(v)
    return accels, speeds


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.tuples(st.one_of(
        st.sampled_from([0.0, -0.0, ACCEL_LIMIT, -ACCEL_LIMIT, 4.5, -5.0, float("nan")]),
        st.floats(-5.0, 5.0)), st.integers(1, 40)), min_size=1, max_size=40),
    v0=st.one_of(st.sampled_from([0.0, 10.0, 6.0]), st.floats(0.0, 12.0)),
    cap=st.sampled_from([10.0, 6.0, 0.5]),
    dt=st.sampled_from([0.05, 0.1, 0.2]),
)
@example(pieces=[(0.0, 5)], v0=10.0, cap=10.0, dt=0.1)      # v0 == cap
@example(pieces=[(-4.0, 2), (1.0, 1)], v0=0.0, cap=10.0, dt=0.2)  # braking at rest
@example(pieces=[(-0.0, 1), (0.0, 1), (-0.0, 1)], v0=0.0, cap=10.0, dt=0.05)
# Long constant pieces whose speed stops changing, so the rest of the piece
# repeats its last step: held at the cap from the start, reaching the cap,
# braking to rest, and a -0.0 start speed that steps like 0.0.
@example(pieces=[(1.0, 30)], v0=10.0, cap=10.0, dt=0.1)
@example(pieces=[(2.0, 40), (-1.0, 5)], v0=6.0, cap=10.0, dt=0.1)
@example(pieces=[(-3.0, 40), (0.5, 10)], v0=2.0, cap=10.0, dt=0.1)
@example(pieces=[(0.0, 20), (-0.0, 20)], v0=-0.0, cap=10.0, dt=0.1)
def test_cap_speed_equals_min_max_formula(pieces, v0, cap, dt):
    """_cap_piece chained over constant (acceleration, length) pieces, each
    from the speed the last one returned, equals the step-by-step formula.
    Pieces of length 1 make any acceleration sequence."""
    accels, speeds, v = [], [], v0
    for a, n in pieces:
        v = _cap_piece(a, n, v, cap, dt, accels, speeds)
    want_a, want_v = _cap_speed_min_max([a for a, n in pieces for _ in range(n)],
                                        v0, cap, dt)
    # float.hex tells -0.0 from 0.0; NaN reads as 'nan' on both sides.
    assert [a.hex() for a in accels] == [a.hex() for a in want_a]
    assert [u.hex() for u in speeds] == [u.hex() for u in want_v]
    assert v.hex() == want_v[-1].hex()
    assert all(type(a) is float for a in accels + speeds)


def test_weight_validation():
    with pytest.raises(ValueError):
        RewardWeights(w_col=0.5)
    with pytest.raises(ValueError):
        RewardWeights(w_progress=0.0)
    with pytest.raises(ValueError):
        RewardWeights(w_lane=float("nan"))
    # The library's steer profiles are fixed, so a handle takes none.
    with pytest.raises(TypeError):
        PlannerHandle(steer_profiles=("straight",))


@pytest.mark.parametrize("kwargs", [
    pytest.param({"dt": 0.0}, id="dt-zero"),
    pytest.param({"dt": -0.1}, id="dt-negative"),
    pytest.param({"dt": float("nan")}, id="dt-nan"),
    pytest.param({"dt": float("inf")}, id="dt-inf"),
    pytest.param({"speed_cap": float("nan")}, id="speed_cap-nan"),
    pytest.param({"accel_jitter": -0.01}, id="accel_jitter-negative"),
    pytest.param({"accel_jitter": float("nan")}, id="accel_jitter-nan"),
    pytest.param({"n_modes": 0}, id="n_modes-zero"),
    pytest.param({"accel_levels": (-1.0, float("nan"))}, id="accel_levels-nan"),
    pytest.param({"lane_change_turn": float("nan")}, id="lane_change_turn-nan"),
    pytest.param({"horizon": 2.5}, id="horizon-float"),
    pytest.param({"n_modes": 1.0}, id="n_modes-float"),
])
def test_planner_handle_rejects_bad_settings(kwargs):
    # A zero dt would divide by zero in the speed cap, which run_closed_loop's
    # ValueError abort handler does not catch, and a NaN speed cap compares
    # False with every speed and would cap nothing. A NaN level or turn rate
    # would abort every scene at t=0, and a horizon that is no int would fail
    # mid-loop with a TypeError: each is refused when the handle is built,
    # naming its field.
    with pytest.raises(ValueError, match="^" + next(iter(kwargs))):
        PlannerHandle(**kwargs)


def test_candidates_deterministic_and_bounded():
    h = PlannerHandle(speed_cap=9.0)
    state = AgentState(0, 0, 0, 8.0)
    a = sample_candidates(h, state.speed, RngStream(5), 0)[0]
    b = sample_candidates(h, state.speed, RngStream(5), 0)[0]
    assert len(a) == len(b) == h.n_candidates
    for ca, cb in zip(a, b):
        np.testing.assert_array_equal(ca.actions, cb.actions)
    for cand in a:
        assert np.all(np.abs(cand.actions[:, 0]) <= ACCEL_LIMIT + 1e-12)
        assert np.all(np.abs(cand.actions[:, 1]) <= TURN_LIMIT + 1e-12)
        v = state.speed
        for k in range(len(cand)):
            v = max(0.0, v + cand.actions[k, 0] * h.dt)
            assert v <= h.speed_cap + 1e-9


def test_maintain_candidate_is_index_zero():
    h = PlannerHandle()
    cands = sample_candidates(h, 5.0, RngStream(1), 0)[0]
    np.testing.assert_array_equal(cands[0].actions, np.zeros((h.horizon, 2)))


def test_reward_zero_at_rest_on_center():
    h = PlannerHandle(horizon=10)
    joint = JointState(AgentState(0, 0, 0, 0.0), (), 0)
    maintain = ActionTraj(np.zeros((10, 2)))
    assert reward(h, maintain, [], joint, TWO_LANE, []) == 0.0


def test_reward_pure_progress():
    # 5 m/s held for 20 steps of 0.1 s is 10 m of progress and nothing else.
    h = PlannerHandle(horizon=20, dt=0.1)
    joint = JointState(AgentState(0, 0, 0, 5.0), (), 0)
    maintain = ActionTraj(np.zeros((20, 2)))
    terms = reward_terms(h, maintain, [], joint, TWO_LANE, [])
    assert terms[0] == pytest.approx(10.0, abs=1e-9)
    assert terms[1:] == (0.0, 0.0, 0.0)
    assert reward(h, maintain, [], joint, TWO_LANE, []) == pytest.approx(10.0, abs=1e-9)


def test_reward_linear_in_terms():
    rng = np.random.default_rng(33)
    h = PlannerHandle(horizon=15)
    joint = JointState(AgentState(0, 0.4, 0.02, 6.0),
                       (AgentState(9, 0, 0, 0.0),), 0)
    for _ in range(25):
        ego = ActionTraj(np.column_stack([rng.uniform(-3, 1, 15),
                                          rng.uniform(-0.2, 0.2, 15)]))
        hum = ActionTraj(np.zeros((15, 2)))
        terms = reward_terms(h, ego, [hum], joint, TWO_LANE, [CAR_RADIUS])
        w = h.weights
        manual = (w.w_progress * terms[0] + w.w_lane * terms[1]
                  + w.w_col * terms[2] + w.w_ctrl * terms[3])
        assert reward(h, ego, [hum], joint, TWO_LANE, [CAR_RADIUS]) == pytest.approx(manual, abs=1e-12)


def test_driving_through_static_human_penalized():
    h = PlannerHandle(horizon=20)
    static = AgentState(6.0, 0.0, 0.0, 0.0)
    joint = JointState(AgentState(0, 0, 0, 8.0), (static,), 0)
    charge = ActionTraj(np.zeros((20, 2)))
    hum = ActionTraj(np.zeros((20, 2)))
    with_human = reward(h, charge, [hum], joint, TWO_LANE, [CAR_RADIUS])
    without = reward(h, charge, [], JointState(joint.robot, (), 0), TWO_LANE, [])
    overlap = reward_terms(h, charge, [hum], joint, TWO_LANE, [CAR_RADIUS])[2]
    assert overlap > 0
    assert with_human == pytest.approx(without + h.weights.w_col * overlap, abs=1e-9)
    assert with_human < without


def test_nav_progress_toward_goal():
    world = NavWorld()
    h = PlannerHandle(horizon=10, dt=0.1)
    joint = JointState(AgentState(0, 0, np.pi / 2, 1.0), (), 0)  # facing the goal
    maintain = ActionTraj(np.zeros((10, 2)))
    progress = reward_terms(h, maintain, [], joint, world, [])[0]
    assert progress == pytest.approx(1.0, abs=1e-9)


def test_replan_entry_validation():
    cands = [ActionTraj(np.zeros((5, 2)))]
    joint = JointState(AgentState(0, 0, 0, 5), (), 0)
    pred = predict(UNIFORM.params, joint, [], one_row(joint.robot, cands[0], 0.1)[0],
                   TWO_LANE, 1, 0.1)[0]
    with pytest.raises(ValueError):
        ReplanEntry(0, cands, pred, [1.0], executed_index=2,
                    predicted_reward_samples=[])
    with pytest.raises(ValueError):
        ReplanEntry(0, cands, pred, [1.0, 2.0], executed_index=0,
                    predicted_reward_samples=[])


def test_plan_executes_argmax():
    spec_rng = np.random.default_rng(8)
    for trial in range(6):
        humans = (AgentState(spec_rng.uniform(5, 30), spec_rng.uniform(-1, 4), 0, 0.0),)
        joint = JointState(AgentState(0, 0, 0, 8.0), humans, 0)
        chosen, entry = plan(PlannerHandle(), UNIFORM, joint, [],
                             TWO_LANE, RngStream(100 + trial), [CAR_RADIUS])
        assert entry.executed_index == int(np.argmax(entry.candidate_rewards_predicted))
        np.testing.assert_array_equal(chosen.actions,
                                      entry.candidates[entry.executed_index].actions)
        weights = [w for _, w in entry.predicted_reward_samples]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_plan_deterministic():
    joint = JointState(AgentState(0, 0, 0, 8.0),
                       (AgentState(15, 0, 0, 0.0),), 0)
    runs = []
    for _ in range(2):
        _, entry = plan(PlannerHandle(), UNIFORM, joint, [],
                        TWO_LANE, RngStream(42), [CAR_RADIUS])
        runs.append(entry)
    assert runs[0].executed_index == runs[1].executed_index
    assert runs[0].candidate_rewards_predicted == runs[1].candidate_rewards_predicted


def test_plan_single_candidate():
    h = PlannerHandle(accel_levels=())
    joint = JointState(AgentState(0, 0, 0, 4.0), (), 0)
    chosen, entry = plan(h, UNIFORM, joint, [], TWO_LANE, RngStream(3), [])
    assert entry.executed_index == 0
    assert len(entry.candidates) == 1
    np.testing.assert_array_equal(chosen.actions, np.zeros((h.horizon, 2)))


def test_plan_swerves_around_blocker():
    """A stranded car dead ahead makes maintain suboptimal: the planner must
    pick a candidate whose rollout keeps more clearance than driving through."""
    blocker = AgentState(12.0, 0.0, 0.0, 0.0)
    joint = JointState(AgentState(0, 0, 0, 8.0), (blocker,), 0)
    h = PlannerHandle()
    chosen, entry = plan(h, UNIFORM, joint, [], TWO_LANE, RngStream(7), [CAR_RADIUS])
    ego_xy = rollout_positions(joint.robot, chosen, h.dt)
    d_min = np.hypot(ego_xy[:, 0] - blocker.x, ego_xy[:, 1] - blocker.y).min()
    maintain_xy = rollout_positions(joint.robot, entry.candidates[0], h.dt)
    d_maintain = np.hypot(maintain_xy[:, 0] - blocker.x,
                          maintain_xy[:, 1] - blocker.y).min()
    assert entry.executed_index != 0
    assert d_min > d_maintain


def _reference_xy(state, traj, dt):
    return np.array([[s.x, s.y] for s in unicycle_rollout(state, traj, dt)])


def _reference_terms(handle, ego, humans, joint, ctx, radii):
    """reward_terms written out per call on unicycle_rollout positions."""
    L = min([len(ego)] + [len(h) for h in humans])
    ego_xy = _reference_xy(joint.robot, ego, handle.dt)[:L]
    if isinstance(ctx, NavWorld):
        gx, gy = ctx.goal_primary
        progress = float(np.hypot(joint.robot.x - gx, joint.robot.y - gy)) - float(
            np.hypot(ego_xy[-1, 0] - gx, ego_xy[-1, 1] - gy))
        lane = 0.0
    else:
        progress = float(ego_xy[-1, 0] - joint.robot.x)
        centers = np.array(ctx.lane_centers)
        offs = np.abs(ego_xy[:, 1][:, None] - centers[None, :]).min(axis=1)
        lane = float(np.mean(offs ** 2))
    col = 0.0
    for i, (htraj, r) in enumerate(zip(humans, radii)):
        h_xy = _reference_xy(joint.humans[i], htraj, handle.dt)[:L]
        d = np.hypot(ego_xy[:, 0] - h_xy[:, 0], ego_xy[:, 1] - h_xy[:, 1])
        col += float(np.maximum(0.0, ROBOT_RADIUS + r - d).sum())
    ctrl = float((ego.actions[:L] ** 2).sum())
    return progress, lane, col, ctrl


def _reference_plan(handle, predict_one, joint, history, ctx, rng, radii):
    """plan() as one predict_one(candidate) call and fresh rollouts per
    candidate and mode."""
    candidates = sample_candidates(handle, joint.robot.speed, rng, joint.t)[0]
    w = handle.weights
    expected, preds = [], []
    for cand in candidates:
        pred = predict_one(cand)
        progress, lane, _, ctrl = _reference_terms(handle, cand, [], joint, ctx, [])
        exp_r = w.w_progress * progress + w.w_lane * lane + w.w_ctrl * ctrl
        ego_xy = _reference_xy(joint.robot, cand, handle.dt)
        for i, modes in enumerate(pred.humans):
            for mp in modes:
                h_xy = _reference_xy(joint.humans[i], mp.traj, handle.dt)
                L = min(len(ego_xy), len(h_xy))
                d = np.hypot(ego_xy[:L, 0] - h_xy[:L, 0], ego_xy[:L, 1] - h_xy[:L, 1])
                overlap = float(np.maximum(0.0, ROBOT_RADIUS + radii[i] - d).sum())
                exp_r += w.w_col * mp.prob * overlap
        expected.append(exp_r)
        preds.append(pred)
    idx = int(np.argmax(expected))
    chosen_pred = preds[idx]
    combos = [((), 1.0)]
    for i in range(len(joint.humans)):
        combos = [(c + (k,), p * chosen_pred.humans[i][k].prob)
                  for c, p in combos for k in range(len(chosen_pred.humans[i]))]
    samples = []
    for c, weight in combos:
        htrajs = [chosen_pred.humans[i][c[i]].traj for i in range(len(joint.humans))]
        terms = _reference_terms(handle, candidates[idx], htrajs, joint, ctx, radii)
        r = (w.w_progress * terms[0] + w.w_lane * terms[1]
             + w.w_col * terms[2] + w.w_ctrl * terms[3])
        samples.append((r, float(weight)))
    return expected, idx, samples, chosen_pred


def _table_trials(n_modes, dt, ctx):
    """Six replans of a random count table, with 1 or 2 humans near the robot.
    In the last two a slow robot has humans just ahead, so braking candidates
    do not approach them and accelerating ones do."""
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 6, size=BUCKET_SHAPE + (N_MODES,)).astype(float)
    params = PredictorParams(counts=counts)
    for trial in range(6):
        if isinstance(ctx, NavWorld):
            humans = tuple(AgentState(rng.uniform(-2, 2), rng.uniform(1, 5),
                                      rng.uniform(-np.pi, np.pi), rng.uniform(0, 2))
                           for _ in range(1 + trial % 2))
            robot = AgentState(rng.normal(0, 0.3), 0.0, np.pi / 2 + rng.normal(0, 0.3),
                               rng.uniform(0.5, 2))
        else:
            humans = tuple(AgentState(rng.uniform(4, 30),
                                      rng.choice([0.0, 3.7]) + rng.normal(0, 0.3),
                                      rng.normal(0, 0.2), rng.uniform(0, 7))
                           for _ in range(1 + trial % 2))
            robot = AgentState(0, rng.normal(0, 0.3), 0.0, rng.uniform(4, 9))
            if trial >= 4:
                humans = tuple(AgentState(rng.uniform(1.5, 4), lane + rng.normal(0, 0.3),
                                          0.0, rng.uniform(0, 1))
                               for _, lane in zip(humans, (0.0, 3.7)))
                robot = AgentState(0, robot.y, 0.0, rng.uniform(0.5, 1.5))
        radii = [CAR_RADIUS, 0.3][:len(humans)]
        joint = JointState(robot, humans, 20)
        history = [JointState(joint.robot, humans, t) for t in range(16, 20)]
        yield (TablePredictor(params),
               lambda cand, j=joint, hist=history: predict(
                   params, j, hist, one_row(j.robot, cand, dt)[0], ctx, n_modes, dt)[0],
               joint, history, ctx, radii, RngStream(trial))


def _oracle_trials():
    """Replans of an oracle bound to a real 2-human scene, at three states of
    its run, under the scene's own human radii."""
    spec = generate_scenario_batch("StoppedTraffic", 1, base_seed=5, horizon=20)[0]
    oracle = OraclePredictor()
    rec = run_closed_loop(spec, PlannerHandle(), oracle, 10)
    radii = [p.radius for _, p in spec.humans]
    for t in (0, 10, 20):
        joint, history = rec.states[t], rec.states[:t]
        yield (oracle, lambda cand, j=joint, hist=history: oracle.predict(
                   j, hist, *one_row(j.robot, cand, rec.dt), spec.context, 1, rec.dt)[0],
               joint, history, spec.context, radii, RngStream(spec.seed).derive(t))


@pytest.mark.parametrize("world,n_modes,dt", [
    pytest.param("corridor", 1, 0.1, id="1-0.1"),
    pytest.param("corridor", 3, 0.1, id="3-0.1"),
    pytest.param("corridor", 2, 0.2, id="2-0.2"),
    pytest.param("oracle", 1, 0.1, id="oracle"),
    pytest.param("nav", 2, 0.1, id="nav"),
])
def test_plan_matches_per_candidate_reference(world, n_modes, dt):
    """Scoring a replan's candidates as one block, with shared rollouts and
    templates, changes no number against the per-candidate formula: for the
    table predictor (also at a dt of 0.2, where its templates are made), for the
    oracle bound to a scene, and in both terms_matrix branches."""
    handle = PlannerHandle(n_modes=n_modes, dt=dt)
    trials = (_oracle_trials() if world == "oracle" else
              _table_trials(n_modes, dt, NavWorld() if world == "nav" else TWO_LANE))
    for predictor, predict_one, joint, history, ctx, radii, rng in trials:
        _, entry = plan(handle, predictor, joint, history, ctx, rng, human_radii=radii)
        expected, idx, samples, pred = _reference_plan(
            handle, predict_one, joint, history, ctx, rng, radii)
        assert entry.candidate_rewards_predicted == expected
        assert all(type(r) is float for r in entry.candidate_rewards_predicted)
        assert entry.executed_index == idx
        assert entry.predicted_reward_samples == samples
        assert [[(m.label, m.prob) for m in h] for h in entry.predicted_humans.humans] == \
            [[(m.label, m.prob) for m in h] for h in pred.humans]
        for got, want in zip(entry.predicted_humans.humans, pred.humans):
            for mg, mw in zip(got, want):
                assert mg.traj == mw.traj


@pytest.mark.parametrize("n_humans,radii", [(1, []), (1, [CAR_RADIUS, 0.3]),
                                             (2, [CAR_RADIUS]), (2, [CAR_RADIUS] * 3)])
def test_plan_rejects_radii_that_do_not_match_the_humans(n_humans, radii):
    humans = (AgentState(12.0, 0.0, 0.0, 0.0), AgentState(20.0, 3.7, 0.0, 5.0))[:n_humans]
    joint = JointState(AgentState(0, 0, 0, 8.0), humans, 0)
    with pytest.raises(ValueError, match="one radius per human"):
        plan(PlannerHandle(), UNIFORM, joint, [], TWO_LANE, RngStream(1), human_radii=radii)


class _ShortModePredictor:
    """Two modes per human, a keep-turning mode and a braking one, whose
    probabilities depend on whether the candidate brakes (its first speed is
    below the robot's). Every mode is `short` steps shorter than the
    horizon, except the keep modes when `mixed`."""

    def __init__(self, horizon, short, mixed):
        self.horizon, self.short, self.mixed = horizon, short, mixed

    def predict_one(self, joint, brakes):
        p = 0.7 if brakes else 0.4
        humans = []
        for i in range(len(joint.humans)):
            n = self.horizon - self.short
            keep_n = self.horizon if self.mixed else n
            keep = ActionTraj(np.column_stack([np.zeros(keep_n), np.full(keep_n, 0.05 * (i + 1))]))
            brake = ActionTraj(np.column_stack([np.full(n, -2.0), np.zeros(n)]))
            humans.append((ModePrediction("keep", p, keep), ModePrediction("brake", 1.0 - p, brake)))
        return PredictionSet(humans=tuple(humans))

    def predict(self, joint, history, ego_xys, speeds, ctx, n_modes, dt):
        return [self.predict_one(joint, v < joint.robot.speed) for v in speeds[:, 0].tolist()]


@pytest.mark.parametrize("n_humans,mixed", [(1, False), (2, False), (2, True)],
                         ids=["1-human", "2-humans", "2-humans-full-keep-modes"])
def test_plan_rejects_mode_trajectories_shorter_than_the_horizon(n_humans, mixed):
    """A mode trajectory shorter than the horizon would crop every reward
    term of the chosen plan's samples but only the overlap of its expected
    reward, so plan() raises a ValueError naming the human, the mode and the
    lengths, and a closed loop under such a predictor aborts with it."""
    handle = PlannerHandle(n_modes=2)
    predictor = _ShortModePredictor(handle.horizon, 5, mixed)
    label = "brake" if mixed else "keep"
    message = f"human 0 mode {label!r} is 25 steps, shorter than the horizon 30"
    humans = (AgentState(8.0, 0.3, 0.0, 2.0), AgentState(10.0, 3.5, 0.1, 1.0))[:n_humans]
    radii = [CAR_RADIUS, 0.3][:n_humans]
    joint = JointState(AgentState(0.0, 0.2, 0.0, 5.0), humans, 7)
    with pytest.raises(ValueError, match=f"^{message}$"):
        plan(handle, predictor, joint, [], TWO_LANE, RngStream(1), human_radii=radii)
    spec = generate_scenario_batch("StrandedTruck", 1, base_seed=3, horizon=40)[0]
    scene = run_closed_loop(spec, handle, predictor, 10)
    assert scene.aborted and scene.replan_log == []
    assert scene.abort_reason == f"planner failed at t=0: {message}"


class _RecordingPredictor:
    """Predicts a scene without humans and keeps the candidate rollouts and
    speeds plan() passes it."""

    def predict(self, joint, history, ego_xys, speeds, ctx, n_modes, dt):
        self.ego_xys, self.speeds = ego_xys, speeds
        return [PredictionSet(humans=())] * len(ego_xys)


def _hexes(arr):
    return [v.hex() for v in np.asarray(arr).ravel().tolist()]


@settings(max_examples=150, deadline=None)
@given(
    # start speed as a fraction of the cap: at rest, just under, at and above it
    frac=st.one_of(st.sampled_from([0.0, 1.0 - 1e-9, 1.0, 1.05, 1.6]), st.floats(0.0, 1.6)),
    cap=st.sampled_from([10.0, 6.0, 0.5]),
    heading=st.one_of(st.sampled_from([-np.pi, 3.14159, 0.0]), st.floats(-np.pi, np.pi)),
    horizon=st.one_of(st.sampled_from([1, 2, 17, 30, 31]), st.integers(1, 40)),
    jitter=st.sampled_from([0.0, 0.05, 0.5]),
    dt=st.sampled_from([0.05, 0.1, 0.2]),
    seed=st.integers(0, 2 ** 32),
)
@example(frac=0.0, cap=10.0, heading=0.0, horizon=31, jitter=0.05, dt=0.1, seed=1)
@example(frac=1.0 - 1e-9, cap=10.0, heading=0.0, horizon=17, jitter=0.05, dt=0.1, seed=2)
@example(frac=1.05, cap=10.0, heading=-np.pi, horizon=31, jitter=0.5, dt=0.2, seed=3)
def test_library_speeds_and_plan_rollouts_equal_rollout_positions_batch(
        frac, cap, heading, horizon, jitter, dt, seed):
    handle = PlannerHandle(horizon=horizon, accel_jitter=jitter, dt=dt, speed_cap=cap)
    robot = AgentState(1.0, 0.5, heading, frac * cap)
    cands, acts, speeds = sample_candidates(handle, robot.speed, RngStream(seed), 3)
    assert np.array_equal(acts, np.stack([c.actions for c in cands]))
    K = len(cands)
    assert _hexes(speeds) == _hexes(rollout_speeds(np.full(K, robot.speed), acts[:, :, 0], dt))
    recorder = _RecordingPredictor()
    plan(handle, recorder, JointState(robot, (), 3), [], TWO_LANE, RngStream(seed), [])
    want = rollout_positions_batch([robot.x] * K, [robot.y] * K, [robot.heading] * K,
                                   [robot.speed] * K, acts, dt)
    assert _hexes(recorder.ego_xys) == _hexes(want)
    assert recorder.speeds.shape == (K, horizon)
    assert _hexes(recorder.speeds) == _hexes(rollout_speeds(np.full(K, robot.speed),
                                                            acts[:, :, 0], dt))
