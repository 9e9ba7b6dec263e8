import numpy as np
import pytest

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
    unicycle_rollout,
)
from regret_miner.planner import (
    PlannerHandle,
    ReplanEntry,
    RewardWeights,
    plan,
    reward,
    reward_terms,
    sample_candidates,
)
from regret_miner.predictor import (
    BUCKET_SHAPE,
    N_MODES,
    PredictorParams,
    TablePredictor,
    predict,
)

TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)
UNIFORM = TablePredictor(PredictorParams.fresh())


def test_candidate_counts():
    assert PlannerHandle().n_candidates == 13
    assert PlannerHandle(two_stage=True).n_candidates == 49
    assert PlannerHandle(accel_levels=()).n_candidates == 1
    h = PlannerHandle(accel_levels=(-1.0, 1.0), steer_profiles=("straight",))
    assert h.n_candidates == 3
    assert len(sample_candidates(h, AgentState(0, 0, 0, 5), TWO_LANE, RngStream(0))) == 3


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
    levels = ([(a1, a2) for a1 in h.accel_levels for a2 in h.accel_levels] if h.two_stage
              else [(a, a) for a in h.accel_levels])
    for a1, a2 in levels:
        for profile in h.steer_profiles:
            accel = np.full(T, float(a2))
            accel[:half] = a1
            a = cap(np.clip(accel + gen.normal(0.0, h.accel_jitter), -ACCEL_LIMIT, ACCEL_LIMIT))
            w = np.zeros(T)
            sign = {"straight": 0.0, "lane_left": 1.0, "lane_right": -1.0}[profile]
            w[:half], w[half:] = sign * h.lane_change_turn, -sign * h.lane_change_turn
            cands.append(ActionTraj(np.column_stack([a, np.clip(w, -TURN_LIMIT, TURN_LIMIT)]),
                                    start_t=start_t))
    return cands


@pytest.mark.parametrize("handle", [PlannerHandle(), PlannerHandle(two_stage=True, horizon=17),
                                    PlannerHandle(speed_cap=6.0, lane_change_turn=1.5)])
@pytest.mark.parametrize("speed", [0.0, 0.1, 5.95, 9.99])
def test_sample_candidates_equal_per_candidate_construction(handle, speed):
    state = AgentState(0.0, 1.0, 0.2, speed)
    got = sample_candidates(handle, state, TWO_LANE, RngStream(8), start_t=40)
    assert got == _reference_candidates(handle, state, RngStream(8), 40)
    for cand in got:
        assert not cand.actions.flags.writeable


def test_weight_validation():
    with pytest.raises(ValueError):
        RewardWeights(w_col=0.5)
    with pytest.raises(ValueError):
        RewardWeights(w_progress=0.0)
    with pytest.raises(ValueError):
        RewardWeights(w_lane=float("nan"))
    with pytest.raises(ValueError):
        PlannerHandle(steer_profiles=("sideways",))


def test_candidates_deterministic_and_bounded():
    h = PlannerHandle(speed_cap=9.0)
    state = AgentState(0, 0, 0, 8.0)
    a = sample_candidates(h, state, TWO_LANE, RngStream(5))
    b = sample_candidates(h, state, TWO_LANE, RngStream(5))
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
    cands = sample_candidates(h, AgentState(0, 0, 0, 5.0), TWO_LANE, RngStream(1))
    np.testing.assert_array_equal(cands[0].actions, np.zeros((h.horizon, 2)))


def test_reward_zero_at_rest_on_center():
    h = PlannerHandle(horizon=10)
    joint = JointState(AgentState(0, 0, 0, 0.0), (), 0)
    maintain = ActionTraj(np.zeros((10, 2)))
    assert reward(h, maintain, [], joint, TWO_LANE) == 0.0


def test_reward_pure_progress():
    # 5 m/s held for 20 steps of 0.1 s is 10 m of progress and nothing else.
    h = PlannerHandle(horizon=20, dt=0.1)
    joint = JointState(AgentState(0, 0, 0, 5.0), (), 0)
    maintain = ActionTraj(np.zeros((20, 2)))
    terms = reward_terms(h, maintain, [], joint, TWO_LANE)
    assert terms[0] == pytest.approx(10.0, abs=1e-9)
    assert terms[1:] == (0.0, 0.0, 0.0)
    assert reward(h, maintain, [], joint, TWO_LANE) == pytest.approx(10.0, abs=1e-9)


def test_reward_linear_in_terms():
    rng = np.random.default_rng(33)
    h = PlannerHandle(horizon=15)
    joint = JointState(AgentState(0, 0.4, 0.02, 6.0),
                       (AgentState(9, 0, 0, 0.0),), 0)
    for _ in range(25):
        ego = ActionTraj(np.column_stack([rng.uniform(-3, 1, 15),
                                          rng.uniform(-0.2, 0.2, 15)]))
        hum = ActionTraj(np.zeros((15, 2)))
        terms = reward_terms(h, ego, [hum], joint, TWO_LANE)
        w = h.weights
        manual = (w.w_progress * terms[0] + w.w_lane * terms[1]
                  + w.w_col * terms[2] + w.w_ctrl * terms[3])
        assert reward(h, ego, [hum], joint, TWO_LANE) == pytest.approx(manual, abs=1e-12)


def test_driving_through_static_human_penalized():
    h = PlannerHandle(horizon=20)
    static = AgentState(6.0, 0.0, 0.0, 0.0)
    joint = JointState(AgentState(0, 0, 0, 8.0), (static,), 0)
    charge = ActionTraj(np.zeros((20, 2)))
    hum = ActionTraj(np.zeros((20, 2)))
    with_human = reward(h, charge, [hum], joint, TWO_LANE)
    without = reward(h, charge, [], JointState(joint.robot, (), 0), TWO_LANE)
    overlap = reward_terms(h, charge, [hum], joint, TWO_LANE)[2]
    assert overlap > 0
    assert with_human == pytest.approx(without + h.weights.w_col * overlap, abs=1e-9)
    assert with_human < without


def test_nav_progress_toward_goal():
    world = NavWorld()
    h = PlannerHandle(horizon=10, dt=0.1)
    joint = JointState(AgentState(0, 0, np.pi / 2, 1.0), (), 0)  # facing the goal
    maintain = ActionTraj(np.zeros((10, 2)))
    progress = reward_terms(h, maintain, [], joint, world)[0]
    assert progress == pytest.approx(1.0, abs=1e-9)


def test_replan_entry_validation():
    cands = [ActionTraj(np.zeros((5, 2)))]
    pred = UNIFORM.predict(JointState(AgentState(0, 0, 0, 5), (), 0),
                                     [], cands[0], TWO_LANE, 1)
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
                             TWO_LANE, RngStream(100 + trial))
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
                        TWO_LANE, RngStream(42))
        runs.append(entry)
    assert runs[0].executed_index == runs[1].executed_index
    assert runs[0].candidate_rewards_predicted == runs[1].candidate_rewards_predicted


def test_plan_single_candidate():
    h = PlannerHandle(accel_levels=())
    joint = JointState(AgentState(0, 0, 0, 4.0), (), 0)
    chosen, entry = plan(h, UNIFORM, joint, [], TWO_LANE, RngStream(3))
    assert entry.executed_index == 0
    assert len(entry.candidates) == 1
    np.testing.assert_array_equal(chosen.actions, np.zeros((h.horizon, 2)))


def test_plan_swerves_around_blocker():
    """A stranded car dead ahead makes maintain suboptimal: the planner must
    pick a candidate whose rollout keeps more clearance than driving through."""
    blocker = AgentState(12.0, 0.0, 0.0, 0.0)
    joint = JointState(AgentState(0, 0, 0, 8.0), (blocker,), 0)
    h = PlannerHandle()
    chosen, entry = plan(h, UNIFORM, joint, [], TWO_LANE, RngStream(7))
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


def _reference_plan(handle, params, joint, history, ctx, rng, radii):
    """plan() as one predict() call and fresh rollouts per candidate and mode."""
    candidates = sample_candidates(handle, joint.robot, ctx, rng, start_t=joint.t)
    w = handle.weights
    expected, preds = [], []
    for cand in candidates:
        pred = predict(params, joint, history, cand, ctx, handle.n_modes)
        progress, lane, _, ctrl = _reference_terms(handle, cand, [], joint, ctx, [])
        exp_r = w.w_progress * progress + w.w_lane * lane + w.w_ctrl * ctrl
        ego_xy = _reference_xy(joint.robot, cand, handle.dt)
        for i, modes in enumerate(pred.humans):
            for mp in modes:
                h_xy = _reference_xy(joint.humans[i], mp.traj, handle.dt)
                d = np.hypot(ego_xy[:, 0] - h_xy[:, 0], ego_xy[:, 1] - h_xy[:, 1])
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


@pytest.mark.parametrize("n_modes,predictor_dt", [(1, 0.1), (3, 0.1), (2, 0.2)])
def test_plan_matches_per_candidate_reference(n_modes, predictor_dt):
    """Sharing rollouts and templates across candidates changes no number,
    including when the predictor integrates at another dt than the planner."""
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 6, size=BUCKET_SHAPE + (N_MODES,)).astype(float)
    params = PredictorParams(counts=counts, dt=predictor_dt)
    handle = PlannerHandle(n_modes=n_modes)
    for trial in range(4):
        humans = tuple(AgentState(rng.uniform(4, 30), rng.choice([0.0, 3.7]) + rng.normal(0, 0.3),
                                  rng.normal(0, 0.2), rng.uniform(0, 7))
                       for _ in range(1 + trial % 2))
        radii = [CAR_RADIUS, 0.3][:len(humans)]
        joint = JointState(AgentState(0, rng.normal(0, 0.3), 0.0, rng.uniform(4, 9)),
                           humans, 20)
        history = [JointState(joint.robot, humans, t) for t in range(16, 20)]
        _, entry = plan(handle, TablePredictor(params), joint, history, TWO_LANE,
                        RngStream(trial), human_radii=radii)
        expected, idx, samples, pred = _reference_plan(
            handle, params, joint, history, TWO_LANE, RngStream(trial), radii)
        assert entry.candidate_rewards_predicted == expected
        assert entry.executed_index == idx
        assert entry.predicted_reward_samples == samples
        assert [[(m.label, m.prob) for m in h] for h in entry.predicted_humans.humans] == \
            [[(m.label, m.prob) for m in h] for h in pred.humans]
        for got, want in zip(entry.predicted_humans.humans, pred.humans):
            for mg, mw in zip(got, want):
                assert mg.traj == mw.traj
