import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regret_miner import predictor as predictor_module
from regret_miner.core import (
    ACCEL_LIMIT,
    DT_DEFAULT,
    ActionTraj,
    AgentState,
    DrivingCorridor,
    JointState,
    RngStream,
    rollout_positions,
    rollout_speeds,
)
from regret_miner.planner import PlannerHandle, sample_candidates
from regret_miner.predictor import (
    APPROACH_MARGIN,
    BUCKET_SHAPE,
    DIST_EDGES,
    MODES,
    N_MODES,
    SPEED_EDGES,
    ModePrediction,
    PredictionSet,
    PredictorParams,
    TablePredictor,
    _bucket_of,
    _fixed_features,
    _lane_bucket,
    _template_actions,
    ade_fde,
    approaching_flags,
    feature_bucket,
    fit,
    label_segment,
    params_from_json,
    params_to_json,
    predict,
)
from regret_miner.simkit import OraclePredictor, generate_scenario_batch, run_closed_loop
from kinematics_reference import one_row

TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)


def _predict_one(params, joint, history, cand, n_modes_out, dt=DT_DEFAULT):
    """predict of one candidate on TWO_LANE: a one-row block of its rollout at dt."""
    ego_xys, _ = one_row(joint.robot, cand, dt)
    return predict(params, joint, history, ego_xys, TWO_LANE, n_modes_out, dt)[0]


@dataclass
class FakeScene:
    context: object
    states: list
    replan_log: list


def _states(robot_xs, human_speeds, human_x0=6.0, human_y=0.0, robot_speed=0.0):
    """Straight-line scene: robot slides along x, one human decelerates in place."""
    out = []
    hx = human_x0
    for t, (rx, hv) in enumerate(zip(robot_xs, human_speeds)):
        robot = AgentState(rx, 0.0, 0.0, robot_speed)
        human = AgentState(hx, human_y, 0.0, hv)
        out.append(JointState(robot, (human,), t))
        hx += hv * 0.1
    return out


@pytest.mark.parametrize("probs, bad", [
    ([float("nan")], 0),
    ([0.5, float("nan")], 1),
    ([1.5, -0.5], 1),
    ([float("inf"), float("-inf")], 0),
])
def test_prediction_set_rejects_invalid_mode_probabilities(probs, bad):
    """NaN compares False with everything, so the sum-to-one check alone let
    these through; each mode's probability must be finite and >= 0, and the
    error names the human and the mode."""
    traj = ActionTraj(np.zeros((3, 2)))
    valid = (ModePrediction("go", 1.0, traj),)
    modes = tuple(ModePrediction(f"m{k}", p, traj) for k, p in enumerate(probs))
    with pytest.raises(ValueError, match=rf"^human 1 mode 'm{bad}': probability "
                                         r".* is not a finite non-negative number"):
        PredictionSet((valid, modes))
    assert PredictionSet((valid, (ModePrediction("a", 0.0, traj),
                                  ModePrediction("b", 1.0, traj))))


def test_label_segment_rules():
    stay = _states([0] * 6, [0.0] * 6)
    assert label_segment(stay, 0, TWO_LANE) == "stay"
    yielding = _states([0] * 6, [5.0, 4.5, 4.0, 3.5, 3.0, 3.0])
    assert label_segment(yielding, 0, TWO_LANE) == "yield"
    braking = _states([0] * 6, [5.0, 4.5, 4.0, 3.5, 3.0, 3.0], human_x0=30.0)
    assert label_segment(braking, 0, TWO_LANE) == "brake"
    straight = _states([0] * 6, [5.0] * 6)
    assert label_segment(straight, 0, TWO_LANE) == "go_straight"
    crossing = _states([0] * 6, [1.5] * 6)
    moved = [JointState(js.robot, (AgentState(js.humans[0].x, 0.4 * t,
                                              js.humans[0].heading, 1.5),), t)
             for t, js in enumerate(crossing)]
    assert label_segment(moved, 0, TWO_LANE) == "cross"


def _two_scene_fixture():
    """Scene A: robot closes in, human brakes nearby (yield label).
    Scene B: robot backs away, human cruises (go_straight label)."""
    approach = FakeScene(
        TWO_LANE,
        _states(np.linspace(0, 3, 8), [5.0, 4.4, 3.8, 3.4, 3.0, 3.0, 3.0, 3.0]),
        [SimpleNamespace(t=0)],
    )
    retreat = FakeScene(
        TWO_LANE,
        _states(np.linspace(0, -3, 8), [5.0] * 8),
        [SimpleNamespace(t=0)],
    )
    return [approach, retreat]


def test_fit_is_ego_conditioned():
    """The same human state draws different mode forecasts depending on what
    the robot plans to do, because approach is a candidate-rollout feature."""
    params = fit(_two_scene_fixture())
    joint = JointState(AgentState(0, 0, 0, 0.0), (AgentState(6, 0, 0, 5.0),), 0)
    T = 10
    toward = ActionTraj(np.column_stack([np.full(T, 2.0), np.zeros(T)]))
    hold = ActionTraj(np.zeros((T, 2)))
    p_toward = _predict_one(params, joint, [], toward, N_MODES)
    p_hold = _predict_one(params, joint, [], hold, N_MODES)

    def prob_of(pred, label):
        return next(m.prob for m in pred.humans[0] if m.label == label)

    assert prob_of(p_toward, "yield") > prob_of(p_hold, "yield")
    assert prob_of(p_hold, "go_straight") > prob_of(p_toward, "go_straight")
    # exact smoothed values: one count against a 50/50 yield/straight prior
    assert prob_of(p_toward, "yield") == pytest.approx(0.75, abs=1e-12)
    assert prob_of(p_hold, "yield") == pytest.approx(0.25, abs=1e-12)


def test_fit_stranded_scenes_learns_stay():
    specs = generate_scenario_batch("StrandedTruck", 4, base_seed=17, horizon=40)
    scenes = [run_closed_loop(s, PlannerHandle(), OraclePredictor(), 10)
              for s in specs]
    params = fit(scenes)
    visited = np.argwhere(params.counts.sum(axis=-1) > 0)
    assert len(visited) > 0
    stay_idx = MODES.index("stay")
    for bucket in visited:
        probs = params.mode_probs(tuple(bucket))
        assert probs[stay_idx] > 0.9


def test_fit_deterministic():
    data = _two_scene_fixture()
    a = fit(data)
    b = fit(data)
    np.testing.assert_array_equal(a.counts, b.counts)


def test_finetune_blend():
    data_a = _two_scene_fixture()
    data_b = [_two_scene_fixture()[0]]  # yield scene only
    base = fit(data_a)
    new = fit(data_b)
    # lam=1 discards the old counts entirely
    np.testing.assert_array_equal(fit(data_b, init=base, learning="finetune",
                                      lam=1.0).counts, new.counts)
    for lam in (0.25, 0.5, 0.9):
        blended = fit(data_b, init=base, learning="finetune", lam=lam)
        np.testing.assert_allclose(blended.counts,
                                   (1 - lam) * base.counts + lam * new.counts,
                                   atol=1e-12)


def test_fit_validation():
    data = _two_scene_fixture()
    with pytest.raises(ValueError):
        fit([])
    with pytest.raises(ValueError):
        fit(data, learning="online")
    with pytest.raises(ValueError):
        fit(data, learning="finetune")  # no init
    with pytest.raises(ValueError):
        fit(data, init=fit(data), learning="finetune", lam=0.0)
    with pytest.raises(ValueError):
        fit(data, init=fit(data), learning="finetune", lam=1.5)


def test_params_validation():
    with pytest.raises(ValueError):
        PredictorParams(counts=np.zeros((2, 2)))
    bad = np.zeros(BUCKET_SHAPE + (N_MODES,))
    bad[0, 0, 0, 0, 0] = -1.0
    with pytest.raises(ValueError):
        PredictorParams(counts=bad)
    with pytest.raises(ValueError):
        PredictorParams.fresh(smoothing=-0.5)
    for window in (0, -1, 2.5):
        # An empty window would read the whole history as history[-0:].
        with pytest.raises(ValueError, match="history_window must be an int >= 1"):
            PredictorParams.fresh(history_window=window)
    params = PredictorParams.fresh()
    with pytest.raises(ValueError):
        params.counts[0, 0, 0, 0, 0] = 1.0  # table is read-only


def test_mode_probs_normalized():
    rng = np.random.default_rng(4)
    fresh = PredictorParams.fresh()
    np.testing.assert_allclose(fresh.mode_probs((0, 0, 0, 0)),
                               np.full(N_MODES, 0.2), atol=1e-12)
    for _ in range(50):
        counts = rng.integers(0, 30, size=BUCKET_SHAPE + (N_MODES,)).astype(float)
        params = PredictorParams(counts=counts, smoothing=float(rng.uniform(0, 3)))
        bucket = tuple(rng.integers(0, s) for s in BUCKET_SHAPE)
        probs = params.mode_probs(bucket)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)


@pytest.mark.parametrize("window", [1, 4, 20])
def test_plan_and_fit_read_the_same_speed_history(window, monkeypatch):
    """The closed loop hands plan() every frame before the replan, and the
    table reads the last history_window of them, as fit does for the
    segment that starts there: each replan's speed bucket is the one fit
    puts its segment in."""
    seen = {"plan": {}, "fit": {}}
    phase = "plan"
    real = predictor_module._fixed_features

    def recording(human_idx, joint, history, ctx, h):
        out = real(human_idx, joint, history, ctx, h)
        seen[phase][(joint.t, human_idx)] = out[0]
        return out

    monkeypatch.setattr(predictor_module, "_fixed_features", recording)
    params = PredictorParams.fresh(history_window=window)
    for spec in generate_scenario_batch("Intersection", 2, base_seed=4, horizon=100):
        seen["plan"], seen["fit"] = {}, {}
        phase = "plan"
        scene = run_closed_loop(spec, PlannerHandle(), TablePredictor(params), 10)
        phase = "fit"
        fit([scene], init=params)
        assert len(seen["fit"]) == 2 * len(scene.replan_log)
        assert seen["plan"] == seen["fit"]
        assert len(set(seen["fit"].values())) > 1


def test_predict_output_contract():
    params = fit(_two_scene_fixture())
    joint = JointState(AgentState(0, 0, 0, 2.0),
                       (AgentState(6, 0, 0, 5.0), AgentState(20, 3.7, 0, 6.0)), 3)
    cand = ActionTraj(np.zeros((12, 2)), start_t=3)
    for n in (1, 3, N_MODES, N_MODES + 4):
        pred = _predict_one(params, joint, [], cand, n)
        assert len(pred.humans) == 2
        for modes in pred.humans:
            assert len(modes) == min(n, N_MODES)
            assert sum(m.prob for m in modes) == pytest.approx(1.0, abs=1e-9)
            for m in modes:
                assert m.traj.start_t == 3
                assert len(m.traj) == 12
    with pytest.raises(ValueError):
        _predict_one(params, joint, [], cand, 0)


def test_go_straight_template_accelerates_to_cruise():
    params = PredictorParams.fresh(cruise_speed=8.0)
    joint = JointState(AgentState(0, 0, 0, 8.0), (AgentState(30, 0, 0, 5.0),), 0)
    pred = _predict_one(params, joint, [], ActionTraj(np.zeros((16, 2))), N_MODES)
    straight = next(m for m in pred.humans[0] if m.label == "go_straight")
    assert straight.traj.actions[0, 0] == pytest.approx(
        np.clip(8.0 - 5.0, -ACCEL_LIMIT, ACCEL_LIMIT))
    stay = next(m for m in pred.humans[0] if m.label == "stay")
    v = 5.0
    for a, _ in stay.traj.actions:
        v = max(0.0, v + a * DT_DEFAULT)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_ade_fde():
    path = np.column_stack([np.arange(5.0), np.zeros(5)])
    assert ade_fde(path, path) == (0.0, 0.0)
    shifted = path + np.array([3.0, 4.0])
    assert ade_fde(shifted, path) == pytest.approx((5.0, 5.0))
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    ade, fde = ade_fde(a, b)
    err = np.hypot(*(a - b).T)
    assert ade == pytest.approx(err.mean(), abs=1e-12)
    assert fde == pytest.approx(err[-1], abs=1e-12)
    with pytest.raises(ValueError):
        ade_fde(a, b[:5])
    with pytest.raises(ValueError):
        ade_fde(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ade_fde(np.zeros(4), np.zeros(4))


def test_params_json_round_trip():
    params = fit(_two_scene_fixture())
    back = params_from_json(params_to_json(params))
    np.testing.assert_array_equal(back.counts, params.counts)
    assert (back.smoothing, back.history_window, back.cruise_speed) == (
        params.smoothing, params.history_window, params.cruise_speed)
    assert "dt" not in json.loads(params_to_json(params))
    # A predictor/1 document written while the table carried its own dt
    # still loads, to the same table.
    old = json.loads(params_to_json(params))
    for dt in (0.1, 0.2):
        old["dt"] = dt
        assert params_to_json(params_from_json(json.dumps(old))) == params_to_json(params)
    with pytest.raises(ValueError):
        params_from_json('{"schema": "predictor/2", "counts": []}')


def _approach_sensitive_params():
    """Approaching humans are predicted to brake, others to go straight."""
    counts = np.zeros(BUCKET_SHAPE + (N_MODES,))
    counts[:, :, 1, :, MODES.index("brake")] = 10.0
    counts[:, :, 0, :, MODES.index("go_straight")] = 10.0
    return PredictorParams(counts=counts)


def _reference_approaching(human_pos, robot_now, ego_positions):
    """The approaching flag of one rollout, as predict computed it per
    candidate before predictions were made as one block."""
    d_now = float(np.hypot(human_pos[0] - robot_now.x, human_pos[1] - robot_now.y))
    d_future = float(np.min(np.hypot(ego_positions[:, 0] - human_pos[0],
                                     ego_positions[:, 1] - human_pos[1])))
    return 1 if d_future < d_now - APPROACH_MARGIN else 0


def _reference_predict(params, joint, history, cand, ctx, n, dt):
    """predict written out for one candidate at dt: (label, prob, actions)
    per human mode, from the per-candidate bucket."""
    ego_xy = rollout_positions(joint.robot, cand, dt)
    out = []
    for i, human in enumerate(joint.humans):
        speeds = [js.humans[i].speed for js in list(history)[-params.history_window:]]
        speed = float(np.mean(speeds + [human.speed]))
        bucket = (_bucket_of(speed, SPEED_EDGES), _bucket_of(human.distance_to(joint.robot), DIST_EDGES),
                  _reference_approaching((human.x, human.y), joint.robot, ego_xy),
                  _lane_bucket(human, ctx))
        probs = params.mode_probs(bucket)
        order = np.argsort(-probs, kind="stable")[:n]
        kept = probs[order] / probs[order].sum()
        out.append([(MODES[j], float(p),
                     _template_actions(MODES[j], human, ctx, len(cand), dt,
                                       params.cruise_speed).tobytes())
                    for j, p in zip(order, kept)])
    return out


def _candidate_fixture(dt):
    """A two-human replan at t=5 with its history, candidates, and their
    rollouts and speeds at dt."""
    joint = JointState(AgentState(0.0, 0.0, 0.0, 0.06),
                       (AgentState(10.0, 0.0, 0.0, 3.0), AgentState(2.0, 3.7, 0.0, 6.0)), 5)
    history = [JointState(joint.robot, (AgentState(9.0, 0.0, 0.0, 1.0),
                                        AgentState(1.0, 3.7, 0.0, 4.0)), t) for t in (3, 4)]
    handle = PlannerHandle(n_modes=2, dt=dt)
    cands = sample_candidates(handle, joint.robot.speed, RngStream(3), 5)[0]
    ego_xys = np.stack([rollout_positions(joint.robot, c, dt) for c in cands])
    return joint, history, cands, ego_xys, _speeds(joint.robot, cands, dt)


def _speeds(robot, cands, dt):
    return rollout_speeds(np.full(len(cands), robot.speed),
                          np.stack([c.actions[:, 0] for c in cands]), dt)


@pytest.mark.parametrize("predictor_dt", [0.1, 0.2])
def test_predict_candidates_matches_predict(predictor_dt):
    """One block call equals the one-row call and the per-candidate formula
    for every candidate, with the templates made at the rollouts' dt;
    candidates in one bucket share one PredictionSet, and every set shares
    one template trajectory per (human, mode)."""
    params = _approach_sensitive_params()
    joint, history, cands, ego_xys, speeds = _candidate_fixture(predictor_dt)
    got = TablePredictor(params).predict(joint, history, ego_xys, speeds, TWO_LANE, 2,
                                         predictor_dt)
    assert len(got) == len(cands)
    trajs = {}
    sets = {}
    labels = set()
    for cand, pred in zip(cands, got):
        want = _predict_one(params, joint, history, cand, 2, predictor_dt)
        assert [[(m.label, m.prob, m.traj) for m in h] for h in pred.humans] == \
            [[(m.label, m.prob, m.traj) for m in h] for h in want.humans]
        assert [[(m.label, m.prob, m.traj.actions.tobytes()) for m in h]
                for h in pred.humans] == \
            _reference_predict(params, joint, history, cand, TWO_LANE, 2, predictor_dt)
        for i, modes in enumerate(pred.humans):
            for m in modes:
                assert m.traj.start_t == 5
                assert trajs.setdefault((i, m.label), m.traj) is m.traj
        key = tuple(_reference_approaching((h.x, h.y), joint.robot,
                                           rollout_positions(joint.robot, cand, predictor_dt))
                    for h in joint.humans)
        assert sets.setdefault(key, pred) is pred
        labels.add(pred.humans[0][0].label)
    assert len({id(p) for p in got}) == len(sets) >= 2
    assert labels == {"brake", "go_straight"}


def test_predict_candidates_without_humans():
    joint = JointState(AgentState(0.0, 0.0, 0.0, 5.0), (), 0)
    cands = sample_candidates(PlannerHandle(), joint.robot.speed, RngStream(1), 0)[0]
    ego_xys = np.stack([rollout_positions(joint.robot, c) for c in cands])
    got = TablePredictor(PredictorParams.fresh()).predict(
        joint, [], ego_xys, _speeds(joint.robot, cands, 0.1), TWO_LANE, 3, 0.1)
    assert len(got) == len(cands)
    assert all(p.humans == () for p in got)


_COORD = st.floats(-40.0, 40.0)
_ROWS = st.lists(st.lists(st.tuples(_COORD, _COORD), min_size=4, max_size=4),
                 min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(robot=st.tuples(_COORD, _COORD), human=st.tuples(_COORD, _COORD), rows=_ROWS,
       human_at_robot=st.booleans())
# Closest point exactly d_now - APPROACH_MARGIN away: 9.75 == 10 - 0.25.
@example(robot=(0.0, 0.0), human=(10.0, 0.0),
         rows=[[(0.0, 0.0), (0.25, 0.0), (0.125, 0.0), (0.0, 0.0)],
               [(0.0, 0.0), (0.25, 1e-9), (0.0, 0.0), (0.0, 0.0)],
               [(0.5, 0.0)] * 4], human_at_robot=False)
@example(robot=(3.0, -4.0), human=(0.0, 0.0),
         rows=[[(3.0, -4.0)] * 4, [(2.85, -3.8)] * 4, [(6.0, -8.0)] * 4],
         human_at_robot=False)
@example(robot=(1.5, 2.5), human=(0.0, 0.0), rows=[[(1.5, 2.5)] * 4, [(1.5, 2.75)] * 4],
         human_at_robot=True)
def test_approaching_flags_equal_the_per_row_formula(robot, human, rows, human_at_robot):
    """The block flags equal the per-candidate formula on every row, at the
    margin, for rows that never approach (the robot standing still or
    backing off) and for a human at the robot's position."""
    if human_at_robot:
        human = robot
    joint = JointState(AgentState(*robot, 0.3, 2.0), (AgentState(*human, 0.0, 1.0),), 0)
    still = [robot] * 4
    away = [(2 * robot[0] - human[0], 2 * robot[1] - human[1])] * 4
    ego_xys = np.array(rows + [still, away], dtype=float)
    d_now = _fixed_features(0, joint, [], TWO_LANE, 4)[3]
    flags = approaching_flags(joint.humans[0], d_now, ego_xys)
    want = [_reference_approaching((joint.humans[0].x, joint.humans[0].y), joint.robot, xy)
            for xy in ego_xys]
    assert flags == want
    assert flags[-2:] == [0, 0]
    assert [feature_bucket(0, joint, [], xy, TWO_LANE, 4)[2] for xy in ego_xys] == want
