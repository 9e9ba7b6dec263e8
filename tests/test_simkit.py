import copy
import math

import numpy as np
import pytest

from regret_miner.core import AgentState, DrivingCorridor, JointState, RngStream
from regret_miner.planner import PlannerHandle
from regret_miner.simkit import (
    FAMILIES,
    HumanProfile,
    OraclePredictor,
    ScenarioSpec,
    generate_scenario_batch,
    human_policy_step,
    replay_max_deviation,
    run_closed_loop,
    scene_from_dict,
    scene_to_dict,
    scenes_from_jsonl,
    scenes_to_jsonl,
    simulate_humans,
)

TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)


def _joint(robot, humans, t=0):
    return JointState(robot, tuple(humans), t)


def test_stranded_profile_never_acts():
    p = HumanProfile("stranded", target_speed=0.0)
    assert p.never_moves
    me = AgentState(50, 0, 0, 0)
    joint = _joint(AgentState(0, 0, 0, 8), [me])
    for t in range(5):
        a, w = human_policy_step(p, me, joint, TWO_LANE, RngStream(t), memory={})
        assert (a, w) == (0.0, 0.0)


def test_cruise_setpoint_equilibrium():
    # On lane center at target speed with an empty road, the controller is
    # already at its setpoint.
    p = HumanProfile("cruise", target_speed=6.0, reaction_radius=10.0)
    me = AgentState(50, 0, 0, 6.0)
    joint = _joint(AgentState(0, 0, 0, 6.0), [me])
    a, w = human_policy_step(p, me, joint, TWO_LANE, RngStream(0), memory={})
    assert abs(a) < 1e-9
    assert abs(w) < 1e-9


def test_cruise_brakes_for_agent_ahead():
    p = HumanProfile("cruise", target_speed=6.0, reaction_radius=10.0)
    me = AgentState(50, 0, 0, 6.0)
    joint = _joint(AgentState(55, 0, 0, 0.0), [me])
    a, _ = human_policy_step(p, me, joint, TWO_LANE, RngStream(0), memory={})
    assert a == -3.0


def test_intersection_yield_frequency():
    """Monte Carlo: the crossing agent on a collision course yields with
    probability 0.8 +/- 0.02."""
    p = HumanProfile("intersection_cross", target_speed=1.2, reaction_radius=15.0)
    me = AgentState(55, -4, math.pi / 2, 1.2)
    joint = _joint(AgentState(50, 0, 0, 8.0), [me])
    yields = 0
    n = 10_000
    for i in range(n):
        memory: dict = {}
        human_policy_step(p, me, joint, TWO_LANE, RngStream(777, i), memory=memory)
        assert memory.get("yield_latch") is not None  # on course by construction
        yields += bool(memory["yield_latch"])
    assert abs(yields / n - 0.8) < 0.02


def test_run_closed_loop_replan_count():
    spec = generate_scenario_batch("SparseCruise", 1, base_seed=5, horizon=10)[0]
    rec = run_closed_loop(spec, PlannerHandle(horizon=5), OraclePredictor(),
                          replan_every=5)
    assert [e.t for e in rec.replan_log] == [0, 5]
    assert len(rec.states) == 11


def test_run_closed_loop_rejects_bad_replan():
    spec = generate_scenario_batch("SparseCruise", 1, base_seed=5, horizon=10)[0]
    with pytest.raises(ValueError):
        run_closed_loop(spec, PlannerHandle(), OraclePredictor(), replan_every=3)
    with pytest.raises(ValueError):
        run_closed_loop(spec, PlannerHandle(), OraclePredictor(), replan_every=0)


def test_empty_humans_scene_makes_progress():
    spec = ScenarioSpec(TWO_LANE, AgentState(0, 0, 0, 8.0), (), horizon=30,
                        seed=3, scenario_id="empty-road")
    rec = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    assert rec.states[-1].robot.x > rec.states[0].robot.x


def test_stranded_truck_with_oracle_has_no_collisions():
    specs = generate_scenario_batch("StrandedTruck", 4, base_seed=11, horizon=60)
    for spec in specs:
        rec = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
        assert rec.collision_frames == 0
        assert not rec.aborted


def test_batch_ids_unique_and_deterministic():
    a = generate_scenario_batch("Intersection", 96, base_seed=42)
    assert len({s.scenario_id for s in a}) == 96
    b = generate_scenario_batch("Intersection", 96, base_seed=42)
    for sa, sb in zip(a, b):
        assert sa.scenario_id == sb.scenario_id
        assert sa.seed == sb.seed
        assert sa.robot_init == sb.robot_init
        assert sa.humans == sb.humans


def test_batch_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate_scenario_batch("FlyingSaucer", 3, base_seed=0)
    with pytest.raises(ValueError):
        generate_scenario_batch("StrandedTruck", 0, base_seed=0)


def test_stranded_family_profile():
    for spec in generate_scenario_batch("StrandedTruck", 8, base_seed=1):
        modes = [p.mode for _, p in spec.humans]
        assert modes.count("stranded") == 1


def test_every_family_runs_closed_loop():
    for fam in FAMILIES:
        spec = generate_scenario_batch(fam, 1, base_seed=2, horizon=20)[0]
        rec = run_closed_loop(spec, PlannerHandle(horizon=10), OraclePredictor(), 10)
        assert len(rec.replan_log) == 2
        assert not rec.aborted


def test_replay_property():
    """Re-integrating logged actions reproduces logged states within 1e-9."""
    for fam in ("StrandedTruck", "Intersection", "SparseCruise"):
        spec = generate_scenario_batch(fam, 1, base_seed=9, horizon=40)[0]
        rec = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
        assert replay_max_deviation(rec) < 1e-9


def test_collision_cost_zero_without_overlap():
    spec = generate_scenario_batch("SparseCruise", 1, base_seed=21, horizon=40)[0]
    rec = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    # adjacent-lane traffic: no contact, so every frame cost is exactly 0
    assert rec.collision_frames == 0
    assert all(c == 0.0 for c in rec.per_frame_collision_cost)


def test_executed_always_in_candidates():
    spec = generate_scenario_batch("Intersection", 1, base_seed=13, horizon=30)[0]
    rec = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    ts = [e.t for e in rec.replan_log]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    for entry, executed in zip(rec.replan_log, rec.executed_robot):
        chosen = entry.candidates[entry.executed_index]
        np.testing.assert_array_equal(executed.actions,
                                      chosen.actions[:len(executed)])


def test_yield_if_close_reactivity():
    """Paired runs differing only in the robot's actions produce different
    realized trajectories for a YieldIfClose human."""
    start = AgentState(12, 0, 0, 5.0)
    profile = HumanProfile("yield_if_close", target_speed=5.0, reaction_radius=8.0)
    spec = ScenarioSpec(TWO_LANE, AgentState(0, 0, 0, 8.0),
                        ((start, profile),), horizon=20, seed=77,
                        scenario_id="paired")
    joint = JointState(spec.robot_init, (start,), 0)
    charge = np.column_stack([np.full(20, 1.0), np.zeros(20)])
    hold = np.column_stack([np.full(20, -3.0), np.zeros(20)])
    _, near_states, _ = simulate_humans(spec, joint, [dict()], charge, RngStream(77))
    _, far_states, _ = simulate_humans(spec, joint, [dict()], hold, RngStream(77))
    diffs = [abs(a[0].x - b[0].x) + abs(a[0].speed - b[0].speed)
             for a, b in zip(near_states, far_states)]
    assert max(diffs) > 0.1


def test_scene_jsonl_round_trip(tmp_path):
    specs = generate_scenario_batch("StoppedTraffic", 2, base_seed=31, horizon=20)
    recs = [run_closed_loop(s, PlannerHandle(horizon=10), OraclePredictor(), 10)
            for s in specs]
    path = tmp_path / "scenes.jsonl"
    scenes_to_jsonl(path, recs)
    first = path.read_text().splitlines()[0]
    assert '"schema": "scene/1"' in first
    loaded = scenes_from_jsonl(path)
    assert len(loaded) == 2
    for orig, back in zip(recs, loaded):
        assert back.scenario_id == orig.scenario_id
        assert len(back.states) == len(orig.states)
        for a, b in zip(orig.states, back.states):
            assert a.robot.x == b.robot.x and a.robot.speed == b.robot.speed
            for ha, hb in zip(a.humans, b.humans):
                assert (ha.x, ha.y, ha.heading, ha.speed) == (hb.x, hb.y, hb.heading, hb.speed)
        for ea, eb in zip(orig.replan_log, back.replan_log):
            assert ea.t == eb.t and ea.executed_index == eb.executed_index
            assert ea.candidate_rewards_predicted == pytest.approx(
                eb.candidate_rewards_predicted)
        assert replay_max_deviation(back) < 1e-9


@pytest.fixture(scope="module")
def two_human_scene_dict():
    spec = generate_scenario_batch("StoppedTraffic", 1, base_seed=31, horizon=20)[0]
    return scene_to_dict(run_closed_loop(spec, PlannerHandle(horizon=10), OraclePredictor(), 10))


def test_scene_decode_round_trip_is_equal_and_read_only(two_human_scene_dict):
    d = two_human_scene_dict
    rec = scene_from_dict(d)
    assert scene_to_dict(rec) == d
    again = scene_from_dict(scene_to_dict(rec))
    trajs = [*rec.executed_robot, *rec.human_actions]
    for e, e2 in zip(rec.replan_log, again.replan_log):
        assert e.candidates == e2.candidates
        assert e.predicted_humans == e2.predicted_humans
        trajs += e.candidates + [m.traj for h in e.predicted_humans.humans for m in h]
    assert rec.executed_robot == again.executed_robot
    assert rec.human_actions == again.human_actions
    for tr in trajs:
        assert not tr.actions.flags.writeable
        with pytest.raises(ValueError):
            tr.actions[0, 0] = 0.5


@pytest.mark.parametrize("where,value,msg", [
    ((3, 2, 0), float("nan"), "actions must be finite"),
    ((5, 0, 1), float("inf"), "actions must be finite"),
    ((1, 4, 0), 4.5, "|accel| exceeds bound 4.0"),
    ((12, 9, 1), -1.25, "|turn_rate| exceeds bound 1.0"),
])
def test_scene_decode_rejects_a_bad_candidate_block(two_human_scene_dict, where, value, msg):
    d = copy.deepcopy(two_human_scene_dict)
    k, step, comp = where
    d["replan_log"][1]["candidates"][k]["actions"][step][comp] = value
    with pytest.raises(ValueError) as err:
        scene_from_dict(d)
    assert str(err.value) == msg
    d = copy.deepcopy(two_human_scene_dict)
    d["replan_log"][0]["candidates"][2]["start_t"] = -1
    with pytest.raises(ValueError, match="start_t must be >= 0, got -1"):
        scene_from_dict(d)


def test_scene_decode_mixed_length_candidates(two_human_scene_dict):
    d = copy.deepcopy(two_human_scene_dict)
    cands = d["replan_log"][0]["candidates"]
    cands[4]["actions"] = cands[4]["actions"][:3]
    rec = scene_from_dict(d)
    assert [len(c) for c in rec.replan_log[0].candidates] == [len(c["actions"]) for c in cands]
    cands[6]["actions"][1] = [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        scene_from_dict(d)
