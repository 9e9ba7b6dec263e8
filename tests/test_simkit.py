import base64
import copy
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regret_miner.core import (
    CAR_RADIUS,
    DT_DEFAULT,
    ROBOT_RADIUS,
    ActionTraj,
    AgentState,
    DrivingCorridor,
    JointState,
    RngStream,
    unicycle_step,
    wrap_angle,
)
from regret_miner.planner import PlannerHandle, ReplanEntry
from regret_miner.predictor import ModePrediction, PredictionSet
from regret_miner.simkit import (
    FAMILIES,
    RESUME_CLEAR_SECONDS,
    SCENE_SCHEMA,
    YIELD_PROBABILITY,
    HumanProfile,
    OraclePredictor,
    ScenarioSpec,
    SceneRecord,
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
from scene1_reference import scene1_dict, scene1_record

TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)


def _joint(robot, humans, t=0):
    return JointState(robot, tuple(humans), t)


def _floats(joint):
    """A JointState as human_policy_step's float states, robot first."""
    return [(s.x, s.y, s.heading, s.speed) for s in (joint.robot, *joint.humans)]


def test_stranded_profile_never_acts():
    p = HumanProfile("stranded", target_speed=0.0)
    assert p.never_moves
    me = AgentState(50, 0, 0, 0)
    joint = _joint(AgentState(0, 0, 0, 8), [me])
    for t in range(5):
        a, w = human_policy_step(p, 0, _floats(joint), TWO_LANE, RngStream(t), memory={})
        assert (a, w) == (0.0, 0.0)


def test_cruise_setpoint_equilibrium():
    # On lane center at target speed with an empty road, the controller is
    # already at its setpoint.
    p = HumanProfile("cruise", target_speed=6.0, reaction_radius=10.0)
    me = AgentState(50, 0, 0, 6.0)
    joint = _joint(AgentState(0, 0, 0, 6.0), [me])
    a, w = human_policy_step(p, 0, _floats(joint), TWO_LANE, RngStream(0), memory={})
    assert abs(a) < 1e-9
    assert abs(w) < 1e-9


def test_cruise_brakes_for_agent_ahead():
    p = HumanProfile("cruise", target_speed=6.0, reaction_radius=10.0)
    me = AgentState(50, 0, 0, 6.0)
    joint = _joint(AgentState(55, 0, 0, 0.0), [me])
    a, _ = human_policy_step(p, 0, _floats(joint), TWO_LANE, RngStream(0), memory={})
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
        human_policy_step(p, 0, _floats(joint), TWO_LANE, RngStream(777, i), memory=memory)
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
    _, near_states = simulate_humans(spec, joint, [dict()], charge, RngStream(77))
    _, far_states = simulate_humans(spec, joint, [dict()], hold, RngStream(77))
    diffs = [abs(a[1][0] - b[1][0]) + abs(a[1][3] - b[1][3])
             for a, b in zip(near_states, far_states)]
    assert max(diffs) > 0.1


def test_scene_jsonl_round_trip(tmp_path):
    specs = generate_scenario_batch("StoppedTraffic", 2, base_seed=31, horizon=20)
    recs = [run_closed_loop(s, PlannerHandle(horizon=10), OraclePredictor(), 10)
            for s in specs]
    path = tmp_path / "scenes.jsonl"
    scenes_to_jsonl(path, recs)
    first = path.read_text().splitlines()[0]
    assert '"schema": "scene/2"' in first
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
def two_human_scene():
    spec = generate_scenario_batch("StoppedTraffic", 1, base_seed=31, horizon=20)[0]
    return run_closed_loop(spec, PlannerHandle(horizon=10), OraclePredictor(), 10)


@pytest.fixture(scope="module")
def two_human_scene_dict(two_human_scene):
    """The scene as scene/1, from the reference encoder."""
    return scene1_dict(two_human_scene)


def test_scene_decode_round_trip_is_equal_and_read_only(two_human_scene):
    d = scene_to_dict(two_human_scene)
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


# (candidate, step, component) of replan 1, the value put there, the error.
_BAD_CANDIDATE_VALUES = [
    ((3, 2, 0), float("nan"), "actions must be finite"),
    ((5, 0, 1), float("inf"), "actions must be finite"),
    ((1, 4, 0), 4.5, "|accel| exceeds bound 4.0"),
    ((12, 9, 1), -1.25, "|turn_rate| exceeds bound 1.0"),
]


@pytest.mark.parametrize("where,value,msg", _BAD_CANDIDATE_VALUES)
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


# scene/2 against the scene/1 reference codec.

def _hexed(x):
    """x with every float as float.hex, so -0.0 and 0.0 differ; every array
    with its shape, dtype and writeability; every object with its type."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (bool, int, str)):
        return type(x).__name__, x
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.flags.writeable, _hexed(x.tolist())
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_hexed(v) for v in x]
    if isinstance(x, ActionTraj):
        return "ActionTraj", _hexed(x.actions), _hexed(x.start_t)
    assert dataclasses.is_dataclass(x), type(x)
    return type(x).__name__, {f.name: _hexed(getattr(x, f.name))
                              for f in dataclasses.fields(x)}


def _assert_codecs_agree(rec):
    """Decoding rec's scene/2 and scene/1 encodings gives the record the
    reference scene/1 reader gives."""
    want = _hexed(scene1_record(scene1_dict(rec)))
    got = scene_from_dict(scene_to_dict(rec))
    assert _hexed(got) == want
    assert _hexed(scene_from_dict(scene1_dict(rec))) == want
    return got


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308)
_COORD = st.one_of(st.sampled_from(_EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
# -pi - 4e-16 wraps to +pi, which a decode re-wraps to -pi.
_EDGE_HEADINGS = (-math.pi - 4e-16, -math.pi, math.nextafter(-math.pi, 0.0),
                  math.nextafter(math.nextafter(-math.pi, 0.0), 0.0),
                  math.pi, math.nextafter(math.pi, 0.0), -0.0)
_HEADING = st.one_of(st.sampled_from(_EDGE_HEADINGS), st.floats(-4.0, 4.0))
_SPEED = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1e308)), st.floats(0.0, 30.0))
_ACCEL = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 4.0, -4.0)), st.floats(-4.0, 4.0))
_TURN = st.one_of(st.sampled_from((0.0, -0.0, -5e-324, 1.0, -1.0)), st.floats(-1.0, 1.0))
_REWARD = st.one_of(st.sampled_from(_EDGE_FLOATS + (float("nan"), float("inf"))),
                    st.floats())


@st.composite
def _scene_records(draw):
    """Scene records of every shape the decoder must handle: 0-2 humans,
    a single frame, truncated last executed segments, candidates and mode
    trajectories of mixed lengths, aborted scenes with an empty replan log."""
    n_humans = draw(st.integers(0, 2))
    n_steps = draw(st.integers(0, 6))

    def agent():
        return AgentState(draw(_COORD), draw(_COORD), draw(_HEADING), draw(_SPEED))

    def traj(n, start_t):
        acts = [[draw(_ACCEL), draw(_TURN)] for _ in range(n)]
        return ActionTraj(np.array(acts, dtype=float), start_t=start_t)

    def trajs(k, start_t):
        lens = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        return [traj(n, start_t) for n in lens]

    states = [JointState(agent(), tuple(agent() for _ in range(n_humans)), t)
              for t in range(n_steps + 1)]
    every = draw(st.integers(1, 4))
    starts = list(range(0, n_steps, every))
    executed = [traj(min(every, n_steps - t), t) for t in starts]
    aborted = draw(st.booleans())
    if aborted:
        starts = starts[:draw(st.integers(0, len(starts)))]
    log = []
    for t in starts:
        k = draw(st.integers(1, 4))
        probs = [[1.0], [0.25, 0.75], [0.5, 0.5]]
        modes = [draw(st.sampled_from(probs)) for _ in range(n_humans)]
        mode_trajs = iter(trajs(sum(map(len, modes)), t))
        log.append(ReplanEntry(
            t=t,
            candidates=trajs(k, t),
            predicted_humans=PredictionSet(tuple(
                tuple(ModePrediction(f"m{j}", p, next(mode_trajs)) for j, p in enumerate(h))
                for h in modes)),
            candidate_rewards_predicted=[draw(_REWARD) for _ in range(k)],
            executed_index=draw(st.integers(0, k - 1)),
            predicted_reward_samples=[(draw(_REWARD), draw(_REWARD))
                                      for _ in range(draw(st.integers(0, 3)))],
        ))
    return SceneRecord(
        scenario_id=draw(st.text(max_size=8)),
        context=TWO_LANE,
        states=states,
        executed_robot=executed,
        human_actions=[traj(n_steps, 0) for _ in range(n_humans)] if n_steps else [],
        replan_log=log,
        per_frame_collision_cost=[draw(_REWARD) for _ in range(n_steps)],
        aborted=aborted,
        abort_reason="planner failed at t=0: empty candidate set" if aborted else "",
        human_radii=[CAR_RADIUS] * n_humans,
    )


@given(rec=_scene_records())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scene2_decodes_to_the_scene1_reference(rec):
    got = _assert_codecs_agree(rec)
    assert len(got.states) == len(rec.states)
    for tr in got.executed_robot + [c for e in got.replan_log for c in e.candidates]:
        assert not tr.actions.flags.writeable


def _edge_scene(n_humans, n_steps, *, heading=-math.pi, aborted=False):
    """A hand-built scene at the edges the property test draws from."""
    h0 = math.nextafter(-math.pi, 0.0)
    states = [JointState(AgentState(-0.0, 5e-324, heading, 1e308),
                         tuple(AgentState(1e308, -1e308, h0, -0.0) for _ in range(n_humans)), t)
              for t in range(n_steps + 1)]
    acts = np.array([[-0.0, 5e-324], [4.0, -1.0], [-4.0, 1.0]])
    executed = [ActionTraj(acts[:min(2, n_steps - t)], start_t=t)
                for t in range(0, n_steps, 2)]
    log = [] if aborted else [
        ReplanEntry(t=e.start_t,
                    candidates=[ActionTraj(acts[:n], start_t=e.start_t) for n in (3, 1, 2)],
                    predicted_humans=PredictionSet(tuple(
                        (ModePrediction("go", 1.0, ActionTraj(acts, start_t=e.start_t)),)
                        for _ in range(n_humans))),
                    candidate_rewards_predicted=[-0.0, 5e-324, -1e308],
                    executed_index=1,
                    predicted_reward_samples=[(-0.0, 1.0)])
        for e in executed]
    return SceneRecord("edge", TWO_LANE, states, executed,
                       [ActionTraj(np.tile(acts, (n_steps, 1))[:n_steps]) for _ in range(n_humans)]
                       if n_steps else [],
                       log, [0.0] * n_steps, aborted, "planner failed" if aborted else "",
                       [CAR_RADIUS] * n_humans)


@pytest.mark.parametrize("rec", [
    _edge_scene(2, 5),                          # truncated last executed segment
    _edge_scene(1, 4, heading=-math.pi - 4e-16),  # stored +pi, re-wrapped to -pi
    _edge_scene(0, 3),                          # no humans
    _edge_scene(2, 0, aborted=True),            # aborted at t=0: empty replan log
    _edge_scene(1, 0),                          # single frame
], ids=["truncated", "plus-pi", "no-humans", "aborted-empty-log", "single-frame"])
def test_scene2_decodes_edge_scenes_to_the_scene1_reference(rec):
    got = _assert_codecs_agree(rec)
    if rec.states[0].robot.heading == math.pi:
        assert got.states[0].robot.heading == -math.pi
    assert [len(c) for e in got.replan_log for c in e.candidates] == \
        [len(c) for e in rec.replan_log for c in e.candidates]
    assert len(got.states[0].humans) == len(rec.states[0].humans)


def test_scene2_decodes_a_closed_loop_scene_to_the_scene1_reference(two_human_scene):
    _assert_codecs_agree(two_human_scene)


def _block_array(block):
    return np.frombuffer(base64.b64decode(block["f8"]), dtype="<f8").reshape(block["shape"])


def _set_block(block, arr):
    block["shape"] = list(arr.shape)
    block["f8"] = base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode()


@pytest.mark.parametrize("where,value,msg", _BAD_CANDIDATE_VALUES)
def test_scene2_decode_rejects_a_bad_candidate_block(two_human_scene, where, value, msg):
    d = scene_to_dict(two_human_scene)
    k, step, comp = where
    cands = d["replan_log"][1]["candidates"]
    flat = _block_array(cands["actions"]).copy()
    flat[sum(cands["len"][:k]) + step, comp] = value
    _set_block(cands["actions"], flat)
    with pytest.raises(ValueError) as err:
        scene_from_dict(d)
    assert str(err.value) == msg
    d = scene_to_dict(two_human_scene)
    d["replan_log"][0]["candidates"]["start_t"][2] = -1
    with pytest.raises(ValueError, match="start_t must be >= 0, got -1"):
        scene_from_dict(d)


@pytest.mark.parametrize("field", ["states", "executed_robot", "human_actions",
                                   "candidates", "modes"])
def test_scene2_bad_values_raise_the_scene1_messages(two_human_scene, field):
    d1, d2 = scene1_dict(two_human_scene), scene_to_dict(two_human_scene)
    if field == "states":
        d1["states"][2]["humans"][1][3] = -0.5
        arr = _block_array(d2["states"]).copy()
        arr[2, 2, 3] = -0.5
        _set_block(d2["states"], arr)
    else:
        if field in ("executed_robot", "human_actions"):
            trajs1, trajs2 = d1[field], d2[field]
        elif field == "candidates":
            trajs1, trajs2 = d1["replan_log"][1]["candidates"], d2["replan_log"][1]["candidates"]
        else:
            trajs1 = [m["traj"] for h in d1["replan_log"][1]["predicted_humans"] for m in h]
            trajs2 = d2["replan_log"][1]["predicted_humans"]["trajs"]
        trajs1[1]["actions"][0][1] = float("nan")
        arr = _block_array(trajs2["actions"]).copy()
        arr[trajs2["len"][0], 1] = float("nan")
        _set_block(trajs2["actions"], arr)
    with pytest.raises(ValueError) as err1:
        scene_from_dict(d1)
    with pytest.raises(ValueError) as err2:
        scene_from_dict(d2)
    assert str(err2.value) == str(err1.value)


@pytest.mark.parametrize("path,name", [
    (("states",), "states"),
    (("executed_robot", "actions"), "executed_robot"),
    (("human_actions", "actions"), "human_actions"),
    (("replan_log", 1, "candidates", "actions"), "replan_log[1].candidates"),
    (("replan_log", 0, "predicted_humans", "trajs", "actions"),
     "replan_log[0].predicted_humans"),
])
def test_scene2_block_of_the_wrong_size_names_its_field(two_human_scene, path, name):
    for cut in (8, 1):
        d = scene_to_dict(two_human_scene)
        block = d
        for key in path:
            block = block[key]
        raw = base64.b64decode(block["f8"])
        block["f8"] = base64.b64encode(raw[:-cut]).decode()
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: block holds {len(raw) - cut} bytes"):
            scene_from_dict(d)


def test_scene2_lengths_must_fit_the_block(two_human_scene):
    d = scene_to_dict(two_human_scene)
    d["replan_log"][1]["candidates"]["len"][0] += 1
    with pytest.raises(ValueError, match=r"^replan_log\[1\]\.candidates: "):
        scene_from_dict(d)
    d = scene_to_dict(two_human_scene)
    d["t"].pop()
    with pytest.raises(ValueError, match="^states: "):
        scene_from_dict(d)
    d = scene_to_dict(two_human_scene)
    d["replan_log"][0]["predicted_humans"]["label"][1].pop()
    with pytest.raises(ValueError, match=r"^replan_log\[0\]\.predicted_humans: "):
        scene_from_dict(d)


@pytest.mark.parametrize("schema", ["scene/0", "scene/3", None])
def test_scene_decode_rejects_an_unknown_schema(two_human_scene, schema):
    d = scene_to_dict(two_human_scene)
    assert d["schema"] == SCENE_SCHEMA == "scene/2"
    d["schema"] = schema
    with pytest.raises(ValueError, match=f"unsupported schema {schema!r}"):
        scene_from_dict(d)


# The human simulation written on AgentState and JointState, one validated
# state per agent per step, as the package stepped humans before the float
# kernel: the reference simulate_humans must equal.

def _ref_agents_ahead(me, others, reach, lateral_window=2.0):
    c, s = math.cos(me.heading), math.sin(me.heading)
    for other, r in others:
        dx, dy = other.x - me.x, other.y - me.y
        proj = dx * c + dy * s
        lat = abs(-dx * s + dy * c)
        if 0.0 < proj < reach + r and lat < lateral_window:
            return True
    return False


def _ref_others_of(idx_self, joint, radii):
    out = [(joint.robot, ROBOT_RADIUS)]
    for j, h in enumerate(joint.humans):
        if j != idx_self:
            out.append((h, radii[j] if j < len(radii) else CAR_RADIUS))
    return out


def _ref_cruise_action(profile, me, ctx, others):
    if isinstance(ctx, DrivingCorridor):
        center = ctx.nearest_center(me.y)
        desired = min(max(-0.4 * (me.y - center), -0.5), 0.5)
        w = min(max(2.0 * wrap_angle(desired - me.heading), -1.0), 1.0)
    else:
        w = 0.0
    if _ref_agents_ahead(me, others, profile.reaction_radius):
        a = -3.0 if me.speed > 0 else 0.0
    else:
        a = min(max(0.6 * (profile.target_speed - me.speed), -2.0), 2.0)
    return a, w


def _ref_policy_step(profile, me, joint, ctx, rng, memory, radii):
    if profile.never_moves or profile.mode == "stranded":
        return (0.0, 0.0)
    idx_self = next((j for j, h in enumerate(joint.humans) if h is me), None)
    others = _ref_others_of(idx_self if idx_self is not None else -1, joint, radii)
    if profile.mode == "cruise":
        return _ref_cruise_action(profile, me, ctx, others)
    if profile.mode == "yield_if_close":
        if me.distance_to(joint.robot) < profile.reaction_radius:
            return (-3.5 if me.speed > 0 else 0.0, 0.0)
        return _ref_cruise_action(profile, me, ctx, others)
    if profile.mode == "stopped":
        if not memory.get("resumed", False):
            clear = not _ref_agents_ahead(me, others, profile.reaction_radius)
            memory["clear_steps"] = memory.get("clear_steps", 0) + 1 if clear else 0
            if memory["clear_steps"] >= int(round(RESUME_CLEAR_SECONDS / DT_DEFAULT)):
                memory["resumed"] = True
            else:
                return (-3.0 if me.speed > 0 else 0.0, 0.0)
        return _ref_cruise_action(profile, me, ctx, others)
    assert profile.mode == "intersection_cross"
    robot = joint.robot
    if memory.get("yield_latch") is None:
        approaching = robot.x < me.x + 1.0
        t_arrive = (me.x - robot.x) / max(robot.speed, 0.5)
        if approaching and 0.0 <= t_arrive <= 4.0:
            memory["yield_latch"] = bool(rng.generator().uniform() < YIELD_PROBABILITY)
    if memory.get("yield_latch") is True and robot.x < me.x + 3.0:
        return (-3.0 if me.speed > 0 else 0.0, 0.0)
    if "cross_dir" not in memory:
        memory["cross_dir"] = 1.0 if abs(wrap_angle(me.heading - math.pi / 2)) < math.pi / 2 else -1.0
    w = min(max(2.0 * wrap_angle(memory["cross_dir"] * math.pi / 2 - me.heading), -1.0), 1.0)
    a = min(max(0.8 * (profile.target_speed - me.speed), -2.0), 2.0)
    return a, w


def _ref_simulate_humans(spec, joint, memories, ego_actions, rng_root, dt=DT_DEFAULT):
    profiles = [p for _, p in spec.humans]
    radii = [p.radius for p in profiles]
    M, T = len(profiles), len(ego_actions)
    robot, humans = joint.robot, list(joint.humans)
    actions = np.zeros((M, T, 2))
    human_states, robot_states = [], []
    for k in range(T):
        now = JointState(robot, tuple(humans), joint.t + k)
        for i in range(M):
            rng = rng_root.derive(1, i, joint.t + k)
            actions[i, k] = _ref_policy_step(profiles[i], humans[i], now, spec.context,
                                             rng, memories[i], radii)
        robot = unicycle_step(robot, float(ego_actions[k, 0]), float(ego_actions[k, 1]), dt)
        humans = [unicycle_step(h, float(actions[i, k, 0]), float(actions[i, k, 1]), dt)
                  for i, h in enumerate(humans)]
        human_states.append(tuple(humans))
        robot_states.append(robot)
    return actions, human_states, robot_states


def _hex(*values):
    """Exact float values; float.hex tells -0.0 from 0.0."""
    return [float(v).hex() for v in values]


# Memory keys each scene's humans must reach, so every policy branch runs.
_FAMILY_MEMORY = {"StrandedTruck": set(), "StoppedTraffic": {"resumed"},
                  "Intersection": {"yield_latch", "cross_dir"},
                  "SparseCruise": set(), "NavWorld": set(), "UTurn": set()}


def _reference_spec(name):
    if name != "UTurn":
        return generate_scenario_batch(name, 1, base_seed=4, horizon=200)[0]
    # A car facing back down the corridor turns round at the turn limit,
    # through headings in [-pi, -pi/2) that no family reaches.
    car = AgentState(30.0, 3.7, -3.0, 5.0)
    return ScenarioSpec(TWO_LANE, AgentState(0.0, 0.0, 0.0, 8.0),
                        ((car, HumanProfile("cruise", target_speed=5.0)),),
                        horizon=200, seed=9, scenario_id="u-turn")


@pytest.mark.parametrize("name", [*FAMILIES, "UTurn"])
def test_simulate_humans_equals_agentstate_reference(name):
    spec = _reference_spec(name)
    rec = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    assert not rec.aborted
    ego = np.concatenate([e.actions for e in rec.executed_robot])
    root = RngStream(spec.seed)
    memories, ref_memories = [{} for _ in spec.humans], [{} for _ in spec.humans]
    joint = rec.states[0]
    ref_states = []
    # Two calls, so the second starts at t > 0 with memories already set.
    for lo, hi in ((0, 90), (90, len(ego))):
        actions, states = simulate_humans(spec, joint, memories, ego[lo:hi], root)
        ref_actions, ref_humans, ref_robots = _ref_simulate_humans(
            spec, joint, ref_memories, ego[lo:hi], root)
        assert actions.shape == ref_actions.shape == (len(spec.humans), hi - lo, 2)
        assert actions.tobytes() == ref_actions.tobytes()
        assert len(states) == hi - lo
        for step, robot, humans in zip(states, ref_robots, ref_humans):
            ref_agents = [_hex(a.x, a.y, a.heading, a.speed) for a in (robot, *humans)]
            assert [_hex(*s[:4]) for s in step] == ref_agents
            assert [_hex(a.x, a.y, a.heading, a.speed) for a in
                    (AgentState(x, y, once, v) for x, y, _, v, once in step)] == ref_agents
            ref_states.append(ref_agents)
        assert memories == ref_memories
        joint = JointState(ref_robots[-1], ref_humans[-1], hi)
    assert _FAMILY_MEMORY[name] <= set().union(*memories)
    # The engine recorded the reference states.
    assert [[_hex(a.x, a.y, a.heading, a.speed) for a in (js.robot, *js.humans)]
            for js in rec.states[1:]] == ref_states


@pytest.mark.parametrize("family", ["StoppedTraffic", "Intersection"])
def test_oracle_predict_leaves_engine_memories_unchanged(family):
    spec = generate_scenario_batch(family, 1, base_seed=4, horizon=10)[0]
    oracle = OraclePredictor()
    rec = run_closed_loop(spec, PlannerHandle(), oracle, 10)
    memories = oracle._binding.memories
    before = copy.deepcopy(memories)
    dicts = [id(m) for m in memories]
    joint = rec.states[-1]
    cand = rec.replan_log[0].candidates[12]  # accel 1.0: the walker latches its yield
    # Simulating the candidate from these memories writes to them, so a
    # predict that did not copy them would show here.
    touched = copy.deepcopy(before)
    ref_actions, _, _ = _ref_simulate_humans(spec, joint, touched, cand.actions,
                                             RngStream(spec.seed))
    assert touched != before
    first = oracle.predict(joint, [], cand, spec.context)
    assert memories == before and [id(m) for m in memories] == dicts
    assert oracle.predict(joint, [], cand, spec.context) == first
    for i, modes in enumerate(first.humans):
        assert modes[0].traj.start_t == joint.t
        assert modes[0].traj.actions.tobytes() == ref_actions[i].tobytes()
