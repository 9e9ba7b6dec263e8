import copy
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regret_miner import simkit
from regret_miner.core import (
    CAR_RADIUS,
    DT_DEFAULT,
    ROBOT_RADIUS,
    ActionTraj,
    AgentState,
    DrivingCorridor,
    JointState,
    JointStates,
    NavWorld,
    RngStream,
    wrap_angle,
)
from regret_miner.planner import PlannerHandle, ReplanEntry, plan
from regret_miner.predictor import ModePrediction, PredictionSet, PredictorParams, TablePredictor
from regret_miner.simkit import (
    _STREAM_PLANNER,
    FAMILIES,
    HUMAN_MODES,
    RESUME_CLEAR_SECONDS,
    SCENE_SCHEMA,
    YIELD_PROBABILITY,
    HumanProfile,
    OraclePredictor,
    ScenarioSpec,
    SceneRecord,
    _SceneBinding,
    generate_scenario_batch,
    human_policy,
    replay_max_deviation,
    robot_views,
    run_closed_loop,
    scene_from_dict,
    scene_to_dict,
    scenes_from_jsonl,
    scenes_to_jsonl,
    simulate_humans,
    step_humans,
)
from kinematics_reference import footprint_overlap, one_row, unicycle_step
from scene1_reference import scene1_dict, scene1_record

TWO_LANE = DrivingCorridor(lane_centers=(0.0, 3.7), lane_width=3.7, length=400.0)


def _joint(robot, humans, t=0):
    return JointState(robot, tuple(humans), t)


def _floats(joint):
    """A JointState as the human policies' float states, robot first."""
    return [(s.x, s.y, s.heading, s.speed) for s in (joint.robot, *joint.humans)]


def test_stranded_profile_never_acts():
    p = HumanProfile("stranded", target_speed=0.0)
    assert p.never_moves
    me = AgentState(50, 0, 0, 0)
    states = _floats(_joint(AgentState(0, 0, 0, 8), [me]))
    for t in range(5):
        memory: dict = {}
        view = robot_views(p, 0, states, memory, [states[0]])[0]
        a, w = human_policy(p, 0, states, TWO_LANE, RngStream(t), memory, (), view, DT_DEFAULT)
        assert (a, w) == (0.0, 0.0)


def test_cruise_setpoint_equilibrium():
    # On lane center at target speed with an empty road, the controller is
    # already at its setpoint.
    p = HumanProfile("cruise", target_speed=6.0, reaction_radius=10.0)
    me = AgentState(50, 0, 0, 6.0)
    states = _floats(_joint(AgentState(0, 0, 0, 6.0), [me]))
    view = robot_views(p, 0, states, {}, [states[0]])[0]
    a, w = human_policy(p, 0, states, TWO_LANE, RngStream(0), {}, (), view, DT_DEFAULT)
    assert abs(a) < 1e-9
    assert abs(w) < 1e-9


def test_cruise_brakes_for_agent_ahead():
    p = HumanProfile("cruise", target_speed=6.0, reaction_radius=10.0)
    me = AgentState(50, 0, 0, 6.0)
    states = _floats(_joint(AgentState(55, 0, 0, 0.0), [me]))
    view = robot_views(p, 0, states, {}, [states[0]])[0]
    a, _ = human_policy(p, 0, states, TWO_LANE, RngStream(0), {}, (), view, DT_DEFAULT)
    assert a == -3.0


def test_intersection_yield_frequency():
    """Monte Carlo: the crossing agent on a collision course yields with
    probability 0.8 +/- 0.02."""
    p = HumanProfile("intersection_cross", target_speed=1.2, reaction_radius=15.0)
    me = AgentState(55, -4, math.pi / 2, 1.2)
    states = _floats(_joint(AgentState(50, 0, 0, 8.0), [me]))
    yields = 0
    n = 10_000
    for i in range(n):
        memory: dict = {}
        view = robot_views(p, 0, states, memory, [states[0]])[0]
        human_policy(p, 0, states, TWO_LANE, RngStream(777, i), memory, (), view, DT_DEFAULT)
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


@pytest.mark.parametrize("family", FAMILIES)
def test_table_closed_loop_records_the_reference_states(family):
    # The engine builds each executed segment's states as one block; they
    # equal stepping AgentState with unicycle_step through the logged actions.
    spec = generate_scenario_batch(family, 1, base_seed=5, horizon=40)[0]
    rec = run_closed_loop(spec, PlannerHandle(), TablePredictor(PredictorParams.fresh()), 10)
    assert not rec.aborted and replay_max_deviation(rec) == 0.0
    acts = [np.concatenate([e.actions for e in rec.executed_robot]).tolist()]
    acts += [h.actions.tolist() for h in rec.human_actions]
    agents = [rec.states[0].robot, *rec.states[0].humans]
    for k, js in enumerate(rec.states[1:]):
        agents = [unicycle_step(a, *acts[j][k]) for j, a in enumerate(agents)]
        assert js.t == k + 1 and isinstance(js.humans, tuple)
        assert [_hex(a.x, a.y, a.heading, a.speed) for a in (js.robot, *js.humans)] == \
            [_hex(a.x, a.y, a.heading, a.speed) for a in agents]


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
    _, near_states = simulate_humans(spec, joint, [dict()], charge, RngStream(77), DT_DEFAULT)
    _, far_states = simulate_humans(spec, joint, [dict()], hold, RngStream(77), DT_DEFAULT)
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
    assert '"schema": "scene/3"' in first
    assert json.loads(first)["dt"] == DT_DEFAULT
    assert simkit.sidecar_path(path) == tmp_path / "scenes.bin"
    spans = [scene_to_dict(r)[1] for r in recs]
    assert (tmp_path / "scenes.bin").read_bytes() == b"".join(spans)
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
    d, span = scene_to_dict(two_human_scene)
    rec = scene_from_dict(d, span)
    assert scene_to_dict(rec) == (d, span)
    again = scene_from_dict(*scene_to_dict(rec))
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
def test_scene_decode_rejects_a_bad_candidate_block(two_human_scene, two_human_scene_dict,
                                                   where, value, msg):
    """A bad candidate value raises msg in the scene/1 reference decoder,
    and the same message in the scene/3 decode."""
    k, step, comp = where
    d1 = copy.deepcopy(two_human_scene_dict)
    d1["replan_log"][1]["candidates"][k]["actions"][step][comp] = value
    d2, span = _encoded(two_human_scene)
    cands = d2["replan_log"][1]["candidates"]
    flat = _block_array(span, cands["actions"])
    flat[sum(cands["len"][:k]) + step, comp] = value
    _set_block(d2, span, cands["actions"], flat)
    for decode in (lambda: scene1_record(d1), lambda: scene_from_dict(d2, span)):
        with pytest.raises(ValueError) as err:
            decode()
        assert str(err.value) == msg
    d1 = copy.deepcopy(two_human_scene_dict)
    d1["replan_log"][0]["candidates"][2]["start_t"] = -1
    d2, span = scene_to_dict(two_human_scene)
    d2["replan_log"][0]["candidates"]["start_t"][2] = -1
    for decode in (lambda: scene1_record(d1), lambda: scene_from_dict(d2, span)):
        with pytest.raises(ValueError, match="start_t must be >= 0, got -1"):
            decode()


# scene/3 against the scene/1 reference codec. The tests named scene2 were
# written for the base64 scene/2 blocks and now check the scene/3 decode.

def _hexed(x):
    """x with every float as float.hex, so -0.0 and 0.0 differ; every array
    with its shape, dtype and writeability; every object with its type; a
    JointStates as the sequence of its JointStates."""
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
    if isinstance(x, JointStates):
        return "JointStates", [_hexed(js) for js in x]
    assert dataclasses.is_dataclass(x), type(x)
    return type(x).__name__, {f.name: _hexed(getattr(x, f.name))
                              for f in dataclasses.fields(x)}


def _assert_codecs_agree(rec):
    """Decoding rec's scene/3 encoding gives the record the reference
    scene/1 reader gives for its scene/1 encoding."""
    got = scene_from_dict(*scene_to_dict(rec))
    assert _hexed(got) == _hexed(scene1_record(scene1_dict(rec)))
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
        dt=DT_DEFAULT,
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
                       [CAR_RADIUS] * n_humans, DT_DEFAULT)


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


def _encoded(rec):
    """rec's scene/3 line and a mutable copy of its span."""
    d, span = scene_to_dict(rec)
    return d, bytearray(span)


def _block_array(span, block):
    """A writable copy of the float64 array of a {"shape", "at"} block."""
    return np.frombuffer(bytes(span), dtype="<f8", count=math.prod(block["shape"]),
                         offset=block["at"]).reshape(block["shape"]).copy()


def _set_block(d, span, block, arr):
    """Write arr, of the block's shape, over the block's bytes of span, and
    record the span's new SHA-256 in the line d."""
    assert list(arr.shape) == block["shape"]
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    span[block["at"]:block["at"] + len(raw)] = raw
    d["bin"]["sha256"] = hashlib.sha256(span).hexdigest()


def _write_scenes(path, encoded, end="\n"):
    """Write (line, span) pairs as a .jsonl file, each line followed by end,
    and its sidecar, each line's "bin" offset set to where its span lands."""
    at = 0
    for d, span in encoded:
        d["bin"]["at"] = at
        at += len(span)
    simkit.sidecar_path(path).write_bytes(b"".join(bytes(span) for _, span in encoded))
    path.write_text("".join(json.dumps(d) + end for d, _ in encoded))


@pytest.mark.parametrize("where,value,msg", _BAD_CANDIDATE_VALUES)
def test_scene2_decode_rejects_a_bad_candidate_block(two_human_scene, where, value, msg):
    d, span = _encoded(two_human_scene)
    k, step, comp = where
    cands = d["replan_log"][1]["candidates"]
    flat = _block_array(span, cands["actions"])
    flat[sum(cands["len"][:k]) + step, comp] = value
    _set_block(d, span, cands["actions"], flat)
    with pytest.raises(ValueError) as err:
        scene_from_dict(d, span)
    assert str(err.value) == msg
    d, span = scene_to_dict(two_human_scene)
    d["replan_log"][0]["candidates"]["start_t"][2] = -1
    with pytest.raises(ValueError, match="start_t must be >= 0, got -1"):
        scene_from_dict(d, span)


@pytest.mark.parametrize("field", ["states", "executed_robot", "human_actions",
                                   "candidates", "modes"])
def test_scene2_bad_values_raise_the_scene1_messages(two_human_scene, field):
    d1 = scene1_dict(two_human_scene)
    d2, span = _encoded(two_human_scene)
    if field == "states":
        d1["states"][2]["humans"][1][3] = -0.5
        arr = _block_array(span, d2["states"])
        arr[2, 2, 3] = -0.5
        _set_block(d2, span, d2["states"], arr)
    else:
        if field in ("executed_robot", "human_actions"):
            trajs1, trajs2 = d1[field], d2[field]
        elif field == "candidates":
            trajs1, trajs2 = d1["replan_log"][1]["candidates"], d2["replan_log"][1]["candidates"]
        else:
            trajs1 = [m["traj"] for h in d1["replan_log"][1]["predicted_humans"] for m in h]
            trajs2 = d2["replan_log"][1]["predicted_humans"]["trajs"]
        trajs1[1]["actions"][0][1] = float("nan")
        arr = _block_array(span, trajs2["actions"])
        arr[trajs2["len"][0], 1] = float("nan")
        _set_block(d2, span, trajs2["actions"], arr)
    with pytest.raises(ValueError) as err1:
        scene1_record(d1)
    with pytest.raises(ValueError) as err2:
        scene_from_dict(d2, span)
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
    """A block that runs past the scene's span, by 8 bytes or by 1, by a
    shape that needs more bytes than the span holds, or at a negative
    offset or shape, is a ValueError naming its field."""
    _, span = scene_to_dict(two_human_scene)
    edits = [
        lambda b: b.update(at=len(span) - 8 * math.prod(b["shape"]) + 8),
        lambda b: b.update(at=len(span) - 8 * math.prod(b["shape"]) + 1),
        lambda b: b.update(shape=[len(span)] + b["shape"][1:]),
        lambda b: b.update(at=-8),
        lambda b: b.update(shape=[-1] + b["shape"][1:]),
    ]
    for edit in edits:
        d, _ = scene_to_dict(two_human_scene)
        block = d
        for key in path:
            block = block[key]
        edit(block)
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: block of shape "
                           r"\[.*\] at byte -?\d+ runs past the scene's "
                           f"{len(span)}-byte span$"):
            scene_from_dict(d, span)


def test_scene2_lengths_must_fit_the_block(two_human_scene):
    d, span = scene_to_dict(two_human_scene)
    d["replan_log"][1]["candidates"]["len"][0] += 1
    with pytest.raises(ValueError, match=r"^replan_log\[1\]\.candidates: "):
        scene_from_dict(d, span)
    d, span = scene_to_dict(two_human_scene)
    d["t"].pop()
    with pytest.raises(ValueError, match="^states: "):
        scene_from_dict(d, span)
    d, span = scene_to_dict(two_human_scene)
    d["replan_log"][0]["predicted_humans"]["label"][1].pop()
    with pytest.raises(ValueError, match=r"^replan_log\[0\]\.predicted_humans: "):
        scene_from_dict(d, span)


@pytest.fixture(scope="module")
def five_replan_scene():
    spec = generate_scenario_batch("StoppedTraffic", 1, base_seed=31, horizon=50)[0]
    rec = run_closed_loop(spec, PlannerHandle(horizon=10), OraclePredictor(), 10)
    assert len(rec.replan_log) == 5
    return rec


@pytest.mark.parametrize("field,trajs_of", [
    ("candidates", lambda e: e["candidates"]),
    ("predicted_humans", lambda e: e["predicted_humans"]["trajs"]),
])
def test_scene2_bad_row_in_a_later_replan_is_named(five_replan_scene, field, trajs_of):
    d, span = _encoded(five_replan_scene)
    trajs = trajs_of(d["replan_log"][3])
    arr = _block_array(span, trajs["actions"])
    arr[trajs["len"][0] + 1, 0] = float("nan")
    _set_block(d, span, trajs["actions"], arr)
    later = trajs_of(d["replan_log"][4])
    arr = _block_array(span, later["actions"])
    arr[0, 1] = 1.5
    _set_block(d, span, later["actions"], arr)
    with pytest.raises(ValueError) as err:
        scene_from_dict(d, span)
    assert str(err.value) == "actions must be finite"
    assert err.value.__notes__ == [f"replan_log[3].{field}"]


def test_scene2_an_earlier_replan_error_wins_over_a_later_bad_row(five_replan_scene):
    d, span = _encoded(five_replan_scene)
    d["replan_log"][1]["predicted_humans"]["prob"][0][0] += 0.5
    with pytest.raises(ValueError) as want:
        scene_from_dict(d, span)
    cands = d["replan_log"][3]["candidates"]
    arr = _block_array(span, cands["actions"])
    arr[0, 0] = float("inf")
    _set_block(d, span, cands["actions"], arr)
    with pytest.raises(ValueError) as err:
        scene_from_dict(d, span)
    assert str(err.value) == str(want.value)
    assert str(want.value).startswith("mode probabilities must sum to 1")


def test_scene2_replans_of_mixed_lengths_decode(five_replan_scene):
    log = [dataclasses.replace(e, candidates=[ActionTraj(c.actions[:n], start_t=c.start_t)
                                              for c in e.candidates])
           for e, n in zip(five_replan_scene.replan_log, (10, 4, 1, 7, 10))]
    log[2] = dataclasses.replace(log[2], candidates=[
        ActionTraj(c.actions[:1 + k % 3], start_t=c.start_t)
        for k, c in enumerate(log[2].candidates)])
    rec = dataclasses.replace(five_replan_scene, replan_log=log)
    got = _assert_codecs_agree(rec)
    assert [[len(c) for c in e.candidates] for e in got.replan_log] == \
        [[len(c) for c in e.candidates] for e in log]


def test_scenes_from_jsonl_names_the_bad_line(two_human_scene, tmp_path):
    good = scene_to_dict(two_human_scene)
    bad = _encoded(two_human_scene)
    bad[0]["scenario_id"] = "the-bad-one"
    arr = _block_array(bad[1], bad[0]["states"])
    arr[3, 1, 3] = -0.25
    _set_block(*bad, bad[0]["states"], arr)
    path = tmp_path / "scenes.jsonl"
    _write_scenes(path, [copy.deepcopy(good), bad, copy.deepcopy(good)])
    with pytest.raises(ValueError) as err:
        scenes_from_jsonl(path)
    assert str(err.value) == "speed must be >= 0, got -0.25"
    assert err.value.__notes__ == [f"{path}: line 2, scenario 'the-bad-one'"]
    path.write_text(json.dumps(good[0]) + "\n{\n")
    with pytest.raises(ValueError) as err:
        scenes_from_jsonl(path)
    assert err.value.__notes__ == [f"{path}: line 2, scenario None"]


def test_scenes_from_jsonl_decodes_only_the_wanted_ids(two_human_scene, tmp_path,
                                                       monkeypatch):
    encoded = []
    for sid in ("a", "bad", "c"):
        d, span = _encoded(two_human_scene)
        d["scenario_id"] = sid
        encoded.append((d, span))
    lines = [d for d, _ in encoded]
    arr = _block_array(encoded[1][1], lines[1]["states"])
    arr[3, 1, 3] = -0.25
    _set_block(*encoded[1], lines[1]["states"], arr)
    path = tmp_path / "scenes.jsonl"
    _write_scenes(path, encoded, "\n\n")
    decoded = []
    real = simkit.scene_from_dict
    monkeypatch.setattr(simkit, "scene_from_dict",
                        lambda d, sidecar: decoded.append(d["scenario_id"])
                        or real(d, sidecar))

    got = scenes_from_jsonl(path, {"c", "a", "elsewhere"})
    assert [s.scenario_id for s in got] == ["a", "c"] == decoded
    assert scene_to_dict(got[1], lines[2]["bin"]["at"]) == (lines[2], encoded[2][1])
    assert scenes_from_jsonl(path, set()) == []
    # A wanted line fails with the note it fails with when every line is decoded.
    for ids in ({"bad"}, None):
        with pytest.raises(ValueError) as err:
            scenes_from_jsonl(path, ids)
        assert str(err.value) == "speed must be >= 0, got -0.25"
        assert err.value.__notes__ == [f"{path}: line 3, scenario 'bad'"]
    # Every line is parsed: a line that is not JSON fails whatever is wanted.
    path.write_text(json.dumps(lines[0]) + "\n{\n")
    for ids in ({"a"}, set()):
        with pytest.raises(ValueError) as err:
            scenes_from_jsonl(path, ids)
        assert err.value.__notes__ == [f"{path}: line 2, scenario None"]
    # A line with no scenario id is decoded whatever is wanted.
    monkeypatch.undo()
    del lines[0]["scenario_id"]
    path.write_text(json.dumps(lines[0]) + "\n")
    with pytest.raises(ValueError) as err:
        scenes_from_jsonl(path, set())
    assert str(err.value) == "scenario_id: the scene line records no scenario_id"
    assert err.value.__notes__ == [f"{path}: line 1, scenario None"]


@pytest.mark.parametrize("schema", ["scene/0", "scene/2", None])
def test_scene_decode_rejects_an_unknown_schema(two_human_scene, schema):
    d, span = scene_to_dict(two_human_scene)
    assert d["schema"] == SCENE_SCHEMA == "scene/3"
    d["schema"] = schema
    with pytest.raises(ValueError, match=f"unsupported schema {schema!r}"):
        scene_from_dict(d, span)
    # A scene/2 line has no "dt" or "bin": the schema is checked first.
    del d["dt"], d["bin"]
    with pytest.raises(ValueError, match=f"unsupported schema {schema!r}"):
        scene_from_dict(d, b"")


def test_a_flipped_sidecar_byte_names_the_line_and_scene(two_human_scene, tmp_path):
    path = tmp_path / "scenes.jsonl"
    other = dataclasses.replace(two_human_scene, scenario_id="other")
    scenes_to_jsonl(path, [two_human_scene, other])
    data = bytearray((tmp_path / "scenes.bin").read_bytes())
    second = json.loads(path.read_text().splitlines()[1])["bin"]
    assert second["at"] == len(data) // 2 and second["n"] == len(data) // 2
    for at in (second["at"], second["at"] + 1234, len(data) - 1):
        flipped = bytearray(data)
        flipped[at] ^= 0x01
        (tmp_path / "scenes.bin").write_bytes(flipped)
        with pytest.raises(ValueError) as err:
            scenes_from_jsonl(path)
        assert str(err.value) == (f"bin: the SHA-256 of the scene's span at byte "
                                  f"{second['at']} is not the one its line records")
        assert err.value.__notes__ == [f"{path}: line 2, scenario 'other'"]
        # Each line hashes only its own span: the first scene still decodes.
        assert [s.scenario_id for s in scenes_from_jsonl(path, {two_human_scene.scenario_id})] \
            == [two_human_scene.scenario_id]


def test_a_truncated_sidecar_fails_loudly(two_human_scene, tmp_path):
    path = tmp_path / "scenes.jsonl"
    scenes_to_jsonl(path, [two_human_scene] * 2)
    data = (tmp_path / "scenes.bin").read_bytes()
    n = len(data) // 2
    # (bytes kept, the line that fails, the bytes of its span kept)
    for keep, line, held in ((len(data) - 1, 2, n - 1), (n + 8, 2, 8), (n, 2, 0),
                             (n - 1, 1, n - 1), (0, 1, 0)):
        (tmp_path / "scenes.bin").write_bytes(data[:keep])
        with pytest.raises(ValueError) as err:
            scenes_from_jsonl(path)
        assert str(err.value) == (f"bin: the sidecar holds {held} of the {n} bytes "
                                  f"of the scene's span at byte {n * (line - 1)}")
        assert err.value.__notes__ == [f"{path}: line {line}, scenario "
                                       f"{two_human_scene.scenario_id!r}"]
    (tmp_path / "scenes.bin").unlink()
    with pytest.raises(FileNotFoundError):
        scenes_from_jsonl(path)
    # Nothing to decode reads no sidecar.
    assert scenes_from_jsonl(path, set()) == []


def test_scene_records_its_dt_and_decode_keeps_it(two_human_scene):
    assert two_human_scene.dt == DT_DEFAULT
    d, span = scene_to_dict(two_human_scene)
    assert d["dt"] == DT_DEFAULT
    spec = generate_scenario_batch("StoppedTraffic", 1, base_seed=31, horizon=20)[0]
    rec = run_closed_loop(spec, PlannerHandle(horizon=10, dt=0.2), OraclePredictor(), 10)
    assert rec.dt == 0.2
    d, span = scene_to_dict(rec)
    assert d["dt"] == 0.2
    back = scene_from_dict(d, span)
    assert back.dt == 0.2
    assert back.states == rec.states
    assert replay_max_deviation(back) < 1e-9


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.pop("dt"), "^dt: the scene line records no dt"),
    *[(lambda d, key=key: d.pop(key), f"^{key}: the scene line records no {key}")
      for key in ("context", "t", "states", "executed_robot", "human_actions", "replan_log",
                  "per_frame_collision_cost", "aborted", "abort_reason", "human_radii")],
    (lambda d: d.update(dt="0.1"), r"^dt='0\.1' is not a positive finite float"),
    (lambda d: d.update(dt=1), r"^dt=1 is not a positive finite float"),
    (lambda d: d.update(dt=True), r"^dt=True is not a positive finite float"),
    (lambda d: d.update(dt=0.0), r"^dt=0\.0 is not a positive finite float"),
    (lambda d: d.update(dt=-0.1), r"^dt=-0\.1 is not a positive finite float"),
    (lambda d: d.update(dt=float("nan")), r"^dt=nan is not a positive finite float"),
    (lambda d: d.update(dt=float("inf")), r"^dt=inf is not a positive finite float"),
    (lambda d: d.pop("bin"), "^bin: None is not a span record"),
    (lambda d: d.update(bin=[0, 1]), r"^bin: \[0, 1\] is not a span record"),
    (lambda d: d["bin"].pop("at"), "^bin: .* is not a span record"),
    (lambda d: d["bin"].update(at=0.0), "^bin: .* is not a span record"),
    (lambda d: d["bin"].update(at=True), "^bin: .* is not a span record"),
    (lambda d: d["bin"].update(at=-1), "^bin: .* is not a span record"),
    (lambda d: d["bin"].pop("n"), "^bin: .* is not a span record"),
    (lambda d: d["bin"].update(n="8"), "^bin: .* is not a span record"),
    (lambda d: d["bin"].update(n=-8), "^bin: .* is not a span record"),
    (lambda d: d["bin"].pop("sha256"), "^bin: .* is not a span record"),
    (lambda d: d["bin"].update(sha256=None), "^bin: .* is not a span record"),
    (lambda d: d["replan_log"][1]["predicted_humans"]["prob"][1].__setitem__(0, float("nan")),
     r"^human 1 mode '\w+': probability nan is not a finite non-negative number"),
    (lambda d: d["replan_log"][0]["predicted_humans"]["prob"][0].__setitem__(0, -0.5),
     r"^human 0 mode '\w+': probability -0\.5 is not a finite non-negative number"),
    (lambda d: d.update(aborted="no"), r"^aborted='no' is not a bool"),
    (lambda d: d.update(aborted=0), r"^aborted=0 is not a bool"),
    (lambda d: d.update(abort_reason=3), r"^abort_reason=3 is not a str"),
    (lambda d: d.update(abort_reason=None), r"^abort_reason=None is not a str"),
])
def test_scene_decode_names_a_missing_or_malformed_dt_or_bin(two_human_scene, tmp_path,
                                                               edit, message):
    """dt, the "bin" span record and the mode probabilities come from outside
    the program: a line that lacks them or holds the wrong types or values is
    a ValueError naming the field, which scenes_from_jsonl notes with the
    line and the scene. So is a line that lacks any other key: no key of a
    scene line has a default. An "aborted" that is not a bool or an
    "abort_reason" that is not a str is refused too: "no" is truthy, and
    would mark the scene aborted."""
    path = tmp_path / "scenes.jsonl"
    scenes_to_jsonl(path, [two_human_scene])
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        scenes_from_jsonl(path)
    assert err.value.__notes__ == [f"{path}: line 1, scenario "
                                   f"{two_human_scene.scenario_id!r}"]


# The human simulation written on AgentState and JointState, one validated
# state per agent per step, as the package stepped humans before the float
# kernel and the robot view: the policy reads the robot's state directly. The
# human engine must equal it, in the closed loop and lane by lane.

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


def _ref_policy_step(profile, me, joint, ctx, rng, memory, radii, dt=DT_DEFAULT):
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
            if memory["clear_steps"] >= int(round(RESUME_CLEAR_SECONDS / dt)):
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


def _ref_step(spec, robot, humans, memories, t, rng_root, dt=DT_DEFAULT):
    """Every human's reference decision while the robot is at robot, then its
    step: (actions, next human states)."""
    profiles = [p for _, p in spec.humans]
    radii = [p.radius for p in profiles]
    now = JointState(robot, tuple(humans), t)
    acts = [_ref_policy_step(p, humans[i], now, spec.context, rng_root.derive(1, i, t),
                             memories[i], radii, dt)
            for i, p in enumerate(profiles)]
    return acts, [unicycle_step(h, a, w, dt) for h, (a, w) in zip(humans, acts)]


def _ref_simulate_humans(spec, joint, memories, ego_actions, rng_root, dt=DT_DEFAULT):
    M, T = len(spec.humans), len(ego_actions)
    robot, humans = joint.robot, list(joint.humans)
    actions = np.zeros((M, T, 2))
    human_states, robot_states = [], []
    for k in range(T):
        acts, humans = _ref_step(spec, robot, humans, memories, joint.t + k, rng_root, dt)
        for i, a in enumerate(acts):
            actions[i, k] = a
        robot = unicycle_step(robot, float(ego_actions[k, 0]), float(ego_actions[k, 1]), dt)
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
        actions, states = simulate_humans(spec, joint, memories, ego[lo:hi], root, DT_DEFAULT)
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


@pytest.mark.parametrize("dt", [0.05, 0.2])
def test_simulate_humans_equals_agentstate_reference_at_the_scene_dt(dt):
    # The engine steps the humans, and counts a stopped car's resume timer,
    # at the dt it is given: the closed loop's, which the scene records.
    spec = _reference_spec("StoppedTraffic")
    rec = run_closed_loop(spec, PlannerHandle(dt=dt), OraclePredictor(), 10)
    assert not rec.aborted and rec.dt == dt
    ego = np.concatenate([e.actions for e in rec.executed_robot])
    root = RngStream(spec.seed)
    memories, ref_memories = [{} for _ in spec.humans], [{} for _ in spec.humans]
    actions, _ = simulate_humans(spec, rec.states[0], memories, ego, root, dt)
    ref_actions, _, _ = _ref_simulate_humans(spec, rec.states[0], ref_memories, ego, root, dt)
    assert actions.tobytes() == ref_actions.tobytes()
    assert actions.tobytes() == np.array([h.actions for h in rec.human_actions]).tobytes()
    assert memories == ref_memories and memories[0].get("resumed")
    assert replay_max_deviation(rec) < 1e-9


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
    block = (joint, [], *one_row(joint.robot, cand, rec.dt), spec.context, 1, rec.dt)
    [first] = oracle.predict(*block)
    assert memories == before and [id(m) for m in memories] == dicts
    assert oracle.predict(*block) == [first]
    for i, modes in enumerate(first.humans):
        assert modes[0].traj.start_t == joint.t
        assert modes[0].traj.actions.tobytes() == ref_actions[i].tobytes()


# The grouped engine against each lane stepped alone on the reference. Tie
# robots sit on the boundary of one robot-view comparison of one human; they
# are exact for a human at small quarter-integer coordinates with heading 0,
# which step 0 often draws (test_tie_robots_sit_on_the_view_boundaries).

# The ties that can change each mode's decision.
_TIES = {"intersection_cross": ("t0", "t4", "x1", "x3"),
         "yield_if_close": ("hypot", "proj0", "proj_reach", "lat2")}
_AHEAD_TIES = ("proj0", "proj_reach", "lat2")


def _tie_robot(kind, human, profile, v):
    """(x, y) of a robot at speed v on one comparison's boundary for human."""
    x, y, c, s = human.x, human.y, math.cos(human.heading), math.sin(human.heading)
    if kind == "proj0":  # proj == 0 (and hypot == 0, t_arrive == 0)
        return x, y
    if kind == "proj_reach":  # proj == reaction_radius + ROBOT_RADIUS
        d = profile.reaction_radius + ROBOT_RADIUS
        return x + d * c, y + d * s
    if kind == "lat2":  # proj == 1, lat == 2.0
        return x + c - 2.0 * s, y + s + 2.0 * c
    if kind == "hypot":  # hypot == reaction_radius, a 3-4-5 triangle
        k = profile.reaction_radius / 5.0
        return x + 3.0 * k, y + 4.0 * k
    if kind == "t0":  # t_arrive == 0
        return x, y + 5.0
    if kind == "t4":  # t_arrive == 4
        return x - 4.0 * max(v, 0.5), y
    return x + (1.0 if kind == "x1" else 3.0), y  # robot_x == x + 1, x + 3


def _quarters(lo, hi):
    return st.integers(4 * lo, 4 * hi).map(lambda n: n / 4)


@st.composite
def _engine_cases(draw):
    """(spec, per-human initial memories, lanes as row specs, start t,
    memories_at: None or a step 1..T)."""
    humans, memories = [], []
    for _ in range(draw(st.integers(1, 3))):
        mode = draw(st.sampled_from(HUMAN_MODES + ("intersection_cross", "yield_if_close")))
        heading = draw(st.sampled_from([0.0, 0.0, math.pi / 2, -math.pi / 2])
                       | st.floats(-math.pi, math.pi))
        state = AgentState(draw(_quarters(0, 60)), draw(st.sampled_from([0.0, 3.7]) | _quarters(-4, 8)),
                           heading, draw(_quarters(0, 8)))
        profile = HumanProfile(mode, target_speed=draw(_quarters(0, 8)),
                               reaction_radius=draw(st.sampled_from([5.0, 10.0, 12.5, 15.0])),
                               radius=draw(st.sampled_from([CAR_RADIUS, 0.3, 1.8])))
        memory = {}
        if mode == "stopped":
            if draw(st.booleans()):
                memory["clear_steps"] = draw(st.integers(0, 25))
            if draw(st.booleans()):
                memory["resumed"] = draw(st.booleans())
        if mode == "intersection_cross":
            latch = draw(st.sampled_from([None, None, True, False]))
            if latch is not None:
                memory["yield_latch"] = latch
            if draw(st.booleans()):
                memory["cross_dir"] = draw(st.sampled_from([1.0, -1.0]))
        humans.append((state, profile))
        memories.append(memory)
    ctx = draw(st.sampled_from([TWO_LANE, NavWorld()]))
    spec = ScenarioSpec(ctx, AgentState(0.0, 0.0, 0.0, 8.0), tuple(humans),
                        seed=draw(st.integers(0, 2 ** 16)))
    M, T = len(humans), draw(st.integers(1, 6))

    def row():
        if draw(st.booleans()):
            return ("free", draw(_quarters(-10, 80) | st.floats(-10, 80)),
                    draw(_quarters(-6, 8)), draw(_quarters(0, 10)))
        j = draw(st.integers(0, M - 1))
        kind = draw(st.sampled_from(_TIES.get(humans[j][1].mode, _AHEAD_TIES)))
        return (kind, j, draw(_quarters(0, 10)))

    lanes = []
    for n in range(draw(st.integers(1, 5))):
        # Lanes that copy an earlier lane's first `cut` rows share those steps.
        cut = draw(st.integers(0, T)) if n else 0
        base = lanes[draw(st.integers(0, n - 1))][:cut] if cut else []
        lanes.append(base + [row() for _ in range(T - cut)])
    return spec, memories, lanes, draw(st.integers(0, 50)), draw(st.none() | st.integers(1, T))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_engine_cases())
def test_grouped_engine_equals_each_lane_alone(case):
    spec, memories, lane_specs, t0, memories_at = case
    root = RngStream(spec.seed)
    joint = JointState(spec.robot_init, tuple(s for s, _ in spec.humans), t0)
    # Each lane alone on the reference; a tie row is placed against the
    # state that lane's human has reached.
    lanes, ref = [], []
    for rows in lane_specs:
        humans, mems, robot_rows, acts, states = list(joint.humans), copy.deepcopy(memories), [], [], []
        kept = []
        for k, spec_row in enumerate(rows):
            if spec_row[0] == "free":
                x, y, v = spec_row[1:]
            else:
                kind, j, v = spec_row
                x, y = _tie_robot(kind, humans[j], spec.humans[j][1], v)
            robot_rows.append((x, y, None, v))
            a, humans = _ref_step(spec, AgentState(x, y, 0.0, v), humans, mems, t0 + k, root)
            acts.append(a)
            states.append(humans)
            kept.append(copy.deepcopy(mems))
        lanes.append(robot_rows)
        ref.append((acts, states, mems, kept))

    given_memories = copy.deepcopy(memories)
    groups = step_humans(spec, joint, given_memories, lanes, root, DT_DEFAULT,
                         memories_at=memories_at)
    assert sorted(lane for g in groups for lane in g[0]) == list(range(len(lanes)))
    assert groups[0][0][0] == 0 and (groups[0][1] is given_memories) == (memories_at is None)
    M, T = len(spec.humans), len(lane_specs[0])
    for lane_ids, mems, actions, states in groups:
        assert actions.shape == (M, T, 2)
        for lane in lane_ids:
            ref_acts, ref_states, ref_mems, ref_kept = ref[lane]
            assert [[_hex(*actions[i, k]) for i in range(M)] for k in range(T)] == \
                [[_hex(*a) for a in step] for step in ref_acts]
            assert [[_hex(*s[:4]) for s in step] for step in states] == \
                [[_hex(h.x, h.y, h.heading, h.speed) for h in step] for step in ref_states]
            want = ref_mems if memories_at is None else ref_kept[memories_at - 1]
            assert _memory_items(mems) == _memory_items(want)
    # The given memories end as lane 0's after the last step.
    assert _memory_items(given_memories) == _memory_items(ref[0][2])


def test_tie_robots_sit_on_the_view_boundaries():
    """Against a human at quarter-integer coordinates with heading 0, each
    tie robot meets its comparison's boundary exactly."""
    human = AgentState(20.25, 3.5, 0.0, 2.0)
    profile = HumanProfile("cruise", reaction_radius=12.5)

    def rel(kind, v=2.0):
        x, y = _tie_robot(kind, human, profile, v)
        return x - human.x, y - human.y

    assert rel("proj0") == (0.0, 0.0)
    assert rel("proj_reach") == (12.5 + ROBOT_RADIUS, 0.0)
    assert rel("lat2") == (1.0, 2.0)
    assert math.hypot(*rel("hypot")) == 12.5
    assert rel("t0")[0] == 0.0
    assert -rel("t4", 2.0)[0] / max(2.0, 0.5) == 4.0 and -rel("t4", 0.25)[0] / 0.5 == 4.0
    assert _tie_robot("x1", human, profile, 0.0)[0] == human.x + 1.0
    assert _tie_robot("x3", human, profile, 0.0)[0] == human.x + 3.0


class _Recording(OraclePredictor):
    """The oracle, keeping each replan's inputs, memories and prediction sets."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def predict(self, joint, history, *rest):
        out = super().predict(joint, history, *rest)
        self.calls.append((joint, list(history), copy.deepcopy(self._binding.memories), out))
        return out


class _OneByOne:
    """The per-candidate path: predict once per candidate, so every candidate
    has its own PredictionSet object."""

    def __init__(self, oracle):
        self.oracle = oracle

    def predict(self, joint, history, ego_xys, speeds, ctx, n_modes_out, dt):
        return [self.oracle.predict(joint, history, ego_xys[k:k + 1], speeds[k:k + 1],
                                    ctx, n_modes_out, dt)[0]
                for k in range(len(ego_xys))]


@pytest.mark.parametrize("family", ["StoppedTraffic", "Intersection"])
def test_oracle_replan_shares_one_prediction_set_per_distinct_future(family):
    spec = generate_scenario_batch(family, 1, base_seed=4, horizon=60)[0]
    handle = PlannerHandle()
    radii = [p.radius for _, p in spec.humans]
    oracle = _Recording()
    rec = run_closed_loop(spec, handle, oracle, 10)
    n_distinct = []
    for (joint, history, memories, sets), entry in zip(oracle.calls, rec.replan_log):
        alone = OraclePredictor()
        alone.bind_scene(_SceneBinding(spec, RngStream(spec.seed), memories, handle.dt))
        futures = {}
        for cand, pred in zip(entry.candidates, sets):
            [one] = alone.predict(joint, history, *one_row(joint.robot, cand, handle.dt),
                                  spec.context, 1, handle.dt)
            assert [m[0].traj for m in pred.humans] == [m[0].traj for m in one.humans]
            future = b"".join(m[0].traj.actions.tobytes() for m in pred.humans)
            futures.setdefault(future, set()).add(id(pred))
        # Equal futures share one object, and distinct futures do not.
        assert all(len(ids) == 1 for ids in futures.values())
        assert len({id(p) for p in sets}) == len(futures)
        n_distinct.append(len(futures))
        _, ref = plan(handle, _OneByOne(alone), joint, history, spec.context,
                      RngStream(spec.seed).derive(_STREAM_PLANNER, joint.t), human_radii=radii)
        assert entry.candidate_rewards_predicted == ref.candidate_rewards_predicted
        assert entry.executed_index == ref.executed_index
    assert min(n_distinct) < handle.n_candidates and max(n_distinct) > 1


# The closed loop under the oracle takes each executed segment from the
# oracle's own call: the executed lane's human actions, states and memories.

class _NoHandBack:
    """The oracle bound to a copy of the loop's binding, over the same
    memories: it predicts as the oracle does, but the loop never sees its
    calls, so simulate_humans steps every segment."""

    def __init__(self):
        self.oracle = OraclePredictor()

    def bind_scene(self, binding):
        self.oracle.bind_scene(dataclasses.replace(binding))

    def predict(self, *args):
        return self.oracle.predict(*args)


class _BoundOneByOne(_OneByOne):
    """_OneByOne bound to the loop's binding: its last call of a replan
    stepped one candidate, so the loop must not take it."""

    def bind_scene(self, binding):
        self.oracle.bind_scene(binding)


def _memory_items(memories):
    return [sorted((k, type(v), v) for k, v in m.items()) for m in memories]


def _counting_simulate_humans(monkeypatch):
    calls = []
    real = simkit.simulate_humans

    def counting(*args, **kwargs):
        calls.append(args[1].t)
        return real(*args, **kwargs)

    monkeypatch.setattr(simkit, "simulate_humans", counting)
    return calls


@pytest.mark.parametrize("replan_every", [10, 20, 30, 60])
@pytest.mark.parametrize("family", FAMILIES)
def test_the_oracle_hand_back_writes_the_record_of_simulate_humans(family, replan_every,
                                                                   monkeypatch):
    """At replan_every 60 on horizon 60 each segment is the whole 30-step
    plan. Intersection's walker draws its yield latch, and StoppedTraffic's
    resume timer runs across segments."""
    spec = generate_scenario_batch(family, 1, base_seed=4, horizon=60)[0]
    calls = _counting_simulate_humans(monkeypatch)
    oracle = OraclePredictor()
    rec = run_closed_loop(spec, PlannerHandle(), oracle, replan_every)
    assert calls == []
    wrapper = _NoHandBack()
    ref = run_closed_loop(spec, PlannerHandle(), wrapper, replan_every)
    assert calls == [e.t for e in ref.replan_log]
    assert _hexed(rec) == _hexed(ref)
    assert scene_to_dict(rec) == scene_to_dict(ref)
    memories = oracle._binding.memories
    assert _memory_items(memories) == _memory_items(wrapper.oracle._binding.memories)
    if family in ("StoppedTraffic", "Intersection"):
        assert memories[0]


def test_a_one_candidate_oracle_call_is_not_taken(monkeypatch):
    spec = generate_scenario_batch("Intersection", 1, base_seed=4, horizon=20)[0]
    calls = _counting_simulate_humans(monkeypatch)
    rec = run_closed_loop(spec, PlannerHandle(), _BoundOneByOne(OraclePredictor()), 10)
    assert calls == [0, 10]
    ref = run_closed_loop(spec, PlannerHandle(), OraclePredictor(), 10)
    assert _hexed(rec) == _hexed(ref)


_FRAME_COORD = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.75)),
                         st.floats(-100.0, 100.0))


@st.composite
def _frames(draw):
    """(robot (x, y), humans' (x, y), radii): humans are free, at the robot
    (with either sign of zero) or touching its disc along an axis."""
    rx, ry = draw(_FRAME_COORD), draw(_FRAME_COORD)
    humans, radii = [], []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.sampled_from((CAR_RADIUS, 0.3, 1.8, 0.5)) | st.floats(1e-3, 5.0))
        kind = draw(st.sampled_from(("free", "same", "touch")))
        if kind == "free":
            h = (draw(_FRAME_COORD), draw(_FRAME_COORD))
        elif kind == "same":
            h = (draw(st.sampled_from((rx, -rx))), draw(st.sampled_from((ry, -ry))))
        else:
            h = draw(st.sampled_from(((rx + ROBOT_RADIUS + r, ry), (rx, ry - ROBOT_RADIUS - r))))
        humans.append(h)
        radii.append(r)
    return (rx, ry), humans, radii


@settings(max_examples=300, deadline=None)
@given(frame=_frames(),
       dt=st.sampled_from((0.05, 0.1, 0.2)) | st.floats(1e-3, 1.0),
       w=st.sampled_from((0.0, 1.0, 50.0)) | st.floats(0.0, 1e3))
def test_the_float_frame_cost_is_footprint_overlap(frame, dt, w):
    robot, humans, radii = frame
    # Float states as unicycle_step_floats returns them: the rest is not read.
    cost = simkit._frame_cost((*robot, 0.3, 2.0, 0.3), [(*h, -1.0, 0.0, -1.0) for h in humans],
                              radii, dt, w)
    ref = sum(footprint_overlap(AgentState(*robot, 0.0, 0.0), AgentState(*h, 0.0, 0.0),
                                ROBOT_RADIUS, r) * dt * w
              for h, r in zip(humans, radii))
    assert cost.hex() == ref.hex()


@pytest.mark.parametrize("family,seed", [("StrandedTruck", 2), ("NavWorld", 0)])
def test_closed_loop_frame_costs_are_footprint_overlap_of_the_frames(family, seed):
    spec = generate_scenario_batch(family, 1, base_seed=seed, horizon=60)[0]
    handle = PlannerHandle()
    rec = run_closed_loop(spec, handle, TablePredictor(PredictorParams.fresh()), 10)
    w = abs(handle.weights.w_col)
    ref = [sum(footprint_overlap(js.robot, h, ROBOT_RADIUS, r) * rec.dt * w
               for h, r in zip(js.humans, rec.human_radii))
           for js in rec.states[1:]]
    assert rec.collision_frames > 0
    assert [c.hex() for c in rec.per_frame_collision_cost] == [c.hex() for c in ref]


def test_a_humanless_scene_logs_float_zero_costs(tmp_path):
    spec = ScenarioSpec(TWO_LANE, AgentState(0, 0, 0, 8.0), (), horizon=20,
                        seed=3, scenario_id="empty-road")
    rec = run_closed_loop(spec, PlannerHandle(horizon=10), OraclePredictor(), 10)
    assert [c.hex() for c in rec.per_frame_collision_cost] == [(0.0).hex()] * 20
    path = tmp_path / "scenes.jsonl"
    scenes_to_jsonl(path, [rec])
    assert '"per_frame_collision_cost": [' + ", ".join(["0.0"] * 20) + "]" in path.read_text()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["target_speed", "reaction_radius", "radius"])
def test_human_profile_rejects_non_finite_parameters(field, value):
    with pytest.raises(ValueError, match=f"^{field}={value!r} is not finite"):
        HumanProfile("cruise", **{field: value})
    truck = generate_scenario_batch("StrandedTruck", 1, base_seed=2, horizon=20)[0].humans[0][1]
    with pytest.raises(ValueError, match=f"^{field}="):
        dataclasses.replace(truck, **{field: value})


@pytest.mark.parametrize("radii", [
    [float("nan"), 1.0], [1.0, float("inf")], [-1.0, 1.0], [1.0, 0.0], [1.0, -0.0],
    [float("nan")], [1.0], [1.0, 1.0, 1.0], [], [True, 1.0], ["1.0", 1.0], [None, 1.0],
    None, 1.0, {"0": 1.0}, "missing",
], ids=["nan", "inf", "negative", "zero", "minus-zero", "one-nan", "too-few", "too-many",
        "empty", "bool", "str", "null-radius", "null", "number", "dict", "missing"])
def test_scene_decode_rejects_human_radii_that_do_not_fit_the_humans(two_human_scene, tmp_path,
                                                                     radii):
    """A human_radii list must hold one finite radius > 0 per human: a ValueError
    naming human_radii, noted with the line and the scene. A line without
    human_radii is one too: no human is priced at a default radius. The
    closed loop's records pass through the same check."""
    path = tmp_path / "scenes.jsonl"
    scenes_to_jsonl(path, [two_human_scene])
    d = json.loads(path.read_text())
    if radii == "missing":
        del d["human_radii"]
    else:
        d["human_radii"] = radii
        with pytest.raises(ValueError, match="^human_radii: "):
            dataclasses.replace(two_human_scene, human_radii=radii)
    path.write_text(json.dumps(d) + "\n")
    with pytest.raises(ValueError, match="^human_radii: ") as err:
        scenes_from_jsonl(path)
    assert err.value.__notes__ == [f"{path}: line 1, scenario "
                                   f"{two_human_scene.scenario_id!r}"]
    d["human_radii"] = [2, 0.5]
    path.write_text(json.dumps(d) + "\n")
    assert scenes_from_jsonl(path)[0].human_radii == [2, 0.5]
