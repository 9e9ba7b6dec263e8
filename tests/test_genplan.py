import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import ndtr
from scipy.stats import norm

from regret_miner import genplan
from regret_miner.core import (
    TURN_LIMIT,
    ActionTraj,
    AgentState,
    NavWorld,
    RngStream,
    rollout_positions,
    wrap_angle,
)
from regret_miner.genplan import (
    GOALS,
    HUMAN_CLASSES,
    HUMAN_NAV_SPEED,
    N_CUE_BUCKETS,
    NAV_DT,
    NAV_STEPS,
    ROBOT_NAV_SPEED,
    Codebook,
    NavSample,
    OutOfSupportError,
    SensorModel,
    _clamp_turn,
    _draw_halves,
    _fit_perception_codebook,
    _perception_turns,
    _steer_block,
    build_mismatch_scenarios,
    classify_human_direction,
    codebook_from_json,
    codebook_to_json,
    cue_bucket,
    default_hindsight_candidates,
    divert_shape_candidate,
    fit_codebook,
    generate_nav_dataset,
    generative_regret,
    kde_window_mass,
    nav_samples_from_json,
    nav_samples_to_json,
    perception_case_study,
    sample_regrets,
    simulate_nav_scene,
)
from kinematics_reference import steer, unicycle_step


def _direction(sample):
    return HUMAN_CLASSES[sample.outcome_class // 2]


def test_cue_rule_noise_free():
    # under a noiseless cue the rule is a hard threshold at 1/3 and 2/3
    for delta, want in ((0.1, "left"), (0.5, "straight"), (0.9, "right"),
                        (0.0, "left"), (1.0, "right")):
        sample, _, _ = simulate_nav_scene(delta, "Primary", RngStream(1),
                                          epsilon_sigma=0.0)
        assert _direction(sample) == want


def test_yield_draw_forcing():
    kw = dict(epsilon_sigma=0.0, exec_noise=0.0)
    sample, trig, final = simulate_nav_scene(0.5, "Primary", RngStream(2),
                                             yield_draw=True, **kw)
    assert trig and final == "Backup"
    _, trig2, final2 = simulate_nav_scene(0.5, "Primary", RngStream(2),
                                          yield_draw=False, **kw)
    assert trig2 and final2 == "Primary"
    # a human veering hard left never comes within the trigger radius
    _, trig3, final3 = simulate_nav_scene(0.05, "Primary", RngStream(2),
                                          yield_draw=True, **kw)
    assert not trig3 and final3 == "Primary"


def test_dataset_class_balance_and_yield_rate():
    stats: dict = {}
    data = generate_nav_dataset(3000, rng=RngStream(123), stats=stats)
    assert len(data) == 3000
    counts = np.bincount([s.outcome_class // 2 for s in data], minlength=3)
    np.testing.assert_allclose(counts / 3000, 1 / 3, atol=0.03)
    goals = np.bincount([GOALS.index(s.goal) for s in data], minlength=2)
    np.testing.assert_allclose(goals / 3000, 0.5, atol=0.03)
    assert stats["triggered"] > 0
    assert abs(stats["yielded"] / stats["triggered"] - 0.8) < 0.05


def test_dataset_deterministic():
    a = generate_nav_dataset(40, rng=RngStream(9))
    b = generate_nav_dataset(40, rng=RngStream(9))
    for sa, sb in zip(a, b):
        assert sa.delta_h == sb.delta_h and sa.goal == sb.goal
        np.testing.assert_array_equal(sa.robot_traj.actions, sb.robot_traj.actions)
        np.testing.assert_array_equal(sa.human_traj.actions, sb.human_traj.actions)


def test_nav_sample_validation():
    ok, _, _ = simulate_nav_scene(0.5, "Primary", RngStream(3))
    with pytest.raises(ValueError):
        NavSample(1.5, "Primary", ok.human_traj, ok.robot_traj, ok.outcome_class)
    with pytest.raises(ValueError):
        NavSample(0.5, "Exit", ok.human_traj, ok.robot_traj, ok.outcome_class)
    with pytest.raises(ValueError):
        NavSample(0.5, "Primary", ActionTraj(np.zeros((3, 2))), ok.robot_traj,
                  ok.outcome_class)
    # outcome_class must agree with the trajectory's actual direction
    wrong = (ok.outcome_class + 2) % 6
    with pytest.raises(ValueError):
        NavSample(0.5, "Primary", ok.human_traj, ok.robot_traj, wrong)


def test_cue_bucket_edges():
    assert cue_bucket(0.0) == 0
    assert cue_bucket(1.0) == N_CUE_BUCKETS - 1
    assert cue_bucket(0.999) == N_CUE_BUCKETS - 1
    assert cue_bucket(0.5) == N_CUE_BUCKETS // 2


@pytest.fixture(scope="module")
def nav_data():
    return generate_nav_dataset(600, rng=RngStream(55))


@pytest.fixture(scope="module")
def codebook(nav_data):
    return fit_codebook(nav_data, K=6)


def test_fit_codebook_decoder_oracle(nav_data, codebook):
    # per-code decoder stats equal plain per-class averaging of the joint vector
    vecs = {}
    for s in nav_data:
        vecs.setdefault(s.outcome_class, []).append(
            np.concatenate([s.robot_traj.actions[:, 1], s.human_traj.actions[:, 1]]))
    for z in range(6):
        arr = np.array(vecs[z])
        np.testing.assert_allclose(codebook.means[z], arr.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(codebook.stds[z],
                                   np.maximum(arr.std(axis=0), 1e-3), atol=1e-12)


def test_fit_codebook_encoder(nav_data, codebook):
    np.testing.assert_allclose(codebook.encoder.sum(axis=2), 1.0, atol=1e-12)
    again = fit_codebook(nav_data, K=6)
    np.testing.assert_array_equal(codebook.encoder, again.encoder)
    np.testing.assert_array_equal(codebook.means, again.means)
    # left cues should put most encoder mass on left-direction codes (0 and 1)
    left_row = codebook.encoder_row(0.05, "Primary")
    assert left_row[:2].sum() > 0.8


def test_fit_codebook_k1(nav_data):
    cb = fit_codebook(nav_data, K=1)
    np.testing.assert_allclose(cb.encoder, 1.0, atol=1e-12)
    vec_mean = np.mean([np.concatenate([s.robot_traj.actions[:, 1],
                                        s.human_traj.actions[:, 1]])
                        for s in nav_data], axis=0)
    np.testing.assert_allclose(cb.means[0], vec_mean, atol=1e-12)


def test_fit_codebook_missing_class():
    rng = RngStream(77)
    mono = [simulate_nav_scene(0.5, "Primary", rng.derive(i))[0] for i in range(30)]
    with pytest.raises(ValueError):
        fit_codebook(mono, K=6)  # only straight/Primary episodes exist
    with pytest.raises(ValueError):
        fit_codebook([], K=6)
    with pytest.raises(ValueError):
        fit_codebook(mono, K=0)


def test_codebook_validation():
    enc = np.full((N_CUE_BUCKETS, 2, 2), 0.5)
    means = np.zeros((2, 12))
    stds = np.full((2, 12), 0.1)
    Codebook(K=2, encoder=enc, means=means, stds=stds)  # valid
    with pytest.raises(ValueError):
        Codebook(K=2, encoder=enc * 0.9, means=means, stds=stds)
    with pytest.raises(ValueError):
        Codebook(K=2, encoder=enc, means=means[:1], stds=stds)
    with pytest.raises(ValueError):
        Codebook(K=2, encoder=enc, means=means, stds=stds * 0.0)


def _k1_codebook(mean_val=0.2, std=0.05):
    enc = np.ones((N_CUE_BUCKETS, 2, 1))
    means = np.full((1, 12), mean_val)
    stds = np.full((1, 12), std)
    return Codebook(K=1, encoder=enc, means=means, stds=stds)


def test_kde_window_mass_single_sample_analytic():
    for h, d in ((0.05, 0.1), (0.2, 0.05), (1.0, 2.0)):
        want = 2.0 * norm.cdf(d / h) - 1.0
        assert kde_window_mass([0.0], h, 0.0, d) == pytest.approx(want, abs=1e-12)
    # off-center single sample
    want = norm.cdf((0.3 + 0.1 - 0.1) / 0.05) - norm.cdf((0.3 - 0.1 - 0.1) / 0.05)
    assert kde_window_mass([0.1], 0.05, 0.3, 0.1) == pytest.approx(want, abs=1e-12)


def test_kde_window_mass_properties():
    rng = np.random.default_rng(19)
    samples = rng.normal(0, 0.2, 40)
    prev = 0.0
    for d in (0.01, 0.05, 0.1, 0.5, 1.0):
        m = kde_window_mass(samples, 0.05, 0.0, d)
        assert m >= prev
        prev = m
    assert kde_window_mass(samples, 0.05, 0.0, 50.0) > 0.999
    with pytest.raises(ValueError):
        kde_window_mass([], 0.05, 0.0, 0.1)
    with pytest.raises(ValueError):
        kde_window_mass([0.0], -1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        kde_window_mass([0.0], 0.05, 0.0, 0.0)


def test_kde_window_mass_matches_quadrature():
    """Window mass equals the integral of the KDE density over the window."""
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        samples = rng.normal(0, 0.3, n)
        h = float(rng.uniform(0.03, 0.3))
        c = float(rng.uniform(-0.5, 0.5))
        d = float(rng.uniform(0.02, 0.4))
        grid = np.linspace(c - d, c + d, 4001)
        dens = norm.pdf((grid[:, None] - samples[None, :]) / h).mean(axis=1) / h
        want = simpson(dens, x=grid)
        assert kde_window_mass(samples, h, c, d) == pytest.approx(want, abs=1e-6)


def _regret_of(cb, executed, observed, delta_h, goal, hindsight_candidates=None,
               n_samples=250, delta=0.1, bandwidth=0.05):
    """generative_regret of one deployment as a one-row block at the encoder
    row of its cue and goal, against the hindsight candidates: by default
    the default ones followed by the executed trajectory."""
    if hindsight_candidates is None:
        hindsight_candidates = [*default_hindsight_candidates(NavWorld()), executed]
    return float(generative_regret(
        cb, list(hindsight_candidates), executed.actions[np.newaxis, :, 1],
        observed.actions[np.newaxis, :, 1], cb.encoder_row(delta_h, goal)[np.newaxis],
        n_samples, delta, bandwidth)[0])


def test_generative_regret_k1_factorizes():
    """With one code the conditioning on the human cancels: each timestep's
    likelihood is the window mass of that robot dimension alone, and the
    regret is the mean over timesteps of best minus executed."""
    cb = _k1_codebook(mean_val=0.1, std=0.08)
    robot = ActionTraj(np.column_stack([np.zeros(6), np.full(6, 0.15)]))
    best = ActionTraj(np.column_stack([np.zeros(6), np.full(6, 0.1)]))
    human = ActionTraj(np.column_stack([np.zeros(6), np.full(6, 0.05)]))
    n, d, h = 300, 0.1, 0.05
    g = _regret_of(cb, robot, human, 0.5, "Primary", hindsight_candidates=[best, robot],
                   n_samples=n, delta=d, bandwidth=h)
    draws = _draw_halves(cb, n)[0][0]
    per_t = []
    for dim in range(6):
        liks = [kde_window_mass(draws[:, dim], h, turn, d) for turn in (0.1, 0.15)]
        per_t.append(max(liks) - liks[1])
    assert g == pytest.approx(np.mean(per_t), abs=1e-12)
    assert 0.0 < g <= 1.0


def test_generative_regret_permutation_symmetry():
    rng = np.random.default_rng(27)
    enc = rng.uniform(0.2, 1.0, (N_CUE_BUCKETS, 2, 3))
    enc /= enc.sum(axis=2, keepdims=True)
    means = rng.uniform(-0.3, 0.3, (3, 12))
    stds = rng.uniform(0.05, 0.2, (3, 12))
    cb = Codebook(K=3, encoder=enc, means=means, stds=stds)
    perm = [2, 0, 1]
    cb_p = Codebook(K=3, encoder=enc[:, :, perm], means=means[perm],
                    stds=stds[perm])
    robot = ActionTraj(np.column_stack([np.zeros(6), rng.uniform(-0.2, 0.2, 6)]))
    human = ActionTraj(np.column_stack([np.zeros(6), rng.uniform(-0.2, 0.2, 6)]))
    a = _regret_of(cb, robot, human, 0.3, "Backup", n_samples=200)
    # permuted codebooks draw per-code samples from per-code streams, so use
    # large-n agreement rather than bitwise equality
    b = _regret_of(cb_p, robot, human, 0.3, "Backup", n_samples=200)
    assert a == pytest.approx(b, abs=0.05)
    assert 0.0 <= a <= 1.0


def test_generative_regret_out_of_support(codebook):
    robot = ActionTraj(np.column_stack([np.zeros(6), np.zeros(6)]))
    far = ActionTraj(np.column_stack([np.zeros(6), np.full(6, 1.0)]))
    with pytest.raises(OutOfSupportError):
        _regret_of(codebook, robot, far, 0.5, "Primary",
                   n_samples=50, delta=0.01, bandwidth=0.005)
    with pytest.raises(ValueError):
        _regret_of(codebook, ActionTraj(np.zeros((3, 2))), far, 0.5, "Primary")


def test_generative_regret_basics(codebook):
    sample, _, _ = simulate_nav_scene(0.5, "Primary", RngStream(40),
                                      epsilon_sigma=0.0, exec_noise=0.02)
    # no shared candidate, or only the executed trajectory: zero regret
    for shared in ([], [sample.robot_traj]):
        g0 = _regret_of(codebook, sample.robot_traj, sample.human_traj, 0.5, "Primary",
                        hindsight_candidates=shared)
        assert g0 == 0.0
    g = _regret_of(codebook, sample.robot_traj, sample.human_traj, 0.5, "Primary")
    assert 0.0 <= g <= 1.0


def test_generative_regret_bounded_fuzz(codebook):
    root = RngStream(61)
    for i in range(15):
        delta = float(root.derive(i, 0).generator().uniform())
        goal = GOALS[i % 2]
        sample, _, _ = simulate_nav_scene(delta, goal, root.derive(i, 1),
                                          exec_noise=0.02)
        try:
            g = _regret_of(codebook, sample.robot_traj, sample.human_traj, delta, goal,
                           n_samples=100)
        except OutOfSupportError:
            continue
        assert 0.0 <= g <= 1.0


def test_default_hindsight_candidates():
    cands = default_hindsight_candidates(NavWorld())
    assert len(cands) == 9
    for c in cands:
        assert len(c) == NAV_STEPS


def test_mismatch_collision_dominates(codebook):
    out = build_mismatch_scenarios(codebook, RngStream(5, 17), n_reps=8,
                                   n_samples=120)
    assert set(out) == {"nominal", "collision", "irrelevant"}
    assert out["collision"] > out["nominal"]
    assert out["collision"] > out["irrelevant"]


def test_perception_case_orderings():
    res = perception_case_study(SensorModel(), n_samples_per_condition=25,
                                rng=RngStream(8), n_samples=120)
    vals = dict(res)
    assert set(vals) == {"obstacle-detected", "obstacle-missed", "empty-clear",
                         "empty-false-alarm"}
    assert vals["obstacle-missed"] > vals["obstacle-detected"]
    assert vals["empty-false-alarm"] > vals["empty-clear"]


def test_sensor_model():
    always = SensorModel(injected_fault=True)
    assert always.sense(False) and always.sense(True)
    never = SensorModel(injected_fault=False)
    assert not never.sense(True) and not never.sense(False)
    # Unforced, the sensor is perfect: it returns the true bit.
    perfect = SensorModel()
    assert perfect.sense(True) is True and perfect.sense(False) is False
    with pytest.raises(TypeError):
        SensorModel(0.7, 0.2)


def test_nav_serialization_round_trip(nav_data, codebook):
    subset = nav_data[:20]
    back = nav_samples_from_json(nav_samples_to_json(subset))
    assert len(back) == 20
    for a, b in zip(subset, back):
        assert a.delta_h == b.delta_h and a.goal == b.goal
        assert a.outcome_class == b.outcome_class
        np.testing.assert_array_equal(a.robot_traj.actions, b.robot_traj.actions)
    cb2 = codebook_from_json(codebook_to_json(codebook))
    np.testing.assert_array_equal(cb2.encoder, codebook.encoder)
    np.testing.assert_array_equal(cb2.means, codebook.means)
    np.testing.assert_array_equal(cb2.stds, codebook.stds)
    assert cb2.K == codebook.K
    with pytest.raises(ValueError):
        nav_samples_from_json('{"schema": "nav/2", "samples": []}')
    with pytest.raises(ValueError):
        codebook_from_json('{"schema": "codebook/9"}')


# ---------------------------------------------------------------------------
# Scalar nav kernel
# ---------------------------------------------------------------------------

# Headings at and just inside +-pi, where wrap_angle is not idempotent.
_NAV_HEADINGS = st.one_of(
    st.sampled_from([math.pi, -math.pi, math.pi - 1e-15, -math.pi + 1e-15,
                     -math.pi - 4e-16, math.pi / 2, -math.pi / 2, 0.0]),
    st.floats(-math.pi, math.pi),
)
# Turns around the 1e-12 straight-line threshold, at and beyond the turn
# limit (clamped before stepping, as genplan's loops do), and in between.
_NAV_TURNS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-13, -5e-13, 9.99e-13, -9.99e-13, 1e-12,
                     -1e-12, 1.01e-12, -3e-15, -3e-16, TURN_LIMIT, -TURN_LIMIT,
                     1.0 + 1e-9, -1.5, 7.0, float("inf"), float("-inf")]),
    st.floats(-3.0, 3.0),
)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(-10.0, 10.0),
    y=st.floats(-10.0, 10.0),
    heading=_NAV_HEADINGS,
    speed=st.sampled_from([ROBOT_NAV_SPEED, HUMAN_NAV_SPEED]),
    turns=st.lists(_NAV_TURNS, min_size=1, max_size=NAV_STEPS),
)
# One wrap of -pi - 3e-16 gives +pi; the second gives -pi.
@example(x=0.0, y=0.0, heading=-math.pi, speed=ROBOT_NAV_SPEED,
         turns=[-3e-16, 0.0])
def test_nav_step_equals_unicycle_step(x, y, heading, speed, turns):
    # classify_human_direction's rollout: rollout_positions at NAV_DT with
    # the accelerations of a nav trajectory, all 0.0
    state = AgentState(x, y, heading, speed)
    traj = ActionTraj(np.column_stack([np.zeros(len(turns)),
                                       [_clamp_turn(w) for w in turns]]))
    positions = rollout_positions(state, traj, NAV_DT)
    for w, (kx, ky) in zip(turns, positions.tolist()):
        state = unicycle_step(state, 0.0, float(np.clip(w, -TURN_LIMIT, TURN_LIMIT)),
                              NAV_DT)
        assert (kx, ky) == (state.x, state.y)


def _block_steer(start_xy, heading, speed, target, noise, gain=1.0):
    """steer's signature on one row of _steer_block."""
    turns, pos = _steer_block(start_xy[0], start_xy[1], heading, speed, target, gain,
                              np.array([noise], dtype=float))
    return turns[0].tolist(), [tuple(p) for p in pos[0].tolist()]


def test_nav_step_rejects_non_finite_turn():
    # Both controllers, the float loop and the block kernel, step their
    # clamped turns through the kernel. Clamping keeps NaN, so a NaN noise
    # term gives a NaN turn, which the kernel rejects, and so does a
    # non-finite heading, which wraps to NaN.
    target = (0.0, 5.0)
    for steer_fn in (steer, _block_steer):
        with pytest.raises(ValueError, match="^dubins_step must be finite"):
            steer_fn((0.0, 0.0), 0.0, ROBOT_NAV_SPEED, target, [0.1, float("nan")])
        for heading in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^dubins_step must be finite"):
                steer_fn((0.0, 0.0), heading, ROBOT_NAV_SPEED, target, [0.1])
        # an infinite noise term is clamped to the turn limit before the step
        for e in (float("inf"), float("-inf")):
            turns, pos = steer_fn((0.0, 0.0), 0.0, ROBOT_NAV_SPEED, target, [0.1, e])
            assert turns[1] == math.copysign(TURN_LIMIT, e)
            assert all(math.isfinite(v) for xy in pos for v in xy)


_STEER_SPEEDS = st.one_of(
    st.sampled_from([0.0, -0.0, ROBOT_NAV_SPEED, HUMAN_NAV_SPEED, -0.5]),
    st.floats(0.0, 3.0))
_STEER_ROWS = st.one_of(
    st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), _NAV_HEADINGS, _STEER_SPEEDS,
              st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
              st.sampled_from([0.5, 1.0, 2.0])),
    # straight at the target, so a zero noise term gives an exact-zero turn
    st.builds(lambda x, v, g: (x, 0.0, math.pi / 2, v, (x, 5.0), g),
              st.floats(-6.0, 6.0), _STEER_SPEEDS, st.sampled_from([0.5, 1.0, 2.0])))
# Noise around zero, signed zeros, and terms that saturate the clamp.
_STEER_NOISE = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 2.5, -2.5, TURN_LIMIT]),
    st.floats(-0.3, 0.3), st.floats(-3.0, 3.0))


@st.composite
def _steer_cases(draw):
    """Rows of _steer_block's arguments and one noise list per row."""
    rows = draw(st.lists(_STEER_ROWS, min_size=1, max_size=6))
    steps = draw(st.integers(0, NAV_STEPS))
    noise = [draw(st.lists(_STEER_NOISE, min_size=steps, max_size=steps)) for _ in rows]
    # In some cases one non-finite term: NaN makes a NaN turn, which the
    # step refuses, and +-inf is clamped to the turn limit.
    bad = draw(st.sampled_from([None, None, float("nan"), float("inf"), float("-inf")]))
    if bad is not None and steps:
        noise[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, steps - 1))] = bad
    return rows, noise


_STRAIGHT = (0.0, 0.0, math.pi / 2, ROBOT_NAV_SPEED, (0.0, 5.0), 1.0)


@settings(max_examples=300, deadline=None)
@given(case=_steer_cases())
@example(case=([_STRAIGHT, (1.0, -2.0, -math.pi, 0.0, (3.0, 3.0), 2.0)],
               [[-0.0, 0.0, 2.5, -2.5, -0.0, 0.0]] * 2))
@example(case=([_STRAIGHT, _STRAIGHT], [[0.0, 0.1], [0.0, float("nan")]]))
def test_steer_block_rows_equal_the_float_loop(case):
    rows, noise = case
    refs, errors = [], set()
    for (x, y, heading, speed, target, gain), row in zip(rows, noise):
        try:
            refs.append(steer((x, y), heading, speed, target, row, gain))
        except ValueError as exc:
            errors.add(str(exc))
    x, y, heading, speed, target, gain = (np.array(c, dtype=float) for c in zip(*rows))
    block = np.array(noise, dtype=float).reshape(len(rows), -1)
    if errors:
        # the float loop refuses a row, so the block refuses, with its error
        with pytest.raises(ValueError) as exc:
            _steer_block(x, y, heading, speed, target, gain, block)
        assert str(exc.value) in errors
        return
    turns, pos = _steer_block(x, y, heading, speed, target, gain, block)
    assert turns.shape == block.shape and pos.shape == (*block.shape, 2)
    for (ref_turns, ref_pos), got_turns, got_pos in zip(refs, turns, pos):
        assert _hex(got_turns) == _hex(ref_turns)
        assert _hex(got_pos) == _hex(ref_pos)


def test_steer_block_takes_the_straight_branch_on_exact_zero_turns():
    # Heading straight at the target, zero noise gives a turn of exactly 0.0
    # (also with a -0.0 term), which the step takes as a straight line.
    turns, pos = _steer_block(0.0, 0.0, math.pi / 2, ROBOT_NAV_SPEED, (0.0, 5.0), 1.0,
                              np.array([[0.0, -0.0, 0.0]]))
    assert _hex(turns) == _hex([0.0] * 3)
    h = wrap_angle(math.pi / 2)
    assert pos[0, 0].tolist() == [ROBOT_NAV_SPEED * math.cos(h) * NAV_DT,
                                  ROBOT_NAV_SPEED * math.sin(h) * NAV_DT]
    _, ref_pos = steer((0.0, 0.0), math.pi / 2, ROBOT_NAV_SPEED, (0.0, 5.0), [0.0, -0.0, 0.0])
    assert _hex(pos[0]) == _hex(ref_pos)


def test_classify_human_direction_equals_unicycle_step_reference(nav_data):
    # The human steps from the nav world's human start, heading -pi/2 at
    # HUMAN_NAV_SPEED, one reference unicycle_step per turn; its class is
    # the target nearest the endpoint.
    ctx = NavWorld()
    targets = [genplan._HUMAN_TARGETS[c] for c in HUMAN_CLASSES]
    bent = [ActionTraj(np.column_stack([np.zeros(NAV_STEPS), np.full(NAV_STEPS, w)]))
            for w in (-TURN_LIMIT, -0.3, -3e-16, 0.0, 0.3, TURN_LIMIT)]
    trajs = [s.human_traj for s in nav_data] + bent
    for traj in trajs:
        state = AgentState(*ctx.human_start, -math.pi / 2, HUMAN_NAV_SPEED)
        for w in traj.actions[:, 1].tolist():
            state = unicycle_step(state, 0.0, w, NAV_DT)
        d = [math.hypot(state.x - tx, state.y - ty) for tx, ty in targets]
        assert classify_human_direction(traj) == int(np.argmin(d))
    assert {classify_human_direction(t) for t in trajs} == {0, 1, 2}


# ---------------------------------------------------------------------------
# Generative regret against a from-scratch reference
# ---------------------------------------------------------------------------

def _reference_draws(cb, n):
    out = np.empty((cb.K, n, 2 * NAV_STEPS))
    for z in range(cb.K):
        gen = RngStream(987654321, 11).derive(z, n).generator()
        out[z] = cb.means[z] + cb.stds[z] * gen.standard_normal((n, 2 * NAV_STEPS))
    return out


def _reference_masses(draws, queries, delta, bandwidth):
    q = queries[np.newaxis, ..., np.newaxis, :]
    d = draws.reshape(draws.shape[0], *([1] * (queries.ndim - 1)),
                      draws.shape[1], draws.shape[2])
    hi = ndtr((q + delta - d) / bandwidth)
    lo = ndtr((q - delta - d) / bandwidth)
    return np.mean(hi - lo, axis=-2)


def _reference_candidates(executed):
    ctx = NavWorld()
    mid = ((ctx.goal_primary[0] + ctx.goal_backup[0]) / 2.0,
           (ctx.goal_primary[1] + ctx.goal_backup[1]) / 2.0)
    cands = []
    for target in (ctx.goal_primary, ctx.goal_backup, mid):
        for gain in (0.5, 1.0, 2.0):
            state = AgentState(ctx.robot_start[0], ctx.robot_start[1],
                               math.pi / 2, ROBOT_NAV_SPEED)
            turns = np.empty(NAV_STEPS)
            for k in range(NAV_STEPS):
                desired = math.atan2(target[1] - state.y, target[0] - state.x)
                w = float(np.clip(gain * wrap_angle(desired - state.heading),
                                  -TURN_LIMIT, TURN_LIMIT))
                state = unicycle_step(state, 0.0, w, NAV_DT)
                turns[k] = w
            cands.append(ActionTraj(np.column_stack([np.zeros(NAV_STEPS), turns])))
    return cands + [executed]


def _reference_regret(cb, executed, observed, delta_h, goal, cands=None,
                      n_samples=250, delta=0.1, bandwidth=0.05):
    """generative_regret computed from scratch: fresh draws, fresh
    candidates, one batched window-mass evaluation."""
    cands = _reference_candidates(executed) if cands is None else list(cands)
    exec_idx = next(i for i, c in enumerate(cands) if c == executed)
    w = cb.encoder_row(delta_h, goal)
    draws = _reference_draws(cb, n_samples)
    cand_turns = np.stack([c.actions[:, 1] for c in cands])
    m_h = _reference_masses(draws[:, :, NAV_STEPS:], observed.actions[:, 1],
                            delta, bandwidth)
    m_r = _reference_masses(draws[:, :, :NAV_STEPS], cand_turns, delta, bandwidth)
    den = np.einsum("k,kt->t", w, m_h)
    num = np.einsum("k,kt,kct->ct", w, m_h, m_r)
    lik = np.clip(num / den[np.newaxis, :], 0.0, 1.0)
    return float(np.mean(lik.max(axis=0) - lik[exec_idx]))


@pytest.fixture(scope="module")
def scored_samples(nav_data):
    return nav_data[:8]


def test_default_candidates_equal_reference():
    executed = ActionTraj(np.column_stack([np.zeros(6), np.full(6, 0.1)]))
    assert [*default_hindsight_candidates(NavWorld()), executed] == \
        _reference_candidates(executed)
    # the candidates of one world are built once
    assert default_hindsight_candidates(NavWorld()) is default_hindsight_candidates(NavWorld())


_KDE_SETTINGS = [dict(n_samples=250, delta=0.1, bandwidth=0.05),
                 dict(n_samples=120, delta=0.1, bandwidth=0.05),
                 dict(n_samples=250, delta=0.2, bandwidth=0.05),
                 dict(n_samples=250, delta=0.1, bandwidth=0.1)]


@pytest.mark.parametrize("K", [1, 2, 6])
def test_memoised_regret_equals_reference(nav_data, scored_samples, K):
    # Two codebooks scored in turn, the samples cycling through four KDE
    # settings, with the default candidates and with the divert candidate
    # too: every value equals the from-scratch reference, also after a call
    # refused for its support.
    cbs = (fit_codebook(nav_data, K=K), fit_codebook(nav_data[100:], K=K))
    divert = divert_shape_candidate()
    far = ActionTraj(np.column_stack([np.zeros(6), np.full(6, 1.0)]))
    for i, s in enumerate(scored_samples + scored_samples[::-1]):
        args = (s.robot_traj, s.human_traj, s.delta_h, s.goal)
        cands = [divert, *default_hindsight_candidates(NavWorld()), s.robot_traj]
        kw = _KDE_SETTINGS[i % len(_KDE_SETTINGS)]
        for cb in (cbs if i % 2 else cbs[::-1]):
            assert _outcome(_regret_of, cb, *args, **kw) == \
                _reference_outcome(cb, *args, **kw)
            assert _outcome(_regret_of, cb, *args, hindsight_candidates=cands, **kw) == \
                _reference_outcome(cb, *args, cands=cands, **kw)
            with pytest.raises(OutOfSupportError):
                _regret_of(cb, s.robot_traj, far, s.delta_h, s.goal,
                           n_samples=50, delta=0.01, bandwidth=0.005)


def test_codebook_arrays_are_read_only_copies():
    enc = np.full((N_CUE_BUCKETS, 2, 2), 0.5)
    means = np.zeros((2, 12))
    cb = Codebook(K=2, encoder=enc, means=means, stds=np.full((2, 12), 0.1))
    means[0, 0] = 5.0
    assert cb.means[0, 0] == 0.0
    for arr in (cb.encoder, cb.means, cb.stds):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_draw_halves_equal_the_slices_of_the_full_draws(codebook):
    for n in (1, 120, 250):
        draws = _reference_draws(codebook, n)
        robot, human = _draw_halves(codebook, n)
        assert robot.flags.c_contiguous and human.flags.c_contiguous
        assert _hex(robot) == _hex(draws[:, :, :NAV_STEPS])
        assert _hex(human) == _hex(draws[:, :, NAV_STEPS:])


def test_codebook_document_with_noise_sigma_still_decodes(codebook):
    # codebook/1 documents written before the unused noise_sigma field was
    # dropped carry its key; it is ignored.
    doc = json.loads(codebook_to_json(codebook))
    assert "noise_sigma" not in doc
    old = codebook_from_json(json.dumps(dict(doc, noise_sigma=0.05)))
    assert old.K == codebook.K
    for name in ("encoder", "means", "stds"):
        assert _hex(getattr(old, name)) == _hex(getattr(codebook, name))


# ---------------------------------------------------------------------------
# Generative fixed costs against per-row and per-deployment references
# ---------------------------------------------------------------------------

def _hex(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), scale=st.floats(0.0, 5.0))
def test_vector_normal_equals_scalar_draws(seed, scale):
    vec = RngStream(seed).generator().normal(0.0, scale, NAV_STEPS)
    gen = RngStream(seed).generator()
    scalars = [float(gen.normal(0.0, scale)) for _ in range(NAV_STEPS)]
    assert _hex(vec) == _hex(scalars)


def _reference_perception_robot(goal, gen, exec_noise, ctx):
    """One ActionTraj per row, one scalar draw per step."""
    target = ctx.goal_primary if goal == "Primary" else ctx.goal_backup
    state = AgentState(ctx.robot_start[0], ctx.robot_start[1], math.pi / 2,
                       ROBOT_NAV_SPEED)
    turns = []
    for _ in range(NAV_STEPS):
        desired = math.atan2(target[1] - state.y, target[0] - state.x)
        w = _clamp_turn(_clamp_turn(wrap_angle(desired - state.heading))
                        + float(gen.normal(0.0, exec_noise)))
        state = unicycle_step(state, 0.0, w, NAV_DT)
        turns.append(w)
    return ActionTraj(np.column_stack([np.zeros(NAV_STEPS), turns]))


def _block_perception_robot(goal, gen, exec_noise):
    """One executed robot of the perception study: its six noise terms from
    gen, then one row of _perception_turns."""
    noise = gen.normal(0.0, exec_noise, NAV_STEPS)[np.newaxis]
    turns = _perception_turns([goal], noise, NavWorld())[0]
    return ActionTraj(np.column_stack([np.zeros(NAV_STEPS), turns]))


def _reference_perception_codebook(n_fit, exec_noise, rng):
    ctx = NavWorld()
    vecs = {0: [], 1: []}
    for i in range(n_fit):
        for bit in (0, 1):
            traj = _reference_perception_robot(
                GOALS[bit], rng.derive(bit, i).generator(), exec_noise, ctx)
            vecs[bit].append(np.concatenate([traj.actions[:, 1],
                                             np.zeros(NAV_STEPS)]))
    means = np.array([np.array(vecs[b]).mean(axis=0) for b in (0, 1)])
    stds = np.array([np.maximum(np.array(vecs[b]).std(axis=0), 1e-3)
                     for b in (0, 1)])
    return means, stds


@pytest.mark.parametrize("n_fit,exec_noise,seed",
                         [(200, 0.02, 0), (30, 0.3, 5), (2, 0.0, 9)])
def test_perception_codebook_fit_equals_reference(n_fit, exec_noise, seed):
    rng = RngStream(seed).derive(0)
    cb = _fit_perception_codebook(n_fit, exec_noise, rng)
    means, stds = _reference_perception_codebook(n_fit, exec_noise, rng)
    assert _hex(cb.means) == _hex(means)
    assert _hex(cb.stds) == _hex(stds)
    gen, ref_gen = (RngStream(seed, 3).generator() for _ in range(2))
    for goal in GOALS:
        assert _block_perception_robot(goal, gen, exec_noise) == \
            _reference_perception_robot(goal, ref_gen, exec_noise, NavWorld())


def _outcome(fn, *args, **kw):
    """fn's value, or the type of the OutOfSupportError it raised."""
    try:
        return fn(*args, **kw)
    except OutOfSupportError as exc:
        return type(exc)


def _reference_outcome(cb, executed, observed, delta_h, goal, cands=None,
                       n_samples=250, delta=0.1, bandwidth=0.05):
    """_reference_regret, or OutOfSupportError where the reference
    denominator is below generative_regret's floor."""
    m_h = _reference_masses(_reference_draws(cb, n_samples)[:, :, NAV_STEPS:],
                            observed.actions[:, 1], delta, bandwidth)
    if np.any(np.einsum("k,kt->t", cb.encoder_row(delta_h, goal), m_h) < 1e-300):
        return OutOfSupportError
    return _reference_regret(cb, executed, observed, delta_h, goal, cands,
                             n_samples, delta, bandwidth)


def _zeroed_codebook(cb, drop):
    """cb with the encoder weights of the codes in drop set to 0 in every
    row (each row keeps at least one code), renormalized."""
    enc = np.array(cb.encoder)
    enc[:, :, list(drop)] = 0.0
    enc /= enc.sum(axis=2, keepdims=True)
    return Codebook(K=cb.K, encoder=enc, means=cb.means, stds=cb.stds)


@pytest.mark.parametrize("drop", [(0, 2, 3, 5), (1, 2, 3, 4, 5), (4,)])
def test_regret_with_zeroed_codes_equals_reference(nav_data, scored_samples,
                                                   drop):
    cb = _zeroed_codebook(fit_codebook(nav_data, K=6), drop)
    divert = divert_shape_candidate()
    for s in scored_samples + scored_samples[::-1]:
        args = (s.robot_traj, s.human_traj, s.delta_h, s.goal)
        cands = [divert, *default_hindsight_candidates(NavWorld()), s.robot_traj]
        for kw in ({}, dict(hindsight_candidates=cands),
                   dict(n_samples=120, bandwidth=0.1)):
            ref_kw = dict(kw)
            ref_kw["cands"] = ref_kw.pop("hindsight_candidates", None)
            assert _outcome(_regret_of, cb, *args, **kw) == \
                _reference_outcome(cb, *args, **ref_kw)


def test_regret_on_perception_codebook_equals_reference():
    cb = _fit_perception_codebook(200, 0.02, RngStream(3).derive(0))
    assert set(np.unique(cb.encoder)) == {0.0, 1.0}
    flat = ActionTraj(np.zeros((NAV_STEPS, 2)))
    for i in range(6):
        gen = RngStream(3, i).generator()
        executed = _block_perception_robot(GOALS[i % 2], gen, 0.02)
        for true_goal in GOALS:
            for kw in ({}, dict(n_samples=120, delta=0.2)):
                assert _regret_of(cb, executed, flat, 0.5, true_goal, **kw) == \
                    _reference_regret(cb, executed, flat, 0.5, true_goal, **kw)


def _reference_perception_case(n, rng, delta=0.1, bandwidth=0.05,
                               n_samples=250, exec_noise=0.02):
    """perception_case_study one deployment at a time, on the reference
    codebook fit, trajectories and regret."""
    means, stds = _reference_perception_codebook(200, exec_noise, rng.derive(0))
    enc = np.zeros((N_CUE_BUCKETS, 2, 2))
    enc[:, 0, 0] = enc[:, 1, 1] = 1.0
    cb = Codebook(K=2, encoder=enc, means=means, stds=stds)
    flat = ActionTraj(np.zeros((NAV_STEPS, 2)))
    out = []
    for tag, obstacle, sensed in (("obstacle-detected", True, True),
                                  ("obstacle-missed", True, False),
                                  ("empty-clear", False, False),
                                  ("empty-false-alarm", False, True)):
        vals = []
        for i in range(n):
            gen = rng.derive(genplan.hashn(tag), i).generator()
            executed = _reference_perception_robot(
                "Backup" if sensed else "Primary", gen, exec_noise, NavWorld())
            vals.append(_reference_regret(
                cb, executed, flat, 0.5, "Backup" if obstacle else "Primary",
                n_samples=n_samples, delta=delta, bandwidth=bandwidth))
        out.append((tag, float(np.mean(vals))))
    return out


@pytest.mark.parametrize("seed,kw", [(8, {}),
                                     (2, dict(n_samples=120, bandwidth=0.1))])
def test_perception_case_study_equals_reference(seed, kw):
    got = perception_case_study(SensorModel(), 6, rng=RngStream(seed), **kw)
    assert got == _reference_perception_case(6, RngStream(seed), **kw)


def test_perception_study_computes_the_human_masses_once(monkeypatch):
    halves, calls = [], []
    real_halves, real_masses = genplan._draw_halves, genplan._window_masses

    def recorded_halves(cb, n_samples):
        out = real_halves(cb, n_samples)
        halves.append(out)
        return out

    def counted(jobs, delta, bandwidth):
        calls.append([(draws, queries.copy()) for draws, queries in jobs])
        return real_masses(jobs, delta, bandwidth)

    monkeypatch.setattr(genplan, "_draw_halves", recorded_halves)
    monkeypatch.setattr(genplan, "_window_masses", counted)
    perception_case_study(SensorModel(), 5, rng=RngStream(4))
    [(robot, human)] = halves
    # One mass pass: the 20 flat humans are one distinct row, the 9 shared
    # candidates one job over both codes, and each code's executed masses
    # one job over the 10 rows (two conditions of 5) that weigh it.
    [[(h_draws, h_rows), (r_draws, r_rows), *executed]] = calls
    assert h_draws is human and _hex(h_rows) == _hex(np.zeros((1, NAV_STEPS)))
    assert r_draws is robot and r_rows.shape == (9, NAV_STEPS)
    assert [(d.base is robot, d.shape[0], q.shape) for d, q in executed] == \
        [(True, 1, (10, NAV_STEPS))] * 2


def _threaded_blocks(cb6, nav_data):
    """generative_regret arguments of a block on the K=6 codebook cb6, cb6 with
    code 4 zeroed, and the perception codebook."""
    def turns(trajs):
        return np.array([t.actions[:, 1] for t in trajs])

    shared = default_hindsight_candidates(NavWorld())
    samples = nav_data[:12]
    blocks = [(cb, shared, turns(s.robot_traj for s in samples),
               turns(s.human_traj for s in samples),
               np.array([cb.encoder_row(s.delta_h, s.goal) for s in samples]), 120, 0.1, 0.05)
              for cb in (cb6, _zeroed_codebook(cb6, (4,)))]
    cb = _fit_perception_codebook(200, 0.02, RngStream(3).derive(0))
    gens = [RngStream(3, i).generator() for i in range(8)]
    goals = [GOALS[i % 2] for i in range(8)]
    executed = _perception_turns(goals, np.array([g.normal(0.0, 0.02, NAV_STEPS) for g in gens]),
                                 NavWorld())
    weights = np.array([cb.encoder_row(0.5, GOALS[i // 2 % 2]) for i in range(8)])
    blocks.append((cb, shared, executed, np.zeros((8, NAV_STEPS)), weights, 120, 0.1, 0.05))
    return blocks


def test_more_mass_workers_than_cores_keep_every_bit(codebook, nav_data, monkeypatch):
    # One-row chunks shared by four times as many workers as this process
    # has CPUs, switching threads every microsecond for about two seconds:
    # a chunk lost, a buffer two workers write at once, or a mass written
    # into another chunk's slice would change a regret's bits against the
    # one-worker pass.
    blocks = _threaded_blocks(codebook, nav_data)
    cpus = genplan._mass_workers()
    monkeypatch.setattr(genplan, "_MASS_BYTES", 1)
    monkeypatch.setattr(genplan, "_mass_workers", lambda: 1)
    want = [_hex(generative_regret(*block)) for block in blocks]
    threads = set()

    def recorded_ndtr(x, out=None):
        threads.add(threading.get_ident())
        return ndtr(x, out=out)

    monkeypatch.setattr(genplan, "_mass_workers", lambda: 4 * cpus)
    monkeypatch.setattr(genplan, "ndtr", recorded_ndtr)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline, rounds = time.monotonic() + 2.0, 0
        while rounds < 3 or time.monotonic() < deadline:
            assert [_hex(generative_regret(*block)) for block in blocks] == want
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) > 1


def test_a_mass_worker_exception_reaches_the_caller(codebook, nav_data, monkeypatch):
    # A worker thread's error is raised by the call, and every thread the
    # call started has been joined by then.
    caller, raised, workers = threading.current_thread(), threading.Event(), set()

    def failing_ndtr(x, out=None):
        if threading.current_thread() is caller:
            raised.wait(timeout=30)  # leave the next chunk to a worker
            return ndtr(x, out=out)
        workers.add(threading.current_thread())
        raised.set()
        raise RuntimeError("injected worker failure")

    block = _threaded_blocks(codebook, nav_data)[0]
    monkeypatch.setattr(genplan, "_MASS_BYTES", 1)
    monkeypatch.setattr(genplan, "_mass_workers", lambda: 3)
    monkeypatch.setattr(genplan, "ndtr", failing_ndtr)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^injected worker failure$"):
        generative_regret(*block)
    assert raised.is_set() and workers
    for t in workers:
        t.join(timeout=30)
        assert not t.is_alive()
    assert threading.active_count() == before


def test_importing_genplan_starts_no_thread():
    env = dict(os.environ, PYTHONPATH=str(Path(genplan.__file__).parents[1]))
    code = ("import threading; before = threading.enumerate(); "
            "import regret_miner.genplan; print(threading.enumerate() == before)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_an_empty_block_starts_no_thread(codebook, nav_data, monkeypatch):
    started = []
    real_start = threading.Thread.start

    def recorded_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    monkeypatch.setattr(genplan, "_mass_workers", lambda: 2)
    assert sample_regrets(codebook, []) == []
    assert started == []
    # the probe sees the thread a block of one sample starts
    sample_regrets(codebook, nav_data[:1])
    assert len(started) == 1


@pytest.mark.parametrize("rows_per_call", [1, 2, None])
def test_regret_rows_equal_one_row_calls(nav_data, scored_samples, monkeypatch,
                                         rows_per_call):
    # A block of deployments, in one _window_masses call or in chunks of
    # rows, gives each row the bits of its one-row block, on
    # codebooks with every code live and with codes of weight 0, also for a
    # row whose executed turns are those of a shared candidate.
    divert = divert_shape_candidate()
    shared = [divert, *default_hindsight_candidates(NavWorld())]
    rows = [(s.robot_traj, s.human_traj, s.delta_h, s.goal)
            for s in scored_samples + scored_samples[::-1]]
    rows.append((shared[2], *rows[0][1:]))
    for cb in (fit_codebook(nav_data, K=6), _zeroed_codebook(fit_codebook(nav_data, K=6), (4,)),
               fit_codebook(nav_data, K=2)):
        if rows_per_call is not None:
            monkeypatch.setattr(genplan, "_MASS_BYTES",
                                rows_per_call * _draw_halves(cb, 120)[0].nbytes)
        got = generative_regret(cb, shared, np.array([r.actions[:, 1] for r, _, _, _ in rows]),
                                np.array([h.actions[:, 1] for _, h, _, _ in rows]),
                                np.array([cb.encoder_row(d, g) for _, _, d, g in rows]),
                                120, 0.1, 0.05)
        want = [_regret_of(cb, *row, hindsight_candidates=[*shared, row[0]], n_samples=120)
                for row in rows]
        assert _hex(got) == _hex(want)


@pytest.mark.parametrize("rows_per_call", [1, 2, None])
def test_one_hot_rows_of_both_codes_equal_one_row_calls(monkeypatch, rows_per_call):
    # Perception rows weigh one code each, rows of both codes interleaved:
    # each code's executed masses, in chunks of 1 or 2 rows or in one call,
    # give every row the bits of its one-row block.
    cb = _fit_perception_codebook(200, 0.02, RngStream(3).derive(0))
    gens = [RngStream(3, i).generator() for i in range(7)]
    goals = [GOALS[i % 3 % 2] for i in range(7)]
    executed = _perception_turns(goals, np.array([g.normal(0.0, 0.02, NAV_STEPS) for g in gens]),
                                 NavWorld())
    flat = ActionTraj(np.zeros((NAV_STEPS, 2)))
    true_goals = [GOALS[i // 2 % 2] for i in range(7)]
    if rows_per_call is not None:
        monkeypatch.setattr(genplan, "_MASS_BYTES",
                            rows_per_call * _draw_halves(cb, 120)[0][:1].nbytes)
    shared = default_hindsight_candidates(NavWorld())
    got = generative_regret(cb, shared, executed, np.zeros((7, NAV_STEPS)),
                            np.array([cb.encoder_row(0.5, g) for g in true_goals]),
                            120, 0.1, 0.05)
    want = [_regret_of(cb, ActionTraj(np.column_stack([np.zeros(NAV_STEPS), turns])),
                       flat, 0.5, g, n_samples=120)
            for turns, g in zip(executed, true_goals)]
    assert _hex(got) == _hex(want)


def test_sample_regrets_equal_generative_regret(codebook, nav_data):
    samples = nav_data[:40]
    want = [_regret_of(codebook, s.robot_traj, s.human_traj, s.delta_h, s.goal)
            for s in samples]
    assert _hex(sample_regrets(codebook, samples)) == _hex(want)
    assert sample_regrets(codebook, []) == []


@pytest.mark.parametrize("kind", ["executed", "observed", "hindsight candidate"])
def test_wrong_length_trajectories_are_named(codebook, scored_samples, kind):
    s = scored_samples[0]
    robot, human, cands = s.robot_traj, s.human_traj, None
    steps = {"executed": 3, "observed": 4, "hindsight candidate": 5}[kind]
    short = ActionTraj(np.zeros((steps, 2)))
    if kind == "executed":
        robot = short
    elif kind == "observed":
        human = short
    else:
        cands = [short, robot]
    with pytest.raises(ValueError, match=f"^{kind} trajectory has {steps} steps, "
                                         f"not NAV_STEPS = {NAV_STEPS}$"):
        _regret_of(codebook, robot, human, s.delta_h, s.goal, hindsight_candidates=cands)


@pytest.mark.parametrize("bad", ["one weight row", "two observed rows", "one weight column"])
def test_a_block_of_mismatched_shapes_is_refused(scored_samples, bad, monkeypatch):
    # Each of these used to score silently at the wrong encoder row or fail
    # inside numpy: the block is refused before any decoder draw, with a
    # ValueError naming the shapes.
    drawn = []
    monkeypatch.setattr(genplan, "_draw_halves", lambda *a: drawn.append(a))
    cb = _goal_keyed_codebook()
    samples = scored_samples[:3]
    executed = np.array([s.robot_traj.actions[:, 1] for s in samples])
    observed = np.array([s.human_traj.actions[:, 1] for s in samples])
    weights = np.array([cb.encoder_row(s.delta_h, s.goal) for s in samples])
    if bad == "one weight row":
        weights = weights[:1]
    elif bad == "two observed rows":
        observed = observed[:2]
    else:
        weights = weights[:, :1]
    shapes = (f"got executed {executed.shape}, observed {observed.shape} "
              f"and weights {weights.shape}")
    with pytest.raises(ValueError, match=re.escape(shapes)):
        generative_regret(cb, default_hindsight_candidates(NavWorld()), executed, observed,
                          weights, 120, 0.1, 0.05)
    assert drawn == []


def _goal_keyed_codebook():
    """K=2: goal Primary weighs code 0, whose decoder covers every turn;
    goal Backup weighs code 1, a narrow decoder of human turns 10, which
    supports no observed human."""
    enc = np.zeros((N_CUE_BUCKETS, 2, 2))
    enc[:, 0, 0] = enc[:, 1, 1] = 1.0
    means = np.zeros((2, 12))
    means[1, NAV_STEPS:] = 10.0
    stds = np.array([np.full(12, 0.5), np.full(12, 1e-3)])
    return Codebook(K=2, encoder=enc, means=means, stds=stds)


def test_out_of_support_names_the_first_row(nav_data):
    cb = _goal_keyed_codebook()
    samples = nav_data[:12]
    first = next(i for i, s in enumerate(samples) if s.goal == "Backup")
    assert first > 0
    with pytest.raises(OutOfSupportError, match=f"row {first} ") as exc:
        sample_regrets(cb, samples)
    assert exc.value.row == first
    primary = [s for s in samples if s.goal == "Primary"]
    assert all(0.0 <= v <= 1.0 for v in sample_regrets(cb, primary))


@pytest.mark.parametrize("bad", [dict(n_samples=0), dict(n_samples=-3),
                                 dict(bandwidth=0.0), dict(bandwidth=-0.05),
                                 dict(bandwidth=float("nan")),
                                 dict(delta=0.0), dict(delta=float("nan"))])
def test_kde_parameters_are_checked_before_the_memo(codebook, scored_samples,
                                                    bad, monkeypatch):
    # A bad setting is refused before any decoder draw.
    drawn = []
    monkeypatch.setattr(genplan, "_draw_halves", lambda *a: drawn.append(a))
    s = scored_samples[0]
    args = (s.robot_traj, s.human_traj, s.delta_h, s.goal)
    with pytest.raises(ValueError, match="must be"):
        _regret_of(codebook, *args, **bad)
    with pytest.raises(ValueError, match="must be"):
        build_mismatch_scenarios(codebook, RngStream(1), n_reps=2, **bad)
    with pytest.raises(ValueError, match="must be"):
        perception_case_study(SensorModel(), 2, rng=RngStream(1), **bad)
    assert drawn == []
    if "n_samples" not in bad:
        kw = dict(dict(bandwidth=0.05, delta=0.1), **bad)
        with pytest.raises(ValueError, match="must be positive"):
            kde_window_mass([0.0, 0.1], kw["bandwidth"], 0.0, kw["delta"])


def test_zero_counts_are_rejected(codebook):
    with pytest.raises(ValueError, match="n_samples_per_condition"):
        perception_case_study(SensorModel(), 0)
    with pytest.raises(ValueError, match="n_reps"):
        build_mismatch_scenarios(codebook, RngStream(1), n_reps=0)


def test_codebook_rejects_negative_weights_and_non_finite_means():
    enc = np.full((N_CUE_BUCKETS, 2, 2), 0.5)
    means = np.zeros((2, 12))
    stds = np.full((2, 12), 0.1)
    bad_enc = enc.copy()
    bad_enc[3, 1] = (-0.5, 1.5)
    with pytest.raises(ValueError, match=">= 0"):
        Codebook(K=2, encoder=bad_enc, means=means, stds=stds)
    for v in (float("nan"), float("inf")):
        bad_means = means.copy()
        bad_means[1, 7] = v
        with pytest.raises(ValueError, match="finite"):
            Codebook(K=2, encoder=enc, means=bad_means, stds=stds)
