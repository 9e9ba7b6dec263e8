"""The scene/1 codec as the package had it, kept as the codec tests' reference.

scene/1 spells every state and action out as JSON numbers. The package now
writes scene/2 and reads both; tests encode records with this copy of the
old writer, and decode them with this copy of the old reader, to check that
the package's decode of either encoding equals it.
"""

import numpy as np

from regret_miner.core import ActionTraj, AgentState, JointState
from regret_miner.planner import ReplanEntry
from regret_miner.predictor import ModePrediction, PredictionSet
from regret_miner.simkit import SceneRecord, context_from_dict, context_to_dict


def _state_to_list(s):
    return [s.x, s.y, s.heading, s.speed]


def _traj_to_dict(traj):
    return {"start_t": traj.start_t, "actions": traj.actions.tolist()}


def _predset_to_list(ps):
    return [[{"label": m.label, "prob": m.prob, "traj": _traj_to_dict(m.traj)}
             for m in human] for human in ps.humans]


def scene1_dict(rec) -> dict:
    return {
        "schema": "scene/1",
        "scenario_id": rec.scenario_id,
        "context": context_to_dict(rec.context),
        "states": [
            {"t": js.t, "robot": _state_to_list(js.robot),
             "humans": [_state_to_list(h) for h in js.humans]}
            for js in rec.states
        ],
        "executed_robot": [_traj_to_dict(tr) for tr in rec.executed_robot],
        "human_actions": [_traj_to_dict(tr) for tr in rec.human_actions],
        "replan_log": [
            {
                "t": e.t,
                "candidates": [_traj_to_dict(c) for c in e.candidates],
                "predicted_humans": _predset_to_list(e.predicted_humans),
                "candidate_rewards_predicted": e.candidate_rewards_predicted,
                "executed_index": e.executed_index,
                "predicted_reward_samples": [[r, w] for r, w in e.predicted_reward_samples],
            }
            for e in rec.replan_log
        ],
        "per_frame_collision_cost": rec.per_frame_collision_cost,
        "aborted": rec.aborted,
        "abort_reason": rec.abort_reason,
        "human_radii": rec.radii_or_default(),
    }


def _state_from_list(v):
    return AgentState(v[0], v[1], v[2], v[3])


def _trajs_from_dicts(ds):
    try:
        block = np.array([d["actions"] for d in ds], dtype=float)
    except ValueError:
        block = None
    if block is None or block.ndim != 3:
        return [ActionTraj(np.array(d["actions"], dtype=float), start_t=d["start_t"])
                for d in ds]
    return ActionTraj.block(block, [d["start_t"] for d in ds])


def _predset_from_list(v):
    trajs = iter(_trajs_from_dicts([m["traj"] for human in v for m in human]))
    return PredictionSet(tuple(
        tuple(ModePrediction(m["label"], m["prob"], next(trajs)) for m in human)
        for human in v
    ))


def scene1_record(d: dict) -> SceneRecord:
    assert d["schema"] == "scene/1"
    states = [
        JointState(_state_from_list(s["robot"]),
                   tuple(_state_from_list(h) for h in s["humans"]), s["t"])
        for s in d["states"]
    ]
    entries = [
        ReplanEntry(
            t=e["t"],
            candidates=_trajs_from_dicts(e["candidates"]),
            predicted_humans=_predset_from_list(e["predicted_humans"]),
            candidate_rewards_predicted=list(e["candidate_rewards_predicted"]),
            executed_index=e["executed_index"],
            predicted_reward_samples=[(r, w) for r, w in e["predicted_reward_samples"]],
        )
        for e in d["replan_log"]
    ]
    rec = SceneRecord(
        scenario_id=d["scenario_id"],
        context=context_from_dict(d["context"]),
        states=states,
        executed_robot=_trajs_from_dicts(d["executed_robot"]),
        human_actions=_trajs_from_dicts(d["human_actions"]),
        replan_log=entries,
        per_frame_collision_cost=list(d["per_frame_collision_cost"]),
        aborted=d.get("aborted", False),
        abort_reason=d.get("abort_reason", ""),
    )
    rec.human_radii = list(d.get("human_radii", []))
    return rec
