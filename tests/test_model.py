from __future__ import annotations

import numpy as np
import pytest

import haig.model
from haig import (
    GameSpec,
    GroundTruthSystem,
    allowed_human_actions,
    build_chain,
    build_dialogue,
    margin,
    random_game,
    step_info_state,
    validate_model,
)


def _tiny_game(**overrides) -> GameSpec:
    """Two states, two actions per side, one observation; state 1 fails."""
    fields = dict(
        num_states=2,
        ai_actions=("stay", "go"),
        human_actions=("stay", "go"),
        observations=("none",),
        transitions=np.zeros((2, 2, 2, 1), dtype=np.int64),
        observation_probs=np.ones((2, 2, 2, 1)),
        margins=np.array([1.0, -1.0]),
        action_bound=((0, 1), (0, 1)),
    )
    fields.update(overrides)
    return GameSpec(**fields)


def _mirror_gt(spec: GameSpec, **overrides) -> GroundTruthSystem:
    nz, na, nb = spec.num_states, spec.num_ai_actions, spec.num_human_actions
    world = spec.transitions[:, :, :, 0].copy()
    fields = dict(
        num_world_states=nz,
        num_human_states=1,
        num_human_observations=1,
        world_transitions=world,
        human_transitions=np.zeros((1, na, nb, 1), dtype=np.int64),
        human_observation=np.zeros(nz, dtype=np.int64),
        ai_observation=np.zeros((nz, na, nb), dtype=np.int64),
        failure=(spec.margins < 0).reshape(nz, 1),
        projection=np.arange(nz, dtype=np.int64).reshape(nz, 1),
    )
    fields.update(overrides)
    return GroundTruthSystem(**fields)


def test_step_margin_and_bound_accessors():
    spec = build_chain(5).game
    assert step_info_state(spec, 3, 2, 1, 0) == 4  # ai +1, human 0
    assert step_info_state(spec, 5, 2, 2, 0) == 5  # clamped at the top
    assert step_info_state(spec, 0, 0, 0, 0) == 0
    assert margin(spec, 0) == -1.0
    assert margin(spec, 4) == 3.0
    assert allowed_human_actions(spec, 2) == (0, 1, 2)


def test_step_accepts_out_of_bound_human_actions():
    spec = build_chain(5, human_reach=3, odd_reach=1).game
    assert allowed_human_actions(spec, 3) == (2, 3, 4)
    # index 0 is delta -3, outside the admissible bound but still defined
    assert step_info_state(spec, 3, 1, 0, 0) == 0


def test_index_errors_name_the_argument():
    spec = build_chain(5).game
    with pytest.raises(IndexError, match="info state"):
        step_info_state(spec, 6, 0, 0, 0)
    with pytest.raises(IndexError, match="ai action"):
        step_info_state(spec, 0, 3, 0, 0)
    with pytest.raises(IndexError, match="human action"):
        step_info_state(spec, 0, 0, 5, 0)
    with pytest.raises(IndexError, match="observation"):
        step_info_state(spec, 0, 0, 0, 1)
    with pytest.raises(IndexError, match="not an integer"):
        margin(spec, "start")


def test_deterministic_predicate_and_failure_states():
    assert build_chain(5).game.is_deterministic()
    assert build_dialogue().game.is_deterministic()
    assert not random_game(0, states=6, observations=3).game.is_deterministic()
    assert build_chain(5).game.failure_states() == (0,)
    assert build_dialogue().game.failure_states() == (7,)


def test_bound_mask_matches_action_bound():
    spec = build_dialogue().game
    mask = spec.bound_mask
    assert mask.shape == (8, 4)
    for z, row in enumerate(spec.action_bound):
        assert tuple(np.flatnonzero(mask[z])) == row


def test_arrays_are_readonly():
    spec = build_chain(5).game
    with pytest.raises(ValueError):
        spec.transitions[0, 0, 0, 0] = 1
    with pytest.raises(ValueError):
        spec.margins[0] = 0.0


def test_spec_equality_is_structural():
    a = build_chain(5).game
    b = build_chain(5).game
    assert a == b
    c = _tiny_game()
    assert c != a
    d = _tiny_game(margins=np.array([1.0, -0.5]))
    assert c != d
    assert c != "not a game"  # NotImplemented falls back to !=


def test_validate_clean_models():
    for doc in (build_chain(5), build_chain(6, 2), build_dialogue(), build_dialogue(True)):
        report = validate_model(doc.game, doc.ground_truth)
        assert report.ok
        assert report.items == ()
    report = validate_model(random_game(3, states=10, observations=2).game)
    assert report.ok and report.items == ()


def test_validate_flags_bad_transition_target():
    trans = np.zeros((2, 2, 2, 1), dtype=np.int64)
    trans[1, 1, 1, 0] = 5
    report = validate_model(_tiny_game(transitions=trans))
    assert not report.ok
    assert report.errors[0].code == "range"
    assert "z=1" in report.errors[0].message


def test_validate_flags_shape_mismatch():
    report = validate_model(_tiny_game(margins=np.array([1.0])))
    assert [e.code for e in report.errors] == ["shape"]
    report = validate_model(_tiny_game(transitions=np.zeros((2, 2, 2, 2), dtype=np.int64)))
    assert "transitions shape" in report.errors[0].message


def test_validate_flags_nonfinite_margin():
    report = validate_model(_tiny_game(margins=np.array([np.nan, 0.5])))
    assert any(e.code == "margin" for e in report.errors)


def test_validate_flags_bad_distribution():
    probs = np.ones((2, 2, 2, 1))
    probs[0, 1, 0, 0] = 0.5
    report = validate_model(_tiny_game(observation_probs=probs))
    assert report.errors[0].code == "distribution"
    assert "sums to 0.5" in report.errors[0].message

    probs = np.ones((2, 2, 2, 1))
    probs[1, 0, 1, 0] = -1.0
    report = validate_model(_tiny_game(observation_probs=probs))
    assert report.errors[0].code == "distribution"


def test_validate_flags_bad_bounds():
    report = validate_model(_tiny_game(action_bound=((), (0,))))
    assert report.errors[0].code == "bound"
    assert "empty" in report.errors[0].message
    report = validate_model(_tiny_game(action_bound=((0, 3), (0,))))
    assert report.errors[0].code == "bound"
    report = validate_model(_tiny_game(action_bound=((1, 0), (0,))))
    assert "sorted" in report.errors[0].message


def test_validate_flags_label_arity():
    report = validate_model(_tiny_game(state_labels=("only-one",)))
    assert report.errors[0].code == "labels"


def test_validate_ground_truth_commutation():
    spec = _tiny_game()
    good = _mirror_gt(spec)
    assert validate_model(spec, good).ok

    bad_world = good.world_transitions.copy()
    bad_world[0, 0, 0] = 1  # model says the successor is 0
    report = validate_model(spec, _mirror_gt(spec, world_transitions=bad_world))
    assert not report.ok
    assert report.errors[0].code == "commutation"
    assert "s=0" in report.errors[0].message


def test_validate_ground_truth_induced_observation():
    spec = build_chain(3).game
    probs = np.zeros((4, 3, 3, 2))
    probs[:, :, :, 0] = 1.0
    trans = np.repeat(build_chain(3).game.transitions, 2, axis=3)
    spec2 = GameSpec(
        num_states=4,
        ai_actions=spec.ai_actions,
        human_actions=spec.human_actions,
        observations=("ping", "pong"),
        transitions=trans,
        observation_probs=probs,
        margins=spec.margins,
        action_bound=spec.action_bound,
    )
    gt = _mirror_gt(spec2, ai_observation=np.ones((4, 3, 3), dtype=np.int64))
    report = validate_model(spec2, gt)
    assert not report.ok
    assert report.errors[0].code == "induced-observation"


def test_validate_ground_truth_shape_and_range():
    spec = _tiny_game()
    report = validate_model(spec, _mirror_gt(spec, projection=np.zeros((3, 1), dtype=np.int64)))
    assert report.errors[0].code == "shape"
    bad_proj = np.array([[0], [9]], dtype=np.int64)
    report = validate_model(spec, _mirror_gt(spec, projection=bad_proj))
    assert report.errors[0].code == "range"


def test_unsound_privileged_failure_is_a_warning():
    spec = _tiny_game()
    gt = _mirror_gt(spec, failure=np.array([[True], [True]]))
    report = validate_model(spec, gt)
    assert report.ok  # warning only
    assert report.warnings
    assert report.warnings[0].code == "privileged-failure-unsound"
    assert "s=0" in report.warnings[0].message


def test_validate_samples_when_joint_space_is_large(monkeypatch):
    """The sampled path must still find a globally planted inconsistency."""
    monkeypatch.setattr(haig.model, "COMMUTATION_EXHAUSTIVE_LIMIT", 0)
    monkeypatch.setattr(haig.model, "COMMUTATION_SAMPLES", 64)
    monkeypatch.setattr(haig.model, "COMMUTATION_SEED", 7)
    spec = _tiny_game()
    bad_world = 1 - _mirror_gt(spec).world_transitions  # wrong everywhere
    gt = _mirror_gt(spec, world_transitions=bad_world)
    report = validate_model(spec, gt)
    assert not report.ok
    assert all(e.code == "commutation" for e in report.errors)

    clean = validate_model(spec, _mirror_gt(spec))
    assert clean.ok
