from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import haig.model
from haig import (
    GameSpec,
    GroundTruthSystem,
    build_chain,
    build_dialogue,
    random_game,
    validate_model,
)
from haig.model import ValidationItem, _int_index
from haig.rng import SplitMix64


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
    assert spec.transitions[3, 2, 1, 0] == 4  # ai +1, human 0
    assert spec.transitions[5, 2, 2, 0] == 5  # clamped at the top
    assert spec.transitions[0, 0, 0, 0] == 0
    assert spec.margins[0] == -1.0
    assert spec.margins[4] == 3.0
    assert spec.action_bound[2] == (0, 1, 2)


def test_step_accepts_out_of_bound_human_actions():
    spec = build_chain(5, human_reach=3, odd_reach=1).game
    assert spec.action_bound[3] == (2, 3, 4)
    # index 0 is delta -3, outside the admissible bound but still defined
    assert spec.transitions[3, 1, 0, 0] == 0


def test_index_errors_name_the_argument():
    with pytest.raises(IndexError, match="info state index 6 out of range"):
        _int_index(6, 6, "info state")
    with pytest.raises(IndexError, match="ai action index -1"):
        _int_index(-1, 3, "ai action")
    with pytest.raises(IndexError, match="not an integer"):
        _int_index("start", 6, "info state")
    assert _int_index(np.int64(2), 3, "observation") == 2


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
    # uneven and narrowed bounds, an empty row, and an index at or above B
    uneven = _tiny_game(num_states=3, transitions=np.zeros((3, 2, 4, 1), dtype=np.int64),
                        human_actions=("a", "b", "c", "d"), observation_probs=np.ones((3, 2, 4, 1)),
                        margins=np.array([1.0, 2.0, -1.0]), action_bound=((1,), (0, 2, 3), ()))
    assert uneven.bound_mask.tolist() == [[False, True, False, False], [True, False, True, True], [False] * 4]
    assert not uneven.bound_mask.flags.writeable
    narrowed = build_chain(6, 3, 1).game
    assert [tuple(np.flatnonzero(row)) for row in narrowed.bound_mask] == list(narrowed.action_bound)
    with pytest.raises(IndexError):
        _ = _tiny_game(action_bound=((0, 2), (1,))).bound_mask


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


def test_validate_flags_degenerate_shapes():
    """Directly built specs: no states, an empty action set, a wrong probability shape, missing bound rows."""
    cases = [
        (dict(num_states=0), "game must have at least one state, has 0"),
        (dict(ai_actions=()), "action and observation sets must be non-empty"),
        (dict(observation_probs=np.ones((2, 2, 2, 2))), "observation_probs shape (2, 2, 2, 2) != (2, 2, 2, 1)"),
        (dict(action_bound=((0, 1),)), "action_bound has 1 rows, expected 2"),
    ]
    for overrides, message in cases:
        report = validate_model(_tiny_game(**overrides))
        assert [(e.code, e.message) for e in report.errors] == [("shape", message)]


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


@pytest.mark.parametrize("beyond_int64", [False, True])
def test_bound_errors_are_pinned(beyond_int64):
    """Every bad row is named, in state order, by the first rule it breaks; entries beyond int64 included."""
    unknown = "references an unknown human action"
    unsorted = "must be sorted and duplicate-free"
    cases = [
        ((0, 1), None), ((), "must be non-empty"), ((-1,), unknown), ((0, 2), unknown), ((1, 0), unsorted),
        ((0, 0), unsorted), ((1,), None), ((1,), None), ((0, 1), None), ((1, 1, 0), unsorted), ((0,), None),
    ]
    if beyond_int64:
        cases += [((2**70,), unknown), ((0,), None), ((0, -(2**70)), unknown), ((2**64 - 1, 0), unknown)]
    rows = tuple(row for row, _ in cases)
    spec = _tiny_game(
        num_states=len(rows),
        transitions=np.zeros((len(rows), 2, 2, 1), dtype=np.int64),
        observation_probs=np.ones((len(rows), 2, 2, 1)),
        margins=np.ones(len(rows)),
        action_bound=rows,
    )
    assert validate_model(spec).items == tuple(
        ValidationItem("error", "bound", f"action bound at state {z} {rule}")
        for z, (_, rule) in enumerate(cases) if rule is not None
    )
    # only the bad rows take the per-row checks, unless an entry is beyond int64
    bad = [z for z, (_, rule) in enumerate(cases) if rule is not None]
    assert list(haig.model._bad_bound_rows(rows, 2)) == (list(range(len(rows))) if beyond_int64 else bad)


def test_bound_checks_match_the_per_row_loop():
    """Random rows, empty, out of range, unsorted and repeated among them, get the per-row loop's messages."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        nz = int(rng.integers(1, 30))
        rows = tuple(tuple(rng.integers(-1, 4, rng.integers(0, 4)).tolist()) for _ in range(nz))
        spec = _tiny_game(
            num_states=nz,
            human_actions=("a", "b", "c"),
            transitions=np.zeros((nz, 2, 3, 1), dtype=np.int64),
            observation_probs=np.ones((nz, 2, 3, 1)),
            margins=np.ones(nz),
            action_bound=rows,
        )
        expected = []
        for z, row in enumerate(rows):
            if not row:
                expected.append(f"action bound at state {z} must be non-empty")
            elif min(row) < 0 or max(row) >= 3:
                expected.append(f"action bound at state {z} references an unknown human action")
            elif tuple(sorted(set(row))) != row:
                expected.append(f"action bound at state {z} must be sorted and duplicate-free")
        assert [item.message for item in validate_model(spec).items] == expected


def test_bound_rows_become_int_tuples():
    """A tuple of int tuples is kept as given; any other rows are converted entry by entry."""
    rows = ((0, 1), (1,))
    assert _tiny_game(action_bound=rows).action_bound is rows
    converted = _tiny_game(action_bound=[np.array([0, 1]), [True]]).action_bound
    assert converted == ((0, 1), (1,))
    assert {type(b) for row in converted for b in row} == {int}
    assert _tiny_game(action_bound=((np.int64(0), 1.0), (1,))).action_bound == ((0, 1), (1,))


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


def _reference_ground_truth_items(spec, gt):
    """The ground-truth items of ``validate_model``, checked one tuple and one failure pair at a time."""
    ns, nh, na, nb = gt.num_world_states, gt.num_human_states, spec.num_ai_actions, spec.num_human_actions
    if ns * nh * na * nb <= haig.model.COMMUTATION_EXHAUSTIVE_LIMIT:
        tuples = ((s, h, a, b) for s in range(ns) for h in range(nh) for a in range(na) for b in range(nb))
    else:
        stream = SplitMix64(haig.model.COMMUTATION_SEED)
        tuples = [
            (stream.randint(ns), stream.randint(nh), stream.randint(na), stream.randint(nb))
            for _ in range(haig.model.COMMUTATION_SAMPLES)
        ]
    items = []
    for s, h, a, b in tuples:
        z = int(gt.projection[s, h])
        o = int(gt.ai_observation[s, a, b])
        if spec.observation_probs[z, a, b, o] <= 0.0:
            items.append(ValidationItem(
                "error", "induced-observation",
                f"ground truth induces observation {o} at (s={s}, zh={h}, a_ai={a}, a_h={b}) "
                f"but the model gives it probability 0 at z={z}",
            ))
            continue
        s2 = int(gt.world_transitions[s, a, b])
        h2 = int(gt.human_transitions[h, a, b, int(gt.human_observation[s])])
        projected = int(gt.projection[s2, h2])
        modeled = int(spec.transitions[z, a, b, o])
        if projected != modeled:
            items.append(ValidationItem(
                "error", "commutation",
                f"projection does not commute at (s={s}, zh={h}, a_ai={a}, a_h={b}): "
                f"ground truth steps to state {projected}, model steps to {modeled}",
            ))
    for s in range(ns):
        for h in range(nh):
            if gt.failure[s, h] and spec.margins[int(gt.projection[s, h])] >= 0.0:
                items.append(ValidationItem(
                    "warning", "privileged-failure-unsound",
                    f"privileged failure (s={s}, zh={h}) projects to state "
                    f"{int(gt.projection[s, h])} with non-negative margin",
                ))
    return tuple(items)


def _mutated_ground_truths(count, seed):
    """(spec, ground truth) pairs whose world dynamics, projection, AI observations and failures are mutated.

    Every second game has a second observation that some rows give probability 0, and every third
    one two human states with random dynamics and observations.
    """
    rng = np.random.default_rng(seed)
    docs = [build_chain(5), build_chain(6, 3, 1), build_chain(12, 2, 1), build_dialogue(True)]
    for i in range(count):
        doc = docs[i % len(docs)]
        spec, gt = doc.game, doc.ground_truth
        if i % 2:
            p = rng.choice([0.0, 0.5, 1.0], size=spec.transitions.shape[:3])
            trans = np.repeat(spec.transitions, 2, axis=3)
            trans[..., 1] = rng.integers(0, spec.num_states, size=p.shape)
            spec = replace(spec, observations=("ping", "pong"), transitions=trans,
                           observation_probs=np.stack([p, 1.0 - p], axis=3))
            ai_obs = (p == 0.0).astype(np.int64)  # the one positive observation where a row has one
            world = np.take_along_axis(trans, ai_obs[..., None], axis=3)[..., 0]
            gt = replace(gt, world_transitions=world, ai_observation=ai_obs)
        if i % 3 == 0:
            na, nb = spec.num_ai_actions, spec.num_human_actions
            gt = replace(gt, num_human_states=2, num_human_observations=2,
                         human_transitions=rng.integers(0, 2, size=(2, na, nb, 2)),
                         human_observation=rng.integers(0, 2, size=gt.num_world_states),
                         failure=np.repeat(gt.failure, 2, axis=1), projection=np.repeat(gt.projection, 2, axis=1))
        sizes = {"world_transitions": gt.num_world_states, "projection": spec.num_states,
                 "ai_observation": spec.num_observations, "failure": 2}
        changed = {}
        for name in rng.choice(sorted(sizes), size=rng.integers(1, 4)):
            arr = changed.get(name, getattr(gt, name)).copy()
            at = rng.integers(0, arr.size, size=rng.integers(1, arr.size // 4 + 2))
            arr.reshape(-1)[at] = rng.integers(0, sizes[name], size=at.size)
            changed[name] = arr
        yield spec, replace(gt, **changed)


@pytest.mark.parametrize("sampled", [False, True])
def test_validation_reports_match_the_per_tuple_reference(monkeypatch, sampled):
    """Every item of the report, in order, on mutated ground truths, exhaustively checked or sampled."""
    if sampled:
        monkeypatch.setattr(haig.model, "COMMUTATION_EXHAUSTIVE_LIMIT", 0)
        monkeypatch.setattr(haig.model, "COMMUTATION_SAMPLES", 300)
    codes = set()
    for spec, gt in _mutated_ground_truths(100, seed=5):
        items = validate_model(spec, gt).items
        assert items == _reference_ground_truth_items(spec, gt)
        codes.update(item.code for item in items)
    assert codes == {"commutation", "induced-observation", "privileged-failure-unsound"}
