from __future__ import annotations

import hashlib

import numpy as np
import pytest

import haig.rng
from haig import (
    SchemaError,
    build_chain,
    build_dialogue,
    parse_spec,
    random_game,
    serialize,
    validate_model,
)
from haig.scenarios import _mirror_ground_truth
from test_rng import _ScalarSplitMix64


def test_chain_structure():
    doc = build_chain(5)
    spec = doc.game
    assert spec.num_states == 6
    assert spec.ai_actions == ("-1", "0", "+1")
    assert spec.human_actions == ("-1", "0", "+1")
    assert spec.observations == ("none",)
    assert spec.margins.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    assert spec.action_bound == ((0, 1, 2),) * 6
    assert doc.task_policies == {"press_on": (0,) * 6}
    assert doc.human_policies == {"hold": (1,) * 6}
    # motion clamps at both ends
    assert spec.transitions[0, 0, 0, 0] == 0
    assert spec.transitions[5, 2, 2, 0] == 5
    assert spec.transitions[2, 2, 0, 0] == 2


def test_chain_reach_and_bound_parameters():
    wide = build_chain(5, human_reach=2).game
    assert wide.human_actions == ("-2", "-1", "0", "+1", "+2")
    assert wide.action_bound[0] == (0, 1, 2, 3, 4)

    odd = build_chain(5, human_reach=3, odd_reach=1).game
    assert odd.human_actions == ("-3", "-2", "-1", "0", "+1", "+2", "+3")
    assert odd.action_bound[0] == (2, 3, 4)  # only |delta| <= 1 admissible
    assert odd.transitions[4, 1, 0, 0] == 1  # but -3 still has dynamics


def test_chain_argument_validation():
    with pytest.raises(ValueError, match="length"):
        build_chain(1)
    with pytest.raises(ValueError, match="human_reach"):
        build_chain(5, 0)
    with pytest.raises(ValueError, match="odd_reach"):
        build_chain(5, 2, 3)
    with pytest.raises(ValueError, match="odd_reach"):
        build_chain(5, 2, 0)
    with pytest.raises(TypeError):
        build_chain(5.0)
    with pytest.raises(TypeError):
        build_chain(5, 1, 1.0)
    assert build_chain(5, 2, None).game.scenario == "chain(length=5,human_reach=2,odd_reach=2)"
    assert build_chain(5, 2, None).game.action_bound == build_chain(5, 2, 2).game.action_bound
    with pytest.raises(SchemaError, match="more than the limit"):
        build_chain(5, 2**40)  # refused before any action range is built


def test_chain_ground_truth_is_consistent():
    doc = build_chain(5)
    assert doc.ground_truth is not None
    report = validate_model(doc.game, doc.ground_truth)
    assert report.items == ()
    assert doc.ground_truth.failure[:, 0].tolist() == [True] + [False] * 5


def test_dialogue_states_and_dynamics():
    doc = build_dialogue()
    spec = doc.game
    assert spec.num_states == 8
    assert spec.state_labels == (
        "start", "start_warned", "metal_in_hand", "metal_in_hand_warned",
        "glass_in_hand", "glass_in_hand_warned", "soup_served", "metal_in_microwave",
    )
    say_any, say_metal, say_wait = 0, 1, 2
    grab_metal, grab_glass, microwave, wait = 0, 1, 2, 3

    # the warning recommendation marks the successor as warned
    assert spec.transitions[0, say_metal, grab_metal, 0] == 3
    assert spec.transitions[0, say_any, grab_metal, 0] == 2
    # "any bowl" retracts an earlier warning
    assert spec.transitions[3, say_any, wait, 0] == 2
    # microwaving with glass serves the soup, with metal it fails
    assert spec.transitions[4, say_wait, microwave, 0] == 6
    assert spec.transitions[2, say_wait, microwave, 0] == 7
    # terminal states absorb
    assert spec.transitions[6, say_any, microwave, 0] == 6
    assert spec.transitions[7, say_metal, wait, 0] == 7

    assert spec.margins.tolist() == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0]
    assert spec.annotations is not None and len(spec.annotations) == 8


def test_dialogue_bounds():
    normative = build_dialogue().game
    full = (0, 1, 2, 3)
    for z, row in enumerate(normative.action_bound):
        if z == 3:  # metal_in_hand_warned: microwaving is ruled out
            assert row == (0, 1, 3)
        else:
            assert row == full

    conservative = build_dialogue(conservative_bound=True).game
    assert conservative.action_bound == (full,) * 8
    assert conservative.scenario == "dialogue-conservative"


def test_dialogue_ground_truth_and_policies():
    doc = build_dialogue()
    assert validate_model(doc.game, doc.ground_truth).items == ()
    assert doc.task_policies == {"eager_helper": (0,) * 8}
    assert doc.human_policies == {"patient": (3,) * 8}


def test_builders_are_deterministic():
    assert serialize(build_chain(5)) == serialize(build_chain(5))
    assert serialize(build_dialogue()) == serialize(build_dialogue())
    assert serialize(random_game(17)) == serialize(random_game(17))
    assert serialize(random_game(17)) != serialize(random_game(18))


def test_random_game_failure_fraction():
    doc = random_game(3, states=17, failure_fraction=0.3)
    assert len(doc.game.failure_states()) == 5  # floor(17 * 0.3)
    assert len(random_game(3, states=10, failure_fraction=0.0).game.failure_states()) == 0
    assert len(random_game(3, states=10, failure_fraction=1.0).game.failure_states()) == 10
    # margins are strictly signed, never exactly zero
    assert np.all(doc.game.margins != 0.0)


def test_random_game_structure():
    doc = random_game(8, states=11, ai_actions=2, human_actions=4, observations=3)
    spec = doc.game
    assert spec.num_states == 11
    assert spec.ai_actions == ("a0", "a1")
    assert spec.observations == ("o0", "o1", "o2")
    assert spec.action_bound == (tuple(range(4)),) * 11
    assert doc.ground_truth is None
    sums = spec.observation_probs.sum(axis=3)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    assert validate_model(spec).items == ()


def test_random_game_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        random_game(0, states=0)
    with pytest.raises(ValueError, match="failure_fraction"):
        random_game(0, failure_fraction=1.5)
    with pytest.raises(TypeError):
        random_game(0, states=5.0)


def _reference_random_game(seed, states, ai_actions, human_actions, observations, failure_fraction):
    """``random_game``'s arrays from the scalar stream definition, one draw at a time."""
    stream = _ScalarSplitMix64(seed)

    def randint(n):
        while True:
            x = stream.next_u64()
            if x < haig.rng.rejection_limit(n):
                return x % n

    shape = (states, ai_actions, human_actions, observations)
    transitions = np.array([randint(states) for _ in range(np.prod(shape))]).reshape(shape)
    probs = np.ones(shape)
    if observations > 1:
        weights = [1 + randint(8) for _ in range(np.prod(shape))]
        rows = [weights[i:i + observations] for i in range(0, len(weights), observations)]
        probs = np.array([[w / sum(row) for w in row] for row in rows]).reshape(shape)
    order = list(range(states))
    for i in range(states - 1, 0, -1):
        j = randint(i + 1)
        order[i], order[j] = order[j], order[i]
    margins = [0.0] * states
    for z in order:
        u = (stream.next_u64() >> 11) * 2.0**-53
        margins[z] = u + 2.0**-53
    for z in order[:int(states * failure_fraction)]:
        margins[z] = -margins[z]
    return transitions, probs, np.array(margins)


def test_random_games_match_the_scalar_stream(monkeypatch):
    """Bulk draws equal the scalar stream's, also at a limit that rejects a quarter of all raw draws."""
    sizes = [(0, 30, 3, 3, 3, 0.05), (7, 13, 2, 4, 1, 0.2), (2**64 + 5, 4, 2, 2, 5, 1.0), (-3, 50, 1, 2, 2, 0.5)]

    def check():
        for seed, *shape, failure in sizes:
            game = random_game(seed, states=shape[0], ai_actions=shape[1], human_actions=shape[2],
                               observations=shape[3], failure_fraction=failure).game
            transitions, probs, margins = _reference_random_game(seed, *shape, failure)
            assert np.array_equal(game.transitions, transitions)
            assert np.array_equal(game.observation_probs, probs)
            assert game.margins.tobytes() == margins.tobytes()

    blocks = []  # the sizes of the bulk draws, not the scalar stream's refills of _BLOCK
    block = haig.rng.splitmix_block

    def logged(counter, count):
        if count != haig.rng._BLOCK:
            blocks.append(count)
        return block(counter, count)

    monkeypatch.setattr(haig.rng, "splitmix_block", logged)
    check()
    assert len(blocks) == 7  # transitions, and weights where there are observations: nothing rejected
    monkeypatch.setattr(haig.rng, "rejection_limit", lambda n: (3 << 62) // n * n)
    blocks.clear()
    check()
    assert len(blocks) > 4 * 7  # each top-up draws the shortfall, about a quarter of the block before it


def test_random_game_round_trips():
    for seed in (0, 5, 9):
        doc = random_game(seed, states=6, observations=2)
        assert parse_spec(serialize(doc)) == doc


def test_mirror_ground_truth_matches_the_loop():
    """The gather over each row's most likely observation, against a plain loop."""
    for game in (build_chain(6, 2).game, random_game(4, states=9, observations=3).game):
        gt = _mirror_ground_truth(game)
        for z, a, b in np.ndindex(game.transitions.shape[:3]):
            o = int(np.argmax(game.observation_probs[z, a, b]))
            assert gt.ai_observation[z, a, b] == o
            assert gt.world_transitions[z, a, b] == game.transitions[z, a, b, o]


# sha256 of serialize() for the scenarios the README describes, the bench's
# chain and random games of every kind of draw (observation weights, no
# failure state, all failure states), pinned so that a rewrite of a builder,
# of its draw order or of the ground-truth mirror keeps every byte
_PINNED_DOCUMENTS = [
    (lambda: build_chain(5), "c7a575e826f0a247435c8d421254e75bef1131fc476455d115df796d8f1a5efc"),
    (lambda: build_chain(5, human_reach=2), "4163f338ddb3f9737a04c1fe0c56202ba92a4072d23398fe1972f2514e39cbf5"),
    (lambda: build_chain(5, human_reach=3, odd_reach=1),
     "297f98e5abfd4203454c156e4b77522e75a700b77404ce99bf56da4d289ea855"),
    (build_dialogue, "bbf634d02ddf9c8fd7113a1a797e3d2b587a9254d05fac38e26af526cc10c92a"),
    (lambda: build_dialogue(conservative_bound=True),
     "624da674d83d978104794ad47ea441460ab4648d8b30c96a4b8df67f70157261"),
    (lambda: build_chain(200), "83fa304c55d14eb35aa652a67d376b4009a0394e9aaafc86a7b7649d48e0322a"),
    (lambda: random_game(0), "e4cfc8ec1d61ba77937ca758659c4bb8db86cd073ceadcbd9784bc6c8c08559f"),
    (lambda: random_game(3, states=30, observations=3, failure_fraction=0.05),
     "db2d7d2b5bfc5b2478884f9fc2541453bae114662352b4c363d9d382ae5f3920"),
    (lambda: random_game(5, states=10, ai_actions=2, human_actions=4, observations=9, failure_fraction=0.5),
     "aa66d6d9c4d85e51645db904f7ad29bf91980d2ce6c64ef8efd9f991b5cff3e1"),
    (lambda: random_game(1, states=5, failure_fraction=0.0),
     "406fb5d295d696cd227f7005957e4f7dcb19d3e766dfb7a01f372d3a6e1a74b9"),
    (lambda: random_game(1, states=5, failure_fraction=1.0),
     "32294a6fd07c22b68fab475c4157c9addd8203789c3a3205b927a6cda62c0e47"),
]


@pytest.mark.parametrize("build, digest", _PINNED_DOCUMENTS)
def test_scenario_documents_are_pinned(build, digest):
    assert hashlib.sha256(serialize(build())).hexdigest() == digest
