"""Built-in games: the chain benchmark, a kitchen dialogue, and random games.

Chain.  States 0..N on a line with margin z - 1, so state 0 is the single
failure state.  The AI nudges by -1/0/+1, the human by anything up to
``human_reach``, and the position clamps to [0, N].  With reach 1 the AI
can always hold its ground and every state except 0 is defensible; with
reach 2 the human wins a tug of war from everywhere.  ``odd_reach``
restricts the admissible bound to a smaller reach than the human's actual
action set, which models a human assumed calm but physically capable of
more; simulating such an out-of-bound human is how conditionality of the
safety guarantee gets demonstrated.

Dialogue.  An AI kitchen helper advises a child who wants to heat soup.
Metal bowls must not end up in the microwave.  The conversation state
tracks what the child is holding and whether they were explicitly warned
off metal.  Under the normative bound (a warned child will not microwave
the metal bowl) the warning recommendation is certifiably safe while the
unconditional "grab any bowl" is not.  Under the maximally cautious bound
(the child might microwave anything regardless) no recommendation at the
start is certifiable, which is the over-conservatism the normative bound
exists to avoid.

Random games.  Uniform dense dynamics from a seeded SplitMix64 stream,
with a requested fraction of failure states.  Identical seeds give
identical documents, byte for byte.

Every builder refuses a game that the parser would refuse for its size,
more than ``haig.specfile.MAX_JOINT_ENTRIES`` joint entries, with the
parser's ``SchemaError`` and before allocating any array.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .model import GameSpec, GroundTruthSystem
from .rng import SplitMix64, randint_block
from .specfile import SpecDocument, check_joint_entries


def _mirror_ground_truth(game: GameSpec) -> GroundTruthSystem:
    """Ground truth for a fully observed game: the world is the info state."""
    nz, na, nb = game.num_states, game.num_ai_actions, game.num_human_actions
    ai_obs = game.observation_probs.argmax(axis=3)  # the one-hot observation
    world = np.take_along_axis(game.transitions, ai_obs[..., None], axis=3)[..., 0]
    return GroundTruthSystem(
        num_world_states=nz,
        num_human_states=1,
        num_human_observations=1,
        world_transitions=world,
        human_transitions=np.zeros((1, na, nb, 1), dtype=np.int64),
        human_observation=np.zeros(nz, dtype=np.int64),
        ai_observation=ai_obs,
        failure=(game.margins < 0.0).reshape(nz, 1),
        projection=np.arange(nz, dtype=np.int64).reshape(nz, 1),
    )


def _signed_labels(reach: int) -> tuple[str, ...]:
    return tuple(f"+{d}" if d > 0 else str(d) for d in range(-reach, reach + 1))


def build_chain(length: int, human_reach: int = 1, odd_reach: int | None = None) -> SpecDocument:
    """Chain game on states 0..length with margin z - 1.

    Args:
        length: highest state index; needs at least states 0..2.
        human_reach: the human action set is -human_reach..+human_reach.
        odd_reach: admissible bound is -odd_reach..+odd_reach; defaults to
            the full action set.  Must not exceed human_reach.
    """
    if length < 2:
        raise ValueError(f"chain needs length >= 2, got {length}")
    if human_reach < 1:
        raise ValueError(f"human_reach must be >= 1, got {human_reach}")
    odd_reach = human_reach if odd_reach is None else operator.index(odd_reach)  # refuses a float, as length does
    if not 1 <= odd_reach <= human_reach:
        raise ValueError(f"odd_reach must be in [1, {human_reach}], got {odd_reach}")

    nz = operator.index(length) + 1  # refuses a float length, which np.arange would take
    human_deltas = range(-human_reach, human_reach + 1)
    check_joint_entries((nz, 3, len(human_deltas), 1))
    z = np.arange(nz, dtype=np.int64).reshape(nz, 1, 1, 1)
    ai_delta = np.arange(-1, 2, dtype=np.int64).reshape(3, 1, 1)
    human_delta = np.array(human_deltas, dtype=np.int64).reshape(-1, 1)
    transitions = np.clip(z + ai_delta + human_delta, 0, length)

    bound_row = tuple(ib for ib, db in enumerate(human_deltas) if abs(db) <= odd_reach)
    game = GameSpec(
        num_states=nz,
        ai_actions=_signed_labels(1),
        human_actions=_signed_labels(human_reach),
        observations=("none",),
        transitions=transitions,
        observation_probs=np.ones((nz, 3, len(human_deltas), 1)),
        margins=z.ravel() - 1.0,
        action_bound=tuple(bound_row for _ in range(nz)),
        scenario=f"chain(length={length},human_reach={human_reach},odd_reach={odd_reach})",
    )
    hold = human_deltas.index(0)
    return SpecDocument(
        game=game,
        ground_truth=_mirror_ground_truth(game),
        task_policies={"press_on": (0,) * nz},
        human_policies={"hold": (hold,) * nz},
    )


_DIALOGUE_STATES = (
    "start",                 # nothing in hand, no warning given
    "start_warned",
    "metal_in_hand",         # the dangerous holding pattern
    "metal_in_hand_warned",
    "glass_in_hand",
    "glass_in_hand_warned",
    "soup_served",           # microwaved in glass, success, absorbing
    "metal_in_microwave",    # failure, absorbing
)
_AI_SAY = ("say_any_bowl", "say_metal_safe_bowl", "say_wait")
_HUMAN_ACTS = ("grab_metal", "grab_glass", "microwave", "wait")
_SERVED, _FAIL = 6, 7


def build_dialogue(conservative_bound: bool = False) -> SpecDocument:
    """The kitchen-helper dialogue game.

    ``conservative_bound=True`` switches the admissible bound from the
    normative one (a warned child never microwaves the metal bowl) to the
    full action set.
    """
    nz, na, nb = len(_DIALOGUE_STATES), len(_AI_SAY), len(_HUMAN_ACTS)

    def bowl_of(z):
        return ("none", "none", "metal", "metal", "glass", "glass")[z]

    def state_of(bowl, warned):
        base = {"none": 0, "metal": 2, "glass": 4}[bowl]
        return base + (1 if warned else 0)

    transitions = np.empty((nz, na, nb, 1), dtype=np.int64)
    for z in range(nz):
        for a in range(na):
            for b in range(nb):
                if z in (_SERVED, _FAIL):
                    transitions[z, a, b, 0] = z
                    continue
                bowl, warned = bowl_of(z), z % 2 == 1
                say = _AI_SAY[a]
                warned = True if say == "say_metal_safe_bowl" else (
                    False if say == "say_any_bowl" else warned
                )
                act = _HUMAN_ACTS[b]
                if act == "grab_metal":
                    nxt = state_of("metal", warned)
                elif act == "grab_glass":
                    nxt = state_of("glass", warned)
                elif act == "microwave":
                    nxt = {"metal": _FAIL, "glass": _SERVED, "none": state_of("none", warned)}[bowl]
                else:
                    nxt = state_of(bowl, warned)
                transitions[z, a, b, 0] = nxt

    margins = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0])
    full = tuple(range(nb))
    if conservative_bound:
        bound = tuple(full for _ in range(nz))
    else:
        # A warned child holding metal will not microwave it; nothing else
        # is ruled out.
        microwave = _HUMAN_ACTS.index("microwave")
        warned_metal = _DIALOGUE_STATES.index("metal_in_hand_warned")
        bound = tuple(
            tuple(b for b in full if not (z == warned_metal and b == microwave))
            for z in range(nz)
        )

    annotations = tuple(
        (f"holding={bowl_of(z) if z < 6 else 'n/a'}", f"warned={z % 2 == 1 if z < 6 else 'n/a'}")
        for z in range(nz)
    )
    game = GameSpec(
        num_states=nz,
        ai_actions=_AI_SAY,
        human_actions=_HUMAN_ACTS,
        observations=("none",),
        transitions=transitions,
        observation_probs=np.ones((nz, na, nb, 1)),
        margins=margins,
        action_bound=bound,
        state_labels=_DIALOGUE_STATES,
        scenario="dialogue-conservative" if conservative_bound else "dialogue",
        annotations=annotations,
    )
    return SpecDocument(
        game=game,
        ground_truth=_mirror_ground_truth(game),
        task_policies={"eager_helper": (_AI_SAY.index("say_any_bowl"),) * nz},
        human_policies={"patient": (_HUMAN_ACTS.index("wait"),) * nz},
    )


def random_game(
    seed: int,
    *,
    states: int = 20,
    ai_actions: int = 3,
    human_actions: int = 3,
    observations: int = 1,
    failure_fraction: float = 0.2,
) -> SpecDocument:
    """A dense random game, deterministic in ``seed``.

    Exactly ``floor(states * failure_fraction)`` states get a margin drawn
    uniformly from (-1, 0); the rest draw from (0, 1).  Transitions are
    uniform over states.  With more than one observation, each row's
    probabilities are random small-integer weights normalized by their sum,
    so rows sum to one up to float rounding.
    """
    sizes = states, ai_actions, human_actions, observations
    states, ai_actions, human_actions, observations = map(operator.index, sizes)  # refuses a float size
    if states < 1 or ai_actions < 1 or human_actions < 1 or observations < 1:
        raise ValueError("all sizes must be positive")
    if not 0.0 <= failure_fraction <= 1.0:
        raise ValueError(f"failure_fraction must be in [0, 1], got {failure_fraction}")

    shape = (states, ai_actions, human_actions, observations)
    check_joint_entries(shape)
    entries = math.prod(shape)
    # the stream's order: transitions then weights, each in C order and drawn in bulk; the shuffle; margins by rank
    draws, counter = randint_block(SplitMix64(seed).counter, states, entries)
    transitions = draws.astype(np.int64).reshape(shape)
    if observations == 1:
        probs = np.ones(shape)
    else:  # small integer weights: the float sum is exact, so each row divides as in integers
        draws, counter = randint_block(counter, 8, entries)
        probs = (draws + np.uint64(1)).astype(np.float64).reshape(shape)
        probs /= probs.sum(axis=3, keepdims=True)

    stream = SplitMix64(counter)
    order = list(range(states))
    for i in range(states - 1, 0, -1):  # Fisher-Yates on the seeded stream
        j = stream.randint(i + 1)
        order[i], order[j] = order[j], order[i]
    margins = np.empty(states)
    # ranks below the failure count get -(u + 2**-53), which rounds exactly as -u - 2**-53
    margins[order] = np.fromiter((stream.uniform() + 2.0**-53 for _ in range(states)), np.float64, states)
    margins[order[: int(states * failure_fraction)]] *= -1.0

    game = GameSpec(
        num_states=states,
        ai_actions=tuple(f"a{i}" for i in range(ai_actions)),
        human_actions=tuple(f"b{i}" for i in range(human_actions)),
        observations=tuple(f"o{i}" for i in range(observations)),
        transitions=transitions,
        observation_probs=probs,
        margins=margins,
        action_bound=tuple(tuple(range(human_actions)) for _ in range(states)),
        scenario=(
            f"random(seed={seed},states={states},ai={ai_actions},"
            f"human={human_actions},obs={observations},failure={failure_fraction})"
        ),
    )
    return SpecDocument(game=game)
