from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from haig import (
    FALLBACK_ONLY,
    FILTER_MODES,
    GameSpec,
    LEAST_RESTRICTIVE,
    NotConvergedError,
    SWITCH,
    SpecDocument,
    build_chain,
    build_dialogue,
    certified_actions,
    check_initial_condition,
    filter_action,
    perfect_filter,
    pluggable_monitor,
    random_game,
    value_iteration,
)


def _chain_filter(intervention=SWITCH):
    sol = value_iteration(build_chain(5).game)
    return perfect_filter(sol, intervention=intervention)


def reference_decision(sol, monitor, mode, z, a_task):
    """The intervention rule for one proposal, one monitor call per action scored.

    Returns ``(executed, score)``; the plain-Python reference for the
    filter's tables.
    """
    fallback = int(sol.fallback_policy[z])
    score = float(monitor(z, a_task))
    if mode == "none":
        executed = a_task
    elif mode == SWITCH:
        executed = a_task if score > 0.0 else fallback
    elif mode == FALLBACK_ONLY:
        executed = fallback
    else:
        passing = [a for a in range(sol.spec.num_ai_actions) if float(monitor(z, a)) > 0.0]
        if passing:
            executed = min(passing, key=lambda a: (float(abs(a - a_task)), a))
        else:
            executed = fallback
    return executed, score


def reference_table(sol, mode):
    """``reference_decision`` for every (state, task action): executed and score lists."""
    critic = pluggable_monitor(sol, "critic")
    rows = [
        [reference_decision(sol, critic, mode, z, a) for a in range(sol.spec.num_ai_actions)]
        for z in range(sol.spec.num_states)
    ]
    return [[e for e, _ in row] for row in rows], [[m for _, m in row] for row in rows]


def test_critic_monitor_frozen_values():
    flt = _chain_filter()
    assert flt.scores[2, 0] == -1.0
    assert flt.scores[2, 1] == 0.0
    assert flt.scores[2, 2] == 1.0
    assert flt.scores[0, 2] == -1.0  # inside the failure set nothing helps

    dialogue = perfect_filter(value_iteration(build_dialogue().game))
    assert dialogue.scores[0, 0] == -1.0  # "any bowl" hands over the metal one
    assert dialogue.scores[0, 1] == 0.0
    assert dialogue.scores[0, 2] == -1.0


def test_switch_passes_only_strictly_positive():
    flt = _chain_filter()
    executed, record = filter_action(flt, 3, 2)
    assert executed == 2 and not record.intervened

    executed, record = filter_action(flt, 3, 0)
    assert executed == 2  # fallback +1
    assert record.intervened
    assert record.monitor_value == 0.0

    # a zero monitor routes to the fallback even though the action is marginal
    executed, record = filter_action(flt, 2, 1)
    assert record.monitor_value == 0.0
    assert executed == 2 and record.intervened


def test_intervened_reflects_action_change_not_the_monitor():
    """When the fallback coincides with the proposal nothing was modified."""
    dialogue = perfect_filter(value_iteration(build_dialogue().game))
    executed, record = filter_action(dialogue, 0, 1)
    assert record.monitor_value == 0.0
    assert executed == 1
    assert not record.intervened


def test_switch_is_idempotent():
    flt = _chain_filter()
    for z in range(6):
        for a in range(3):
            executed, _ = filter_action(flt, z, a)
            again, record = filter_action(flt, z, executed)
            assert again == executed
            if executed != a:
                assert not record.intervened or record.executed_action == executed


def test_least_restrictive_picks_nearest_passing_action():
    flt = _chain_filter(intervention=LEAST_RESTRICTIVE)
    executed, record = filter_action(flt, 3, 0)
    assert executed == 1  # "0" passes and is closer to "-1" than "+1"
    assert record.intervened

    executed, _ = filter_action(flt, 3, 2)
    assert executed == 2  # safe proposals go through untouched

    # when nothing passes the fallback takes over
    executed, _ = filter_action(flt, 0, 0)
    assert executed == 0  # fallback at the failure state


def test_fallback_only_always_overrides():
    flt = _chain_filter(intervention=FALLBACK_ONLY)
    executed, record = filter_action(flt, 3, 2)
    assert executed == 2 and not record.intervened  # proposal equals fallback
    executed, record = filter_action(flt, 3, 1)
    assert executed == 2 and record.intervened


def test_perfect_filter_requires_convergence():
    spec = random_game(5, states=12, observations=3, failure_fraction=0.25).game
    truncated = value_iteration(spec, max_iters=1)
    with pytest.raises(NotConvergedError):
        perfect_filter(truncated)


def test_intervention_mode_validation():
    sol = value_iteration(build_chain(5).game)
    with pytest.raises(ValueError, match="unknown intervention"):
        perfect_filter(sol, intervention="veto")


def test_check_initial_condition():
    flt = _chain_filter()
    assert not check_initial_condition(flt, 0)
    assert all(check_initial_condition(flt, z) for z in range(1, 6))

    weak = perfect_filter(value_iteration(build_chain(5, human_reach=2).game))
    assert not any(check_initial_condition(weak, z) for z in range(6))

    dialogue = perfect_filter(value_iteration(build_dialogue().game))
    assert check_initial_condition(dialogue, 0)
    assert not check_initial_condition(dialogue, 2)


def test_certified_actions():
    flt = _chain_filter()
    assert certified_actions(flt, 3) == (0, 1, 2)
    assert certified_actions(flt, 1) == (2,)  # only +1 survives a human -1
    assert certified_actions(flt, 0) == ()

    dialogue = perfect_filter(value_iteration(build_dialogue().game))
    assert certified_actions(dialogue, 0) == (1,)


def test_rollout_monitor_frozen_values():
    sol = value_iteration(build_chain(5).game)
    roll = pluggable_monitor(sol, "rollout", horizon=1)
    assert roll(2, 0) == -1.0
    assert roll(2, 2) == 1.0
    assert roll(3, 2) == 2.0


def test_rollout_monitor_equals_critic_on_deterministic_games():
    """With the stored adversary the simulated worst case is the solved one."""
    docs = [build_chain(5), build_chain(6, 2), build_dialogue()]
    docs += [random_game(s, states=6 + s, failure_fraction=0.3) for s in range(6)]
    for doc in docs:
        spec = doc.game
        sol = value_iteration(spec)
        critic = pluggable_monitor(sol, "critic")
        roll = pluggable_monitor(sol, "rollout", horizon=spec.num_states)
        for z in range(spec.num_states):
            for a in range(spec.num_ai_actions):
                assert critic(z, a) == roll(z, a), (doc.game.scenario, z, a)


def test_monitor_argument_validation():
    sol = value_iteration(build_chain(5).game)
    with pytest.raises(ValueError, match="unknown monitor mode"):
        pluggable_monitor(sol, "psychic")
    with pytest.raises(ValueError, match="horizon"):
        pluggable_monitor(sol, "rollout")
    with pytest.raises(ValueError, match="horizon"):
        pluggable_monitor(sol, "rollout", horizon=0)
    critic = pluggable_monitor(sol, "critic")
    with pytest.raises(IndexError):
        critic(9, 0)


def test_single_state_game():
    spec = GameSpec(
        num_states=1,
        ai_actions=("wait",),
        human_actions=("wait",),
        observations=("none",),
        transitions=np.zeros((1, 1, 1, 1), dtype=np.int64),
        observation_probs=np.ones((1, 1, 1, 1)),
        margins=np.array([1.0]),
        action_bound=((0,),),
    )
    sol = value_iteration(spec)
    assert sol.values.tolist() == [1.0]
    flt = perfect_filter(sol)
    executed, record = filter_action(flt, 0, 0)
    assert executed == 0 and not record.intervened
    assert check_initial_condition(flt, 0)


def test_record_serialization():
    flt = _chain_filter()
    _, record = filter_action(flt, 3, 0, t=7)
    assert record.to_json_dict() == {
        "t": 7,
        "z": 3,
        "task_a": 0,
        "monitor": 0.0,
        "intervened": True,
        "executed_a": 2,
    }


def _signed_zero_chain():
    """chain5 with margins -0.0 and 0.0 at states 1 and 2: its scores hold both zeros."""
    return replace(build_chain(5).game, margins=np.array([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0]))


def _table_games():
    specs = [build_chain(5).game, build_chain(6, 2).game, build_chain(7, 3, 2).game,
             build_dialogue().game, build_dialogue(conservative_bound=True).game, _signed_zero_chain()]
    rng = np.random.default_rng(11)
    for seed in range(60):
        spec = random_game(
            200 + seed,
            states=4 + seed % 13,
            ai_actions=1 + seed % 4,
            human_actions=1 + (seed // 4) % 3,
            observations=3 if seed % 5 == 4 else 1,
            failure_fraction=(0.1, 0.25, 0.4)[seed % 3],
        ).game
        if seed % 3 == 2:  # narrowed human bounds
            bound = [
                tuple(sorted(rng.choice(spec.num_human_actions, size=rng.integers(1, spec.num_human_actions + 1),
                                        replace=False).tolist()))
                for _ in range(spec.num_states)
            ]
            spec = replace(spec, action_bound=bound)
        specs.append(spec)
    return specs


def test_tables_match_the_per_call_reference():
    compared = 0
    for spec in _table_games():
        sol = value_iteration(spec)
        for mode in FILTER_MODES:
            flt = perfect_filter(sol, mode)
            executed, scores = reference_table(sol, mode)
            assert flt.executed.tolist() == executed, (spec.scenario, mode)
            assert flt.scores.tobytes() == np.array(scores).tobytes(), (spec.scenario, mode)
            assert not flt.executed.flags.writeable and flt.scores is sol.scores
            compared += 1
    assert compared == 66 * 4


def test_zero_scores_of_either_sign_route_to_the_fallback():
    flt = perfect_filter(value_iteration(_signed_zero_chain()))
    zeros = flt.scores == 0.0
    assert np.signbit(flt.scores[zeros]).any() and not np.signbit(flt.scores[zeros]).all()
    fallback = np.broadcast_to(flt.solution.fallback_policy[:, None], zeros.shape)
    assert (flt.executed[zeros] == fallback[zeros]).all()
    assert check_initial_condition(flt, 1)  # its fallback scores -0.0, which is >= 0


def reference_rollout_monitor(sol, horizon):
    """The rollout monitor by direct recursion over the observation branches."""
    spec = sol.spec

    def worst_branch_min(z, a, depth):
        b = int(sol.adversary_policy[z, a])
        lowest = np.inf
        for o in range(spec.num_observations):
            if spec.observation_probs[z, a, b, o] <= 0.0:
                continue
            nxt = int(spec.transitions[z, a, b, o])
            m = float(spec.margins[nxt])
            if depth > 1:
                m = min(m, worst_branch_min(nxt, int(sol.fallback_policy[nxt]), depth - 1))
            lowest = min(lowest, m)
        return lowest

    return lambda z, a: min(float(spec.margins[z]), worst_branch_min(z, a, horizon))


def one_hot_observations(doc, seed):
    """The game with one-hot observation rows: the observation is a function of the step."""
    spec = doc.game
    pick = np.random.default_rng(seed).integers(spec.num_observations, size=spec.observation_probs.shape[:3])
    return SpecDocument(game=replace(spec, observation_probs=np.eye(spec.num_observations)[pick]))


def _dead_branches(seed):
    """A 3-observation game whose observation is a function of the step: two dead branches each."""
    return one_hot_observations(random_game(seed, states=10, observations=3, failure_fraction=0.3), seed).game


def test_rollout_monitor_matches_the_recursion():
    specs = [build_chain(5).game, build_chain(6, 2).game, build_dialogue().game]
    specs += [random_game(s, states=6 + 2 * s, failure_fraction=0.3).game for s in range(6)]
    specs += [random_game(s, states=8, observations=3, failure_fraction=0.1).game for s in range(4)]
    specs += [_dead_branches(s) for s in range(2)]
    compared = 0
    for spec in specs:
        sol = value_iteration(spec)
        for horizon in (1, 2, 3, 5, 7):
            roll = pluggable_monitor(sol, "rollout", horizon=horizon)
            reference = reference_rollout_monitor(sol, horizon)
            for z in range(spec.num_states):
                for a in range(spec.num_ai_actions):
                    assert roll(z, a) == reference(z, a), (spec.scenario, horizon, z, a)
                    compared += 1
    assert compared == 2085


def test_rollout_monitor_long_horizons():
    chain = value_iteration(build_chain(1500).game)
    assert pluggable_monitor(chain, "rollout", horizon=1500)(1000, 0) == 997.0
    assert pluggable_monitor(chain, "critic")(1000, 0) == 997.0

    sol = value_iteration(random_game(0, states=30, ai_actions=3, human_actions=3, observations=3,
                                      failure_fraction=0.05).game)
    long = pluggable_monitor(sol, "rollout", horizon=30)
    for horizon in (1, 4):
        roll = pluggable_monitor(sol, "rollout", horizon=horizon)
        reference = reference_rollout_monitor(sol, horizon)
        for z in range(30):
            for a in range(3):
                assert roll(z, a) == reference(z, a)
                assert long(z, a) <= roll(z, a)  # a longer look-ahead only adds margins to the min
