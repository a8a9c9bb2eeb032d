from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from haig import (
    BudgetExceededError,
    GameSpec,
    brute_force_value,
    brute_force_values,
    build_chain,
    build_dialogue,
    extract_policies,
    q_value,
    random_game,
    solution_payload,
    value_iteration,
)


def _det_game(seed: int):
    return random_game(
        seed,
        states=8 + seed % 33,
        ai_actions=2 + seed % 3,
        human_actions=2 + (seed // 3) % 3,
        observations=1,
        failure_fraction=0.25,
    ).game


def test_chain_closed_form():
    """On the chain the value is the margin itself: holding ground is optimal."""
    sol = value_iteration(build_chain(5).game)
    assert sol.values.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    assert sol.safe_set == frozenset({1, 2, 3, 4, 5})
    assert sol.converged
    assert sol.iterations == 1
    assert sol.residual == 0.0
    # +1 is the unique maximin action away from the ends
    assert sol.fallback_policy.tolist() == [0, 2, 2, 2, 2, 2]


def test_chain_outmatched_human_collapses_the_safe_set():
    sol = value_iteration(build_chain(5, human_reach=2).game)
    assert sol.values.tolist() == [-1.0] * 6
    assert sol.safe_set == frozenset()
    assert sol.converged
    assert sol.iterations == 6  # one sweep per state, worst case


def test_dialogue_values():
    sol = value_iteration(build_dialogue().game)
    assert sol.values.tolist() == [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0, -1.0]
    assert sol.safe_set == frozenset({0, 1, 3, 4, 5, 6})
    assert sol.iterations == 2

    cautious = value_iteration(build_dialogue(conservative_bound=True).game)
    assert cautious.safe_set == frozenset({6})


def test_q_values_cover_all_human_actions():
    sol = value_iteration(build_chain(5).game)
    assert q_value(sol, 2, 0, 0) == -1.0  # both push down, through state 0
    assert q_value(sol, 2, 2, 0) == 1.0
    assert q_value(sol, 2, 2, 2) == 1.0  # capped by the local margin

    # with a wide action set the out-of-bound columns stay queryable
    odd = value_iteration(build_chain(5, human_reach=3, odd_reach=1).game)
    assert odd.values.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    assert q_value(odd, 3, 1, 0) == -1.0  # human -3 is outside the bound
    with pytest.raises(IndexError):
        q_value(sol, 2, 0, 9)


def test_adversary_restricted_to_bound_and_optimal():
    for seed in range(12):
        spec = _det_game(seed)
        sol = value_iteration(spec)
        for z in range(spec.num_states):
            for a in range(spec.num_ai_actions):
                b = int(sol.adversary_policy[z, a])
                assert b in spec.action_bound[z]
                best = min(sol.q_values[z, a, c] for c in spec.action_bound[z])
                assert sol.q_values[z, a, b] == best


def test_fallback_is_maximin():
    for seed in range(12):
        spec = _det_game(seed)
        sol = value_iteration(spec)
        inner = np.where(spec.bound_mask[:, None, :], sol.q_values, np.inf).min(axis=2)
        for z in range(spec.num_states):
            a = int(sol.fallback_policy[z])
            assert inner[z, a] == inner[z].max()
            assert inner[z, a] == sol.values[z]


def test_extract_policies_returns_the_pair():
    sol = value_iteration(build_chain(5).game)
    fallback, adversary = extract_policies(sol)
    assert fallback is sol.fallback_policy
    assert adversary is sol.adversary_policy
    assert adversary.shape == (6, 3)
    assert adversary[2].tolist() == [0, 0, 0]


def test_sweeps_are_monotone_and_start_at_the_margin():
    spec = build_chain(5, human_reach=2).game
    sol = value_iteration(spec, record_sweeps=True)
    assert sol.sweeps is not None
    assert sol.sweeps[0].tolist() == spec.margins.tolist()
    for earlier, later in zip(sol.sweeps, sol.sweeps[1:]):
        assert np.all(later <= earlier)
    assert np.array_equal(sol.sweeps[-1], sol.values)
    assert value_iteration(spec).sweeps is None


def test_deterministic_convergence_within_state_count():
    for seed in range(20):
        spec = _det_game(seed)
        sol = value_iteration(spec)
        assert sol.converged
        assert sol.iterations <= spec.num_states


def test_stochastic_convergence_and_epsilon():
    spec = random_game(5, states=12, observations=3, failure_fraction=0.25).game
    sol = value_iteration(spec)
    assert sol.converged
    assert sol.residual <= 1e-9

    truncated = value_iteration(spec, max_iters=1)
    assert not truncated.converged
    assert truncated.iterations == 1
    assert truncated.residual > 1e-9

    loose = value_iteration(spec, epsilon=1e-3)
    assert loose.converged
    assert loose.iterations <= sol.iterations


def test_solver_is_deterministic():
    a = value_iteration(build_chain(7, 2).game)
    b = value_iteration(build_chain(7, 2).game)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.q_values, b.q_values)
    assert np.array_equal(a.fallback_policy, b.fallback_policy)
    assert np.array_equal(a.adversary_policy, b.adversary_policy)
    assert a.iterations == b.iterations


def test_brute_force_examples():
    chain = build_chain(5).game
    assert brute_force_value(chain, 3, 0) == 2.0
    assert brute_force_value(chain, 3, 6) == 2.0
    assert brute_force_value(chain, 0, 4) == -1.0
    weak = build_chain(5, 2).game
    assert brute_force_value(weak, 5, 0) == 4.0
    assert brute_force_value(weak, 5, 5) == -1.0


def test_brute_force_argument_checks():
    chain = build_chain(5).game
    with pytest.raises(ValueError, match="horizon"):
        brute_force_value(chain, 0, -1)
    with pytest.raises(IndexError):
        brute_force_value(chain, 9, 1)
    with pytest.raises(BudgetExceededError):
        brute_force_value(chain, 3, 6, node_budget=3)


def test_brute_force_matches_solver_exactly_on_deterministic_games():
    for seed in range(10):
        spec = _det_game(seed)
        sol = value_iteration(spec)
        for z in range(spec.num_states):
            assert brute_force_value(spec, z, sol.iterations) == float(sol.values[z])


def test_brute_force_tracks_stochastic_sweeps():
    spec = random_game(9, states=7, observations=2, failure_fraction=0.3).game
    sol = value_iteration(spec)
    for z in range(spec.num_states):
        gap = abs(brute_force_value(spec, z, sol.iterations) - float(sol.values[z]))
        assert gap <= max(1e-7, 1e-9 * sol.iterations)


def test_shrinking_the_bound_never_hurts():
    base = _det_game(4)
    sol = value_iteration(base)
    from haig import GameSpec

    narrowed = GameSpec(
        num_states=base.num_states,
        ai_actions=base.ai_actions,
        human_actions=base.human_actions,
        observations=base.observations,
        transitions=base.transitions,
        observation_probs=base.observation_probs,
        margins=base.margins,
        action_bound=tuple(row[:1] for row in base.action_bound),
    )
    sol2 = value_iteration(narrowed)
    assert np.all(sol2.values >= sol.values)
    assert sol.safe_set <= sol2.safe_set


def test_solution_payload_shape():
    sol = value_iteration(build_chain(3).game)
    payload = solution_payload(sol)
    assert sorted(payload) == [
        "Q", "V", "converged", "epsilon", "iterations",
        "pi_dagger", "pi_shield", "residual", "safe_set",
    ]
    assert payload["V"] == [-1.0, 0.0, 1.0, 2.0]
    assert payload["safe_set"] == [1, 2, 3]
    assert payload["converged"] is True


# ---------------------------------------------------------------------------
# bit identity of the sweep layout and the vectorized adversary
# ---------------------------------------------------------------------------


def _masked_backup(spec, values):
    """One backup over (Z, A, B) arrays, inadmissible responses masked to +inf."""
    expected = (spec.observation_probs * values[spec.transitions]).sum(axis=3)
    q = np.minimum(spec.margins[:, None, None], expected)
    return np.where(spec.bound_mask[:, None, :], q, np.inf).min(axis=2).max(axis=1)


def _random_bounds(rng, spec):
    nb = spec.num_human_actions
    return tuple(
        tuple(sorted(rng.choice(nb, size=int(rng.integers(1, nb + 1)), replace=False).tolist()))
        for _ in range(spec.num_states)
    )


def _signed_zero_tie_game():
    """State 0's admissible responses score -0.0 then +0.0; the masked min keeps the last, +0.0.

    Filling inadmissible column 2 from the first admissible column would end the min on -0.0.
    """
    return GameSpec(
        num_states=3,
        ai_actions=("a",),
        human_actions=("x", "y", "z"),
        observations=("o",),
        transitions=np.array(
            [[[[1], [2], [0]]], [[[1], [1], [1]]], [[[2], [2], [2]]]], dtype=np.int64
        ),
        observation_probs=np.ones((3, 1, 3, 1)),
        margins=np.array([-0.0, 1.0, 0.0]),
        action_bound=((0, 1), (0,), (0,)),
    )


def _narrowed_signed_zero_games():
    """Random games with O in {1, 3, 8, 9}, narrowed bounds and margins on a half grid with -0.0."""
    rng = np.random.default_rng(2405)
    for seed, obs in enumerate((1, 3, 8, 9) * 5):
        spec = random_game(
            seed,
            states=6 + 2 * seed,
            ai_actions=1 + seed % 3,
            human_actions=2 + seed % 4,
            observations=obs,
            failure_fraction=0.3,
        ).game
        margins = np.round(spec.margins * 2.0) / 2.0  # rounds (-0.25, 0) to -0.0
        yield replace(spec, margins=margins, action_bound=_random_bounds(rng, spec))
    yield _signed_zero_tie_game()


def test_sweeps_match_the_masked_backup_bit_for_bit():
    saw_negative_zero = False
    for spec in _narrowed_signed_zero_games():
        saw_negative_zero |= bool(np.any(np.signbit(spec.margins) & (spec.margins == 0.0)))
        sol = value_iteration(spec, record_sweeps=True, max_iters=300)
        assert sol.sweeps[0].tobytes() == spec.margins.tobytes()
        values = spec.margins
        for k, recorded in enumerate(sol.sweeps[1:], start=1):
            expected = _masked_backup(spec, values)
            assert recorded.tobytes() == expected.tobytes(), (spec.num_states, k)
            residual = float(np.max(values - expected))
            stop = residual == 0.0 if spec.is_deterministic() else residual <= sol.epsilon
            assert stop == (sol.converged and k == sol.iterations)
            values = expected
        assert sol.residual == residual
        assert value_iteration(spec, max_iters=300).values.tobytes() == sol.values.tobytes()
    assert saw_negative_zero


def _corridor(n, seed):
    """A shuffled corridor: every joint action steps toward cell 0; margins rise along it."""
    cells = np.random.default_rng(seed).permutation(n)  # cells[i]: state index of the i-th cell
    transitions = np.empty((n, 2, 2, 1), dtype=np.int64)
    transitions[cells] = cells[np.maximum(np.arange(n) - 1, 0)][:, None, None, None]
    margins = np.empty(n)
    margins[cells] = np.arange(n) - 0.5
    return GameSpec(
        num_states=n,
        ai_actions=("left", "right"),
        human_actions=("push", "pull"),
        observations=("none",),
        transitions=transitions,
        observation_probs=np.ones((n, 2, 2, 1)),
        margins=margins,
        action_bound=((0, 1),) * n,
    )


def _reference_adversary(sol):
    """Lowest (q, tail, b) per (z, a) by plain loops, tails from a naive relaxation."""
    spec = sol.spec
    ell, values, q = spec.margins.tolist(), sol.values.tolist(), sol.q_values

    def succ(z, a, b):
        return int(spec.transitions[z, a, b, int(np.argmax(spec.observation_probs[z, a, b]))])

    steps = [0 if ell[z] == values[z] else float("inf") for z in range(spec.num_states)]
    changed = True
    while changed:
        changed = False
        for z in range(spec.num_states):
            a = int(sol.fallback_policy[z])
            for b in spec.action_bound[z]:
                if q[z, a, b] == values[z] and steps[succ(z, a, b)] + 1 < steps[z]:
                    steps[z] = steps[succ(z, a, b)] + 1
                    changed = True

    def tail(z, a, b):
        s = succ(z, a, b)
        return 0 if ell[z] <= values[s] else steps[s]

    return [
        [min((q[z, a, b], tail(z, a, b), b) for b in spec.action_bound[z])[2]
         for a in range(spec.num_ai_actions)]
        for z in range(spec.num_states)
    ]


def test_adversary_matches_the_plain_reference():
    rng = np.random.default_rng(7)
    games = [_corridor(60, seed) for seed in range(3)]
    for seed in range(15):
        spec = _det_game(seed)
        coarse = np.round(spec.margins * 4.0) / 4.0  # many equal margins, so many tied responses
        games += [spec, replace(spec, margins=coarse, action_bound=_random_bounds(rng, spec))]
    for spec in games:
        sol = value_iteration(spec)
        assert sol.adversary_policy.tolist() == _reference_adversary(sol)


def _fork(long, short):
    """State 0 fails; from the last state, response 0 reaches it in ``long`` steps.

    Response 1 reaches it in ``short`` steps.  States 1..long-1 and
    long..long+short-2 are the two paths, so both must be at least two steps.
    """
    n = long + short
    nxt = [0] + list(range(long - 1)) + [0] + list(range(long, long + short - 2)) + [0]
    transitions = np.array([[[[s], [s]]] for s in nxt], dtype=np.int64)
    transitions[n - 1, 0] = [[long - 1], [long + short - 2]]
    return GameSpec(
        num_states=n,
        ai_actions=("go",),
        human_actions=("slow", "fast"),
        observations=("none",),
        transitions=transitions,
        observation_probs=np.ones((n, 1, 2, 1)),
        margins=np.array([-1.0] + [1.0] * (n - 1)),
        action_bound=((0,),) * (n - 1) + ((0, 1),),
    )


def test_adversary_prefers_the_sooner_of_equal_failures():
    for long, short in ((3, 2), (6, 5), (2, 6)):
        sol = value_iteration(_fork(long, short))
        assert sol.values.tolist() == [-1.0] * (long + short)
        assert int(sol.adversary_policy[-1, 0]) == (1 if short < long else 0)
        assert sol.adversary_policy.tolist() == _reference_adversary(sol)


def test_shuffled_corridor_solves_to_its_sink():
    spec = _corridor(300, 11)
    sol = value_iteration(spec)
    assert sol.iterations == 300
    assert sol.values.tolist() == [-0.5] * 300
    assert sol.adversary_policy.tolist() == [[0, 0]] * 300


# ---------------------------------------------------------------------------
# shared-memo oracle
# ---------------------------------------------------------------------------


def test_brute_force_values_match_per_root_recursion():
    games = [_det_game(seed) for seed in range(4)]
    games.append(random_game(9, states=7, observations=2, failure_fraction=0.3).game)
    for spec in games:
        horizon = value_iteration(spec).iterations
        per_root = [brute_force_value(spec, z, horizon) for z in range(spec.num_states)]
        assert brute_force_values(spec, horizon) == per_root


def _fits(evaluate):
    try:
        evaluate()
    except BudgetExceededError:
        return False
    return True


def test_brute_force_values_budget_is_per_root():
    spec = _det_game(5)
    horizon = 6
    budget = 1
    while not all(
        _fits(lambda z=z: brute_force_value(spec, z, horizon, node_budget=budget))
        for z in range(spec.num_states)
    ):
        budget += 1
    # The shared memo evaluates more nodes in total than any one root needs.
    assert budget < spec.num_states * (horizon + 1)
    assert _fits(lambda: brute_force_values(spec, horizon, node_budget=budget))
    with pytest.raises(BudgetExceededError):
        brute_force_values(spec, horizon, node_budget=2)
    with pytest.raises(ValueError, match="horizon"):
        brute_force_values(spec, -1)
