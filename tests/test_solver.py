from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from haig import (
    BudgetExceededError,
    GameSpec,
    SchemaError,
    brute_force_value,
    brute_force_values,
    build_chain,
    build_dialogue,
    random_game,
    solution_payload,
    validate_model,
    value_iteration,
)
from haig import solver
from haig.solver import DEFAULT_EPSILON


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
    assert sol.q_values[2, 0, 0] == -1.0  # both push down, through state 0
    assert sol.q_values[2, 2, 0] == 1.0
    assert sol.q_values[2, 2, 2] == 1.0  # capped by the local margin

    # with a wide action set the out-of-bound columns stay queryable
    odd = value_iteration(build_chain(5, human_reach=3, odd_reach=1).game)
    assert odd.values.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    assert odd.q_values[3, 1, 0] == -1.0  # human -3 is outside the bound
    with pytest.raises(IndexError):
        sol.q_values[2, 0, 9]


def test_adversary_restricted_to_bound_and_optimal():
    chain = value_iteration(build_chain(5).game)
    assert chain.adversary_policy.shape == (6, 3)
    assert chain.adversary_policy[2].tolist() == [0, 0, 0]

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


# (iterations, residual, sha256 of the values) of the ten 30-state 3x3x3 stochastic
# games of generator seeds 0-9, about 14,000 sweeps in all
_PINNED_STOCHASTIC_SOLVES = [
    (4623, "0x1.126e480000000p-30", "c5246b16227cd6a95b0db2591e57ea7e0409ddcd00b683734bb68256f7ce23e6"),
    (984, "0x1.0f266ba000000p-30", "ba1293c969df665c2432f242cd698148bef374f0c3a26344244504e7ae3737c2"),
    (154, "0x1.ec35a6c000000p-31", "00020a6aa2b25405bf8262f6b29a71a88b77eaa4f06dde92737efa6a1f739368"),
    (748, "0x1.0dc8bc0000000p-30", "5eecf1a26c86372f7ee3ab9ef0cc78b2a4253d763e9d2bb507d99b911da6c05d"),
    (1655, "0x1.12c28a3000000p-30", "dde91ec1e738f9dad2539e96f621761df3c39e831990cc5af4f06bc08d93f334"),
    (353, "0x1.125cf92800000p-30", "61ba2b4d3598b3f77242ced9f08484a3d2feed3309736e756f7c8c86bcbe89e8"),
    (3406, "0x1.1215e00000000p-30", "f941574c094491faf877c8ac9b9e41a70072c2d0522e3f55126fd38ecd89dddf"),
    (292, "0x1.0fd14e8000000p-30", "25af289381cb096ffcc106274dc8bd0ecd5ab3cefaa13c777b80075df9484b07"),
    (1869, "0x1.1200100000000p-30", "89f2875dd0fda3afa41dd3b54c8b8e76a9ec41b9a9584380c5bb963b22219c08"),
    (187, "0x1.108269e000000p-30", "afccf2a41d46ab679d0f7bde87d2e114cde070642193b6ac646e92267062ce16"),
]


def test_stochastic_sweeps_are_pinned():
    """Sweep counts, residuals and values bit for bit, on games that take hundreds to thousands of sweeps."""
    for seed, (iterations, residual, digest) in enumerate(_PINNED_STOCHASTIC_SOLVES):
        spec = random_game(seed, states=30, ai_actions=3, human_actions=3, observations=3, failure_fraction=0.05).game
        sol = value_iteration(spec)
        assert (sol.iterations, sol.residual.hex(), hashlib.sha256(sol.values.tobytes()).hexdigest()) == (
            iterations, residual, digest)


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


def _reference_sweeps(spec, epsilon=DEFAULT_EPSILON, max_iters=None):
    """(values, iterations, converged, residual, iterates) of the masked backup, checked every sweep."""
    deterministic = spec.is_deterministic()
    if max_iters is None:
        max_iters = spec.num_states + 1 if deterministic else 100_000
    values = spec.margins
    iterates = [values]
    residual = np.inf
    while len(iterates) <= max_iters:
        expected = _masked_backup(spec, values)
        residual = float(np.max(values - expected))
        values = expected
        iterates.append(values)
        if residual == 0.0 if deterministic else residual <= epsilon:
            return values, len(iterates) - 1, True, residual, iterates
    return values, len(iterates) - 1, False, residual, iterates


def _assert_matches_the_reference(spec, **kwargs):
    sol = value_iteration(spec, **kwargs)
    kwargs.pop("record_sweeps", None)
    values, iterations, converged, residual, iterates = _reference_sweeps(spec, **kwargs)
    assert sol.values.tobytes() == values.tobytes(), (spec.num_states, kwargs)
    assert (sol.iterations, sol.converged, repr(sol.residual)) == (
        iterations, converged, repr(residual)), (spec.num_states, kwargs)
    if sol.sweeps is not None:
        assert [row.tobytes() for row in sol.sweeps] == [row.tobytes() for row in iterates]
    return sol


def _block(spec):
    """Sweeps in one of ``_sweeps``'s blocks on this game."""
    return max(1, min(solver._BLOCK_SWEEPS, solver._BLOCK_VALUES // spec.num_states))


def test_sweeps_match_the_masked_backup_bit_for_bit():
    saw_negative_zero = False
    for spec in _narrowed_signed_zero_games():
        saw_negative_zero |= bool(np.any(np.signbit(spec.margins) & (spec.margins == 0.0)))
        sol = _assert_matches_the_reference(spec, record_sweeps=True, max_iters=300)
        assert sol.sweeps[0].tobytes() == spec.margins.tobytes()
        assert value_iteration(spec, max_iters=300).values.tobytes() == sol.values.tobytes()
    assert saw_negative_zero

    # Budgets on both sides of a block edge, on games that need more sweeps than any of them.
    slow = [random_game(seed, states=30, observations=3, failure_fraction=0.05).game for seed in (1, 4)]
    slow.append(replace(slow[0], margins=np.round(slow[0].margins * 2.0) / 2.0))
    k = _block(slow[0])
    assert k > 1
    for spec in slow:
        for budget in (0, 1, k - 1, k, k + 1, 2 * k + 3):
            for record in (False, True):
                sol = _assert_matches_the_reference(spec, max_iters=budget, record_sweeps=record)
                assert (sol.iterations, sol.converged) == (budget, False)

    # Full solves of bench-sized stochastic games, which stop inside a block.
    for seed in (1, 2, 5, 7, 9, 10):
        spec = random_game(seed, states=30, ai_actions=3, human_actions=3, observations=3,
                           failure_fraction=0.05).game
        assert _assert_matches_the_reference(spec).converged

    # Seven observations are summed in the leading axis, eight in the trailing one.
    for obs in (7, 8):
        for seed in range(3):
            spec = random_game(seed, states=20, ai_actions=2, human_actions=3, observations=obs,
                               failure_fraction=0.2).game
            assert _assert_matches_the_reference(spec, epsilon=1e-6).converged
            _assert_matches_the_reference(spec, max_iters=7, record_sweeps=True)

    # A game whose block holds one sweep.
    big = random_game(3, states=solver._BLOCK_VALUES // 2 + 1, ai_actions=1, human_actions=2,
                      observations=2, failure_fraction=0.05).game
    assert _block(big) == 1
    for budget in (1, 2, 3):
        _assert_matches_the_reference(big, max_iters=budget, record_sweeps=True)


def test_a_backup_that_raises_a_value_is_refused(monkeypatch):
    """Negated weights make the backup antitone, so some sweep raises a value; no solution is returned."""
    layout = solver._sweep_layout

    def negated(spec):
        succ, weight, axis = layout(spec)
        return succ, -weight, axis

    monkeypatch.setattr(solver, "_sweep_layout", negated)
    games = [random_game(seed, states=30, observations=3, failure_fraction=0.05).game for seed in (1, 2)]
    games.append(random_game(0, states=20, observations=9, failure_fraction=0.2).game)
    for spec in games:
        for record in (False, True):
            with pytest.raises(RuntimeError, match="increased a state value"):
                value_iteration(spec, record_sweeps=record)

    # Two lines, 0 -> 1 -> 2 and 3 -> 4 -> 5 -> 6, end in absorbing zero-margin states.  With
    # state 0's weight negated it falls to -5 on sweep 1 and rises to -0.0 on sweep 2, while
    # the second line still falls until sweep 3, so sweep 2 does not stop the run.
    line = GameSpec(
        num_states=7,
        ai_actions=("a",),
        human_actions=("x",),
        observations=("o",),
        transitions=np.array([1, 2, 2, 4, 5, 6, 6], dtype=np.int64).reshape(7, 1, 1, 1),
        observation_probs=np.ones((7, 1, 1, 1)),
        margins=np.array([10.0, 5.0, 0.0, 10.0, 10.0, 10.0, 0.0]),
        action_bound=((0,),) * 7,
    )

    def state_zero_negated(spec):
        succ, weight, axis = layout(spec)
        weight = weight.copy()
        weight[..., 0] = -weight[..., 0]  # the last axis is Z in the (O, B, A, Z) layout
        return succ, weight, axis

    monkeypatch.setattr(solver, "_sweep_layout", state_zero_negated)
    with pytest.raises(RuntimeError, match="increased a state value"):
        value_iteration(line, record_sweeps=True)
    monkeypatch.setattr(solver, "_sweep_layout", layout)
    assert value_iteration(line, record_sweeps=True).iterations == 4


def test_scores_are_the_masked_min_of_q():
    """``scores`` is the worst admissible Q per (state, action), the old filter-side monitor table."""
    games = [*_narrowed_signed_zero_games(), *(_det_game(seed) for seed in range(10))]
    for spec in games:
        for sol in (value_iteration(spec, max_iters=300), value_iteration(spec, max_iters=2)):
            reference = np.where(sol.spec.bound_mask[:, None, :], sol.q_values, np.inf).min(axis=2)
            assert sol.scores.tobytes() == reference.tobytes()
            assert sol.fallback_policy.tolist() == sol.scores.argmax(axis=1).tolist()
            assert not sol.scores.flags.writeable


def test_non_finite_margins_are_refused():
    chain = build_chain(4).game
    nan = chain.margins.copy()
    nan[4] = np.nan
    with pytest.raises(SchemaError, match="state 4"):
        value_iteration(replace(chain, margins=nan))

    two_obs = replace(
        chain,
        observations=("o0", "o1"),
        transitions=np.repeat(chain.transitions, 2, axis=3),
        observation_probs=np.concatenate(
            [np.full(chain.observation_probs.shape, 0.5)] * 2, axis=3
        ),
    )
    assert value_iteration(two_obs).converged
    inf = chain.margins.copy()
    inf[2] = np.inf
    with pytest.raises(SchemaError, match="state 2"):
        value_iteration(replace(two_obs, margins=inf))


def test_malformed_epsilon_and_budgets_are_refused():
    spec = random_game(0, states=30, observations=3, failure_fraction=0.05).game
    for epsilon in (-1.0, -1e-300, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            value_iteration(spec, epsilon=epsilon)
    with pytest.raises(ValueError, match="max_iters must be >= 0, got -1"):
        value_iteration(spec, max_iters=-1)
    with pytest.raises(TypeError):
        value_iteration(spec, max_iters=2.5)
    for epsilon in (0.0, -0.0):
        sol = value_iteration(build_chain(3).game, epsilon=epsilon, record_sweeps=True)
        assert sol.converged and repr(sol.epsilon) == repr(epsilon)
    sol = value_iteration(spec, max_iters=np.int64(3))
    assert (sol.iterations, sol.converged) == (3, False)


def test_deep_oracle_horizons_reach_the_solver_values():
    """A horizon far past the interpreter's recursion limit is evaluated like any other."""
    spec = build_chain(3).game
    values = value_iteration(spec).values.tolist()
    assert brute_force_values(spec, 5000) == values
    assert brute_force_value(spec, 1, 5000) == values[1]
    assert brute_force_values(spec, 50) == values


def test_a_horizon_far_past_the_budget_is_refused_before_evaluating():
    spec = build_chain(3).game
    with pytest.raises(BudgetExceededError, match="node budget of 1000"):
        brute_force_values(spec, 10**9, node_budget=1000)
    with pytest.raises(BudgetExceededError, match="node budget of 1000"):
        brute_force_value(spec, 1, 10**9, node_budget=1000)
    tree = solver._GameTree(spec, 10**9, 1000)
    with pytest.raises(BudgetExceededError):
        tree(0)
    assert tree.memo == {}


def test_oracle_horizons_must_be_integers():
    """A float horizon raises TypeError at once, not a budget error at the recursion limit."""
    spec = build_chain(5).game
    with pytest.raises(TypeError):
        brute_force_values(spec, 2.5)
    with pytest.raises(TypeError):
        brute_force_value(spec, 1, 2.5)
    assert brute_force_values(spec, np.int64(2)) == brute_force_values(spec, 2)


def test_oracle_node_budgets_are_checked_before_evaluating():
    """A negative or non-integral budget is a bad argument, not an exceeded budget."""
    spec = build_chain(5).game
    for oracle in (lambda budget: brute_force_value(spec, 3, 4, node_budget=budget),
                   lambda budget: brute_force_values(spec, 4, node_budget=budget)):
        with pytest.raises(ValueError, match="node_budget must be >= 0, got -1"):
            oracle(-1)
        with pytest.raises(TypeError):
            oracle(2.5)
        with pytest.raises(BudgetExceededError):
            oracle(0)
    assert brute_force_value(spec, 3, 4, node_budget=np.int64(100)) == brute_force_value(spec, 3, 4)


def _corridor(n, seed=None):
    """A corridor, shuffled unless ``seed`` is None: every joint action steps toward cell 0; margins rise along it."""
    cells = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)  # cells[i]: state of cell i
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
    one_hot = [spec for spec in _attractor_corpus() if spec.num_observations == 3]
    assert len(one_hot) == 60
    for spec in games + one_hot:
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
# threshold attractor against the sweep
# ---------------------------------------------------------------------------


def _one_hot(spec, rng):
    """``spec`` with every observation row a 1.0 on one random observation."""
    pick = rng.integers(spec.num_observations, size=spec.observation_probs.shape[:3])
    probs = np.zeros(spec.observation_probs.shape)
    np.put_along_axis(probs, pick[..., None], 1.0, axis=3)
    return replace(spec, observation_probs=probs)


def _attractor_corpus():
    """Games the attractor solves: random, narrowed, chains, dialogues, corridors and one-hot O = 3."""
    rng = np.random.default_rng(31)
    for seed in range(100):  # the shapes of the acceptance oracle corpus
        spec = random_game(
            seed,
            states=5 + (seed * 7) % 196,
            ai_actions=2 + seed % 3,
            human_actions=2 + (seed // 3) % 3,
            observations=1,
            failure_fraction=(0.1, 0.2, 0.3)[seed % 3],
        ).game
        coarse = np.round(spec.margins * 4.0) / 4.0 + 0.0  # many ties; + 0.0 turns -0.0 into 0.0
        yield spec
        yield replace(spec, margins=coarse, action_bound=_random_bounds(rng, spec))
    for length in (2, 5, 9):
        for reach in (1, 2, 3):
            for odd in range(1, reach + 1):
                yield build_chain(length, reach, odd).game
    yield build_dialogue().game
    yield build_dialogue(conservative_bound=True).game
    for seed in range(4):
        yield _corridor(50 + 70 * seed, seed)
        yield _corridor(50 + 70 * seed)
    for seed in range(30):
        spec = _one_hot(
            random_game(
                seed, states=6 + 3 * seed, ai_actions=1 + seed % 3, human_actions=1 + seed % 4,
                observations=3, failure_fraction=0.2,
            ).game,
            rng,
        )
        yield spec
        yield replace(spec, margins=np.round(spec.margins * 2.0) / 2.0 + 0.0,
                      action_bound=_random_bounds(rng, spec))


def _assert_same_solution(sol, reference):
    assert sol.values.tobytes() == reference.values.tobytes()
    assert sol.q_values.tobytes() == reference.q_values.tobytes()
    assert sol.fallback_policy.tobytes() == reference.fallback_policy.tobytes()
    assert sol.adversary_policy.tobytes() == reference.adversary_policy.tobytes()
    assert sol.scores.tobytes() == reference.scores.tobytes()
    assert (sol.iterations, sol.converged, sol.residual) == (
        reference.iterations, reference.converged, reference.residual)


def test_attractor_matches_the_sweep_bit_for_bit():
    """``record_sweeps`` always sweeps, so it is the reference for the attractor's tables and count."""
    for spec in _attractor_corpus():
        assert spec.is_deterministic()
        _assert_same_solution(value_iteration(spec), value_iteration(spec, record_sweeps=True))


def test_deferred_tables_match_a_direct_computation(monkeypatch):
    """``iterations`` and ``adversary_policy`` are computed on first read, once, and equal a direct computation.

    The count is that of the sweep, which ``record_sweeps`` always runs,
    and the adversary is ``_adversary_table`` of the solution's own tables.
    A solve computes neither unless a ``max_iters`` of at most
    ``num_states`` needs the count to pick the route.
    """
    calls = []
    count, table = solver._sweep_count, solver._adversary_table
    monkeypatch.setattr(solver, "_sweep_count", lambda *args: calls.append("count") or count(*args))
    monkeypatch.setattr(solver, "_adversary_table", lambda *args: calls.append("adversary") or table(*args))

    def check(sol, strict, iterations):
        assert calls == []
        assert sol.iterations == iterations
        assert calls == (["count"] if strict else [])
        direct = table(sol.spec, sol.values, sol.q_values, sol.scores, sol.fallback_policy)
        assert sol.adversary_policy.tobytes() == direct.tobytes()
        assert sol.adversary_policy is sol.adversary_policy and not sol.adversary_policy.flags.writeable
        assert (sol.iterations, calls.count("count"), calls.count("adversary")) == (iterations, strict, 1)
        calls.clear()

    signed_zero = replace(build_chain(5).game, margins=np.array([-1.0, -0.0, 0.0, 1.0, 2.0, 3.0]))
    specs = [spec for spec in _attractor_corpus() if spec.num_observations == 1]
    for spec in specs + [signed_zero]:
        strict = solver._strictly_deterministic(spec, spec.margins)
        swept = value_iteration(spec, record_sweeps=True)
        calls.clear()
        check(value_iteration(spec), strict, swept.iterations)
        check(swept, False, swept.iterations)
        short = value_iteration(spec, max_iters=swept.iterations - 1)  # the count is computed to pick the sweeps
        assert calls == (["count"] if strict else [])
        calls.clear()
        check(short, False, swept.iterations - 1)
        assert not short.converged


def test_step_table_matches_plain_loops():
    """``_steps`` lists the admissible steps of positive probability in (z, a, b, o) order.

    ``_grouped`` lists each key's distinct items.  On deterministic games the
    steps are those of the (Z, A, B) successor table, one per (z, a, b).
    """
    rng = np.random.default_rng(5)
    stochastic = [random_game(seed, states=9, observations=2 + seed % 2, failure_fraction=0.2).game
                  for seed in range(3)]
    probs = stochastic[1].observation_probs.copy()
    probs[::2, ..., 1] = 0.0  # a zero between two positive entries in every other row
    probs /= probs.sum(axis=3, keepdims=True)
    stochastic.append(replace(stochastic[1], observation_probs=probs))
    for spec in [_det_game(seed) for seed in range(6)] + [build_chain(4, 2, 1).game] + stochastic:
        executed = rng.integers(spec.num_ai_actions, size=(spec.num_states, 3))
        expected = [(z, a, b, o, int(spec.transitions[z, executed[z, a], b, o]))
                    for z in range(spec.num_states) for a in range(3) for b in spec.action_bound[z]
                    for o in range(spec.num_observations) if spec.observation_probs[z, executed[z, a], b, o] > 0.0]
        steps = solver._steps(spec, executed)
        assert list(zip(*(column.tolist() for column in steps))) == expected
        z, a, b, _, z2 = steps
        if spec.is_deterministic():
            assert z2.tolist() == solver._det_successors(spec)[z, executed[z, a], b].tolist()
        grouped = [sorted({int(p) for p, w in zip(z, z2) if w == target}) for target in range(spec.num_states)]
        assert solver._grouped(z2, z, spec.num_states) == grouped
    assert not stochastic[3].is_deterministic() and (stochastic[3].observation_probs == 0.0).any()
    assert solver._grouped(np.zeros(0, np.int64), np.zeros(0, np.int64), 2) == [[], []]


def test_games_off_the_attractor_route_get_the_sweep():
    chain = build_chain(6).game
    almost_one = replace(chain, observation_probs=np.full(chain.observation_probs.shape, 1 - 4e-13))
    assert validate_model(almost_one).ok and almost_one.is_deterministic()
    sol = value_iteration(almost_one)
    assert (sol.iterations, sol.converged) == (8, False)  # the sweep's values are not margins here
    _assert_same_solution(sol, value_iteration(almost_one, record_sweeps=True))

    tie = _signed_zero_tie_game()  # the sweep ends state 0 on +0.0, the margin level is -0.0
    sol = value_iteration(tie)
    assert sol.values.tolist() == [0.0, 1.0, 0.0] and not np.signbit(sol.values[0])
    _assert_same_solution(sol, value_iteration(tie, record_sweeps=True))

    weak = build_chain(5, human_reach=2).game  # converges on sweep 6
    for budget in (0, 1, 5):
        sol = value_iteration(weak, max_iters=budget)
        assert (sol.iterations, sol.converged) == (budget, False)
        _assert_same_solution(sol, value_iteration(weak, max_iters=budget, record_sweeps=True))
    assert value_iteration(weak, max_iters=6).converged


def test_large_corridors_take_one_sweep_per_state():
    length = 20_000
    for seed in (None, 3):
        sol = value_iteration(_corridor(length, seed))
        assert sol.values.tolist() == [-0.5] * length
        assert sol.iterations == length
        assert sol.converged and sol.residual == 0.0
        assert sol.safe_set == frozenset()


# ---------------------------------------------------------------------------
# shared-memo oracle
# ---------------------------------------------------------------------------


class _RecursiveTree:
    """The oracle as a memoized recursion over (state, depth); ``nodes`` counts what a root evaluates first."""

    def __init__(self, spec, horizon):
        self.horizon = horizon
        self.ell = spec.margins.tolist()
        self.trans = spec.transitions.tolist()
        self.probs = spec.observation_probs.tolist()
        self.bound = spec.action_bound
        self.memo = {}
        self.nodes = 0

    def __call__(self, z):
        self.nodes = 0
        return self.value(z, self.horizon)

    def value(self, state, depth):
        key = (state, depth)
        if key in self.memo:
            return self.memo[key]
        self.nodes += 1
        here = self.ell[state]
        if depth == 0:
            result = here
        else:
            best = None
            for probs, trans in zip(self.probs[state], self.trans[state]):
                worst = None
                for b in self.bound[state]:
                    expected = 0.0
                    for p, nxt in zip(probs[b], trans[b]):
                        if p > 0.0:
                            expected += p * self.value(nxt, depth - 1)
                    outcome = here if here <= expected else expected
                    if worst is None or outcome < worst:
                        worst = outcome
                if best is None or worst > best:
                    best = worst
            result = best
        self.memo[key] = result
        return result


def _oracle_agreement_corpus():
    """Narrowed bounds, -0.0 margins, zero-probability observation entries and stochastic rows."""
    yield build_chain(5, 3, 1).game
    yield build_chain(9, 2).game
    narrowed = list(_narrowed_signed_zero_games())
    yield from (*narrowed[:8], narrowed[-1])  # O in {1, 3, 8, 9} on up to 20 states, and the -0.0 tie
    rng = np.random.default_rng(25)
    for seed in range(4):
        spec = random_game(seed, states=6 + seed, ai_actions=2, human_actions=3, observations=3,
                           failure_fraction=0.3).game
        yield spec
        yield _one_hot(spec, rng)


def test_layered_oracle_matches_the_recursion_bit_for_bit():
    """Every value by ``repr``, and every root's count of the nodes it evaluates first, in either root order."""
    seen = set()
    for spec in _oracle_agreement_corpus():
        seen.add("zero probability" if (spec.observation_probs == 0.0).any() else "all positive")
        for horizon in range(21):
            # a budget below Z * (horizon + 1), which no root reaches, takes the counting pass
            for roots, budget in ((range(spec.num_states), solver.DEFAULT_NODE_BUDGET),
                                  (range(spec.num_states - 1, -1, -1), spec.num_states * (horizon + 1) - 1)):
                layered = solver._GameTree(spec, horizon, budget)
                reference = _RecursiveTree(spec, horizon)
                for z in roots:
                    value = layered(z)
                    assert (repr(value), layered.nodes) == (repr(reference(z)), reference.nodes), (horizon, z)
                    seen.add(repr(value))
    assert {"-0.0", "0.0", "zero probability"} <= seen


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
