"""Acceptance gate for the package's stated guarantees.

Each test exercises one numbered acceptance criterion end to end and prints
one ``ACCEPTANCE n: PASS/FAIL`` line outside pytest's capture, so a plain
``pytest -v`` run shows the verdict per criterion.  Tolerances are exact
(0.0) wherever the computation is deterministic-by-construction; the only
approximate comparisons are epsilon bounds on stochastic-observation games.
"""

from __future__ import annotations

import contextlib
import time
from functools import lru_cache

import numpy as np
import pytest

from haig import (
    GameSpec,
    RolloutConfig,
    SplitMix64,
    brute_force_values,
    build_chain,
    build_dialogue,
    parse_spec,
    perfect_filter,
    pluggable_monitor,
    random_game,
    rollout,
    serialize,
    value_iteration,
    verify_safety,
)


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def _announce(number: int, description: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"ACCEPTANCE {number}: {verdict} - {description}")

    return _announce


def _random_doc(seed: int, max_states: int, *, observations: int = 1, salt: int = 0):
    return random_game(
        seed + salt,
        states=5 + (seed * 7) % (max_states - 4),
        ai_actions=2 + seed % 3,
        human_actions=2 + (seed // 3) % 3,
        observations=observations,
        failure_fraction=(0.1, 0.2, 0.3)[seed % 3],
    )


@lru_cache(maxsize=1)
def _oracle_corpus():
    """100 deterministic games up to 200 states and 4 actions per side."""
    return tuple(_random_doc(seed, 200) for seed in range(100))


@lru_cache(maxsize=1)
def _verify_corpus():
    """100 deterministic games up to 50 states for exhaustive verification."""
    return tuple(_random_doc(seed, 50, salt=1000) for seed in range(100))


@lru_cache(maxsize=1)
def _bound_corpus():
    """50 deterministic games whose bounds get shrunk."""
    return tuple(_random_doc(seed, 40, salt=2000) for seed in range(50))


@lru_cache(maxsize=1)
def _stochastic_corpus():
    """A few stochastic-observation games for the non-exact paths."""
    return tuple(
        random_game(3000 + seed, states=6 + seed, observations=2 + seed % 2,
                    failure_fraction=0.25)
        for seed in range(10)
    )


def _scenario_docs():
    return (
        build_chain(5),
        build_chain(5, human_reach=2),
        build_chain(5, human_reach=3, odd_reach=1),
        build_dialogue(),
        build_dialogue(conservative_bound=True),
    )


def _every_acceptance_game():
    for doc in _scenario_docs():
        yield doc.game
    for corpus in (_oracle_corpus(), _verify_corpus(), _bound_corpus(), _stochastic_corpus()):
        for doc in corpus:
            yield doc.game


def _acceptance_rollouts():
    chain = build_chain(5)
    dialogue = build_dialogue()
    odd = build_chain(5, human_reach=3, odd_reach=1)
    configs = [
        RolloutConfig(chain, "constant:-1", "worst_case", "switch", 3, 10, 1),
        RolloutConfig(chain, "constant:-1", "worst_case", "least_restrictive", 3, 10, 1),
        RolloutConfig(chain, "press_on", "uniform", "switch", 4, 25, 7),
        RolloutConfig(chain, "random", "uniform", "least_restrictive", 2, 25, 11),
        RolloutConfig(chain, "random", "hold", "fallback_only", 1, 15, 2),
        RolloutConfig(chain, "constant:-1", "worst_case", "none", 3, 10, 1),
        RolloutConfig(dialogue, "eager_helper", "worst_case", "switch", "start", 8, 0),
        RolloutConfig(dialogue, "eager_helper", "patient", "switch", "start", 8, 0),
        RolloutConfig(dialogue, "random", "uniform", "least_restrictive", "start_warned", 12, 5),
        RolloutConfig(odd, "constant:0", "off_odd", "switch", 3, 6, 0),
    ]
    for seed in range(10):
        doc = _random_doc(seed, 30, salt=4000)
        configs.append(RolloutConfig(doc, "random", "uniform", "switch", 0, 20, seed))
        configs.append(RolloutConfig(doc, "random", "worst_case", "least_restrictive", 0, 20, seed))
    for seed, doc in enumerate(_stochastic_corpus()[:3]):
        configs.append(RolloutConfig(doc, "random", "uniform", "switch", 0, 20, seed))
    return configs


def test_criterion_1_oracle_equivalence(announce):
    with announce(1, "solver equals the brute-force game-tree oracle exactly on "
                     "100 deterministic games"):
        started = time.monotonic()
        worst = 0.0
        for doc in _oracle_corpus():
            spec = doc.game
            sol = value_iteration(spec)
            assert sol.converged
            for z, reference in enumerate(brute_force_values(spec, sol.iterations)):
                worst = max(worst, abs(reference - float(sol.values[z])))
        assert worst == 0.0
        assert time.monotonic() - started < 120.0


def test_criterion_2_chain_closed_forms(announce):
    with announce(2, "chain closed forms: value z-1 with reach 1, hopeless with reach 2"):
        sol = value_iteration(build_chain(5).game)
        assert sol.values.tolist() == [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
        assert sol.safe_set == frozenset({1, 2, 3, 4, 5})
        assert all(int(sol.fallback_policy[z]) == 2 for z in range(1, 6))

        weak = value_iteration(build_chain(5, human_reach=2).game)
        assert weak.values.tolist() == [-1.0] * 6
        assert weak.safe_set == frozenset()


def test_criterion_3_exhaustive_safety_verification(announce):
    with announce(3, "depth-8 exhaustive verification holds everywhere; the "
                     "unfiltered control fails within 3 steps"):
        started = time.monotonic()
        for doc in (build_chain(5), build_dialogue(), *_verify_corpus()):
            report = verify_safety(doc, depth=8)
            assert report.ok, doc.game.scenario

        control = verify_safety(build_chain(5), depth=8, filter_mode="none")
        failures = {ce.steps[0].state: ce for ce in control.counterexamples}
        assert 3 in failures
        assert len(failures[3].steps) <= 3
        assert time.monotonic() - started < 300.0


def test_criterion_4_controlled_invariance(announce):
    with announce(4, "the fallback action keeps every safe state inside the "
                     "safe set for all admissible outcomes"):
        docs = (*_scenario_docs(), *_oracle_corpus(), *_verify_corpus())
        for doc in docs:
            spec = doc.game
            if not spec.is_deterministic():
                continue
            sol = value_iteration(spec)
            for z in sol.safe_set:
                assert spec.margins[z] >= 0.0
                a = int(sol.fallback_policy[z])
                for b in spec.action_bound[z]:
                    for o in range(spec.num_observations):
                        if spec.observation_probs[z, a, b, o] <= 0.0:
                            continue
                        successor = int(spec.transitions[z, a, b, o])
                        assert successor in sol.safe_set, (spec.scenario, z, b, o)


def test_criterion_5_bound_monotonicity(announce):
    with announce(5, "shrinking the admissible human bound never shrinks the "
                     "safe set or lowers any value"):
        for seed, doc in enumerate(_bound_corpus()):
            spec = doc.game
            baseline = value_iteration(spec)
            stream = SplitMix64(seed * 977 + 13)
            narrowed_rows = []
            for row in spec.action_bound:
                if stream.uniform() < 0.5 and len(row) > 1:
                    keep = 1 + stream.randint(len(row) - 1)
                    chosen = sorted(row[stream.randint(len(row))] for _ in range(keep))
                    narrowed_rows.append(tuple(sorted(set(chosen))))
                else:
                    narrowed_rows.append(row)
            narrowed = GameSpec(
                num_states=spec.num_states,
                ai_actions=spec.ai_actions,
                human_actions=spec.human_actions,
                observations=spec.observations,
                transitions=spec.transitions,
                observation_probs=spec.observation_probs,
                margins=spec.margins,
                action_bound=tuple(narrowed_rows),
            )
            shrunk = value_iteration(narrowed)
            assert np.all(shrunk.values >= baseline.values), seed
            assert baseline.safe_set <= shrunk.safe_set, seed


def test_criterion_6_monotone_iteration(announce):
    with announce(6, "every sweep is pointwise non-increasing and deterministic "
                     "games converge within one sweep per state"):
        for spec in _every_acceptance_game():
            sol = value_iteration(spec, record_sweeps=True)
            assert sol.converged, spec.scenario
            for earlier, later in zip(sol.sweeps, sol.sweeps[1:]):
                assert np.all(later <= earlier), spec.scenario
            if spec.is_deterministic():
                assert sol.iterations <= spec.num_states, spec.scenario


def test_criterion_7_least_restrictive_filtering(announce):
    with announce(7, "interventions happen only on uncertified task actions; "
                     "critic and rollout monitors agree in sign"):
        for config in _acceptance_rollouts():
            trace = rollout(config)
            # fallback_only overrides unconditionally on purpose, so the
            # least-restrictiveness claim covers the other two modes
            if config.filter_mode not in ("switch", "least_restrictive"):
                continue
            for step in trace.steps:
                if step.intervened:
                    assert step.monitor_value <= 0.0, (config, step.t)

        sign_docs = [build_chain(5), build_chain(5, 2), build_chain(7, 3, 2),
                     build_dialogue(), build_dialogue(conservative_bound=True)]
        sign_docs += [_random_doc(seed, 30, salt=5000) for seed in range(20)]
        for doc in sign_docs:
            spec = doc.game
            sol = value_iteration(spec)
            critic = pluggable_monitor(sol, "critic")
            roll = pluggable_monitor(sol, "rollout", horizon=spec.num_states)
            for z in range(spec.num_states):
                for a in range(spec.num_ai_actions):
                    c, r = critic(z, a), roll(z, a)
                    assert np.sign(c) == np.sign(r), (spec.scenario, z, a, c, r)


def test_criterion_8_guarantee_is_conditional_on_the_bound(announce):
    with announce(8, "a human acting outside the modeled bound defeats the "
                     "filter from a certified state and every such step is flagged"):
        doc = build_chain(5, human_reach=3, odd_reach=1)
        flt = perfect_filter(value_iteration(doc.game))
        from haig import check_initial_condition

        assert check_initial_condition(flt, 3)
        trace = rollout(RolloutConfig(doc, "constant:0", "off_odd", "switch", 3, 6, 0))
        assert trace.min_margin < 0.0
        assert trace.violation_count > 0
        assert trace.odd_violation_steps != ()
        for step in trace.steps:
            assert step.odd_violation
            assert doc.game.human_actions[step.human_action] == "-3"


def test_criterion_9_determinism_and_round_trip(announce):
    with announce(9, "seeded builds and traces are byte-identical and "
                     "parse(serialize(doc)) is the identity on the corpus"):
        for doc in (*_scenario_docs(), *_oracle_corpus()[:20], *_verify_corpus()[:20],
                    *_stochastic_corpus()):
            data = serialize(doc)
            again = parse_spec(data)
            assert again == doc, doc.game.scenario
            assert serialize(again) == data, doc.game.scenario

        assert serialize(build_chain(5)) == serialize(build_chain(5))
        assert serialize(build_dialogue()) == serialize(build_dialogue())
        for seed in range(10):
            a = serialize(_random_doc(seed, 60, salt=6000))
            b = serialize(_random_doc(seed, 60, salt=6000))
            assert a == b

        for config in _acceptance_rollouts()[:12]:
            assert rollout(config).to_jsonl() == rollout(config).to_jsonl()
