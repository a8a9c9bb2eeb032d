from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

import haig.harness
import haig.rng
from haig import (
    BudgetExceededError,
    FILTER_MODES,
    PolicyResolutionError,
    RolloutConfig,
    RolloutTrace,
    SpecDocument,
    build_chain,
    build_dialogue,
    compare_oracle,
    perfect_filter,
    pluggable_monitor,
    random_game,
    rollout,
    summary_csv,
    value_iteration,
    verify_safety,
)
from haig.filtering import InterventionRecord
from haig.harness import RolloutStep, VerificationReport
from haig.rng import SplitMix64, splitmix_block
from test_filtering import _signed_zero_chain, one_hot_observations, reference_table
from test_rng import _ScalarSplitMix64, seed_with_draw

_STEP_KEYS = {
    "t", "z", "task_a", "monitor", "intervened", "executed_a",
    "a_human", "obs", "margin",
}


def _chain_cfg(**overrides) -> RolloutConfig:
    fields = dict(
        document=build_chain(5),
        task_policy="constant:-1",
        human_policy="worst_case",
        filter_mode="switch",
        initial_state=3,
        max_steps=10,
        seed=1,
    )
    fields.update(overrides)
    return RolloutConfig(**fields)


def test_filtered_rollout_holds_the_line():
    trace = rollout(_chain_cfg())
    assert len(trace.steps) == 10
    assert trace.min_margin == 2.0
    assert trace.violation_count == 0
    assert trace.intervention_rate == 1.0
    assert trace.gt_failure_count == 0
    assert all(s.state == 3 and s.executed_action == 2 for s in trace.steps)
    assert trace.final_state == 3


def test_unfiltered_rollout_fails_fast():
    trace = rollout(_chain_cfg(filter_mode="none"))
    assert trace.min_margin == -1.0
    first_bad = next(s.t for s in trace.steps if s.margin_value < 0.0)
    assert first_bad == 2
    assert trace.violation_count == 9  # stuck in state 0 afterwards
    assert trace.intervention_count == 0
    # the mirrored ground truth fails exactly where the margin does
    assert trace.gt_failure_count == trace.violation_count
    assert trace.final_gt_failure is True


def test_fallback_only_rollout():
    trace = rollout(_chain_cfg(initial_state=1, filter_mode="fallback_only"))
    assert trace.min_margin == 0.0
    assert trace.violation_count == 0
    assert all(s.executed_action == 2 for s in trace.steps)


def test_least_restrictive_rollout():
    trace = rollout(_chain_cfg(task_policy="constant:0", filter_mode="least_restrictive"))
    assert trace.violation_count == 0
    # "0" keeps a positive monitor while the state is high enough to pass
    assert trace.steps[0].executed_action == 1


def test_counting_includes_the_terminal_state():
    cfg = _chain_cfg(initial_state=1, filter_mode="none", max_steps=1)
    trace = rollout(cfg)
    assert len(trace.steps) == 1
    # state 1, human -1, task -1 lands in the failure state at the end
    assert trace.final_state == 0
    assert trace.violation_count == 1
    assert trace.min_margin == -1.0


def test_rollout_from_failure_state_counts_it():
    trace = rollout(_chain_cfg(initial_state=0, max_steps=2))
    assert trace.steps[0].margin_value == -1.0
    assert trace.violation_count >= 1


def test_scripted_and_named_policies():
    doc = build_chain(5)
    cfg = _chain_cfg(task_policy="press_on", human_policy="scripted:+1,-1", seed=0)
    trace = rollout(cfg)
    human = [s.human_action for s in trace.steps]
    assert human[:4] == [2, 0, 2, 0]  # the script cycles

    hold = rollout(_chain_cfg(human_policy="hold", task_policy="constant:0"))
    assert all(s.human_action == 1 for s in hold.steps)

    patient = rollout(
        RolloutConfig(document=build_dialogue(), task_policy="eager_helper",
                      human_policy="patient", initial_state="start", max_steps=4)
    )
    assert all(s.human_action == 3 for s in patient.steps)
    assert patient.violation_count == 0


def test_uniform_human_stays_in_bound():
    doc = build_chain(5, human_reach=3, odd_reach=1)
    trace = rollout(_chain_cfg(document=doc, human_policy="uniform", max_steps=30))
    for s in trace.steps:
        assert s.human_action in doc.game.action_bound[s.state]
        assert not s.odd_violation
    assert trace.odd_violation_steps == ()


def test_off_odd_human_breaks_certified_safety():
    doc = build_chain(5, human_reach=3, odd_reach=1)
    trace = rollout(_chain_cfg(document=doc, human_policy="off_odd", max_steps=6))
    assert trace.odd_violation_steps == (0, 1, 2, 3, 4, 5)
    assert all(s.odd_violation for s in trace.steps)
    assert trace.min_margin == -1.0
    assert trace.violation_count > 0
    # every offending action was the full -3 push
    assert all(doc.game.human_actions[s.human_action] == "-3" for s in trace.steps)


def test_off_odd_degrades_to_compliance_when_bound_is_full():
    trace = rollout(_chain_cfg(human_policy="off_odd", max_steps=4))
    assert trace.odd_violation_steps == ()


def test_compliant_policies_may_not_leave_the_bound():
    doc = build_chain(5, human_reach=3, odd_reach=1)
    with pytest.raises(ValueError, match="off_odd"):
        rollout(_chain_cfg(document=doc, human_policy="scripted:-3"))


def test_policy_resolution_errors():
    with pytest.raises(PolicyResolutionError, match="unknown task policy"):
        rollout(_chain_cfg(task_policy="nope"))
    with pytest.raises(PolicyResolutionError, match="unknown human policy"):
        rollout(_chain_cfg(human_policy="nope"))
    with pytest.raises(PolicyResolutionError, match="unknown human action"):
        rollout(_chain_cfg(human_policy="scripted:fly"))
    with pytest.raises(PolicyResolutionError, match="at least one action"):
        rollout(_chain_cfg(human_policy="scripted:"))
    with pytest.raises(PolicyResolutionError, match="unknown state"):
        rollout(_chain_cfg(initial_state="nowhere"))
    with pytest.raises(ValueError, match="max_steps"):
        rollout(_chain_cfg(max_steps=0))
    with pytest.raises(ValueError, match="filter mode"):
        rollout(_chain_cfg(filter_mode="maybe"))
    # a task table built in code is not validated; its entries are checked per step
    bad = SpecDocument(game=build_chain(5).game, task_policies={"bad": (2, 2, 2, -1, 2, 2)})
    with pytest.raises(IndexError, match="ai action index -1"):
        rollout(_chain_cfg(document=bad, task_policy="bad"))


def test_trace_jsonl_shape_and_determinism():
    cfg = _chain_cfg(task_policy="random", human_policy="uniform", seed=9)
    blob = rollout(cfg).to_jsonl()
    assert blob == rollout(cfg).to_jsonl()
    assert blob != rollout(_chain_cfg(task_policy="random", human_policy="uniform", seed=10)).to_jsonl()

    lines = blob.decode("utf-8").splitlines()
    assert len(lines) == 10
    for t, line in enumerate(lines):
        record = json.loads(line)
        assert set(record) == _STEP_KEYS | {"gt_failure"}
        assert record["t"] == t
        assert list(record) == sorted(record)


def test_trace_flags_appear_only_when_set():
    doc = build_chain(5, human_reach=3, odd_reach=1)
    blob = rollout(_chain_cfg(document=doc, human_policy="off_odd", max_steps=2)).to_jsonl()
    for line in blob.decode().splitlines():
        assert json.loads(line)["odd_violation"] is True

    no_gt = random_game(2, states=6, failure_fraction=0.0)
    cfg = RolloutConfig(document=no_gt, task_policy="random", human_policy="uniform", max_steps=3)
    for line in rollout(cfg).to_jsonl().decode().splitlines():
        assert set(json.loads(line)) == _STEP_KEYS


def test_tampered_trace_fails_conservation():
    trace = rollout(_chain_cfg(max_steps=3))
    assert trace.z[1] != 5
    tampered = replace(trace, z=[trace.z[0], 5, *trace.z[2:]])
    with pytest.raises(RuntimeError, match="dynamics at t=0: recorded successor 5, dynamics give 3"):
        tampered.to_jsonl()
    with pytest.raises(RuntimeError, match="dynamics at t=2: recorded successor 0, dynamics give 3"):
        replace(trace, final_state=0).to_jsonl()


def _reference_jsonl(trace):
    """The JSONL encoding as ``json`` writes it, one sorted-key dict per step."""
    lines = [json.dumps(s.to_json_dict(), sort_keys=True, allow_nan=False) for s in trace.steps]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_jsonl_matches_the_json_module():
    odd = build_chain(5, human_reach=3, odd_reach=1)
    stochastic = random_game(11, states=30, observations=3, failure_fraction=0.1)
    cases = [(doc, human, start) for doc, start in ((build_chain(5), 4), (odd, 3), (stochastic, 0))
             for human in ("worst_case", "uniform", "off_odd")]
    cases += [(_signed_zero_game(), "uniform", z) for z in range(3)]
    cases += [(SpecDocument(game=_signed_zero_chain()), "uniform", z) for z in (1, 2)]
    traces = []
    for doc, human, start in cases:
        sol = value_iteration(doc.game)
        for mode in FILTER_MODES:
            cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human,
                                filter_mode=mode, initial_state=start, max_steps=60, seed=5)
            traces.append(rollout(cfg, sol))
            report = verify_safety(doc, depth=6, filter_mode=mode, samples=100, solution=sol)
            traces += report.counterexamples
    for trace in traces:
        assert trace.to_jsonl() == _reference_jsonl(trace)
    blob = b"".join(trace.to_jsonl() for trace in traces)
    for key in (b'"gt_failure": true', b'"gt_failure": false', b'"odd_violation": true',
                b'"margin": -0.0', b'"monitor": -0.0', b'"intervened": true', b'"intervened": false'):
        assert key in blob
    assert sum(len(trace.steps) for trace in traces) > 2000


def test_jsonl_refuses_non_finite_floats():
    """A non-finite monitor score or margin at a visited step, in the filter's table or the spec."""
    trace = rollout(_chain_cfg(max_steps=3))
    z, a_task = trace.z[1], trace.a_task[1]
    for value in (float("nan"), float("inf"), -float("inf")):
        scores = trace.scores.copy()
        scores[z, a_task] = value
        margins = trace.spec.margins.copy()
        margins[z] = value
        for bad in (replace(trace, scores=scores), replace(trace, spec=replace(trace.spec, margins=margins))):
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                _reference_jsonl(bad)
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                bad.to_jsonl()


def test_jsonl_prints_numpy_floats_as_json_does():
    """A float32 score table's -0.0 and 0.1 and a float64 margin print as ``json`` prints them."""
    trace = rollout(_chain_cfg(max_steps=3))
    z, a_task = trace.z[0], trace.a_task[0]
    margins = trace.spec.margins.copy()
    margins[z] = 0.5
    for value, text in ((-0.0, b"-0.0"), (0.1, b"0.10000000149011612")):
        scores = trace.scores.astype(np.float32)
        scores[z, a_task] = value
        hand_built = replace(trace, spec=replace(trace.spec, margins=margins), scores=scores)
        blob = hand_built.to_jsonl()
        assert blob == _reference_jsonl(hand_built)
        assert b'"margin": 0.5, "monitor": ' + text + b"," in blob.splitlines()[0]
        assert all(type(s.monitor_value) is float and type(s.margin_value) is float for s in hand_built.steps)


def _replayed_summaries(doc, trace):
    """The summaries recomputed from the visited states, ``spec.margins`` and the ground truth."""
    spec, gt = doc.game, doc.ground_truth
    visited = [s.state for s in trace.steps] + [trace.final_state]
    margins = [float(spec.margins[z]) for z in visited]
    lowest = margins[0]
    for m in margins[1:]:
        if m < lowest:  # the first of equal minima is kept, so a 0.0/-0.0 tie keeps its sign
            lowest = m
    gt_failures = None
    if gt is not None:
        s, h = next(
            (s, h) for s in range(gt.num_world_states) for h in range(gt.num_human_states)
            if gt.projection[s, h] == visited[0]
        )
        failed = []
        for step in trace.steps:
            failed.append(bool(gt.failure[s, h]))
            a, b = step.executed_action, step.human_action
            s, h = int(gt.world_transitions[s, a, b]), int(gt.human_transitions[h, a, b, gt.human_observation[s]])
        failed.append(bool(gt.failure[s, h]))
        assert [step.gt_failure for step in trace.steps] == failed[:-1]
        assert trace.final_gt_failure is failed[-1]
        gt_failures = sum(failed)
    interventions = sum(1 for s in trace.steps if s.executed_action != s.task_action)
    return {
        "final_margin": repr(margins[-1]),
        "min_margin": repr(lowest),
        "violation_count": repr(sum(1 for m in margins if m < 0.0)),
        "intervention_count": repr(interventions),
        "gt_failure_count": repr(gt_failures),
        "odd_violation_steps": repr(tuple(
            s.t for s in trace.steps if s.human_action not in spec.action_bound[s.state]
        )),
        "intervention_rate": repr(interventions / len(trace.steps)),
    }


def _signed_zero_game():
    """A random game whose margins are 0.0, -0.0 and 1.0, none of them failures."""
    doc = random_game(5, states=12, failure_fraction=0.0)
    margins = np.array([(0.0, -0.0, 1.0)[z % 3] for z in range(doc.game.num_states)])
    return SpecDocument(game=replace(doc.game, margins=margins))


def test_trace_summaries_match_a_replay_of_the_steps():
    odd = build_chain(5, human_reach=3, odd_reach=1)
    cases = [
        (build_chain(5), "none", "worst_case", 3),
        (build_chain(5), "switch", "uniform", 4),
        (build_chain(5), "least_restrictive", "uniform", 0),  # starts in the failure set
        (build_dialogue(), "none", "uniform", "start"),
        (build_dialogue(), "switch", "worst_case", "start"),
        (odd, "switch", "off_odd", 3),
        (odd, "none", "off_odd", 1),
        (random_game(11, states=30, observations=3, failure_fraction=0.1), "switch", "uniform", 0),
        (random_game(11, states=30, observations=3, failure_fraction=0.1), "none", "worst_case", 4),
    ]
    cases += [(_signed_zero_game(), mode, "uniform", z) for mode in ("none", "switch") for z in range(6)]
    signs = set()
    for doc, mode, human, start in cases:
        for seed in range(4):
            cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human,
                                filter_mode=mode, initial_state=start, max_steps=12, seed=seed)
            trace = rollout(cfg)
            expected = _replayed_summaries(doc, trace)
            assert {name: repr(getattr(trace, name)) for name in expected} == expected
            signs.add(expected["min_margin"])
            for step in trace.steps:
                assert InterventionRecord.to_json_dict(step).items() <= step.to_json_dict().items()
    assert {"0.0", "-0.0", "-1.0"} <= signs


def _view_cases():
    """Rollouts with a ground truth, with an off-bound human, and with three observations, and their configs."""
    odd = build_chain(5, human_reach=3, odd_reach=1)
    stochastic = random_game(11, states=30, observations=3, failure_fraction=0.1)
    for doc, human, start in ((build_chain(5), "uniform", 4), (odd, "off_odd", 3), (stochastic, "uniform", 0)):
        sol = value_iteration(doc.game)
        for mode in FILTER_MODES:
            yield RolloutConfig(document=doc, task_policy="random", human_policy=human, filter_mode=mode,
                                initial_state=start, max_steps=150, seed=8), sol


def test_len_and_summaries_build_no_step_records(monkeypatch):
    """``len(trace.steps)``, every summary and ``to_jsonl`` read the columns; reading a step builds one record."""
    built = []

    class Counted(RolloutStep):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields[0])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(haig.harness, "RolloutStep", Counted)
    for cfg, sol in _view_cases():
        trace = rollout(cfg, sol)
        assert len(trace.steps) == cfg.max_steps
        for name in ("final_margin", "min_margin", "violation_count", "intervention_count", "gt_failure_count",
                     "odd_violation_steps", "intervention_rate"):
            getattr(trace, name)
        summary_csv([trace])
        trace.to_jsonl()
        assert built == []
        assert type(trace.steps[-1]) is Counted and built == [cfg.max_steps - 1]
        assert len(list(trace.steps)) == cfg.max_steps and len(built) == cfg.max_steps + 1
        built.clear()


def test_steps_view_equals_the_reference_steps():
    """The view, read in order, by index, by slice and reversed, is the reference rollout's steps.

    As a tuple would, the view equals a tuple or view of equal records and
    no list, and a slice is a tuple.  The summaries are a replay's.
    """
    for cfg, sol in _view_cases():
        trace = rollout(cfg, sol)
        expected = _reference_rollout(cfg, sol)
        steps = trace.steps
        assert len(steps) == len(expected.steps)
        assert repr(tuple(steps)) == repr(expected.steps)
        for t in range(-len(steps), len(steps)):
            assert steps[t] == expected.steps[t] and type(steps[t]) is RolloutStep
        assert list(reversed(steps)) == list(reversed(expected.steps))
        for part in (slice(2, 9, 3), slice(None, None, -1), slice(-5, None), slice(7, 3)):
            assert type(steps[part]) is tuple and steps[part] == expected.steps[part]
        assert steps == expected.steps and steps == rollout(cfg, sol).steps
        assert steps != expected.steps[:-1] and steps != list(expected.steps)
        with pytest.raises(IndexError):
            steps[len(steps)]
        assert (trace.final_state, trace.final_gt_failure) == (expected.final_state, expected.final_gt_failure)
        expected_summaries = _replayed_summaries(cfg.document, trace)
        assert {name: repr(getattr(trace, name)) for name in expected_summaries} == expected_summaries


def test_summary_csv():
    trace = rollout(_chain_cfg())
    text = summary_csv([trace, trace])
    assert text.splitlines() == [
        "min_margin,violation_count,intervention_rate",
        "2.0,0,1.0",
        "2.0,0,1.0",
    ]


def test_verify_certifies_the_chain():
    report = verify_safety(build_chain(5), depth=10)
    assert report.mode == "exhaustive"
    assert report.certified_states == (1, 2, 3, 4, 5)
    assert report.ok
    assert report.expanded == 21


def test_verify_control_arm_finds_counterexamples():
    report = verify_safety(build_chain(5), depth=10, filter_mode="none")
    assert not report.ok
    assert len(report.counterexamples) == 5  # every certified start can be pushed out
    by_start = {ce.steps[0].state: ce for ce in report.counterexamples}
    assert len(by_start[3].steps) == 2  # breadth-first, so shortest path first
    assert by_start[1].final_margin == -1.0

    # each counterexample replays through the raw dynamics into the failure set
    spec = build_chain(5).game
    for ce in report.counterexamples:
        z = ce.steps[0].state
        for step in ce.steps:
            assert step.state == z
            z = int(spec.transitions[z, step.executed_action, step.human_action, step.observation])
        assert z == ce.final_state
        assert spec.margins[z] < 0.0


def test_verify_dialogue():
    report = verify_safety(build_dialogue(), depth=8)
    assert report.certified_states == (0, 1, 3, 4, 5, 6)
    assert report.ok
    conservative = verify_safety(build_dialogue(conservative_bound=True), depth=8)
    assert conservative.certified_states == (6,)
    assert conservative.ok


def test_verify_sampled_mode():
    doc = build_chain(5)
    filtered = verify_safety(doc, depth=8, exhaustive_limit=1, samples=400, seed=3)
    assert filtered.mode == "sampled"
    assert filtered.ok

    control = verify_safety(doc, depth=8, filter_mode="none", exhaustive_limit=1, samples=400, seed=3)
    assert control.mode == "sampled"
    assert not control.ok

    stochastic = random_game(6, states=10, observations=2, failure_fraction=0.2)
    report = verify_safety(stochastic, depth=6, samples=500, seed=0)
    assert report.mode == "sampled"  # stochastic games cannot be enumerated exactly


def test_verify_budget():
    with pytest.raises(BudgetExceededError) as info:
        verify_safety(build_chain(5), depth=10, max_nodes=2)
    partial = info.value.partial
    assert partial is not None
    assert partial.expanded == 3
    assert partial.certified_states == (1, 2, 3, 4, 5)


def test_verify_stops_at_a_failure_in_state_zero():
    """A counterexample ending in state 0 ends its root's search at once."""
    doc = random_game(1, states=6, ai_actions=2, human_actions=2, failure_fraction=0.3)
    report = verify_safety(doc, depth=2, filter_mode="none")
    assert report.certified_states == (1, 2, 3, 4, 5)
    assert [ce.final_state for ce in report.counterexamples] == [0] * 5
    assert [len(ce.steps) for ce in report.counterexamples] == [2, 1, 2, 1, 1]
    assert report.expanded == 8

    # chain5's failure state is state 0 too: one expansion per search level
    control = verify_safety(build_chain(5), depth=10, filter_mode="none")
    assert [len(ce.steps) for ce in control.counterexamples] == [1, 1, 2, 2, 3]
    assert control.expanded == 10


def _certified_states(sol):
    critic = pluggable_monitor(sol, "critic")
    return tuple(
        z for z in range(sol.spec.num_states) if critic(z, int(sol.fallback_policy[z])) >= 0.0
    )


def _reference_trace(spec, executed, scores, path, final_state):
    """A counterexample trace from ``(z, a_task, a_exec, b, o)`` steps and ``reference_table``'s decisions."""
    assert all(a_exec == executed[z][a_task] for z, a_task, a_exec, _, _ in path)
    z, a_task, _, b, o = (list(column) for column in zip(*path))
    return RolloutTrace(spec=spec, z=z, a_task=a_task, b=b, o=o, gt_failure=None, final_state=final_state,
                        final_gt_failure=None, executed=np.array(executed), scores=np.array(scores))


def _reference_verify(doc, sol, depth, filter_mode, max_nodes):
    """Per-root breadth-first search over ``reference_table``'s decisions.

    Returns the report and whether the node budget ran out.
    """
    spec = doc.game
    certified = _certified_states(sol)
    executed, scores = reference_table(sol, filter_mode)
    counterexamples = []
    expanded = 0

    def report():
        return VerificationReport("exhaustive", depth, filter_mode, certified, tuple(counterexamples), expanded)

    for z0 in certified:
        parent = {z0: None}
        frontier = [z0]
        hit = None
        for _ in range(depth):
            if hit is not None or not frontier:
                break
            nxt = []
            for z in frontier:
                expanded += 1
                if max_nodes is not None and expanded > max_nodes:
                    return report(), True
                for a_task in range(spec.num_ai_actions):
                    a_exec = executed[z][a_task]
                    for b in spec.action_bound[z]:
                        for o in range(spec.num_observations):
                            if spec.observation_probs[z, a_exec, b, o] <= 0.0:
                                continue
                            z2 = int(spec.transitions[z, a_exec, b, o])
                            if z2 in parent:
                                continue
                            parent[z2] = (z, a_task, a_exec, b, o)
                            if spec.margins[z2] < 0.0:
                                hit = z2
                                break
                            nxt.append(z2)
                        if hit is not None:
                            break
                    if hit is not None:
                        break
                if hit is not None:
                    break
            frontier = nxt
        if hit is not None:
            path = []
            z = hit
            while parent[z] is not None:
                path.append(parent[z])
                z = parent[z][0]
            counterexamples.append(_reference_trace(spec, executed, scores, path[::-1], hit))
    return report(), False


def _reference_sampled(doc, sol, depth, filter_mode, max_nodes, samples, seed):
    """Seeded random sequences over ``reference_table``'s decisions.

    Returns the report and whether the node budget ran out.
    """
    spec = doc.game
    certified = _certified_states(sol)
    executed, scores = reference_table(sol, filter_mode)
    stream = SplitMix64(seed)
    counterexamples = []
    expanded = 0

    def report():
        return VerificationReport("sampled", depth, filter_mode, certified, tuple(counterexamples), expanded)

    for z0 in certified:
        for _ in range(max(1, samples // max(1, len(certified)))):
            expanded += 1
            if max_nodes is not None and expanded > max_nodes:
                return report(), True
            z = z0
            path = []
            for _ in range(depth):
                a_task = stream.randint(spec.num_ai_actions)
                a_exec = executed[z][a_task]
                b = stream.choice(spec.action_bound[z])
                draw = stream.uniform()
                cumulative = 0.0
                positive = [o for o in range(spec.num_observations) if spec.observation_probs[z, a_exec, b, o] > 0.0]
                o = positive[-1]
                for candidate in positive:
                    cumulative += spec.observation_probs[z, a_exec, b, candidate]
                    if draw < cumulative:
                        o = candidate
                        break
                path.append((z, a_task, a_exec, b, o))
                z = int(spec.transitions[z, a_exec, b, o])
                if spec.margins[z] < 0.0:
                    counterexamples.append(_reference_trace(spec, executed, scores, path, z))
                    break
            else:
                continue
            break
    return report(), False


def _reference_games():
    rng = np.random.default_rng(7)
    for seed in range(40):
        doc = random_game(
            100 + seed,
            states=5 + seed % 9,
            ai_actions=1 + seed % 3,
            human_actions=1 + (seed // 3) % 3,
            failure_fraction=(0.15, 0.3, 0.45)[seed % 3],
        )
        if seed % 4 == 3:  # narrowed human bounds
            spec = doc.game
            bound = [
                tuple(sorted(rng.choice(spec.num_human_actions, size=rng.integers(1, spec.num_human_actions + 1),
                                        replace=False).tolist()))
                for _ in range(spec.num_states)
            ]
            doc = SpecDocument(game=replace(spec, action_bound=bound))
        yield doc
    for seed in range(8):  # three observations, one-hot: counterexamples record observations 1 and 2
        doc = random_game(140 + seed, states=6 + seed, ai_actions=1 + seed % 3, human_actions=2 + seed % 2,
                          observations=3, failure_fraction=(0.15, 0.3)[seed % 2])
        yield one_hot_observations(doc, seed)


def test_verify_matches_the_reference_search():
    compared = budget_hits = 0
    observed = set()
    for doc in _reference_games():
        sol = value_iteration(doc.game)
        for filter_mode in ("none", "switch", "least_restrictive", "fallback_only"):
            for depth in (1, 3, 8):
                for max_nodes in (None, 0, 5):
                    expected, exceeded = _reference_verify(doc, sol, depth, filter_mode, max_nodes)
                    kwargs = dict(depth=depth, filter_mode=filter_mode, max_nodes=max_nodes, solution=sol)
                    if exceeded:
                        with pytest.raises(BudgetExceededError) as info:
                            verify_safety(doc, **kwargs)
                        assert info.value.partial == expected
                        budget_hits += 1
                    else:
                        assert verify_safety(doc, **kwargs) == expected
                    observed.update(s.observation for ce in expected.counterexamples for s in ce.steps)
                    compared += 1
    assert compared == 48 * 4 * 3 * 3
    assert budget_hits > 100
    assert observed == {0, 1, 2}


def test_sampled_verify_matches_the_reference_sequences():
    compared = found = 0
    for k in (0, 6, 13, 14, 24, 36):  # games with a non-empty safe set
        doc = random_game(k, states=12, observations=2 + k % 2, failure_fraction=0.1)
        sol = value_iteration(doc.game)
        for filter_mode in ("none", "switch", "least_restrictive", "fallback_only"):
            for depth, max_nodes in ((3, None), (8, None), (8, 0), (8, 37)):
                expected, exceeded = _reference_sampled(doc, sol, depth, filter_mode, max_nodes, 200, k)
                kwargs = dict(depth=depth, filter_mode=filter_mode, max_nodes=max_nodes,
                              samples=200, seed=k, solution=sol)
                if exceeded:
                    with pytest.raises(BudgetExceededError) as info:
                        verify_safety(doc, **kwargs)
                    assert info.value.partial == expected
                else:
                    assert verify_safety(doc, **kwargs) == expected
                found += len(expected.counterexamples)
                compared += 1
    assert compared == 6 * 4 * 4
    assert found > 100


def _compare_sampled(doc, sol, filter_mode, depth, max_nodes, samples, seed):
    """Assert that verify_safety gives ``_reference_sampled``'s report, or its partial one when the budget runs out.

    Returns the reference report.
    """
    expected, exceeded = _reference_sampled(doc, sol, depth, filter_mode, max_nodes, samples, seed)
    kwargs = dict(depth=depth, filter_mode=filter_mode, max_nodes=max_nodes, samples=samples, seed=seed,
                  solution=sol)
    if exceeded:
        with pytest.raises(BudgetExceededError) as info:
            verify_safety(doc, **kwargs)
        assert info.value.partial == expected
    else:
        assert verify_safety(doc, **kwargs) == expected
    return expected


def _narrowed_bounds(doc, seed):
    """The game with bounds of one to three actions, the length cycling over the states."""
    rng = np.random.default_rng(seed)
    spec = doc.game
    bound = [tuple(sorted(rng.choice(3, size=1 + z % 3, replace=False).tolist())) for z in range(spec.num_states)]
    return SpecDocument(game=replace(spec, action_bound=bound))


def _zero_between_positives(doc):
    """The game with observation 1 of every other row at probability zero, the row rescaled."""
    spec = doc.game
    probs = spec.observation_probs.copy()
    probs[::2, :, :, 1] = 0.0
    probs /= probs.sum(axis=3, keepdims=True)
    assert ((probs[..., 0] > 0.0) & (probs[..., 1] == 0.0) & (probs[..., 2] > 0.0)).any()
    return SpecDocument(game=replace(spec, observation_probs=probs))


def test_sampled_verify_matches_the_reference_on_varied_games(monkeypatch):
    """Uneven bounds, zero-probability gaps and windows across roots, with the sequences run in lockstep."""
    windows = []
    run = haig.harness._Lockstep.run

    def counting(self, z, *args):
        windows.append(len(z))
        return run(self, z, *args)

    monkeypatch.setattr(haig.harness._Lockstep, "run", counting)
    corpus = [
        *((_narrowed_bounds(random_game(k, states=12, human_actions=3, observations=2 + k % 2,
                                        failure_fraction=0.1), k), 600) for k in (0, 6, 13, 24)),
        *((_zero_between_positives(random_game(k, states=12, observations=3, failure_fraction=0.1)), 600)
          for k in (9, 13, 37, 52)),
        # about 70 sequences per root, so windows of 128 sequences and more span roots
        (random_game(7, states=30, observations=3, failure_fraction=0.05), 2000),
    ]
    assert {len(row) for doc, _ in corpus[:4] for row in doc.game.action_bound} == {1, 2, 3}
    found = 0
    for doc, samples in corpus:
        sol = value_iteration(doc.game)
        in_lockstep = 0
        for filter_mode in ("none", "switch", "least_restrictive", "fallback_only"):
            for depth, max_nodes in ((3, None), (8, None), (8, 301)):
                before = len(windows)
                expected = _compare_sampled(doc, sol, filter_mode, depth, max_nodes, samples, 3)
                found += len(expected.counterexamples)
                in_lockstep += len(windows) > before
        assert in_lockstep >= 3
    assert found > 200
    assert max(windows) >= 128


@pytest.mark.parametrize("draw, rows", [
    pytest.param("task", None, id="task"),
    pytest.param("human", None, id="human"),
    pytest.param("observation", (0.06, 0.57, 0.37), id="observation"),
    pytest.param("observation", (0.06, 0.57, 0.37, 0.0), id="observation-trailing-zero"),
])
def test_sampled_verify_on_a_planted_draw(monkeypatch, draw, rows):
    """The largest draw, planted in a lockstep window before the first failure.

    ``randint(3)`` rejects it, so a task or human draw cuts its window
    without a failure; the scalar calls run that sequence, and windows
    resume after it.  As an observation draw it is the largest uniform,
    1 - 2**-53, which is the running sum of the rows (0.06, 0.57, 0.37):
    the draw falls through to the last positive entry, observation 2, also
    when a zero entry follows.
    """
    windows = []  # (sequences, clean ones, failure) per window
    run = haig.harness._Lockstep.run

    def recording(self, z, *args):
        clean, failure = run(self, z, *args)
        windows.append((len(z), clean, failure))
        return clean, failure

    monkeypatch.setattr(haig.harness._Lockstep, "run", recording)
    doc = random_game(9, states=30, observations=3 if rows is None else len(rows), failure_fraction=0.05)
    if rows is not None:
        probs = np.broadcast_to(rows, doc.game.observation_probs.shape)
        doc = SpecDocument(game=replace(doc.game, observation_probs=probs.copy()))
        assert (0.06 + 0.57) + 0.37 == 1.0 - 2.0**-53
    sol = value_iteration(doc.game)
    depth, samples, sequence = 8, 4000, 100
    # the three draws of sequence 100's first step
    index = sequence * depth * 3 + ("task", "human", "observation").index(draw)
    seed = seed_with_draw(2**64 - 1, index)
    assert max(splitmix_block(seed, index)) < 2**64 - 1  # no rejection before it
    partial = _compare_sampled(doc, sol, "switch", depth, sequence + 1, samples, seed)
    assert partial.counterexamples == ()  # sequences 0 to 100 of the first root run clean
    windows.clear()
    report = _compare_sampled(doc, sol, "switch", depth, None, samples, seed)
    assert len(report.counterexamples) >= 5
    cuts = [k for k, (count, clean, failure) in enumerate(windows) if clean < count and failure is None]
    if rows is None:
        assert len(cuts) == 1 and cuts[0] < len(windows) - 1  # the rejected draw, then more windows
    else:
        assert cuts == []


@pytest.mark.parametrize("rows", [
    pytest.param((0.06, 0.57, 0.37, 0.0), id="one-trailing-zero"),
    pytest.param((0.06, 0.57, 0.37, 0.0, 0.0, 0.0), id="three-trailing-zeros"),
])
def test_rollout_on_a_planted_largest_observation_draw(rows):
    """A rollout's first draw is its first observation draw; planted as 1 - 2**-53, it picks observation 2.

    The rows sum to that draw, so it falls through to their last positive
    entry, whatever number of zero entries follows it.
    """
    doc = random_game(9, states=30, observations=len(rows), failure_fraction=0.05)
    probs = np.broadcast_to(rows, doc.game.observation_probs.shape)
    doc = SpecDocument(game=replace(doc.game, observation_probs=probs.copy()))
    cfg = RolloutConfig(document=doc, task_policy="constant:0", human_policy="worst_case", filter_mode="none",
                        max_steps=40, seed=seed_with_draw(2**64 - 1, 0))
    trace = rollout(cfg)
    observations = [s.observation for s in trace.steps]
    assert observations[0] == 2
    assert set(observations) == {0, 1, 2}
    assert trace.to_jsonl() == _reference_jsonl(trace)


def test_exhaustive_verify_matches_the_reference_on_a_larger_game():
    doc = random_game(2, states=200, ai_actions=4, human_actions=4, failure_fraction=0.05)
    sol = value_iteration(doc.game)
    full = {}
    for filter_mode in ("switch", "none"):
        expected, exceeded = _reference_verify(doc, sol, 3, filter_mode, None)
        assert not exceeded and verify_safety(doc, depth=3, filter_mode=filter_mode, solution=sol) == expected
        full[filter_mode] = expected
    assert full["switch"].ok and full["switch"].expanded > 20 * len(full["switch"].certified_states)
    assert len(full["none"].counterexamples) > 100
    # every root is clean under switch, so the budget runs out inside one
    for filter_mode, max_nodes in (("switch", full["switch"].expanded // 2), ("none", 150)):
        expected, exceeded = _reference_verify(doc, sol, 3, filter_mode, max_nodes)
        assert exceeded
        with pytest.raises(BudgetExceededError) as info:
            verify_safety(doc, depth=3, filter_mode=filter_mode, max_nodes=max_nodes, solution=sol)
        assert info.value.partial == expected


def test_counterexamples_are_traces_that_follow_the_dynamics():
    """Every counterexample of the reference corpus passes ``to_jsonl``'s dynamics check."""
    sampled = (random_game(k, states=12, observations=2 + k % 2, failure_fraction=0.1) for k in (0, 6, 13))
    checked = 0
    for doc in (*_reference_games(), *sampled):
        sol = value_iteration(doc.game)
        for filter_mode in FILTER_MODES:
            report = verify_safety(doc, depth=8, filter_mode=filter_mode, samples=200, solution=sol)
            for ce in report.counterexamples:
                lines = ce.to_jsonl().decode().splitlines()
                assert len(lines) == len(ce.steps)
                assert ce.final_margin < 0.0 and ce.final_gt_failure is None
                checked += 1
    assert checked > 100


# sha256 of rollout(...).to_jsonl() as produced by calling filter_action on
# every step; rollouts that read the filter's table must reproduce them byte
# for byte
_PINNED_TRACES = [
    ("none", "uniform", lambda: random_game(11, states=30, observations=3, failure_fraction=0.1), 0,
     "4c7818c7312432331be981e264d5ca0490d6d6bc2c4e1f53d7126684a86880d2"),
    ("none", "worst_case", lambda: build_chain(5), 4,
     "b39ba9904dd4dc96095a2b152d190030d91af51a818e5887f5eb0d6345b6cd13"),
    ("switch", "uniform", lambda: random_game(5, states=12, failure_fraction=0.25), 3,
     "6fd18a2bfccc5a348d43870a6dd197ace252302d93ac902dfe6e807095be65cd"),
    ("switch", "worst_case", build_dialogue, "start",
     "2f0c932cf21c1a4b5cf53ebed049509d6de9992fe765c95c335f0c00303fdf14"),
    ("least_restrictive", "uniform", lambda: random_game(7, states=15, ai_actions=4), 2,
     "10fcfd12868a06aa694c095ff887d07fae08c53e1e7d4d1ac3d761dcada11752"),
    ("least_restrictive", "worst_case", lambda: build_chain(6, human_reach=2), 5,
     "34a77b3da00519117a711371ff334f27d32aa2bcd00fbadac6be2f856e532669"),
    ("fallback_only", "uniform", lambda: random_game(3, states=10, human_actions=2), 1,
     "a29a8c36e1f086f3314e666f7c602105d85cf9e0a4e4c995927ebe39d058b7d3"),
    ("fallback_only", "worst_case", lambda: random_game(4, states=9, ai_actions=2), 0,
     "7815dcc1f81119c49d1de7744dc692e88682b6bac5dceced60f64c436845fabc"),
]


@pytest.mark.parametrize("mode, human, build, start, digest", _PINNED_TRACES)
def test_rollout_traces_are_pinned(mode, human, build, start, digest):
    cfg = RolloutConfig(document=build(), task_policy="random", human_policy=human,
                        filter_mode=mode, initial_state=start, max_steps=40, seed=17)
    assert hashlib.sha256(rollout(cfg).to_jsonl()).hexdigest() == digest


# sha256 of 2500-step traces: each draws 5000 to 7500 values, so it spans
# many of the random stream's refills; the chain traces carry odd_violation
# and gt_failure
_PINNED_LONG_TRACES = [
    ("least_restrictive", "uniform", lambda: random_game(11, states=30, observations=3, failure_fraction=0.1), 0,
     "8b9b1e64803c3c42706357b5e2d08790b354c5550781a6bf7577ba7a92229b37"),
    ("switch", "off_odd", lambda: build_chain(5, 3, 1), 3,
     "6c2f1e8d72691e7b2e40c3be53bdc95bfacdfbdea283e0b260818bea6a5c1100"),
    ("none", "uniform", lambda: build_chain(5), 4,
     "c988773749bd81945f441cc285cc01457ee15da09612c6425482860db09aec51"),
]


@pytest.mark.parametrize("mode, human, build, start, digest", _PINNED_LONG_TRACES)
def test_long_rollout_traces_are_pinned(mode, human, build, start, digest):
    cfg = RolloutConfig(document=build(), task_policy="random", human_policy=human,
                        filter_mode=mode, initial_state=start, max_steps=2500, seed=29)
    assert hashlib.sha256(rollout(cfg).to_jsonl()).hexdigest() == digest


@pytest.mark.parametrize("window", [1, 7])
def test_pinned_traces_in_small_windows(monkeypatch, window):
    """The pinned traces, their draws read a window of one or seven steps at a time."""
    monkeypatch.setattr(haig.harness, "_WINDOW_STEPS", window)
    cases = [(case, 40, 17) for case in _PINNED_TRACES] + [(case, 2500, 29) for case in _PINNED_LONG_TRACES]
    for (mode, human, build, start, digest), steps, seed in cases:
        cfg = RolloutConfig(document=build(), task_policy="random", human_policy=human,
                            filter_mode=mode, initial_state=start, max_steps=steps, seed=seed)
        assert hashlib.sha256(rollout(cfg).to_jsonl()).hexdigest() == digest


class _ReferenceTrace(NamedTuple):
    steps: tuple[RolloutStep, ...]
    final_state: int
    final_gt_failure: bool | None


def _reference_rollout(cfg, sol, rejections=None):
    """The rollout as a plain per-step loop over the scalar stream definition and ``reference_table``.

    A step draws the task action if it is "random", the human action if it
    is "uniform", then the observation; each integer draw skips raw draws
    at or above ``rejection_limit``, and the step of each skipped draw is
    appended to ``rejections``.  Start states are indices.  Returns the
    steps as records, not a ``RolloutTrace``: ``_reference_jsonl`` writes
    them one ``json.dumps`` at a time.
    """
    doc = cfg.document
    spec, gt = doc.game, doc.ground_truth
    executed, scores = reference_table(sol, cfg.filter_mode)
    stream = _ScalarSplitMix64(cfg.seed)

    def randint(n):
        while True:
            x = stream.next_u64()
            if x < haig.rng.rejection_limit(n):
                return x % n
            if rejections is not None:
                rejections.append(t)

    kind, _, items = cfg.human_policy.partition(":")
    z = cfg.initial_state
    if gt is not None:
        s, h = next((s, h) for s in range(gt.num_world_states) for h in range(gt.num_human_states)
                    if gt.projection[s, h] == z)
    steps = []
    for t in range(cfg.max_steps):
        a_task = randint(spec.num_ai_actions) if cfg.task_policy == "random" else int(cfg.task_policy[9:])
        a_exec = executed[z][a_task]
        bound = spec.action_bound[z]
        if kind == "uniform":
            b = bound[randint(len(bound))]
        elif kind == "worst_case":
            b = int(sol.adversary_policy[z, a_exec])
        elif kind == "off_odd":
            b = next((b for b in range(spec.num_human_actions) if b not in bound), bound[0])
        else:
            script = [spec.human_actions.index(x) if x in spec.human_actions else int(x) for x in items.split(",")]
            b = script[t % len(script)]
        u = (stream.next_u64() >> 11) * 2.0**-53
        probs = spec.observation_probs[z, a_exec, b]
        positive = [o for o in range(spec.num_observations) if probs[o] > 0.0]
        o, cumulative = positive[-1], 0.0
        for candidate in positive:
            cumulative += probs[candidate]
            if u < cumulative:
                o = candidate
                break
        gt_failed = None
        if gt is not None:
            gt_failed = bool(gt.failure[s, h])
            o_h = gt.human_observation[s]
            s, h = int(gt.world_transitions[s, a_exec, b]), int(gt.human_transitions[h, a_exec, b, o_h])
        steps.append(RolloutStep(t, z, a_task, scores[z][a_task], a_exec != a_task, a_exec,
                                 b, o, float(spec.margins[z]), b not in bound, gt_failed))
        z = int(spec.transitions[z, a_exec, b, o])
    return _ReferenceTrace(tuple(steps), z, None if gt is None else bool(gt.failure[s, h]))


def _three_action_game():
    """Three AI actions, bounds of three human actions: ``randint`` rejects only the largest draw."""
    assert haig.rng.rejection_limit(3) == 2**64 - 1
    return random_game(19, states=30, ai_actions=3, human_actions=3, observations=3, failure_fraction=0.1)


# (task policy, human policy, draws per step, the planted draw's place in its step)
_PLANTED_DRAWS = [
    ("random", "worst_case", 2, 0),
    ("constant:1", "uniform", 2, 0),
    ("random", "uniform", 3, 0),
    ("random", "uniform", 3, 1),
]


@pytest.mark.parametrize("task, human, draws, place", _PLANTED_DRAWS)
@pytest.mark.parametrize("window, step", [
    pytest.param(7, 0, id="first-step"),
    pytest.param(7, 3, id="mid-window-of-7"),
    pytest.param(7, 6, id="window-of-7-last"),
    pytest.param(7, 7, id="window-of-7-first"),
    pytest.param(None, 110, id="mid-window"),
    pytest.param(None, haig.harness._WINDOW_STEPS - 1, id="window-last"),
    pytest.param(None, haig.harness._WINDOW_STEPS, id="window-first"),
])
def test_rollout_on_a_planted_rejected_draw(monkeypatch, task, human, draws, place, window, step):
    """A task or human draw that ``randint`` rejects, planted at a step: the trace of the scalar reference."""
    if window is not None:
        monkeypatch.setattr(haig.harness, "_WINDOW_STEPS", window)
    doc = _three_action_game()
    sol = value_iteration(doc.game)
    seed = seed_with_draw(2**64 - 1, step * draws + place)
    for mode in FILTER_MODES:
        cfg = RolloutConfig(document=doc, task_policy=task, human_policy=human, filter_mode=mode,
                            initial_state=2, max_steps=step + 9, seed=seed)
        rejections = []
        expected = _reference_rollout(cfg, sol, rejections)
        assert rejections == [step]
        assert rollout(cfg, sol).to_jsonl() == _reference_jsonl(expected)


@pytest.mark.parametrize("window", [None, 1, 7])
def test_rollouts_match_the_scalar_reference(monkeypatch, window):
    """Every filter and human policy; rejected draws planted, or in adjacent steps at a coarser rejection limit."""
    if window is not None:
        monkeypatch.setattr(haig.harness, "_WINDOW_STEPS", window)
    odd = build_chain(5, 3, 1)  # bounds of three of seven human actions, and a ground truth
    cases = [(odd, 3, human) for human in ("uniform", "worst_case", "off_odd", "scripted:+1,-1,0")]
    cases += [(_three_action_game(), 2, human) for human in ("uniform", "worst_case", "off_odd", "scripted:0,2")]
    seeds = [5, seed_with_draw(2**64 - 1, 0), seed_with_draw(2**64 - 1, 41), seed_with_draw(2**64 - 1, 100)]
    rejected = 0
    for doc, start, human in cases:
        sol = value_iteration(doc.game)
        for mode in FILTER_MODES:
            for seed in seeds:
                cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human, filter_mode=mode,
                                    initial_state=start, max_steps=60, seed=seed)
                rejections = []
                assert rollout(cfg, sol).to_jsonl() == _reference_jsonl(_reference_rollout(cfg, sol, rejections))
                rejected += len(rejections)
    assert rejected > 50

    # a limit that rejects a quarter of all raw draws, in the stream and the rollout alike
    def coarse(n):
        return (3 << 62) // n * n

    monkeypatch.setattr(haig.rng, "rejection_limit", coarse)
    monkeypatch.setattr(haig.harness, "rejection_limit", coarse)
    adjacent = 0
    for doc, start, human in cases:
        sol = value_iteration(doc.game)
        for mode in FILTER_MODES:
            cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human, filter_mode=mode,
                                initial_state=start, max_steps=80, seed=11)
            rejections = []
            assert rollout(cfg, sol).to_jsonl() == _reference_jsonl(_reference_rollout(cfg, sol, rejections))
            adjacent += sum(t2 == t1 + 1 for t1, t2 in zip(rejections, rejections[1:]))
    assert adjacent > 100


@pytest.mark.parametrize("block", [1, 7])
def test_rollouts_in_small_state_blocks(monkeypatch, block):
    """The spec's rows read a block of one or seven states at a time: the pinned traces and the scalar reference."""

    def blocks_of(doc):
        monkeypatch.setattr(haig.harness, "_BLOCK_ENTRIES", block * doc.game.transitions[0].size)
        return doc

    cases = [(case, 40, 17) for case in _PINNED_TRACES] + [(case, 2500, 29) for case in _PINNED_LONG_TRACES]
    for (mode, human, build, start, digest), steps, seed in cases:
        cfg = RolloutConfig(document=blocks_of(build()), task_policy="random", human_policy=human,
                            filter_mode=mode, initial_state=start, max_steps=steps, seed=seed)
        assert hashlib.sha256(rollout(cfg).to_jsonl()).hexdigest() == digest
    # a 41-state chain with a ground truth and bounds narrower than the human's reach, walked across its blocks
    for doc, start in ((build_chain(40, 3, 1), 20), (_three_action_game(), 2)):
        sol = value_iteration(blocks_of(doc).game)
        for human in ("uniform", "worst_case", "off_odd"):
            for mode in FILTER_MODES:
                cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human, filter_mode=mode,
                                    initial_state=start, max_steps=300, seed=5)
                assert rollout(cfg, sol).to_jsonl() == _reference_jsonl(_reference_rollout(cfg, sol))


def test_rollout_runs_with_the_collector_paused(monkeypatch):
    """Paused during a rollout, running again after it, also when it raises; a paused collector stays paused."""
    running = []

    def recording(sol, intervention):
        running.append(gc.isenabled())
        return perfect_filter(sol, intervention)

    monkeypatch.setattr(haig.harness, "perfect_filter", recording)
    leaving = _chain_cfg(document=build_chain(5, human_reach=3, odd_reach=1), task_policy="random",
                         human_policy="scripted:-1,-1,-1,+3", initial_state=5, max_steps=30)
    assert gc.isenabled()
    rollout(_chain_cfg())
    with pytest.raises(ValueError, match="left the admissible bound at t=3"):
        rollout(leaving)
    assert running == [False, False]
    assert gc.isenabled()
    gc.disable()
    try:
        rollout(_chain_cfg())
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_rollout_raises_where_the_scalar_loop_raises(monkeypatch):
    """A table's bad task action and a human leaving the bound fail at their step, in any window."""
    bad = SpecDocument(game=build_chain(5).game, task_policies={"bad": (2, 2, 2, 2, 2, 7)})
    narrowed = build_chain(5, human_reach=3, odd_reach=1)
    for window in (1, 7, haig.harness._WINDOW_STEPS):
        monkeypatch.setattr(haig.harness, "_WINDOW_STEPS", window)
        # two steps up from state 1, then state 5's entry
        with pytest.raises(IndexError, match=r"ai action index 7 out of range \[0, 3\)"):
            rollout(_chain_cfg(document=bad, task_policy="bad", human_policy="scripted:+1", initial_state=1,
                               filter_mode="none", max_steps=3))
        rollout(_chain_cfg(document=bad, task_policy="bad", human_policy="scripted:+1", initial_state=1,
                           filter_mode="none", max_steps=2))
        with pytest.raises(ValueError, match=r"'scripted:-1,-1,-1,\+3' left the admissible bound at t=3;"):
            rollout(_chain_cfg(document=narrowed, task_policy="random", human_policy="scripted:-1,-1,-1,+3",
                               initial_state=5, max_steps=30))


class _RowLog(np.ndarray):
    """A table that logs each read from it and refuses to be read whole."""

    def __getitem__(self, key):
        self.rows.append(key)
        return np.asarray(self)[key]

    def tolist(self):
        raise AssertionError("the whole table was read")

    def __iter__(self):
        raise AssertionError("the whole table was read")


def test_a_short_rollout_reads_only_the_blocks_it_visits(monkeypatch):
    """Read counts, not timings: a 20-step rollout on a 40001-state chain reads its blocks' executed actions.

    A block's rows hold no scores: the rollout never reads the filter's score table.
    """
    reads = {"executed": [], "scores": []}

    def logged(sol, intervention):
        flt = perfect_filter(sol, intervention)
        tables = {}
        for name, log in reads.items():
            tables[name] = getattr(flt, name).view(_RowLog)
            tables[name].rows = log
        return replace(flt, **tables)

    monkeypatch.setattr(haig.harness, "perfect_filter", logged)
    doc = build_chain(40000)
    sol = value_iteration(doc.game)
    size = haig.harness._BLOCK_ENTRIES // doc.game.transitions[0].size
    assert doc.game.num_states > 4 * size
    for human in ("uniform", "worst_case"):
        for log in reads.values():
            log.clear()
        cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human, filter_mode="switch",
                            initial_state=20000, max_steps=20, seed=4)
        blocks = {z // size for z in rollout(cfg, sol).z}
        assert sorted((key.start, key.stop) for key in reads["executed"]) == sorted(
            (j * size, (j + 1) * size) for j in blocks)
        assert reads["scores"] == []


def _logged_threshold_inputs(monkeypatch):
    """The number of entries of each probability block that ``_observation_thresholds`` is given, from now on."""
    sizes = []
    thresholds = haig.harness._observation_thresholds

    def logged(probs):
        sizes.append(probs.size)
        return thresholds(probs)

    monkeypatch.setattr(haig.harness, "_observation_thresholds", logged)
    return sizes


def test_a_short_rollout_builds_observation_thresholds_per_block(monkeypatch):
    """The thresholds come from probability blocks of at most ``_BLOCK_ENTRIES`` entries, not from the whole game."""
    sizes = _logged_threshold_inputs(monkeypatch)
    doc = build_chain(40000)
    sol = value_iteration(doc.game)
    for human in ("uniform", "worst_case"):
        cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human, filter_mode="switch",
                            initial_state=20000, max_steps=20, seed=4)
        rollout(cfg, sol)
    assert sizes and max(sizes) <= haig.harness._BLOCK_ENTRIES


def test_rollout_blocks_are_sized_by_entries(monkeypatch):
    """On a game of 100 joint actions a block holds the states of ``_BLOCK_ENTRIES`` entries, not 100 times more."""
    sizes = _logged_threshold_inputs(monkeypatch)
    doc = random_game(3, states=2000, ai_actions=10, human_actions=10)
    width = doc.game.transitions[0].size
    sol = value_iteration(doc.game)
    for human in ("uniform", "worst_case"):
        cfg = RolloutConfig(document=doc, task_policy="random", human_policy=human, filter_mode="switch",
                            initial_state=7, max_steps=20, seed=4)
        rollout(cfg, sol)
    assert sizes and max(sizes) == haig.harness._BLOCK_ENTRIES // width * width
    # every bench game, 16000 entries at most, converts in one block
    assert haig.harness._BLOCK_ENTRIES >= 16000


def test_initial_ground_truth_takes_the_first_pair_in_row_major_order():
    doc = build_chain(5)
    # four world states and three human states; state 2 first appears at (1, 1), and at (2, 0) after it
    projection = np.array([[4, 1, 0], [0, 2, 2], [2, 0, 5], [1, 4, 4]])
    gt = replace(doc.ground_truth, num_world_states=4, num_human_states=3, projection=projection)
    doc = replace(doc, ground_truth=gt)
    for z in (0, 1, 2, 4, 5):
        s, h = haig.harness._initial_ground_truth(doc, z)
        assert (s, h) == next((s, h) for s in range(4) for h in range(3) if projection[s, h] == z)
        assert type(s) is int and type(h) is int
    assert haig.harness._initial_ground_truth(doc, 2) == (1, 1)
    with pytest.raises(ValueError, match="no configuration projecting to state 3"):
        haig.harness._initial_ground_truth(doc, 3)


def test_each_state_is_decided_once(monkeypatch):
    """Deterministic call counts, not timings: each verb call builds one filter, deciding every state."""
    calls = []

    def counting(sol, intervention):
        calls.append(intervention)
        return perfect_filter(sol, intervention)

    monkeypatch.setattr(haig.harness, "perfect_filter", counting)
    doc = random_game(2, states=200, ai_actions=4, human_actions=4, failure_fraction=0.05)
    sol = value_iteration(doc.game)
    for mode in FILTER_MODES:
        calls.clear()
        report = verify_safety(doc, depth=3, filter_mode=mode, solution=sol)
        assert report.mode == "exhaustive" and report.expanded > doc.game.num_states
        assert calls == [mode]

        calls.clear()
        cfg = RolloutConfig(document=doc, task_policy="random", human_policy="uniform", filter_mode=mode,
                            initial_state=report.certified_states[0], max_steps=500, seed=3)
        rollout(cfg, sol)
        assert calls == [mode]


def test_verify_argument_validation():
    with pytest.raises(ValueError, match="depth"):
        verify_safety(build_chain(5), depth=0)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            verify_safety(build_chain(5), samples=samples, exhaustive_limit=1)
    with pytest.raises(ValueError, match="filter mode"):
        verify_safety(build_chain(5), filter_mode="what")


def test_compare_oracle_deterministic_is_exact():
    report = compare_oracle(build_chain(5))
    assert report.horizon == 1
    assert report.max_discrepancy == 0.0
    assert report.tolerance == 0.0
    assert report.ok


def test_compare_oracle_stochastic_within_tolerance():
    report = compare_oracle(random_game(3, states=8, observations=2, failure_fraction=0.3))
    assert report.converged
    assert report.ok
    assert report.tolerance >= 1e-7


def test_compare_oracle_truncated_horizon_reports_the_gap():
    report = compare_oracle(build_chain(5, human_reach=2), horizon=0)
    assert report.iterations == 6
    assert report.max_discrepancy == 5.0  # margin 4 at the top against value -1
    assert not report.ok
