"""Rollouts, exhaustive safety verification, and solver cross-checks.

Reproducibility contract: every random choice in a rollout comes from one
SplitMix64 stream seeded by the config, consumed in a fixed order per step
(task policy draw if randomized, then human policy draw if randomized,
then the observation draw, which happens even when the observation is
deterministic).  Identical configs therefore produce byte-identical JSONL
traces.

A rollout trace stores its steps and its end state.  Each step is an
immutable named tuple, ``RolloutStep``: the filter's decision (the fields
of ``InterventionRecord``) plus the human's response, built positionally
once per step.  The summary metrics are derived from the steps, and the
dynamics are checked once, when ``to_jsonl`` serializes the trace.
``to_jsonl`` writes each step with one format string, byte for byte what
``json.dumps(step.to_json_dict(), sort_keys=True, allow_nan=False)``
writes.

``verify_safety`` checks the filter's guarantee: from every initial
state the filter certifies, no reachable state within the given depth has
a negative margin, for any task-action choice at every step and any
admissible human response.  On deterministic games under the size limit
the check enumerates exhaustively (a breadth-first search over reachable
states; filtering makes the task action's effect a function of the state,
so state-level memoization loses nothing).  Larger or stochastic games
fall back to seeded random sequences.  Running it with the filter off is
the control arm.  Each counterexample is a ``RolloutTrace`` of its path
to failure, built only for failing paths: monitor scores from the
solution's ``scores`` table, no ground-truth flags.

``rollout`` and ``verify_safety`` each build one filter for their mode
and read its executed-action table as plain Python lists (rollout reads
the monitor scores the same way); ``"none"`` is a filter mode like the
others.  Both read the dynamics through one per-state list view, and
exhaustive verification builds each expanded state's distinct successors
once, the first time the state is met.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, PolicyResolutionError
from .filtering import FILTER_MODES, SWITCH, InterventionRecord, _certified, perfect_filter
from .model import GameSpec, _int_index
from .rng import SplitMix64
from .solver import DEFAULT_EPSILON, DEFAULT_NODE_BUDGET, ValueSolution, brute_force_values, value_iteration
from .specfile import SpecDocument

DEFAULT_DEPTH = 8
DEFAULT_EXHAUSTIVE_LIMIT = 1_000_000
DEFAULT_SAMPLES = 10_000


@dataclass(frozen=True)
class RolloutConfig:
    """One reproducible rollout.

    ``task_policy``: "random", "constant:<action>", or a named task policy
    from the document.
    ``human_policy``: "worst_case", "uniform", "off_odd",
    "scripted:<a1,a2,...>", or a named human policy.  All but "off_odd"
    must stay inside the admissible bound; "off_odd" plays the
    lowest-index action outside the bound wherever one exists and flags
    those steps.
    ``initial_state``: index or state label.
    """

    document: SpecDocument
    task_policy: str = "random"
    human_policy: str = "worst_case"
    filter_mode: str = SWITCH
    initial_state: int | str = 0
    max_steps: int = 20
    seed: int = 0


_StepFields = NamedTuple("RolloutStep", [
    *InterventionRecord.__annotations__.items(),
    ("human_action", int),
    ("observation", int),
    ("margin_value", float),
    ("odd_violation", bool),
    ("gt_failure", "bool | None"),
])


class RolloutStep(_StepFields):
    """The filter's decision at one step, then the human's response to it.

    An immutable tuple: ``InterventionRecord``'s six fields, then the
    human's action, the observation, the margin of ``state``, whether the
    human left the admissible bound, and the ground-truth failure flag of
    the step's configuration (``None`` without ground truth).
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        record = InterventionRecord.to_json_dict(self)
        record["a_human"] = self.human_action
        record["obs"] = self.observation
        record["margin"] = self.margin_value
        if self.odd_violation:
            record["odd_violation"] = True
        if self.gt_failure is not None:
            record["gt_failure"] = self.gt_failure
        return record


# A step's JSONL line, keys in sorted order: the optional "gt_failure"
# sorts after "executed_a" and "odd_violation" after "obs".  The floats are
# filled in by _FloatText.
_JSONL_LINE = (
    '{"a_human": %d, "executed_a": %d%s, "intervened": %s, "margin": %s, '
    '"monitor": %s, "obs": %d%s, "t": %d, "task_a": %d, "z": %d}'
)
_GT_FAILURE = {None: "", False: ', "gt_failure": false', True: ', "gt_failure": true'}
_ODD_VIOLATION = {False: "", True: ', "odd_violation": true'}
_JSON_BOOL = ("false", "true")


class _FloatText(dict):
    """Each step float as ``json`` writes it, kept per value: a trace repeats few values.

    ``float.__repr__`` is ``json``'s float format, so a numpy float prints
    as ``0.5``, not ``np.float64(0.5)``.  Zeros are not kept, because
    -0.0 == 0.0 would share one entry.  A value that is not finite raises
    the error of ``json.dumps(..., allow_nan=False)``.
    """

    def __missing__(self, x: float) -> str:
        if not isfinite(x):
            raise ValueError("Out of range float values are not JSON compliant")
        text = float.__repr__(x)
        if x:
            self[x] = text
        return text


@dataclass(frozen=True)
class RolloutTrace:
    """A rollout's steps and the state it ended in; also a verify counterexample.

    Traces compare by value.  The summaries are derived from the steps.
    ``min_margin`` and ``violation_count`` range over every visited state,
    the terminal one included.  ``gt_failure_count`` does the same against
    the privileged failure set, and is ``None`` when the document has no
    ground truth.  ``to_jsonl`` checks the steps against the dynamics
    before it writes.
    """

    spec: GameSpec
    steps: tuple[RolloutStep, ...]
    final_state: int
    final_gt_failure: bool | None

    @property
    def final_margin(self) -> float:
        return float(self.spec.margins[self.final_state])

    @property
    def min_margin(self) -> float:
        return min(*(s.margin_value for s in self.steps), self.final_margin)

    @property
    def violation_count(self) -> int:
        return sum(s.margin_value < 0.0 for s in self.steps) + (self.final_margin < 0.0)

    @property
    def intervention_count(self) -> int:
        return sum(s.intervened for s in self.steps)

    @property
    def gt_failure_count(self) -> int | None:
        if self.final_gt_failure is None:
            return None
        return sum(s.gt_failure for s in self.steps) + self.final_gt_failure

    @property
    def odd_violation_steps(self) -> tuple[int, ...]:
        return tuple(s.t for s in self.steps if s.odd_violation)

    @property
    def intervention_rate(self) -> float:
        return self.intervention_count / len(self.steps)

    def to_jsonl(self) -> bytes:
        """One JSON object per step, keys sorted, as ``json.dumps(..., sort_keys=True)`` writes it."""
        self.check_conservation()
        text = _FloatText()
        lines = [
            _JSONL_LINE % (b, a_exec, _GT_FAILURE[gt], _JSON_BOOL[intervened], text[margin],
                           text[monitor], o, _ODD_VIOLATION[odd], t, a_task, z)
            for t, z, a_task, monitor, intervened, a_exec, b, o, margin, odd, gt in self.steps
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def check_conservation(self) -> None:
        """Every consecutive record pair must satisfy the transition function."""
        dynamics = _dynamics(self.spec)
        states = [s.state for s in self.steps] + [self.final_state]
        for step, nxt in zip(self.steps, states[1:]):
            recomputed = dynamics[step.state][0][step.executed_action][step.human_action][step.observation]
            if recomputed != nxt:
                raise RuntimeError(
                    f"trace violates the dynamics at t={step.t}: "
                    f"recorded successor {nxt}, dynamics give {recomputed}"
                )


def summary_csv(traces) -> str:
    """One row per rollout: min margin, violation count, intervention rate."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["min_margin", "violation_count", "intervention_rate"])
    for trace in traces:
        writer.writerow([repr(trace.min_margin), trace.violation_count, repr(trace.intervention_rate)])
    return out.getvalue()


def _resolve_state(spec: GameSpec, value) -> int:
    if isinstance(value, str):
        if spec.state_labels and value in spec.state_labels:
            return spec.state_labels.index(value)
        try:
            value = int(value)
        except ValueError:
            raise PolicyResolutionError(f"unknown state {value!r}") from None
    return _int_index(value, spec.num_states, "info state")


def _resolve_action(labels: tuple[str, ...], value: str, kind: str) -> int:
    if value in labels:
        return labels.index(value)
    try:
        index = int(value)
    except ValueError:
        raise PolicyResolutionError(f"unknown {kind} action {value!r}") from None
    if not 0 <= index < len(labels):
        raise PolicyResolutionError(f"{kind} action index {index} out of range [0, {len(labels)})")
    return index


def _task_chooser(doc: SpecDocument, selector: str, stream: SplitMix64):
    spec = doc.game
    if selector == "random":
        return lambda z, t: stream.randint(spec.num_ai_actions)
    if selector.startswith("constant:"):
        action = _resolve_action(spec.ai_actions, selector.split(":", 1)[1], "ai")
        return lambda z, t: action
    if selector in doc.task_policies:
        table = doc.task_policies[selector]
        return lambda z, t: table[z]
    raise PolicyResolutionError(f"unknown task policy {selector!r}")


def _human_chooser(doc: SpecDocument, selector: str, sol: ValueSolution, stream: SplitMix64):
    """Returns fn(z, executed_ai_action, t) -> human action index."""
    spec = doc.game
    if selector == "worst_case":
        return lambda z, a, t: int(sol.adversary_policy[z, a])
    if selector == "uniform":
        return lambda z, a, t: stream.choice(spec.action_bound[z])
    if selector == "off_odd":
        def violator(z, a, t):
            allowed = set(spec.action_bound[z])
            for b in range(spec.num_human_actions):
                if b not in allowed:
                    return b
            return spec.action_bound[z][0]

        return violator
    if selector.startswith("scripted:"):
        script = [
            _resolve_action(spec.human_actions, item.strip(), "human")
            for item in selector.split(":", 1)[1].split(",")
            if item.strip()
        ]
        if not script:
            raise PolicyResolutionError("scripted human policy needs at least one action")
        return lambda z, a, t: script[t % len(script)]
    if selector in doc.human_policies:
        table = doc.human_policies[selector]
        return lambda z, a, t: table[z]
    raise PolicyResolutionError(f"unknown human policy {selector!r}")


def _sample_observation(stream: SplitMix64, row) -> int:
    draw = stream.uniform()
    cumulative = 0.0
    last_positive = 0
    for o, p in enumerate(row):
        if p > 0.0:
            last_positive = o
            cumulative += p
            if draw < cumulative:
                return o
    return last_positive


def _initial_ground_truth(doc: SpecDocument, z0: int):
    gt = doc.ground_truth
    for s in range(gt.num_world_states):
        for h in range(gt.num_human_states):
            if int(gt.projection[s, h]) == z0:
                return s, h
    raise ValueError(f"ground truth has no configuration projecting to state {z0}")


class _PerState(dict):
    """State -> row, each row built by ``build(z)`` on its first lookup and kept."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, z: int):
        row = self[z] = self.build(z)
        return row


def _dynamics(spec: GameSpec) -> _PerState:
    """Each state's transitions and observation probabilities as lists, ``[a][b][o]``."""
    return _PerState(lambda z: (spec.transitions[z].tolist(), spec.observation_probs[z].tolist()))


def rollout(config: RolloutConfig, solution: ValueSolution | None = None) -> RolloutTrace:
    """Run one seeded rollout and return its trace."""
    doc = config.document
    spec = doc.game
    if config.max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {config.max_steps}")
    if config.filter_mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {config.filter_mode!r}")

    sol = solution if solution is not None else value_iteration(spec)
    flt = perfect_filter(sol, config.filter_mode)
    decided = [list(zip(e, m)) for e, m in zip(flt.executed.tolist(), flt.scores.tolist())]
    dynamics = _dynamics(spec)
    stream = SplitMix64(config.seed)
    task = _task_chooser(doc, config.task_policy, stream)
    human = _human_chooser(doc, config.human_policy, sol, stream)
    off_odd = config.human_policy == "off_odd"
    num_ai = spec.num_ai_actions
    margins = spec.margins.tolist()

    z = _resolve_state(spec, config.initial_state)
    gt_state = _initial_ground_truth(doc, z) if doc.ground_truth is not None else None

    steps: list[RolloutStep] = []
    for t in range(config.max_steps):
        a_task = _int_index(task(z, t), num_ai, "ai action")
        executed, score = decided[z][a_task]

        b = int(human(z, executed, t))
        in_bound = b in spec.action_bound[z]
        if not in_bound and not off_odd:
            raise ValueError(
                f"human policy {config.human_policy!r} left the admissible bound at t={t}; "
                "use the off_odd policy to simulate non-compliant humans"
            )

        trans, probs = dynamics[z]
        o = _sample_observation(stream, probs[executed][b])
        gt_failed = None
        if gt_state is not None:
            s, h = gt_state
            gt_failed = bool(doc.ground_truth.failure[s, h])
            o_h = int(doc.ground_truth.human_observation[s])
            gt_state = (
                int(doc.ground_truth.world_transitions[s, executed, b]),
                int(doc.ground_truth.human_transitions[h, executed, b, o_h]),
            )

        steps.append(RolloutStep(t, z, a_task, score, executed != a_task, executed,
                                 b, o, margins[z], not in_bound, gt_failed))
        z = trans[executed][b][o]

    final_gt_failure = None
    if gt_state is not None:
        final_gt_failure = bool(doc.ground_truth.failure[gt_state[0], gt_state[1]])
    return RolloutTrace(spec=spec, steps=tuple(steps), final_state=z, final_gt_failure=final_gt_failure)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    mode: str  # "exhaustive" | "sampled"
    depth: int
    filter_mode: str
    certified_states: tuple[int, ...]
    counterexamples: tuple[RolloutTrace, ...]
    expanded: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _successors(z: int, dynamics: tuple, bound: tuple[int, ...], executed: list[int]) -> list[tuple[int, tuple]]:
    """The distinct successors of ``z`` with the first step that reaches each.

    ``dynamics`` is the state's ``(transitions, observation_probs)`` row as
    the ``_dynamics`` view builds it.  Enumeration order is task action, then
    admissible human action, then positive-probability observation; each
    entry is ``(z2, (z, a_task, a_exec, b, o))``.  A task action whose
    executed action already appeared adds nothing new.
    """
    trans, probs = dynamics
    row = []
    seen = set()
    done = set()
    for a_task, a_exec in enumerate(executed):
        if a_exec in done:
            continue
        done.add(a_exec)
        for b in bound:
            for o, p in enumerate(probs[a_exec][b]):
                if p <= 0.0:
                    continue
                z2 = trans[a_exec][b][o]
                if z2 not in seen:
                    seen.add(z2)
                    row.append((z2, (z, a_task, a_exec, b, o)))
    return row


def verify_safety(
    doc: SpecDocument,
    *,
    depth: int = DEFAULT_DEPTH,
    filter_mode: str = SWITCH,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    max_nodes: int | None = None,
    solution: ValueSolution | None = None,
) -> VerificationReport:
    """Check that certified initial states cannot reach failure within ``depth``.

    Enumeration covers every task-action choice at every step; the point of
    the guarantee is that the task policy cannot matter.  Human actions
    range over the admissible bound, observations over positive-probability
    outcomes.

    Raises BudgetExceededError (carrying the partial report in ``partial``)
    if ``max_nodes`` expansions are exceeded.
    """
    spec = doc.game
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if filter_mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {filter_mode!r}")

    sol = solution if solution is not None else value_iteration(spec)
    flt = perfect_filter(sol, filter_mode)
    # the rule of check_initial_condition, which on stochastic games may
    # differ from sol.safe_set by up to the final residual
    certified = tuple(np.flatnonzero(_certified(sol.scores)).tolist())
    executed = flt.executed.tolist()
    unsafe = (spec.margins < 0.0).tolist()

    joint = spec.num_states * spec.num_ai_actions * spec.num_human_actions * spec.num_observations
    mode = "exhaustive" if spec.is_deterministic() and joint <= exhaustive_limit else "sampled"
    budget = float("inf") if max_nodes is None else max_nodes

    counterexamples: list[RolloutTrace] = []
    expanded = 0

    def report() -> VerificationReport:
        return VerificationReport(
            mode=mode,
            depth=depth,
            filter_mode=filter_mode,
            certified_states=certified,
            counterexamples=tuple(counterexamples),
            expanded=expanded,
        )

    def over_budget() -> BudgetExceededError:
        return BudgetExceededError(f"verification exceeded max_nodes={max_nodes}", partial=report())

    dynamics = _dynamics(spec)
    bound = spec.action_bound
    if mode == "exhaustive":
        # each state's successors are built once, so its dynamics row is not kept
        successors = _PerState(lambda z: _successors(z, dynamics.build(z), bound[z], executed[z]))
        for z0 in certified:
            parent: dict[int, tuple | None] = {z0: None}
            frontier = [z0]
            hit = None
            for _ in range(depth):
                if hit is not None or not frontier:
                    break
                nxt = []
                for z in frontier:
                    expanded += 1
                    if expanded > budget:
                        raise over_budget()
                    for z2, via in successors[z]:
                        if z2 in parent:
                            continue
                        parent[z2] = via
                        if unsafe[z2]:
                            hit = z2
                            break
                        nxt.append(z2)
                    if hit is not None:
                        break
                frontier = nxt
            if hit is not None:
                path = []
                z = hit
                while parent[z] is not None:
                    path.append(parent[z])
                    z = parent[z][0]
                counterexamples.append(_counterexample(sol, path[::-1], hit))
    else:
        num_ai = spec.num_ai_actions
        stream = SplitMix64(seed)
        per_state = max(1, samples // max(1, len(certified)))
        for z0 in certified:
            for _ in range(per_state):
                expanded += 1
                if expanded > budget:
                    raise over_budget()
                z = z0
                path = []
                for _ in range(depth):
                    a_task = stream.randint(num_ai)
                    a_exec = executed[z][a_task]
                    b = stream.choice(bound[z])
                    trans, probs = dynamics[z]
                    o = _sample_observation(stream, probs[a_exec][b])
                    path.append((z, a_task, a_exec, b, o))
                    z = trans[a_exec][b][o]
                    if unsafe[z]:
                        counterexamples.append(_counterexample(sol, path, z))
                        break
                else:
                    continue
                break

    return report()


def _counterexample(sol: ValueSolution, path: list[tuple], final_state: int) -> RolloutTrace:
    """The trace of a path to failure, each step given as ``(z, a_task, a_exec, b, o)``."""
    margins = sol.spec.margins
    steps = tuple(
        RolloutStep(t, z, a_task, float(sol.scores[z, a_task]), a_exec != a_task, a_exec,
                    b, o, float(margins[z]), False, None)
        for t, (z, a_task, a_exec, b, o) in enumerate(path)
    )
    return RolloutTrace(spec=sol.spec, steps=steps, final_state=final_state, final_gt_failure=None)


# ---------------------------------------------------------------------------
# oracle cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    horizon: int
    iterations: int
    converged: bool
    max_discrepancy: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_discrepancy <= self.tolerance


def compare_oracle(
    doc: SpecDocument | GameSpec,
    horizon: int | None = None,
    *,
    epsilon: float = DEFAULT_EPSILON,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleReport:
    """Largest gap between ``value_iteration`` and the game-tree recursion.

    The default horizon is the solution's ``iterations``: the sweeps the
    sweep route takes, which the threshold attractor reports exactly without
    sweeping.  On deterministic games the depth-limited values no longer
    change past that horizon.

    The declared tolerance is zero for deterministic-observation games,
    where the solver and the recursion compute identical floating-point
    values.  Otherwise it is ``max(1e-7, epsilon * iterations)``, a heuristic
    allowance for rounding and for stopping at the residual ``epsilon``, not
    a proven bound on the error.
    """
    spec = doc.game if isinstance(doc, SpecDocument) else doc
    sol = value_iteration(spec, epsilon=epsilon)
    if horizon is None:
        horizon = sol.iterations
    worst = 0.0
    for z, reference in enumerate(brute_force_values(spec, horizon, node_budget=node_budget)):
        worst = max(worst, abs(reference - float(sol.values[z])))
    tolerance = 0.0 if spec.is_deterministic() else max(1e-7, epsilon * sol.iterations)
    return OracleReport(
        horizon=horizon,
        iterations=sol.iterations,
        converged=sol.converged,
        max_discrepancy=worst,
        tolerance=tolerance,
    )
