"""Rollouts, exhaustive safety verification, and solver cross-checks.

Reproducibility contract: every random choice in a rollout comes from one
SplitMix64 stream seeded by the config, consumed in a fixed order per step
(task policy draw if randomized, then human policy draw if randomized,
then the observation draw, which happens even when the observation is
deterministic).  Identical configs therefore produce byte-identical JSONL
traces.  The rollout reads these draws in windows of steps straight off
the stream's counter, one numpy block per window; a draw that ``randint``
may reject ends its window, and that step draws through the scalar stream
calls, so every trace is the one the scalar calls give step by step.

A rollout trace stores its steps and its end state.  Each step is an
immutable named tuple, ``RolloutStep``: the filter's decision (the fields
of ``InterventionRecord``) plus the human's response, built from one
plain tuple per step.  The summary metrics are derived from the steps,
and the dynamics are checked once, when ``to_jsonl`` serializes the
trace.  ``to_jsonl`` writes each step with one format string, byte for
byte what ``json.dumps(step.to_json_dict(), sort_keys=True,
allow_nan=False)`` writes.

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

Each search costs what its answer needs, and its reports are bit for bit
those of a plain per-root search and of sequences drawn one after
another.  Exhaustively, one successor relation, ``_successor_edges``,
serves every part.  One backward search over its edges finds the roots
within ``depth`` of a failure; only these run the ordered,
parent-tracking search, which walks each state's edges in search order
and decodes ``(z, a_task, a_exec, b, o)`` only along a counterexample's
path.  Every other root expands its whole ball of radius ``depth - 1``,
counted with one set union per level.  Sampled sequences run through the
scalar stream calls, and after a clean run of them in lockstep windows
with numpy that read their draws in blocks straight off the stream's
counter.  A window is cut at its first failure or rejected draw in stream
order, and the scalar calls take over from there.

``rollout`` and ``verify_safety`` each build one filter for their mode
and read its executed-action table (``"none"`` is a filter mode like
the others).  One rule, ``_observation_thresholds``, picks every sampled
observation: sampled verify builds the whole game's table once, for its
scalar path and its lockstep windows alike, and rollout builds a block's
thresholds with the block's rows.  Rollout reads a state's executed
actions and scores, transitions, thresholds, margin and bound from one
row of plain Python values, built for a block of ``_BLOCK_STATES``
states at once on the first visit to any of them, the transitions and
thresholds as flat lists that the block's rows share.  A game of up to a block converts whole, and a
short rollout on a larger one pays only for the blocks it visits.  Policy
entries and the ground truth come from per-state views built on a state's
first visit; the scalar sampled path reads the transitions and thresholds
from a view of nested lists.  A rollout runs with the garbage collector
paused: nothing it builds is in a reference cycle, and a collection would
only rescan what it builds and whatever else the process holds.
"""

from __future__ import annotations

import csv
import gc
import io
from bisect import bisect_right
from dataclasses import dataclass
from math import floor, isfinite
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, PolicyResolutionError
from .filtering import FILTER_MODES, SWITCH, InterventionRecord, _certified, perfect_filter
from .model import GameSpec, _int_index
from .rng import SplitMix64, advance, rejection_limit, splitmix_block
from .solver import (
    DEFAULT_EPSILON,
    DEFAULT_NODE_BUDGET,
    ValueSolution,
    _det_successors,
    brute_force_values,
    value_iteration,
)
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
        rows = _PerState(lambda z: self.spec.transitions[z].tolist())
        states = [s.state for s in self.steps] + [self.final_state]
        for step, nxt in zip(self.steps, states[1:]):
            recomputed = rows[step.state][step.executed_action][step.human_action][step.observation]
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


def _task_chooser(doc: SpecDocument, selector: str):
    """``None`` for "random", which draws; otherwise fn(z) -> the task action at ``z``, checked."""
    spec = doc.game
    if selector == "random":
        return None
    if selector.startswith("constant:"):
        action = _resolve_action(spec.ai_actions, selector.split(":", 1)[1], "ai")
        return lambda z: action
    if selector in doc.task_policies:
        table = doc.task_policies[selector]
        return lambda z: _int_index(table[z], spec.num_ai_actions, "ai action")
    raise PolicyResolutionError(f"unknown task policy {selector!r}")


def _human_chooser(doc: SpecDocument, selector: str, sol: ValueSolution):
    """Returns ``(script, row)``: a scripted policy's action cycle, or fn(z) -> the human's row at ``z``.

    A row is the human action per executed AI action.  "uniform", which
    draws, has neither.
    """
    spec = doc.game
    bound, na = spec.action_bound, spec.num_ai_actions
    if selector == "worst_case":
        return None, lambda z: sol.adversary_policy[z].tolist()
    if selector == "uniform":
        return None, None
    if selector == "off_odd":
        def violator(z):
            allowed = set(bound[z])
            b = next((b for b in range(spec.num_human_actions) if b not in allowed), bound[z][0])
            return [b] * na

        return None, violator
    if selector.startswith("scripted:"):
        script = [
            _resolve_action(spec.human_actions, item.strip(), "human")
            for item in selector.split(":", 1)[1].split(",")
            if item.strip()
        ]
        if not script:
            raise PolicyResolutionError("scripted human policy needs at least one action")
        return script, None
    if selector in doc.human_policies:
        table = doc.human_policies[selector]
        return None, lambda z: [table[z]] * na
    raise PolicyResolutionError(f"unknown human policy {selector!r}")


def _initial_ground_truth(doc: SpecDocument, z0: int) -> tuple[int, int]:
    """The first ``(s, h)`` in row-major order that projects to ``z0``."""
    pairs = np.argwhere(doc.ground_truth.projection == z0)
    if not len(pairs):
        raise ValueError(f"ground truth has no configuration projecting to state {z0}")
    s, h = pairs[0].tolist()
    return s, h


class _PerState(dict):
    """State -> row, each row built by ``build(z)`` on its first lookup and kept."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, z: int):
        row = self[z] = self.build(z)
        return row


def _observation_thresholds(probs: np.ndarray) -> np.ndarray:
    """Each observation row's running sums, +inf from its last positive entry on.

    ``probs`` is a block of the spec's ``observation_probs``, whose last axis
    holds the rows.  Every row is sorted, and a uniform draw ``u`` picks
    ``bisect_right(row, u)``: the first positive entry whose running sum
    exceeds ``u`` (a zero entry repeats the sum before it, so it is never the
    first), or the last positive entry when rounding leaves the sum at or
    below ``u``.
    """
    no = probs.shape[-1]
    thresholds = np.cumsum(probs, axis=-1)
    last = np.where(probs > 0.0, np.arange(no), 0).max(axis=-1, keepdims=True)
    thresholds[np.arange(no) >= last] = np.inf
    return thresholds


def _dynamics(spec: GameSpec, thresholds: np.ndarray):
    """fn(z) -> the state's transitions and observation thresholds as lists, ``[a][b][o]``."""
    return lambda z: (spec.transitions[z].tolist(), thresholds[z].tolist())


# steps whose draws one block off the stream's counter holds, at most: a window's draws
# and columns take about 100 kB, and larger windows save little time per step
_WINDOW_STEPS = 1024
# states whose rows a rollout builds at once: a game this small converts whole, on the first
# step, and a larger one only the blocks its rollout visits
_BLOCK_STATES = 4096


def rollout(config: RolloutConfig, solution: ValueSolution | None = None) -> RolloutTrace:
    """Run one seeded rollout and return its trace.

    Every step takes the same draws, so the steps run in windows whose
    draws are one ``splitmix_block`` off the stream's counter, a row per
    step.  A window ends before its first task or human draw at or above
    the smallest rejection limit that draw could meet; that step takes its
    draws through the scalar stream calls, which skip a rejected draw as
    ``randint`` does, and the next window starts at that stream's counter.

    The cyclic garbage collector is paused meanwhile, and resumed after if
    it was running.  A rollout builds a step object per step and a row per
    state of each block it visits, none of them in a reference cycle.
    With the collector running, every few hundred of them would set off a
    young collection that only moves them on, and every few rollouts a
    full collection would rescan everything the process holds: a rollout
    would cost more the more the process holds besides, and more in one
    call than the next by chance.  The one young collection they are due
    runs at the caller's next allocation, over what is still alive then.
    """
    running = gc.isenabled()
    gc.disable()
    try:
        return _rollout(config, solution)
    finally:
        if running:
            gc.enable()


def _rollout(config: RolloutConfig, solution: ValueSolution | None) -> RolloutTrace:
    doc = config.document
    spec = doc.game
    if config.max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {config.max_steps}")
    if config.filter_mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {config.filter_mode!r}")

    sol = solution if solution is not None else value_iteration(spec)
    flt = perfect_filter(sol, config.filter_mode)
    task = _task_chooser(doc, config.task_policy)
    script, human = _human_chooser(doc, config.human_policy, sol)
    uniform = config.human_policy == "uniform"
    off_odd = config.human_policy == "off_odd"
    bound, num_ai, nh, no = spec.action_bound, spec.num_ai_actions, spec.num_human_actions, spec.num_observations
    width = num_ai * nh * no

    rows = [None] * spec.num_states
    tasks_at = None if task is None else _PerState(task)
    humans_at = None if human is None else _PerState(human)

    def fill(j):
        # a block of states' rows, built at once: each state's decisions, margin and bound, and the
        # block's transitions and observation thresholds as flat lists, in which its i-th state's
        # (a, b, o) entry is at i * width + (a * nh + b) * no + o
        states = slice(j * _BLOCK_STATES, (j + 1) * _BLOCK_STATES)
        trans = spec.transitions[states].ravel().tolist()
        thresholds_j = _observation_thresholds(spec.observation_probs[states]).ravel().tolist()
        rows[states] = [
            (executed_z, scores_z, trans, thresholds_j, i * width, margin, bound_z)
            for i, (executed_z, scores_z, margin, bound_z) in enumerate(zip(
                flt.executed[states].tolist(), flt.scores[states].tolist(), spec.margins[states].tolist(),
                bound[states]))
        ]

    z = _resolve_state(spec, config.initial_state)
    gt = doc.ground_truth
    if gt is not None:
        gt_state = _initial_ground_truth(doc, z)
        # per-state rows as lists, built on first visit: [s][h], [s], [s][a][b], [h][a][b][o]
        gt_failure = _PerState(lambda s: gt.failure[s].tolist())
        gt_observation = gt.human_observation.tolist()
        gt_world = _PerState(lambda s: gt.world_transitions[s].tolist())
        gt_human = _PerState(lambda h: gt.human_transitions[h].tolist())
    else:
        gt_state = None

    # a step's draws: the task draw if it draws, the human draw if it draws, the observation draw;
    # a draw above its column's largest kept value may be rejected
    largest = [rejection_limit(num_ai) - 1] if task is None else []
    if uniform:
        lengths = sorted(set(map(len, bound)))
        largest.append(min(map(rejection_limit, lengths)) - 1)
    largest = np.array(largest + [(1 << 64) - 1], dtype=np.uint64)
    draws = len(largest)
    counter = SplitMix64(config.seed).counter
    steps: list[RolloutStep] = []
    new_step = tuple.__new__  # a RolloutStep without the named tuple's Python-level __new__
    t = 0
    cut = False  # whether the next step takes its draws through the scalar stream calls
    while t < config.max_steps:
        if cut:
            stream = SplitMix64(counter)
            tasks = [stream.randint(num_ai)] if task is None else None
            if uniform:
                residues = {len(bound[z]): [stream.randint(len(bound[z]))]}
            us = [stream.uniform()]
            counter, n, cut = stream.counter, 1, False
        else:
            n = min(_WINDOW_STEPS, config.max_steps - t)
            raw = splitmix_block(counter, n * draws).reshape(n, draws)
            rejected = np.flatnonzero((raw > largest).any(axis=1))
            if len(rejected):
                n, cut = int(rejected[0]), True
            counter = advance(counter, n * draws)
            columns = raw[:n].T
            tasks = (columns[0] % np.uint64(num_ai)).tolist() if task is None else None
            if uniform:
                residues = {m: (columns[-2] % np.uint64(m)).tolist() for m in lengths}
            us = ((columns[-1] >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()

        for i in range(n):
            row = rows[z]
            if row is None:
                fill(z // _BLOCK_STATES)
                row = rows[z]
            executed_z, scores_z, trans, thresholds_z, base, margin, bound_z = row
            a_task = tasks[i] if task is None else tasks_at[z]
            executed = executed_z[a_task]
            if uniform:
                b = bound_z[residues[len(bound_z)][i]]
            elif script:
                b = script[t % len(script)]
            else:
                b = humans_at[z][executed]
            in_bound = b in bound_z
            if not in_bound and not off_odd:
                raise ValueError(
                    f"human policy {config.human_policy!r} left the admissible bound at t={t}; "
                    "use the off_odd policy to simulate non-compliant humans"
                )

            lo = base + (executed * nh + b) * no
            k = bisect_right(thresholds_z, us[i], lo, lo + no)
            o = k - lo
            gt_failed = None
            if gt_state is not None:
                s, h = gt_state
                gt_failed = gt_failure[s][h]
                gt_state = gt_world[s][executed][b], gt_human[h][executed][b][gt_observation[s]]

            steps.append(new_step(RolloutStep, (t, z, a_task, scores_z[a_task], executed != a_task, executed,
                                                b, o, margin, not in_bound, gt_failed)))
            z = trans[k]
            t += 1

    final_gt_failure = None
    if gt_state is not None:
        final_gt_failure = gt_failure[gt_state[0]][gt_state[1]]
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


def _successor_edges(spec: GameSpec, executed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(z, z2)`` steps of a deterministic game under ``executed``, in search order.

    Returns ``(src, dst, via)``, sorted by ``src``.  A state's steps come in
    the order the ordered search meets them, task action then admissible
    human action (bounds are sorted), and ``via`` is ``a_task * nb + b`` of
    the first step that reaches ``dst``.
    """
    nz, na, nb = spec.transitions.shape[:3]
    zbits, sbits = nz.bit_length(), (na * nb).bit_length()
    zmask, smask = (1 << zbits) - 1, (1 << sbits) - 1
    succ = _det_successors(spec)[np.arange(nz)[:, None], executed]  # (z, a_task, b)
    # one int64 packs z, z2 and the step (2 * zbits + sbits bits, far below 63
    # for any game that fits in memory); one sort keeps the first step of each (z, z2) ...
    keys = (np.arange(nz)[:, None, None] << zbits | succ) << sbits | np.arange(na * nb).reshape(na, nb)
    keys = np.sort(keys[np.broadcast_to(spec.bound_mask[:, None, :], succ.shape)])
    keys = keys[np.flatnonzero(np.diff(keys >> sbits, prepend=-1))]
    # ... and one of (z, step, z2) keys puts them back in search order
    keys = np.sort((keys >> (zbits + sbits) << sbits | keys & smask) << zbits | keys >> sbits & zmask)
    return keys >> (zbits + sbits), keys & zmask, keys >> zbits & smask


class _Budget:
    """Expansions counted against ``max_nodes``; the first one past it raises with the partial report."""

    def __init__(self, max_nodes: int | None, report):
        self.max_nodes = max_nodes
        self.limit = float("inf") if max_nodes is None else max_nodes
        self.spent = 0
        self.report = report

    def room(self):
        return self.limit - self.spent

    def spend(self, n: int) -> None:
        if self.spent + n > self.limit:
            self.spent = max(self.spent + 1, floor(self.limit) + 1)
            raise BudgetExceededError(f"verification exceeded max_nodes={self.max_nodes}", partial=self.report())
        self.spent += n


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

    Exhaustive mode (deterministic games with at most ``exhaustive_limit``
    joint entries) searches breadth-first from each certified root and
    stops at the first failure state it meets; ``expanded`` sums the states
    expanded.  It reads only the edges of ``_successor_edges``.  One
    backward search from the failure states finds the roots within
    ``depth`` of one, and only those run the ordered search that builds a
    counterexample.  Any other root expands every state within
    ``depth - 1`` steps, so its count is the size of that ball, grown by
    set unions.

    Sampled mode draws ``max(1, samples // len(certified))`` random
    sequences per root, roots in order, from one SplitMix64 stream seeded
    with ``seed``; the first sequence that reaches failure ends its root.
    ``expanded`` counts the sequences started.  ``_sample_sequences`` runs
    them through the scalar stream calls or in lockstep windows on the same
    draws; observations are picked as in rollout.

    Raises BudgetExceededError (carrying the partial report in ``partial``)
    if ``max_nodes`` expansions are exceeded.
    """
    spec = doc.game
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if filter_mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {filter_mode!r}")

    sol = solution if solution is not None else value_iteration(spec)
    flt = perfect_filter(sol, filter_mode)
    # the rule of check_initial_condition, which on stochastic games may
    # differ from sol.safe_set by up to the final residual
    certified = tuple(np.flatnonzero(_certified(sol.scores)).tolist())

    joint = spec.num_states * spec.num_ai_actions * spec.num_human_actions * spec.num_observations
    mode = "exhaustive" if spec.is_deterministic() and joint <= exhaustive_limit else "sampled"
    found: list[RolloutTrace] = []
    budget = _Budget(max_nodes, lambda: VerificationReport(
        mode=mode,
        depth=depth,
        filter_mode=filter_mode,
        certified_states=certified,
        counterexamples=tuple(found),
        expanded=budget.spent,
    ))
    if mode == "exhaustive":
        _search_exhaustive(sol, flt.executed, certified, depth, found, budget)
    else:
        per_state = max(1, samples // max(1, len(certified)))
        _sample_sequences(sol, flt.executed, certified, per_state, depth, seed, found, budget)
    return budget.report()


def _search_exhaustive(sol, executed, roots, depth, found, budget) -> None:
    """The ordered search from each root within ``depth`` of a failure; ball sizes for the others."""
    spec = sol.spec
    src, dst, via = _successor_edges(spec, executed)
    # one backward breadth-first search: the states within depth steps of a failure
    near = spec.margins < 0.0
    layer = near
    for _ in range(depth):
        reached = np.zeros_like(near)
        reached[src[layer[dst]]] = True
        layer = reached & ~near
        if not layer.any():
            break
        near |= layer
    near = near.tolist()

    starts = np.searchsorted(src, np.arange(spec.num_states + 1)).tolist()
    targets = dst.tolist()
    succ_sets = _PerState(lambda z: set(targets[starts[z]:starts[z + 1]]))
    unsafe = (spec.margins < 0.0).tolist()
    nb = spec.num_human_actions
    for z0 in roots:
        if not near[z0]:
            ball = ring = {z0}
            for _ in range(depth - 1):
                ring = set().union(*map(succ_sets.__getitem__, ring))
                ring -= ball
                if not ring:
                    break
                ball |= ring
            budget.spend(len(ball))
            continue
        parent = {z0: None}  # state -> the edge that first reached it
        frontier = [z0]
        hit = None
        for _ in range(depth):
            if hit is not None or not frontier:
                break
            nxt = []
            for z in frontier:
                budget.spend(1)
                for k in range(starts[z], starts[z + 1]):
                    z2 = targets[k]
                    if z2 in parent:
                        continue
                    parent[z2] = k
                    if unsafe[z2]:
                        hit = z2
                        break
                    nxt.append(z2)
                if hit is not None:
                    break
            frontier = nxt
        if hit is not None:
            # the steps back to the root, each decoded from its edge
            path = []
            z = hit
            while parent[z] is not None:
                k = parent[z]
                z = int(src[k])
                a_task, b = divmod(int(via[k]), nb)
                a_exec = int(executed[z, a_task])
                path.append((z, a_task, a_exec, b, int(spec.observation_probs[z, a_exec, b].argmax())))
            found.append(_counterexample(sol, path[::-1], hit))


_LOCKSTEP_MIN = 32  # clean sequences in a row before the first window, and its size
_WINDOW_DRAWS = 1 << 15  # draws in a window at most


class _Lockstep:
    """A game's flat tables for stepping many sampled sequences at once.

    A step's ``row`` is ``(z * na + a_exec) * nb + b``, the flat index of its
    observation row; ``rows`` finds it from ``(z * na + a_task) * nb + i``,
    where ``i`` indexes the bound of ``z``.  ``thresholds`` is the table of
    ``_observation_thresholds`` by flat row, which the scalar path reads
    too: a row is sorted, so the first ``o`` with ``u < thresholds[row, o]``
    is ``bisect_right`` of the row.
    """

    def __init__(self, spec: GameSpec, executed: np.ndarray, thresholds: np.ndarray):
        nz, na, nb, no = spec.transitions.shape
        self.shape = na, nb, no
        self.trans = spec.transitions.ravel()  # by row * no + o
        self.thresholds = thresholds.reshape(-1, no)
        self.unsafe = spec.margins < 0.0
        bound = spec.action_bound
        # each bound padded to nb actions; no index reaches the padding
        padded = np.array([row + row[:1] * (nb - len(row)) for row in bound], dtype=np.intp)
        self.rows = ((np.arange(nz)[:, None] * na + executed)[:, :, None] * nb + padded[:, None, :]).ravel()
        self.bound_len = np.array([len(row) for row in bound], dtype=np.uint64)
        # the largest raw draw that randint keeps
        self.task_max = np.uint64(rejection_limit(na) - 1)
        self.human_max = np.array([rejection_limit(len(row)) - 1 for row in bound], dtype=np.uint64)
        self.human_min = self.human_max.min()

    def run(self, z: np.ndarray, counter: int, depth: int):
        """Run sequences from the roots ``z`` on the draws after ``counter``, one after another.

        The window is cut at its first failure or rejected ``randint`` draw
        in stream order.  Returns how many lead sequences run clean to
        ``depth``, and the ``(path, final_state)`` of the next one if the cut
        is a failure, else ``None``: all of them ran clean, or the next one
        draws a value that ``randint`` rejects.
        """
        na, nb, no = self.shape
        count = len(z)
        draws = splitmix_block(counter, count * depth * 3).reshape(count, depth, 3)
        task, human, obs = np.ascontiguousarray(draws.transpose(2, 1, 0))  # each (depth, count)
        a_task = (task % np.uint64(na)).astype(np.intp)
        u = (obs >> np.uint64(11)).astype(np.float64) * 2.0**-53
        # most windows hold no draw that any bound of the game rejects
        rejects = bool((task > self.task_max).any() or (human > self.human_min).any())
        steps = []
        failed = None  # the step of the cut, if it is a failure
        live = count
        for t in range(depth):
            a = a_task[t, :live]
            i = (human[t, :live] % self.bound_len[z]).astype(np.intp)
            row = self.rows[(z * na + a) * nb + i]
            o = (u[t, :live, None] < self.thresholds[row]).argmax(axis=1)
            z2 = self.trans[row * no + o]
            steps.append((z, a, row, o, z2))
            event = self.unsafe[z2]
            if rejects:
                rejected = (task[t, :live] > self.task_max) | (human[t, :live] > self.human_max[z])
                event |= rejected
            if event.any():
                live = int(event.argmax())
                # a rejected draw comes before the failure of its step
                failed = None if rejects and rejected[live] else t
                if not live:
                    break
            z = z2[:live]
        if failed is None:
            return live, None
        path = []
        for z, a, row, o, _ in steps[:failed + 1]:
            r = int(row[live])
            path.append((int(z[live]), int(a[live]), r // nb % na, r % nb, int(o[live])))
        return live, (path, int(steps[failed][4][live]))


def _sample_sequences(sol, executed, roots, per_state, depth, seed, found, budget) -> None:
    """``per_state`` sequences per root in (root, sample) order, each drawn as the scalar stream calls draw it.

    A step draws ``randint`` for the task action, ``choice`` over the bound
    for the human action and ``uniform`` for the observation: three draws
    unless ``randint`` rejects one.  Each pass of the loop runs one sequence
    through these calls, or, once ``_LOCKSTEP_MIN`` in a row have run clean,
    one window of sequences whose draws ``_Lockstep`` takes in one block off
    the stream's counter.  A window is cut at its first failure or rejected
    draw; the stream resumes after the draws its clean sequences and its
    failing path consumed, and the scalar calls take over again: they run a
    sequence with a rejected draw as they run any other.  A failure settles
    its root.  A clean window grows the next one four-fold, up to
    ``_WINDOW_DRAWS`` draws.  On a game that fails often, a numpy step costs
    more than the scalar steps it replaces.
    """
    spec = sol.spec
    thresholds = _observation_thresholds(spec.observation_probs)
    num_ai, bound, dynamics = spec.num_ai_actions, spec.action_bound, _PerState(_dynamics(spec, thresholds))
    exec_rows = executed.tolist()
    unsafe = (spec.margins < 0.0).tolist()
    total = len(roots) * per_state
    stream = SplitMix64(seed)
    lockstep = None
    largest = _WINDOW_DRAWS // (3 * depth)  # sequences in a window; none if one is too deep
    size = run = 0  # the next window, 0 while sequences run through the scalar calls; clean ones in a row
    start = 0  # the next sequence
    while start < total:
        room = budget.room()
        if room < 1:
            budget.spend(1)
        if not size:
            budget.spend(1)
            z = roots[start // per_state]
            path = []
            for _ in range(depth):
                a_task = stream.randint(num_ai)
                a_exec = exec_rows[z][a_task]
                b = stream.choice(bound[z])
                trans, rows = dynamics[z]
                o = bisect_right(rows[a_exec][b], stream.uniform())
                path.append((z, a_task, a_exec, b, o))
                z = trans[a_exec][b][o]
                if unsafe[z]:
                    found.append(_counterexample(sol, path, z))
                    start = (start // per_state + 1) * per_state
                    run = 0
                    break
            else:
                start += 1
                run += 1
                if run == _LOCKSTEP_MIN:
                    size = min(_LOCKSTEP_MIN, largest)
            continue
        if lockstep is None:
            lockstep, root_of = _Lockstep(spec, executed, thresholds), np.array(roots)
        count = int(min(size, total - start, room))
        counter = stream.counter
        clean, failure = lockstep.run(root_of[np.arange(start, start + count) // per_state], counter, depth)
        budget.spend(clean + (failure is not None))
        start += clean
        draws = clean * depth
        if failure is not None:
            found.append(_counterexample(sol, *failure))
            start = (start // per_state + 1) * per_state
            draws += len(failure[0])
        stream = SplitMix64(advance(counter, 3 * draws))
        if clean < count:  # a cut: back to the scalar calls
            size = run = 0
        else:
            size = min(4 * size, largest)


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
    doc: SpecDocument,
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
    spec = doc.game
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
