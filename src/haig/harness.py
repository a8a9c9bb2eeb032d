"""Rollouts, exhaustive safety verification, and solver cross-checks.

Reproducibility contract: every random choice in a rollout comes from one
SplitMix64 stream seeded by the config, consumed in a fixed order per step
(task policy draw if randomized, then human policy draw if randomized,
then the observation draw, which happens even when the observation is
deterministic).  Identical configs therefore produce byte-identical JSONL
traces.  Draws read in numpy blocks off the stream's counter are the ones
the scalar calls give, so every trace is the one those give step by step.

A rollout trace is columnar: per step it records only the state, the
task action, the human action, the observation and, with a ground truth,
the failure flag.  It keeps the executed-action and score tables of the
filter that ran, and everything else in a step follows from them and the
spec.  ``to_jsonl`` writes byte for byte what ``json.dumps(step.to_json_dict(),
sort_keys=True, allow_nan=False)`` writes per step.

``verify_safety`` checks the filter's guarantee: from every initial
state the filter certifies, no reachable state within the given depth has
a negative margin, for any task-action choice at every step, any
admissible human response and any observation of positive probability.
The check is exhaustive on every game, stochastic ones included: one
backward breadth-first search from the failure states over the support
graph, the solver's step table ``solver._steps`` under the filter's
executed actions, gives each state's distance to failure up to the depth.
Filtering makes the task action's effect a function of the state, so
whether failure is in reach within d steps depends on the state alone.
Running it with the filter off is the control arm.  Each counterexample
is a ``RolloutTrace`` of its path to failure, built only for failing
paths: monitor scores from the solution's ``scores`` table, no
ground-truth flags.  A counterexample is its root's first shortest path
in step order, the path a per-root breadth-first search finds first.

``rollout`` and ``verify_safety`` each build one filter for their mode
and read its executed-action table (``"none"`` is a filter mode like
the others).  The rollout steps the game through ``_step_rows``: a row
per state, built with array code a block of states at a time on the
first visit to any of them, so a short walk on a large game pays only
for the blocks it visits.  A row holds the entry offset of every pair of
task draw and human draw, with the policies' choices and the filter's
executed action built in.  So a step does only what is sequential: it
looks up its state's row, reads the offset at its draw index, bisects
that entry's observation thresholds with its uniform draw (one rule,
``_observation_thresholds``, picks every observation) and reads the
successor.  Array code computes each window's draw indices before the
walk, and the task action, human action and observation columns from
the recorded entries after it; a ground truth's ``(s, h)`` chain is
walked last, from those columns.  Every fact about the bounds of the
whole game comes from ``spec.bound_mask``.
"""

from __future__ import annotations

import csv
import io
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, PolicyResolutionError
from .filtering import FILTER_MODES, SWITCH, InterventionRecord, _certified, perfect_filter
from .model import GameSpec, _at_least, _differing_field, _fields_equal, _int_index
from .rng import SplitMix64, advance, rejection_limit, splitmix_block
from .solver import (
    DEFAULT_EPSILON,
    DEFAULT_NODE_BUDGET,
    _LEFT_TO_RIGHT_SUMS,
    ValueSolution,
    _steps,
    brute_force_values,
    value_iteration,
)
from .specfile import SpecDocument, _collector_paused, _leaf_texts

DEFAULT_DEPTH = 8


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


class _Steps(Sequence):
    """A trace's steps, each built as a ``RolloutStep`` when it is read; ``len`` builds none.

    As the tuple of records it stands for, a slice reads as a tuple, and
    the view equals a tuple or a view of equal records.
    """

    def __init__(self, trace: RolloutTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.z)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return tuple(self[i] for i in range(len(self))[t])
        trace = self._trace
        t = range(len(self))[t]
        z, a_task, b = trace.z[t], trace.a_task[t], trace.b[t]
        executed = int(trace.executed[z, a_task])
        gt_failed = None if trace.gt_failure is None else trace.gt_failure[t]
        return RolloutStep(t, z, a_task, float(trace.scores[z, a_task]), executed != a_task, executed,
                           b, trace.o[t], float(trace.spec.margins[z]), not trace.spec.bound_mask[z, b], gt_failed)

    def __eq__(self, other) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, _Steps) else other)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class RolloutTrace:
    """A rollout's columns, its end state and the filter's tables; also a verify counterexample.

    Step ``t`` was at state ``z[t]``, where the task proposed ``a_task[t]``,
    the human played ``b[t]`` and the AI observed ``o[t]``; ``gt_failure``
    is ``None`` without ground truth.  The columns are plain lists, and
    ``steps`` is a view over them.  Traces compare by value.  ``min_margin``
    and ``violation_count`` range over every visited state, the terminal
    one included, as ``gt_failure_count`` does against the failure set.
    """

    spec: GameSpec
    z: list[int]
    a_task: list[int]
    b: list[int]
    o: list[int]
    gt_failure: list[bool] | None
    final_state: int
    final_gt_failure: bool | None
    executed: np.ndarray
    scores: np.ndarray

    __eq__ = _fields_equal

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """``z``, ``a_task``, ``b`` and ``o`` as arrays, then each step's executed action."""
        z, a_task, b, o = (np.fromiter(c, np.int64, len(c)) for c in (self.z, self.a_task, self.b, self.o))
        return z, a_task, b, o, self.executed[z, a_task]

    steps = property(_Steps)

    @property
    def final_margin(self) -> float:
        return float(self.spec.margins[self.final_state])

    @property
    def min_margin(self) -> float:
        margins = self.spec.margins[np.append(self._columns[0], self.final_state)]
        return float(margins[margins.argmin()])  # the first of equal minima: a 0.0/-0.0 tie keeps its sign

    @property
    def violation_count(self) -> int:
        return int(np.count_nonzero(self.spec.margins[np.append(self._columns[0], self.final_state)] < 0.0))

    @property
    def intervention_count(self) -> int:
        return int(np.count_nonzero(self._columns[4] != self._columns[1]))  # executed != proposed

    @property
    def gt_failure_count(self) -> int | None:
        if self.final_gt_failure is None:
            return None
        return int(np.count_nonzero(self.gt_failure)) + self.final_gt_failure

    @property
    def odd_violation_steps(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.spec.bound_mask[self._columns[0], self._columns[2]]).tolist())

    @property
    def intervention_rate(self) -> float:
        return self.intervention_count / len(self.z)

    def to_jsonl(self) -> bytes:
        """One JSON object per step, keys sorted, as ``json.dumps(..., sort_keys=True, allow_nan=False)`` writes it.

        A line joins five pieces of text, each picked by fancy indexing from
        a table of its values: per ``b``; per (z, a_task) key and
        ground-truth flag; per ``o`` and odd-violation flag; ``t``; per key.
        ``json`` itself writes the floats, through ``_leaf_texts``, and
        raises what it raises for a non-finite one.
        """
        self.check_conservation()
        z, a_task, b, o, _ = self._columns
        n, na = len(z), self.executed.shape[1]
        keys, key = np.unique(z * na + a_task, return_inverse=True)
        key_z, key_a = np.divmod(keys, na)
        texts = _leaf_texts(np.concatenate([self.spec.margins[key_z], self.scores[key_z, key_a]], dtype=np.float64))
        margins, monitors = texts[:len(keys)], texts[len(keys):]
        flags = ("",) if self.gt_failure is None else (', "gt_failure": false', ', "gt_failure": true')
        middle = _texts(
            f'{e}{flag}, "intervened": {"true" if e != a else "false"}, "margin": {m}, "monitor": {s}, "obs": '
            for e, a, m, s in zip(self.executed[key_z, key_a].tolist(), key_a.tolist(), margins, monitors)
            for flag in flags
        )
        flagged = key if self.gt_failure is None else 2 * key + np.fromiter(self.gt_failure, bool, n)
        heads = _texts(f'{{"a_human": {k}, "executed_a": ' for k in range(self.spec.num_human_actions))
        observed = _texts(f'{k}{flag}, "t": ' for k in range(self.spec.num_observations)
                          for flag in ("", ', "odd_violation": true'))
        odd = ~self.spec.bound_mask[z, b]
        tails = _texts(f', "task_a": {a}, "z": {z}}}\n' for z, a in zip(key_z.tolist(), key_a.tolist()))
        pieces = np.empty((n, 5), dtype=object)
        pieces[:, 0] = heads[b]
        pieces[:, 1] = middle[flagged]
        pieces[:, 2] = observed[2 * o + odd]
        pieces[:, 3] = _texts(map(str, range(n)))
        pieces[:, 4] = tails[key]
        return "".join(pieces.ravel().tolist()).encode()  # bytes.join would take 80 bytes a piece meanwhile

    def check_conservation(self) -> None:
        """Every step's successor under the dynamics must be the next recorded state."""
        z, _, b, o, executed = self._columns
        successors = self.spec.transitions[z, executed, b, o]
        recorded = np.append(z[1:], self.final_state)
        bad = np.flatnonzero(successors != recorded)
        if len(bad):
            t = bad[0]
            raise RuntimeError(f"trace violates the dynamics at t={t}: "
                               f"recorded successor {recorded[t]}, dynamics give {successors[t]}")


def _texts(items) -> np.ndarray:
    """Strings as an object array, for fancy indexing."""
    return np.array(list(items), dtype=object)


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
    """Returns ``(script, width, choose)`` for a human policy.

    ``choose(states, executed)`` gives the human's action per state of the
    slice ``states``, per task draw and per human draw, as an array that
    broadcasts to that shape: ``executed`` holds the executed AI action per
    state and task draw.  The ``width`` human draws are "uniform"'s residue
    modulo the state's bound length, a script's action, or one draw for a
    policy the state decides.  An action that a compliant policy would play
    outside the bound reads -1; "off_odd" plays it.  ``script`` is a
    scripted policy's action cycle, and ``None`` for the others.
    """
    spec = doc.game
    nh = spec.num_human_actions

    def compliant(states, b):
        inside = (b >= 0) & (b < nh)
        mask = spec.bound_mask[states]
        return np.where(inside & mask[np.arange(len(mask))[:, None, None], np.where(inside, b, 0)], b, -1)

    if selector == "worst_case":
        return None, 1, lambda states, executed: compliant(
            states, np.take_along_axis(sol.adversary_policy[states], executed, axis=1)[:, :, None])
    if selector == "uniform":
        width = int(np.count_nonzero(spec.bound_mask, axis=1).max())

        def padded(states, executed):
            """Each state's bound, in its order, padded to ``width`` with its last action, which no residue picks."""
            rows = spec.action_bound[states]
            lengths = np.fromiter(map(len, rows), np.int64, len(rows))
            flat = np.fromiter(chain.from_iterable(rows), np.int64, int(lengths.sum()))
            starts = np.cumsum(lengths) - lengths
            return flat[starts[:, None] + np.minimum(np.arange(width), lengths[:, None] - 1)][:, None, :]

        return None, width, padded
    if selector == "off_odd":
        # argmin: the first action outside the bound, or action 0 when the bound holds every action
        return None, 1, lambda states, executed: spec.bound_mask[states].argmin(axis=1)[:, None, None]
    if selector.startswith("scripted:"):
        script = [
            _resolve_action(spec.human_actions, item.strip(), "human")
            for item in selector.split(":", 1)[1].split(",")
            if item.strip()
        ]
        if not script:
            raise PolicyResolutionError("scripted human policy needs at least one action")
        return script, nh, lambda states, executed: compliant(states, np.arange(nh)[None, None, :])
    if selector in doc.human_policies:
        table = doc.human_policies[selector]
        return None, 1, lambda states, executed: compliant(
            states, np.array([b if 0 <= b < nh else -1 for b in table[states]])[:, None, None])
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
    holds the rows: ``_step_rows`` passes one block of states at a time, as
    the rollout visits them.  Every row is sorted, and a uniform draw ``u``
    picks ``bisect_right(row, u)``: the first positive entry whose running
    sum exceeds ``u`` (a zero entry repeats the sum before it, so it is
    never the first), or the last positive entry when rounding leaves the
    sum at or below ``u``.
    """
    no = probs.shape[-1]
    thresholds = np.cumsum(probs, axis=-1)
    last = np.where(probs > 0.0, np.arange(no), 0).max(axis=-1, keepdims=True)
    thresholds[np.arange(no) >= last] = np.inf
    return thresholds


# steps whose draws one block off the stream's counter holds, at most: a window's draws
# and columns take about 100 kB, and larger windows save little time per step
_WINDOW_STEPS = 1024
# (z, a, b, o) entries whose rows ``_step_rows`` builds at once, in blocks of whole states: a
# game this small, every bench game among them, converts whole on the first step, and a larger
# one only the blocks its walk visits
_BLOCK_ENTRIES = 1 << 14


def _step_rows(spec: GameSpec, executed: np.ndarray, task, choose, indices: list[list[int]]):
    """The rollout's ``(rows, fill)``: a row per state, ``None`` until ``fill(z)`` builds it.

    ``fill(z)`` builds the rows of the block of states that holds ``z``,
    with array code, and returns the row of ``z``: ``(offsets, draw, trans,
    thresholds)``.  ``trans`` and ``thresholds`` are the block's transitions
    and observation thresholds as flat lists, where the state's entry
    ``(a, b, o)`` is at ``base + (a * nb + b) * no + o``.  A step's draw
    index is ``j = task_draw * width + human_draw``, over ``width`` human
    draws, and the step starts at ``offsets[j]``: the ``base + (a * nb +
    b) * no`` of the executed action ``a`` and the human action ``b`` that
    those draws give, or -1 where a compliant human would leave the bound.
    The task draw is the action itself for "random" (``task`` is
    ``None``), and 0 for a task policy ``task(z)``; ``choose`` is
    ``_human_chooser``'s.  ``draw`` is ``indices[len(bound_z)]``, the list
    of each step's ``j`` that the rollout refills for the states of that
    bound length.

    A state whose task policy raises keeps no row, so that ``fill`` runs
    again when the walk enters it, and raises there what ``task(z)`` raises.
    """
    nz, na, nb, no = spec.transitions.shape
    per_state = na * nb * no
    block = max(1, _BLOCK_ENTRIES // per_state)  # states per block
    rows = [None] * nz

    def fill(z):
        start = z // block * block
        states = slice(start, start + block)
        executed_block = executed[states]
        here = np.arange(len(executed_block))
        if task is None:
            executed_a = executed_block  # a task draw per action
        else:
            actions = np.array([_or_missing(task, y) for y in range(start, start + len(here))])
            executed_a = executed_block[here, np.maximum(actions, 0)][:, None]
        b = choose(states, executed_a)
        entry = (here * per_state)[:, None, None] + (executed_a[:, :, None] * nb + b) * no
        offsets = np.where(b >= 0, entry, -1).reshape(len(here), -1).tolist()
        trans = spec.transitions[states].ravel().tolist()
        thresholds = _observation_thresholds(spec.observation_probs[states]).ravel().tolist()
        rows[states] = zip(offsets, map(indices.__getitem__, map(len, spec.action_bound[states])),
                           repeat(trans), repeat(thresholds))
        if task is not None:
            for i in np.flatnonzero(actions < 0).tolist():
                rows[start + i] = None
        return rows[z] or task(z)  # a state left without a row raises its task policy's error here

    return rows, fill


def _or_missing(task, z: int) -> int:
    """``task(z)``, or -1 where the task policy raises IndexError."""
    try:
        return task(z)
    except IndexError:
        return -1


def _solution_for(spec: GameSpec, solution: ValueSolution | None) -> ValueSolution:
    """``solution``, or the game solved when it is None; ValueError if it solves another game than ``spec``.

    The same spec object passes at once; another one must equal it field by field.
    """
    if solution is None:
        return value_iteration(spec)
    if solution.spec is not spec:
        differing = _differing_field(spec, solution.spec)
        if differing is not None:
            raise ValueError(f"solution is of another game: its spec and the document's differ in {differing}")
    return solution


@_collector_paused
def rollout(config: RolloutConfig, solution: ValueSolution | None = None) -> RolloutTrace:
    """Run one seeded rollout and return its trace.

    Every step takes the same draws, so the steps run in windows whose
    draws are one ``splitmix_block`` off the stream's counter, a row per
    step.  A window ends before its first task or human draw at or above
    the smallest rejection limit that draw could meet; that step takes its
    draws through the scalar stream calls, which skip a rejected draw as
    ``randint`` does, and runs as a window of one step.  The next window
    starts at that stream's counter.

    Array code turns a window's draws into each step's draw index ``j``,
    one list per bound length, and its observation draws ``u``.  What a
    step then computes is sequential: it finds the row of its state
    (``_step_rows``), reads the offset of its entry at ``j``, bisects the
    entry's observation thresholds with ``u``, and moves to the successor
    that the observation gives.  It records the state and the entry's
    index ``k``.  After the walk, array code reads the executed action, the
    human action and the observation off ``k``, and the task action off
    the task draws or the policy; a ground truth's ``(s, h)`` chain then
    follows from the executed and human actions.  An offset of -1, where a
    compliant human policy would leave the bound, makes ``bisect_right``
    refuse its negative start, and the rollout raises ValueError naming
    the step.

    It runs with the cyclic garbage collector paused (``_collector_paused``):
    it builds a row per state of each block it visits, none of them in a
    reference cycle.

    Before solving, it raises TypeError if ``max_steps`` or ``seed`` is not
    an integer, and ValueError if ``max_steps`` is below 1 or the filter
    mode is unknown.  A given ``solution`` of another game than the
    document's is refused with ValueError before any work (``_solution_for``).
    """
    doc = config.document
    spec = doc.game
    max_steps, seed = _at_least(config.max_steps, 1, "max_steps"), operator.index(config.seed)
    if config.filter_mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {config.filter_mode!r}")

    sol = _solution_for(spec, solution)
    flt = perfect_filter(sol, config.filter_mode)
    task = _task_chooser(doc, config.task_policy)
    script, width, choose = _human_chooser(doc, config.human_policy, sol)
    uniform = config.human_policy == "uniform"
    bound, num_ai, nh, no = spec.action_bound, spec.num_ai_actions, spec.num_human_actions, spec.num_observations
    # each step's draw index j, one list per bound length for "uniform", else one list for all
    indices = [[] for _ in range(nh + 1)] if uniform else [[]] * (nh + 1)
    rows, fill = _step_rows(spec, flt.executed, task, choose, indices)

    z = _resolve_state(spec, config.initial_state)
    gt = doc.ground_truth
    if gt is not None:
        gt_state = _initial_ground_truth(doc, z)

    # a step's draws: the task draw if it draws, the human draw if it draws, the observation draw;
    # a draw above its column's largest kept value may be rejected
    largest = [rejection_limit(num_ai) - 1] if task is None else []
    if uniform:
        lengths = np.flatnonzero(np.bincount(np.count_nonzero(spec.bound_mask, axis=1))).tolist()  # distinct, in order
        largest.append(min(map(rejection_limit, lengths)) - 1)
    largest.append((1 << 64) - 1)
    draws = len(largest)
    limits = np.tile(np.array(largest, dtype=np.uint64), min(_WINDOW_STEPS, max_steps))  # a window's, in stream order
    cycle = None if script is None else np.array(script, dtype=np.uint64)
    counter = SplitMix64(seed).counter
    zs, ks, task_draws = [], [], []
    t = lo = 0
    cut = False  # whether the next step takes its draws through the scalar stream calls
    while t < max_steps:
        if cut:
            stream = SplitMix64(counter)
            tasks = np.array([stream.randint(num_ai)] if task is None else [0], dtype=np.uint64)
            if uniform:
                residues = {len(bound[z]): np.uint64(stream.randint(len(bound[z])))}
            us = [stream.uniform()]
            counter, n, cut = stream.counter, 1, False
        else:
            n = min(_WINDOW_STEPS, max_steps - t)
            raw = splitmix_block(counter, n * draws)
            rejected = np.flatnonzero(raw > limits[:len(raw)])
            if len(rejected):
                n, cut = int(rejected[0]) // draws, True
            counter = advance(counter, n * draws)
            columns = raw[:n * draws].reshape(n, draws).T
            tasks = columns[0] % np.uint64(num_ai) if task is None else np.zeros(n, dtype=np.uint64)
            if uniform:
                residues = {m: columns[-2] % np.uint64(m) for m in lengths}
            us = ((columns[-1] >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()
        task_draws.append(tasks)
        j = tasks * np.uint64(width)
        if uniform:
            for m, residue in residues.items():
                indices[m][:] = (j + residue).tolist()
        else:
            indices[0][:] = (j if cycle is None else j + cycle[np.arange(t, t + n) % len(cycle)]).tolist()

        try:
            for i in range(n):
                offsets, draw, trans, thresholds = rows[z] or fill(z)
                lo = offsets[draw[i]]
                k = bisect_right(thresholds, us[i], lo, lo + no)  # ValueError at lo = -1
                zs.append(z)
                ks.append(k)
                z = trans[k]
        except ValueError:
            if lo >= 0:
                raise
            raise ValueError(
                f"human policy {config.human_policy!r} left the admissible bound at t={t + i}; "
                "use the off_odd policy to simulate non-compliant humans"
            ) from None
        t += n

    # an entry's index in its block is ((local state * na + executed) * nh + b) * no + o
    entries, o = np.divmod(np.fromiter(ks, np.int64, len(ks)), no)
    entries, b = np.divmod(entries, nh)
    if task is None:
        a_task = np.concatenate(task_draws).tolist()
    else:  # the policy's action once per visited state
        visited, index = np.unique(np.fromiter(zs, np.int64, len(zs)), return_inverse=True)
        a_task = np.array([task(y) for y in visited.tolist()])[index].tolist()
    b = b.tolist()

    gt_failures = final_gt_failure = None
    if gt is not None:
        # per-state rows as lists, built on first visit: [s][h], [s], [s][a][b], [h][a][b][o]
        gt_failure = _PerState(lambda s: gt.failure[s].tolist())
        gt_observation = gt.human_observation.tolist()
        gt_world = _PerState(lambda s: gt.world_transitions[s].tolist())
        gt_human = _PerState(lambda h: gt.human_transitions[h].tolist())
        s, h = gt_state
        gt_failures = []
        for executed_t, b_t in zip((entries % num_ai).tolist(), b):
            gt_failures.append(gt_failure[s][h])
            s, h = gt_world[s][executed_t][b_t], gt_human[h][executed_t][b_t][gt_observation[s]]
        final_gt_failure = gt_failure[s][h]
    return RolloutTrace(spec=spec, z=zs, a_task=a_task, b=b, o=o.tolist(),
                        gt_failure=gt_failures, final_state=z, final_gt_failure=final_gt_failure,
                        executed=flt.executed, scores=flt.scores)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    depth: int
    filter_mode: str
    certified_states: tuple[int, ...]
    counterexamples: tuple[RolloutTrace, ...]
    expanded: int

    @property
    def ok(self) -> bool:
        return not self.counterexamples


@_collector_paused
def verify_safety(
    doc: SpecDocument,
    *,
    depth: int = DEFAULT_DEPTH,
    filter_mode: str = SWITCH,
    max_nodes: int | None = None,
    solution: ValueSolution | None = None,
) -> VerificationReport:
    """Check that certified initial states cannot reach failure within ``depth``.

    Enumeration covers every task-action choice at every step; the point of
    the guarantee is that the task policy cannot matter.  Human actions
    range over the admissible bound, observations over positive-probability
    outcomes.

    The check is exhaustive on every game, whatever its size or its
    observations: one backward breadth-first search from the failure states
    over every admissible step of positive probability of ``solver._steps``
    under the filter's executed actions.  Layer d holds the states whose
    nearest failure state is d steps away, for d up to the smaller of
    ``depth`` and ``num_states``, since no shortest path is longer.
    ``expanded`` counts the states the search settles, the failure states
    and every state that can reach one within ``depth`` steps, whether
    certified or not.  Each certified root in some layer gets one
    counterexample: at each state it takes the first step in (state, task
    action, human action, observation) order that lands one layer lower, so
    its path is the first shortest path in step order.

    It runs with the cyclic garbage collector paused (``_collector_paused``):
    the search's arrays and the traces hold no reference cycle.

    Raises BudgetExceededError if more than ``max_nodes`` states are
    settled, checked after each layer; its ``partial`` report carries the
    count so far and no counterexamples.  Before solving, it raises
    TypeError if ``depth`` or a given ``max_nodes`` is not an integer, and
    ValueError if one is out of range or the filter mode is unknown.  A
    given ``solution`` of another game than the document's is refused with
    ValueError before any work (``_solution_for``).
    """
    spec = doc.game
    depth = _at_least(depth, 1, "depth")
    if max_nodes is not None:
        max_nodes = _at_least(max_nodes, 0, "max_nodes")
    if filter_mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {filter_mode!r}")

    sol = _solution_for(spec, solution)
    executed = perfect_filter(sol, filter_mode).executed
    # the rule of check_initial_condition, which on stochastic games may
    # differ from sol.safe_set by up to the final residual
    certified = tuple(np.flatnonzero(_certified(sol.scores)).tolist())

    nz = spec.num_states
    src, a_tasks, bs, obs, dst = _steps(spec, executed)
    horizon = min(depth, nz)
    limit = float("inf") if max_nodes is None else max_nodes
    dist = np.where(spec.margins < 0.0, 0, horizon + 1)  # horizon + 1: not within horizon of a failure
    layer = dist == 0
    expanded = int(np.count_nonzero(layer))
    d = 0
    while d < horizon and expanded <= limit and layer.any():
        d += 1
        reached = np.zeros_like(layer)
        reached[src[layer[dst]]] = True
        layer = reached & (dist > horizon)
        dist[layer] = d
        expanded += int(np.count_nonzero(layer))
    if expanded > limit:
        partial = VerificationReport(depth, filter_mode, certified, (), expanded)
        raise BudgetExceededError(f"verification exceeded max_nodes={max_nodes}", partial=partial)

    # each state's first step one layer lower, read only at states within horizon of a failure
    down = np.flatnonzero(dist[dst] == dist[src] - 1)
    states, first = np.unique(src[down], return_index=True)
    step = np.zeros(nz, dtype=np.int64)
    step[states] = down[first]
    dist, a_task, b, o, z2 = (c.tolist() for c in (dist, a_tasks[step], bs[step], obs[step], dst[step]))
    counterexamples = []
    for z in certified:
        if dist[z] > horizon:
            continue
        path = []
        while dist[z]:
            path.append((z, a_task[z], b[z], o[z]))
            z = z2[z]
        counterexamples.append(_counterexample(sol, executed, path, z))
    return VerificationReport(depth, filter_mode, certified, tuple(counterexamples), expanded)


def _counterexample(sol: ValueSolution, executed: np.ndarray, path: list[tuple], final_state: int) -> RolloutTrace:
    """The trace of a path to failure under the ``executed`` table, each step given as ``(z, a_task, b, o)``."""
    z, a_task, b, o = map(list, zip(*path))
    return RolloutTrace(spec=sol.spec, z=z, a_task=a_task, b=b, o=o, gt_failure=None, final_state=final_state,
                        final_gt_failure=None, executed=executed, scores=sol.scores)


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
    """Largest gap between ``value_iteration`` and the brute-force game-tree values.

    The default horizon is the solution's ``iterations``: the sweeps the
    sweep route takes, which the threshold attractor reports exactly without
    sweeping.  On deterministic games the depth-limited values no longer
    change past that horizon.

    The oracle checks the k-step value at the horizon k, not the distance
    to the fixed point.  The declared tolerance is zero where the solver
    and ``brute_force_values`` compute identical floating-point values: on
    deterministic-observation games, and at horizon ``iterations`` on games
    with fewer than ``solver._LEFT_TO_RIGHT_SUMS`` observations, where both
    add the same terms in the same order.  Otherwise it is ``max(1e-7,
    epsilon * iterations)``, a heuristic allowance for rounding and for
    stopping at the residual ``epsilon``, not a proven bound on the error.
    A non-integral or negative ``horizon``
    or ``node_budget`` raises TypeError or ValueError before solving.  Any
    horizon runs whose nodes fit ``node_budget`` per root; a root that
    needs more raises BudgetExceededError before its nodes are evaluated.
    """
    spec = doc.game
    if horizon is not None:
        horizon = _at_least(horizon, 0, "horizon")
    node_budget = _at_least(node_budget, 0, "node_budget")
    sol = value_iteration(spec, epsilon=epsilon)
    if horizon is None:
        horizon = sol.iterations
    worst = 0.0
    for z, reference in enumerate(brute_force_values(spec, horizon, node_budget=node_budget)):
        worst = max(worst, abs(reference - float(sol.values[z])))
    same_sums = spec.num_observations < _LEFT_TO_RIGHT_SUMS and horizon == sol.iterations
    tolerance = 0.0 if spec.is_deterministic() or same_sums else max(1e-7, epsilon * sol.iterations)
    return OracleReport(
        horizon=horizon,
        iterations=sol.iterations,
        converged=sol.converged,
        max_discrepancy=worst,
        tolerance=tolerance,
    )
