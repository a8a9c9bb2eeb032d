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

A rollout trace is columnar: per step it records only the state, the
task action, the human action, the observation and, with a ground truth,
the failure flag.  It keeps the executed-action and score tables of the
filter that ran, and everything else in a step follows from them and the
spec.  The summaries are array reductions; ``to_jsonl`` checks the
dynamics with one gather and writes each distinct (state, task action)
decision's text once, byte for byte what ``json.dumps(step.to_json_dict(),
sort_keys=True, allow_nan=False)`` writes per step.  ``steps`` is a view
that builds a ``RolloutStep`` record only when one is read.

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
and decodes ``(z, a_task, b, o)`` only along a counterexample's path.
Every other root expands its whole ball of radius ``depth - 1``,
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
actions, transitions, thresholds and bound from one row of plain Python
values, built for a block of states of about ``_BLOCK_ENTRIES`` joint
(a, b, o) entries on the first visit to any of them, the transitions and
thresholds as flat lists that the block's rows share.  A game of up to a
block converts whole, and a short rollout on a larger one pays only for
the blocks it visits.  Policy entries and the ground truth come from
per-state views built on a state's first visit; the scalar sampled path
reads the transitions and thresholds from a view of nested lists.  A
rollout runs with the garbage collector paused: nothing it builds is in
a reference cycle, and a collection would only rescan what it builds and
whatever else the process holds.
"""

from __future__ import annotations

import csv
import gc
import io
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import floor
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceededError, PolicyResolutionError
from .filtering import FILTER_MODES, SWITCH, InterventionRecord, _certified, perfect_filter
from .model import GameSpec, _fields_equal, _int_index
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
        """One JSON object per step, keys sorted, as ``json.dumps(..., sort_keys=True)`` writes it.

        A line joins five pieces of text, each picked by fancy indexing from
        a table of its values: per ``b``; per (z, a_task) key and
        ground-truth flag; per ``o`` and odd-violation flag; ``t``; per key.
        """
        self.check_conservation()
        z, a_task, b, o, _ = self._columns
        n, na = len(z), self.executed.shape[1]
        keys, key = np.unique(z * na + a_task, return_inverse=True)
        key_z, key_a = np.divmod(keys, na)
        floats = np.concatenate([self.spec.margins[key_z], self.scores[key_z, key_a]], dtype=np.float64)
        if not np.isfinite(floats).all():  # the error of json.dumps(..., allow_nan=False)
            raise ValueError("Out of range float values are not JSON compliant")
        texts = list(map(float.__repr__, floats.tolist()))  # json's float format
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


# steps whose draws one block off the stream's counter holds, at most: a window's draws
# and columns take about 100 kB, and larger windows save little time per step
_WINDOW_STEPS = 1024
# (z, a, b, o) entries whose rows a rollout builds at once, in blocks of whole states: a game
# this small, every bench game among them, converts whole on the first step, and a larger one
# only the blocks its rollout visits
_BLOCK_ENTRIES = 1 << 14


def rollout(config: RolloutConfig, solution: ValueSolution | None = None) -> RolloutTrace:
    """Run one seeded rollout and return its trace.

    Every step takes the same draws, so the steps run in windows whose
    draws are one ``splitmix_block`` off the stream's counter, a row per
    step.  A window ends before its first task or human draw at or above
    the smallest rejection limit that draw could meet; that step takes its
    draws through the scalar stream calls, which skip a rejected draw as
    ``randint`` does, and the next window starts at that stream's counter.

    The cyclic garbage collector is paused meanwhile, and resumed after if
    it was running.  A rollout builds a row per state of each block it
    visits, none of them in a reference cycle.  With the collector
    running, every few hundred of them would set off a young collection
    that only moves them on, and every few rollouts a full collection
    would rescan everything the process holds: a rollout would cost more
    the more the process holds besides, and more in one call than the
    next by chance.  The one young collection they are due runs at the
    caller's next allocation, over what is still alive then.
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
    block = max(1, _BLOCK_ENTRIES // width)  # states per block

    rows = [None] * spec.num_states
    tasks_at = None if task is None else _PerState(task)
    humans_at = None if human is None else _PerState(human)

    def fill(j):
        # a block of states' rows, built at once: each state's executed actions and bound, and the
        # block's transitions and observation thresholds as flat lists, in which its i-th state's
        # (a, b, o) entry is at i * width + (a * nh + b) * no + o
        states = slice(j * block, (j + 1) * block)
        trans = spec.transitions[states].ravel().tolist()
        thresholds_j = _observation_thresholds(spec.observation_probs[states]).ravel().tolist()
        rows[states] = [
            (executed_z, trans, thresholds_j, i * width, bound_z)
            for i, (executed_z, bound_z) in enumerate(zip(flt.executed[states].tolist(), bound[states]))
        ]

    z = _resolve_state(spec, config.initial_state)
    gt, gt_state = doc.ground_truth, None
    if gt is not None:
        gt_state = _initial_ground_truth(doc, z)
        # per-state rows as lists, built on first visit: [s][h], [s], [s][a][b], [h][a][b][o]
        gt_failure = _PerState(lambda s: gt.failure[s].tolist())
        gt_observation = gt.human_observation.tolist()
        gt_world = _PerState(lambda s: gt.world_transitions[s].tolist())
        gt_human = _PerState(lambda h: gt.human_transitions[h].tolist())

    # a step's draws: the task draw if it draws, the human draw if it draws, the observation draw;
    # a draw above its column's largest kept value may be rejected
    largest = [rejection_limit(num_ai) - 1] if task is None else []
    if uniform:
        lengths = sorted(set(map(len, bound)))
        largest.append(min(map(rejection_limit, lengths)) - 1)
    largest = np.array(largest + [(1 << 64) - 1], dtype=np.uint64)
    draws = len(largest)
    counter = SplitMix64(config.seed).counter
    zs, task_actions, human_actions, observations = [], [], [], []
    gt_failures = None if gt_state is None else []
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
                fill(z // block)
                row = rows[z]
            executed_z, trans, thresholds_z, base, bound_z = row
            a_task = tasks[i] if task is None else tasks_at[z]
            executed = executed_z[a_task]
            if uniform:
                b = bound_z[residues[len(bound_z)][i]]
            elif script:
                b = script[t % len(script)]
            else:
                b = humans_at[z][executed]
            if not off_odd and b not in bound_z:
                raise ValueError(
                    f"human policy {config.human_policy!r} left the admissible bound at t={t}; "
                    "use the off_odd policy to simulate non-compliant humans"
                )

            lo = base + (executed * nh + b) * no
            k = bisect_right(thresholds_z, us[i], lo, lo + no)
            if gt_state is not None:
                s, h = gt_state
                gt_failures.append(gt_failure[s][h])
                gt_state = gt_world[s][executed][b], gt_human[h][executed][b][gt_observation[s]]
            zs.append(z)
            task_actions.append(a_task)
            human_actions.append(b)
            observations.append(k - lo)
            z = trans[k]
            t += 1

    final_gt_failure = None
    if gt_state is not None:
        final_gt_failure = gt_failure[gt_state[0]][gt_state[1]]
    return RolloutTrace(spec=spec, z=zs, a_task=task_actions, b=human_actions, o=observations,
                        gt_failure=gt_failures, final_state=z, final_gt_failure=final_gt_failure,
                        executed=flt.executed, scores=flt.scores)


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
                path.append((z, a_task, b, int(spec.observation_probs[z, executed[z, a_task], b].argmax())))
            found.append(_counterexample(sol, executed, path[::-1], hit))


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
            path.append((int(z[live]), int(a[live]), int(row[live]) % nb, int(o[live])))
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
    num_ai, bound = spec.num_ai_actions, spec.action_bound
    # each state's transitions and observation thresholds as lists, [a][b][o]
    dynamics = _PerState(lambda z: (spec.transitions[z].tolist(), thresholds[z].tolist()))
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
                path.append((z, a_task, b, o))
                z = trans[a_exec][b][o]
                if unsafe[z]:
                    found.append(_counterexample(sol, executed, path, z))
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
            found.append(_counterexample(sol, executed, *failure))
            start = (start // per_state + 1) * per_state
            draws += len(failure[0])
        stream = SplitMix64(advance(counter, 3 * draws))
        if clean < count:  # a cut: back to the scalar calls
            size = run = 0
        else:
            size = min(4 * size, largest)


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
