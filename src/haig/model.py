"""Finite two-player game model for human-AI safety analysis.

A game couples the AI's information-state dynamics with a scalar safety
margin and a per-state bound on which human actions are considered
admissible.  States, actions, and observations are referenced everywhere by
dense integer indices; the label lists on :class:`GameSpec` exist for
display and for name resolution at parse time only.

Conventions:

* ``transitions[z, a_ai, a_h, o]`` is the next information state after the
  AI plays action ``a_ai``, the human plays ``a_h``, and the AI receives
  observation ``o``.  The mapping is total: every human action in the
  declared action set has defined dynamics, including actions outside the
  admissible bound, so simulators can step non-compliant humans.
* ``margins[z]`` is the safety margin of state ``z``.  The failure set is
  exactly the states with a strictly negative margin.
* ``action_bound[z]`` lists the human actions treated as admissible at
  ``z``.  It is never empty.

A :class:`GroundTruthSystem` optionally pins the game to a privileged
world model: world states, a human internal state, their joint dynamics,
and a projection onto the AI's information states.  ``validate_model``
checks that projecting and stepping commute, and that the privileged
failure set lands inside the modeled one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import SplitMix64

OBS_ROW_TOLERANCE = 1e-12
COMMUTATION_EXHAUSTIVE_LIMIT = 10_000
COMMUTATION_SAMPLES = 10_000
COMMUTATION_SEED = 2024


def _int_index(value, size: int, name: str) -> int:
    try:
        i = int(value)
    except (TypeError, ValueError):
        raise IndexError(f"{name} index {value!r} is not an integer") from None
    if not 0 <= i < size:
        raise IndexError(f"{name} index {i} out of range [0, {size})")
    return i


def _readonly(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of one finite human-AI game."""

    num_states: int
    ai_actions: tuple[str, ...]
    human_actions: tuple[str, ...]
    observations: tuple[str, ...]
    transitions: np.ndarray        # int64 (Z, A, B, O) -> next state
    observation_probs: np.ndarray  # float64 (Z, A, B, O), rows sum to 1
    margins: np.ndarray            # float64 (Z,), negative exactly on failures
    action_bound: tuple[tuple[int, ...], ...]
    state_labels: tuple[str, ...] | None = None
    scenario: str | None = None
    annotations: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ai_actions", tuple(self.ai_actions))
        object.__setattr__(self, "human_actions", tuple(self.human_actions))
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(self, "transitions", _readonly(self.transitions, np.int64))
        object.__setattr__(self, "observation_probs", _readonly(self.observation_probs, np.float64))
        object.__setattr__(self, "margins", _readonly(self.margins, np.float64))
        object.__setattr__(
            self, "action_bound", tuple(tuple(int(b) for b in row) for row in self.action_bound)
        )
        if self.state_labels is not None:
            object.__setattr__(self, "state_labels", tuple(self.state_labels))
        if self.annotations is not None:
            object.__setattr__(
                self, "annotations", tuple(tuple(str(a) for a in row) for row in self.annotations)
            )

    @property
    def num_ai_actions(self) -> int:
        return len(self.ai_actions)

    @property
    def num_human_actions(self) -> int:
        return len(self.human_actions)

    @property
    def num_observations(self) -> int:
        return len(self.observations)

    @cached_property
    def bound_mask(self) -> np.ndarray:
        """Boolean (Z, B) mask of admissible human actions."""
        mask = np.zeros((self.num_states, self.num_human_actions), dtype=bool)
        for z, row in enumerate(self.action_bound):
            mask[z, list(row)] = True
        mask.setflags(write=False)
        return mask

    def is_deterministic(self) -> bool:
        """True when every observation row puts probability 1 on one outcome."""
        return bool(np.all(np.count_nonzero(self.observation_probs > 0.0, axis=3) == 1))

    def failure_states(self) -> tuple[int, ...]:
        return tuple(int(z) for z in np.flatnonzero(self.margins < 0.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GameSpec):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.ai_actions == other.ai_actions
            and self.human_actions == other.human_actions
            and self.observations == other.observations
            and np.array_equal(self.transitions, other.transitions)
            and np.array_equal(self.observation_probs, other.observation_probs)
            and np.array_equal(self.margins, other.margins)
            and self.action_bound == other.action_bound
            and self.state_labels == other.state_labels
            and self.scenario == other.scenario
            and self.annotations == other.annotations
        )


@dataclass(frozen=True, eq=False)
class GroundTruthSystem:
    """Privileged world model paired with a projection onto information states.

    ``ai_observation[s, a_ai, a_h]`` is the observation the AI receives when
    the true world performs that transition; it is what makes the commutation
    check concrete.  The projection is memoryless: it maps a (world state,
    human internal state) pair straight to an information state.
    """

    num_world_states: int
    num_human_states: int
    num_human_observations: int
    world_transitions: np.ndarray   # int64 (S, A, B) -> next world state
    human_transitions: np.ndarray   # int64 (ZH, A, B, OH) -> next human state
    human_observation: np.ndarray   # int64 (S,) -> human observation
    ai_observation: np.ndarray      # int64 (S, A, B) -> AI observation
    failure: np.ndarray             # bool (S, ZH), the privileged failure set
    projection: np.ndarray          # int64 (S, ZH) -> information state

    def __post_init__(self):
        object.__setattr__(self, "world_transitions", _readonly(self.world_transitions, np.int64))
        object.__setattr__(self, "human_transitions", _readonly(self.human_transitions, np.int64))
        object.__setattr__(self, "human_observation", _readonly(self.human_observation, np.int64))
        object.__setattr__(self, "ai_observation", _readonly(self.ai_observation, np.int64))
        object.__setattr__(self, "failure", _readonly(self.failure, bool))
        object.__setattr__(self, "projection", _readonly(self.projection, np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroundTruthSystem):
            return NotImplemented
        return (
            self.num_world_states == other.num_world_states
            and self.num_human_states == other.num_human_states
            and self.num_human_observations == other.num_human_observations
            and np.array_equal(self.world_transitions, other.world_transitions)
            and np.array_equal(self.human_transitions, other.human_transitions)
            and np.array_equal(self.human_observation, other.human_observation)
            and np.array_equal(self.ai_observation, other.ai_observation)
            and np.array_equal(self.failure, other.failure)
            and np.array_equal(self.projection, other.projection)
        )


@dataclass(frozen=True)
class ValidationItem:
    severity: str  # "error" | "warning"
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    items: tuple[ValidationItem, ...]

    @property
    def errors(self) -> tuple[ValidationItem, ...]:
        return tuple(i for i in self.items if i.severity == "error")

    @property
    def warnings(self) -> tuple[ValidationItem, ...]:
        return tuple(i for i in self.items if i.severity == "warning")

    @property
    def ok(self) -> bool:
        return not self.errors


def step_info_state(spec: GameSpec, z: int, a_ai: int, a_h: int, o: int) -> int:
    """Next information state after one joint step.

    Raises IndexError naming the offending argument when any index is out
    of range.  Human actions outside the admissible bound are accepted on
    purpose; only actions outside the declared action set are rejected.
    """
    z = _int_index(z, spec.num_states, "info state")
    a_ai = _int_index(a_ai, spec.num_ai_actions, "ai action")
    a_h = _int_index(a_h, spec.num_human_actions, "human action")
    o = _int_index(o, spec.num_observations, "observation")
    return int(spec.transitions[z, a_ai, a_h, o])


def margin(spec: GameSpec, z: int) -> float:
    """Safety margin of ``z``. Negative exactly on the failure set."""
    z = _int_index(z, spec.num_states, "info state")
    return float(spec.margins[z])


def allowed_human_actions(spec: GameSpec, z: int) -> tuple[int, ...]:
    """Admissible human actions at ``z``, sorted by index. Never empty."""
    z = _int_index(z, spec.num_states, "info state")
    return spec.action_bound[z]


def validate_model(spec: GameSpec, ground_truth: GroundTruthSystem | None = None) -> ValidationReport:
    """Structural and consistency checks over a game and optional ground truth.

    Structural problems (shapes, ranges, distribution rows, empty bounds)
    are errors.  A privileged failure pair that projects to a state with a
    non-negative margin is reported as a warning: the modeled failure set
    is then an unsound abstraction of the true one, which is a modeling
    smell rather than a malformed document.

    Commutation between ground truth and model dynamics is checked on every
    (world state, human state, ai action, human action) tuple when their
    product is at most ``COMMUTATION_EXHAUSTIVE_LIMIT``, otherwise on
    ``COMMUTATION_SAMPLES`` random tuples drawn with ``COMMUTATION_SEED``.
    """
    items: list[ValidationItem] = []

    def err(code, message):
        items.append(ValidationItem("error", code, message))

    def warn(code, message):
        items.append(ValidationItem("warning", code, message))

    nz, na, nb, no = spec.num_states, spec.num_ai_actions, spec.num_human_actions, spec.num_observations
    if nz <= 0:
        err("shape", f"game must have at least one state, has {nz}")
        return ValidationReport(tuple(items))
    if na == 0 or nb == 0 or no == 0:
        err("shape", "action and observation sets must be non-empty")
        return ValidationReport(tuple(items))

    expected = (nz, na, nb, no)
    if spec.transitions.shape != expected:
        err("shape", f"transitions shape {spec.transitions.shape} != {expected}")
    if spec.observation_probs.shape != expected:
        err("shape", f"observation_probs shape {spec.observation_probs.shape} != {expected}")
    if spec.margins.shape != (nz,):
        err("shape", f"margins shape {spec.margins.shape} != {(nz,)}")
    if len(spec.action_bound) != nz:
        err("shape", f"action_bound has {len(spec.action_bound)} rows, expected {nz}")
    if items:
        return ValidationReport(tuple(items))

    if spec.transitions.min() < 0 or spec.transitions.max() >= nz:
        bad = np.argwhere((spec.transitions < 0) | (spec.transitions >= nz))[0]
        err("range", f"transition target out of range at (z={bad[0]}, a_ai={bad[1]}, a_h={bad[2]}, o={bad[3]})")
    if not np.all(np.isfinite(spec.margins)):
        err("margin", "margins must be finite")
    if np.any(spec.observation_probs < 0.0) or not np.all(np.isfinite(spec.observation_probs)):
        bad = np.argwhere((spec.observation_probs < 0.0) | ~np.isfinite(spec.observation_probs))[0]
        err("distribution", f"negative or non-finite probability at (z={bad[0]}, a_ai={bad[1]}, a_h={bad[2]}, o={bad[3]})")
    else:
        sums = spec.observation_probs.sum(axis=3)
        off = np.abs(sums - 1.0)
        if off.max() > OBS_ROW_TOLERANCE:
            bad = np.unravel_index(np.argmax(off), off.shape)
            err(
                "distribution",
                f"observation row (z={bad[0]}, a_ai={bad[1]}, a_h={bad[2]}) sums to {float(sums[bad])!r}",
            )

    for z, row in enumerate(spec.action_bound):
        if not row:
            err("bound", f"action bound at state {z} is empty")
        elif any(not 0 <= b < nb for b in row):
            err("bound", f"action bound at state {z} references an unknown human action")
        elif tuple(sorted(set(row))) != row:
            err("bound", f"action bound at state {z} must be sorted and duplicate-free")

    if spec.state_labels is not None and len(spec.state_labels) != nz:
        err("labels", f"{len(spec.state_labels)} state labels for {nz} states")
    if spec.annotations is not None and len(spec.annotations) != nz:
        err("labels", f"{len(spec.annotations)} annotation rows for {nz} states")

    if ground_truth is not None and not items:
        _validate_ground_truth(spec, ground_truth, items, err, warn)

    return ValidationReport(tuple(items))


def _validate_ground_truth(spec, gt, items, err, warn):
    ns, nh, noh = gt.num_world_states, gt.num_human_states, gt.num_human_observations
    na, nb = spec.num_ai_actions, spec.num_human_actions

    shapes = [
        (gt.world_transitions, (ns, na, nb), "world_transitions"),
        (gt.human_transitions, (nh, na, nb, noh), "human_transitions"),
        (gt.human_observation, (ns,), "human_observation"),
        (gt.ai_observation, (ns, na, nb), "ai_observation"),
        (gt.failure, (ns, nh), "failure"),
        (gt.projection, (ns, nh), "projection"),
    ]
    for arr, want, name in shapes:
        if arr.shape != want:
            err("shape", f"ground truth {name} shape {arr.shape} != {want}")
    if any(i.severity == "error" for i in items):
        return

    ranges = [
        (gt.world_transitions, ns, "world_transitions"),
        (gt.human_transitions, nh, "human_transitions"),
        (gt.human_observation, noh, "human_observation"),
        (gt.ai_observation, spec.num_observations, "ai_observation"),
        (gt.projection, spec.num_states, "projection"),
    ]
    for arr, size, name in ranges:
        if arr.size and (arr.min() < 0 or arr.max() >= size):
            err("range", f"ground truth {name} has an entry out of range [0, {size})")
    if any(i.severity == "error" for i in items):
        return

    total = ns * nh * na * nb
    if total <= COMMUTATION_EXHAUSTIVE_LIMIT:
        tuples = (
            (s, h, a, b)
            for s in range(ns) for h in range(nh) for a in range(na) for b in range(nb)
        )
    else:
        stream = SplitMix64(COMMUTATION_SEED)
        tuples = (
            (stream.randint(ns), stream.randint(nh), stream.randint(na), stream.randint(nb))
            for _ in range(COMMUTATION_SAMPLES)
        )

    for s, h, a, b in tuples:
        z = int(gt.projection[s, h])
        o = int(gt.ai_observation[s, a, b])
        if spec.observation_probs[z, a, b, o] <= 0.0:
            err(
                "induced-observation",
                f"ground truth induces observation {o} at (s={s}, zh={h}, a_ai={a}, a_h={b}) "
                f"but the model gives it probability 0 at z={z}",
            )
            continue
        s2 = int(gt.world_transitions[s, a, b])
        h2 = int(gt.human_transitions[h, a, b, int(gt.human_observation[s])])
        projected = int(gt.projection[s2, h2])
        modeled = int(spec.transitions[z, a, b, o])
        if projected != modeled:
            err(
                "commutation",
                f"projection does not commute at (s={s}, zh={h}, a_ai={a}, a_h={b}): "
                f"ground truth steps to state {projected}, model steps to {modeled}",
            )

    for s in range(ns):
        for h in range(nh):
            if gt.failure[s, h] and spec.margins[int(gt.projection[s, h])] >= 0.0:
                warn(
                    "privileged-failure-unsound",
                    f"privileged failure (s={s}, zh={h}) projects to state "
                    f"{int(gt.projection[s, h])} with non-negative margin",
                )
