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

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

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


def _fields_equal(self, other) -> bool:
    """Field-wise ``__eq__`` for the frozen records: arrays compare by value."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        mine, theirs = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs):
            return False
    return True


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
        lengths = list(map(len, self.action_bound))
        mask = np.zeros((self.num_states, self.num_human_actions), dtype=bool)
        mask[np.repeat(np.arange(len(lengths)), lengths), list(chain.from_iterable(self.action_bound))] = True
        mask.setflags(write=False)
        return mask

    def is_deterministic(self) -> bool:
        """True when every observation row puts probability 1 on one outcome."""
        return bool(np.all(np.count_nonzero(self.observation_probs > 0.0, axis=3) == 1))

    def failure_states(self) -> tuple[int, ...]:
        return tuple(int(z) for z in np.flatnonzero(self.margins < 0.0))

    __eq__ = _fields_equal


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

    __eq__ = _fields_equal


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
    probs = spec.observation_probs
    if not (probs.min() >= 0.0 and np.isfinite(probs.max())):  # a NaN fails the first test
        bad = np.argwhere((probs < 0.0) | ~np.isfinite(probs))[0]
        err("distribution", f"negative or non-finite probability at (z={bad[0]}, a_ai={bad[1]}, a_h={bad[2]}, o={bad[3]})")
    else:
        off = probs.sum(axis=3)
        off -= 1.0
        np.abs(off, out=off)
        if off.max() > OBS_ROW_TOLERANCE:
            bad = np.unravel_index(np.argmax(off), off.shape)
            err(
                "distribution",
                f"observation row (z={bad[0]}, a_ai={bad[1]}, a_h={bad[2]}) sums to {float(probs[bad].sum())!r}",
            )

    for z, row in enumerate(spec.action_bound):
        if not row:
            err("bound", f"action bound at state {z} must be non-empty")
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

    # the checked (world state, human state, ai action, human action) tuples, one column each
    if ns * nh * na * nb <= COMMUTATION_EXHAUSTIVE_LIMIT:
        s, h, a, b = np.indices((ns, nh, na, nb)).reshape(4, -1)
    else:
        stream = SplitMix64(COMMUTATION_SEED)
        s, h, a, b = np.array([
            (stream.randint(ns), stream.randint(nh), stream.randint(na), stream.randint(nb))
            for _ in range(COMMUTATION_SAMPLES)
        ], dtype=np.int64).reshape(-1, 4).T

    z = gt.projection[s, h]
    o = gt.ai_observation[s, a, b]
    unseen = spec.observation_probs[z, a, b, o] <= 0.0
    projected = gt.projection[gt.world_transitions[s, a, b], gt.human_transitions[h, a, b, gt.human_observation[s]]]
    modeled = spec.transitions[z, a, b, o]
    failing = np.stack([s, h, a, b, z, o, projected, modeled, unseen], axis=1)[unseen | (projected != modeled)]
    for s, h, a, b, z, o, projected, modeled, unseen in failing.tolist():
        if unseen:
            err(
                "induced-observation",
                f"ground truth induces observation {o} at (s={s}, zh={h}, a_ai={a}, a_h={b}) "
                f"but the model gives it probability 0 at z={z}",
            )
        else:
            err(
                "commutation",
                f"projection does not commute at (s={s}, zh={h}, a_ai={a}, a_h={b}): "
                f"ground truth steps to state {projected}, model steps to {modeled}",
            )

    for s, h in np.argwhere(gt.failure & (spec.margins[gt.projection] >= 0.0)).tolist():
        warn(
            "privileged-failure-unsound",
            f"privileged failure (s={s}, zh={h}) projects to state "
            f"{gt.projection[s, h]} with non-negative margin",
        )
