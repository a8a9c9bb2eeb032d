"""Runtime safety filters built from a solved game.

A filter wraps three ingredients: a fallback policy the system can always
drop into, a monitor scoring how dangerous a proposed action is at the
current state, and an intervention rule that picks the executed action.
``perfect_filter`` assembles the canonical instance from a converged
solution: the fallback is the solution's maximin policy and the monitor
is its ``scores`` table (the same array), the solved action value against
the worst admissible human response.

Intervention rules (``FILTER_MODES``):

* ``none``: run the task action as proposed; the control arm.
* ``switch``: run the task action when its monitor score is strictly
  positive, otherwise run the fallback.  A score of exactly zero routes to
  the fallback, the cautious reading of the boundary.
* ``least_restrictive``: among actions with strictly positive score, run
  the one closest to the task action by index distance, ties to the
  lowest index; if none qualify, run the fallback.
* ``fallback_only``: always run the fallback.

The filter decides every (state, task action) pair once, when it is
built: ``scores`` and ``executed`` are read-only (Z, A) tables, and
``filter_action``, ``check_initial_condition`` and ``certified_actions``
read them.  A state is certified when some action scores >= 0 (then the
fallback, the argmax, does too); ``_certified`` is that rule, and
``verify_safety`` reads it as well.  ``filter_action`` reports each
decision as an ``InterventionRecord``, a named tuple whose six fields open
the step records that a rollout trace builds when its ``steps`` are read
(``harness.RolloutStep``); the trace itself keeps the two tables.
``pluggable_monitor`` is a standalone tool for comparing monitors: the
solved table ("critic") and a bounded rollout against the stored
worst-case human ("rollout"), which for deterministic games agrees in
sign with the critic once the horizon covers the solver's sweep count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotConvergedError
from .model import _int_index
from .solver import ValueSolution

SWITCH = "switch"
LEAST_RESTRICTIVE = "least_restrictive"
FALLBACK_ONLY = "fallback_only"
FILTER_MODES = ("none", SWITCH, LEAST_RESTRICTIVE, FALLBACK_ONLY)


class InterventionRecord(NamedTuple):
    """The filter's decision for one proposed task action at step ``t``.

    An immutable tuple: built positionally or by keyword, copied with
    ``_replace``.  ``harness.RolloutStep``, the record of one step read
    from a rollout trace, extends its fields.
    """

    t: int
    state: int
    task_action: int
    monitor_value: float
    intervened: bool
    executed_action: int

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "z": self.state,
            "task_a": self.task_action,
            "monitor": self.monitor_value,
            "intervened": self.intervened,
            "executed_a": self.executed_action,
        }


@dataclass(frozen=True, eq=False)
class SafetyFilter:
    """A solved game's decisions under one intervention rule.

    ``scores[z, a]`` is the monitor score of action ``a`` at ``z`` and
    ``executed[z, a]`` the action run when the task proposes ``a``.
    """

    solution: ValueSolution
    intervention: str
    scores: np.ndarray
    executed: np.ndarray


def _certified(scores: np.ndarray) -> np.ndarray:
    """Whether some action scores >= 0, per row of a score table or for one row."""
    return (scores >= 0.0).any(axis=-1)


def perfect_filter(sol: ValueSolution, intervention: str = SWITCH) -> SafetyFilter:
    """The filter whose monitor is exact: the solved worst-case action value."""
    if not sol.converged:
        raise NotConvergedError(
            f"perfect filter needs a converged solution (residual {sol.residual!r})"
        )
    if intervention not in FILTER_MODES:
        raise ValueError(f"unknown intervention mode {intervention!r}")
    scores = sol.scores
    fallback = sol.fallback_policy[:, None]
    actions = np.arange(sol.spec.num_ai_actions)
    passing = scores > 0.0

    if intervention == "none":
        executed = np.broadcast_to(actions, scores.shape)
    elif intervention == SWITCH:
        executed = np.where(passing, actions, fallback)
    elif intervention == FALLBACK_ONLY:
        executed = np.broadcast_to(fallback, scores.shape)
    else:
        # key[z, task, candidate]: index distance, or A for a failing candidate
        distance = np.abs(actions[:, None] - actions[None, :])
        key = np.where(passing[:, None, :], distance, actions.size)
        executed = np.where(passing.any(axis=1, keepdims=True), key.argmin(axis=2), fallback)

    executed = np.array(executed, dtype=np.int64)
    executed.setflags(write=False)
    return SafetyFilter(solution=sol, intervention=intervention, scores=scores, executed=executed)


def filter_action(
    flt: SafetyFilter, z: int, a_task: int, *, t: int = 0
) -> tuple[int, InterventionRecord]:
    """Executed action and its record for one proposed task action.

    ``intervened`` is true exactly when the executed action differs from
    the proposal, so re-filtering an already-executed action is a no-op.
    """
    spec = flt.solution.spec
    z = _int_index(z, spec.num_states, "info state")
    a_task = _int_index(a_task, spec.num_ai_actions, "ai action")
    executed = int(flt.executed[z, a_task])
    record = InterventionRecord(
        t=t,
        state=z,
        task_action=a_task,
        monitor_value=float(flt.scores[z, a_task]),
        intervened=executed != a_task,
        executed_action=executed,
    )
    return executed, record


def check_initial_condition(flt: SafetyFilter, z0: int) -> bool:
    """Whether ``z0`` is certified: some action, so the fallback, scores >= 0.

    The score is one more backup of the solved values, so on deterministic
    games this is exactly membership of ``z0`` in the solved safe set; on
    stochastic games the two may differ by up to the final residual.  It is
    the premise of the safety guarantee, which holds whatever the task
    policy proposes, as long as the human stays in bound.  On games with
    deterministic observations, the filtered system started here never
    reaches a failure state.  On games with stochastic observations, the
    claim is only that the fallback keeps the expected value of the next
    state nonnegative, E[V(next)] >= 0, against every admissible human
    action; a run may still reach failure.
    """
    z0 = _int_index(z0, flt.solution.spec.num_states, "info state")
    return bool(_certified(flt.scores[z0]))


def certified_actions(flt: SafetyFilter, z: int) -> tuple[int, ...]:
    """Actions whose monitor score is non-negative at ``z``."""
    z = _int_index(z, flt.solution.spec.num_states, "info state")
    return tuple(np.flatnonzero(flt.scores[z] >= 0.0).tolist())


def pluggable_monitor(
    sol: ValueSolution, mode: str = "critic", horizon: int | None = None
) -> Callable[[int, int], float]:
    """A monitor callable for ``sol``.

    ``critic`` reads the solved table: the value of the proposed action
    against the worst admissible response.  ``rollout`` simulates the
    proposed action followed by fallback play against the stored worst-case
    human for ``horizon`` steps and returns the smallest margin seen across
    all positive-probability observation branches.  Its table is built once
    per monitor, one array step per unit of horizon, so any horizon is
    cheap in memory and stack.
    """
    spec = sol.spec

    if mode == "critic":
        worst = sol.scores
    elif mode != "rollout":
        raise ValueError(f"unknown monitor mode {mode!r}")
    elif horizon is None or horizon < 1:
        raise ValueError(f"rollout monitor needs horizon >= 1, got {horizon}")
    else:
        worst = _rollout_table(sol, horizon)

    def monitor(z: int, a: int) -> float:
        z = _int_index(z, spec.num_states, "info state")
        a = _int_index(a, spec.num_ai_actions, "ai action")
        return float(worst[z, a])

    return monitor


def _rollout_table(sol: ValueSolution, horizon: int) -> np.ndarray:
    """(Z, A) smallest margin over ``horizon`` steps: the action, then the fallback.

    ``reach[z]`` after ``d`` steps is the smallest margin seen within ``d``
    steps of fallback play from ``z`` against the stored adversary, ``z``
    itself included, over every positive-probability observation branch.
    """
    spec = sol.spec
    margins = spec.margins
    rows = np.arange(spec.num_states)
    z, a, b = rows[:, None], np.arange(spec.num_ai_actions)[None, :], sol.adversary_policy
    nxt = spec.transitions[z, a, b]  # (Z, A, O)
    live = spec.observation_probs[z, a, b] > 0.0
    fb_next, fb_live = nxt[rows, sol.fallback_policy], live[rows, sol.fallback_policy]

    reach = margins
    for _ in range(horizon - 1):
        reach = np.minimum(margins, np.where(fb_live, reach[fb_next], np.inf).min(axis=1))
    return np.minimum(margins[:, None], np.where(live, reach[nxt], np.inf).min(axis=2))
