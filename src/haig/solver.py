"""Exact solver for the zero-sum safety game on finite information states.

The quantity computed here is the worst-case minimum margin the AI can
guarantee over an unbounded interaction, assuming the human stays inside
the per-state admissible action bound and gets to see the AI's committed
action before responding.  Starting from the margins themselves, each
sweep applies the backup

    value'(z) = max over a_ai of
                min over admissible a_h of
                min( margin(z),  E over o of value(next(z, a_ai, a_h, o)) )

with the expectation taken inside the inner min.  Sweeps read only the
previous iterate, so per-state updates are order-independent and the run
is reproducible bit for bit.  The iteration is monotone non-increasing
per state, which is asserted on every sweep.

For games with deterministic observations the fixed point is reached
exactly (values are mins and maxes over the original margins), and in at
most one sweep per state, so convergence is detected by strict equality.
With genuinely stochastic observations the iteration stops once the
max-norm residual drops to ``epsilon``; if the sweep budget runs out the
solution is returned with ``converged=False`` and the final residual.

Sweep layout.  ``value_iteration`` reorders the successor and probability
tensors once into C-contiguous (B, A, Z, O) arrays (``_sweep_layout``), so
a sweep is one gather, one product, a sum over the last axis and two
elementwise reductions over whole (A, Z) and (Z,) slices.  Each
inadmissible human column holds a copy of the state's last admissible
column, so the min over human actions needs no mask: a duplicate of an
admissible entry cannot change a min, and numpy's ``minimum`` keeps its
second operand on ties, so copies placed after the last admissible entry
also keep the sign of a zero result as the masked reduction did.  (That
holds for up to eight actions a side: numpy reduces a longer contiguous
axis in SIMD lanes, whose order on ties between -0.0 and +0.0 depends on
the machine.  Such ties need a margin of -0.0.)  O stays the last axis and
is summed with ``.sum(axis=-1)``, the same reduction as the (Z, A, B, O)
Q table: an accumulation in any other order differs in the last bit once
numpy sums eight or more terms pairwise.

For deterministic games the adversary breaks ties between equally bad
responses by how soon they realize the bad outcome.  ``_attainment_steps``
finds those step counts with one breadth-first search backwards from the
states whose margin equals their value.

``brute_force_values`` is an intentionally separate implementation, a
direct recursion over the game tree used as an oracle in tests and by
``compare_oracle``.  It shares no code with the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .model import GameSpec, _int_index

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_SWEEPS_STOCHASTIC = 100_000
_UNREACHED = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class ValueSolution:
    """Converged (or best-effort) solution of one safety game.

    Attributes:
        values: per-state guaranteed worst-case minimum margin.
        q_values: (Z, A, B) table min(margin(z), E[value(next)]), defined for
            every human action including inadmissible ones.
        safe_set: states whose value is >= 0.
        fallback_policy: per-state maximin AI action.
        adversary_policy: (Z, A) worst-case human response to each AI action,
            restricted to the admissible bound.
        iterations: sweeps performed, counting the final no-change sweep.
        residual: max-norm change of the last sweep.
        sweeps: per-sweep value arrays when requested, else None.
    """

    spec: GameSpec
    values: np.ndarray
    q_values: np.ndarray
    safe_set: frozenset[int]
    fallback_policy: np.ndarray
    adversary_policy: np.ndarray
    iterations: int
    converged: bool
    epsilon: float
    residual: float
    sweeps: tuple[np.ndarray, ...] | None = None


def value_iteration(
    spec: GameSpec,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_iters: int | None = None,
    record_sweeps: bool = False,
) -> ValueSolution:
    """Solve the game by synchronous sweeps of the safety backup.

    Args:
        spec: a structurally valid game.
        epsilon: residual threshold for stochastic-observation games.
        max_iters: sweep budget. Defaults to ``num_states + 1`` for
            deterministic games (enough by construction) and 100000 otherwise.
        record_sweeps: keep every intermediate value array on the solution.

    Ties in every argmax/argmin are broken toward the lowest action index.
    For deterministic games the stored adversary policy additionally
    prefers, among equally bad responses, the one that realizes the bad
    outcome soonest; see ``_attainment_steps``.
    """
    ell = spec.margins.astype(np.float64, copy=True)
    trans = spec.transitions
    probs = spec.observation_probs
    deterministic = spec.is_deterministic()
    if max_iters is None:
        max_iters = spec.num_states + 1 if deterministic else DEFAULT_MAX_SWEEPS_STOCHASTIC

    succ, weight = _sweep_layout(spec)
    values = ell.copy()
    history = [values.copy()] if record_sweeps else None
    iterations = 0
    converged = False
    residual = np.inf

    while iterations < max_iters:
        new_values = _sweep(ell, succ, weight, values)
        if not np.all(new_values <= values):
            raise RuntimeError("value sweep increased a state value; backup is corrupt")
        residual = float(np.max(values - new_values))
        values = new_values
        iterations += 1
        if history is not None:
            history.append(values.copy())
        done = (residual == 0.0) if deterministic else (residual <= epsilon)
        if done:
            converged = True
            break

    q_values = _q_table(ell, trans, probs, values)
    inner = np.where(spec.bound_mask[:, None, :], q_values, np.inf).min(axis=2)
    fallback = inner.argmax(axis=1).astype(np.int64)
    adversary = _adversary_table(spec, ell, values, q_values, fallback, deterministic)
    safe = frozenset(int(z) for z in np.flatnonzero(values >= 0.0))

    values.setflags(write=False)
    q_values.setflags(write=False)
    fallback.setflags(write=False)
    adversary.setflags(write=False)
    return ValueSolution(
        spec=spec,
        values=values,
        q_values=q_values,
        safe_set=safe,
        fallback_policy=fallback,
        adversary_policy=adversary,
        iterations=iterations,
        converged=converged,
        epsilon=epsilon,
        residual=residual,
        sweeps=tuple(history) if history is not None else None,
    )


def _q_table(ell, trans, probs, values) -> np.ndarray:
    expected = (probs * values[trans]).sum(axis=3)
    return np.minimum(ell[:, None, None], expected)


def _sweep_layout(spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Successors and observation weights as C-contiguous (B, A, Z, O) arrays.

    Column (b, :, z) of an inadmissible human action b is a copy of column
    (b_last, :, z), where b_last is the last admissible action at z; see the
    module docstring for why the last one.
    """
    mask = spec.bound_mask
    nz, nb = mask.shape
    last = nb - 1 - mask[:, ::-1].argmax(axis=1)
    cols = np.where(mask, np.arange(nb), last[:, None])  # (Z, B)
    rows = np.arange(nz)[:, None]
    # Indexing axes 0 and 2 puts their broadcast (Z, B) shape first: (Z, B, A, O).
    succ = spec.transitions[rows, :, cols].transpose(1, 2, 0, 3)
    weight = spec.observation_probs[rows, :, cols].transpose(1, 2, 0, 3)
    return np.ascontiguousarray(succ), np.ascontiguousarray(weight)


def _sweep(ell, succ, weight, values) -> np.ndarray:
    q = (weight * values[succ]).sum(axis=-1)  # (B, A, Z)
    np.minimum(ell, q, out=q)
    return np.maximum.reduce(np.minimum.reduce(q, axis=0), axis=0)


def _attainment_steps(spec: GameSpec, ell, values, q_values, fallback, det_succ) -> np.ndarray:
    """Steps the adversary needs to turn each state's value into a real margin.

    Zero at states whose margin already equals their value; elsewhere one
    more than the least count among the worst-case responses to the
    fallback action, found by one breadth-first search backwards along
    those responses.  Finite everywhere for converged deterministic games.
    """
    nz = spec.num_states
    rows = np.arange(nz)
    worst = spec.bound_mask & (q_values[rows, fallback] == values[:, None])  # (Z, B)
    seeds = ell == values
    worst[seeds] = False
    src, col = np.nonzero(worst)
    dst = det_succ[src, fallback[src], col]
    order = np.argsort(dst, kind="stable")
    preds = src[order].tolist()
    starts = np.searchsorted(dst[order], np.arange(nz + 1)).tolist()

    steps = [0 if seed else _UNREACHED for seed in seeds.tolist()]
    frontier = np.flatnonzero(seeds).tolist()
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for s in frontier:
            for z in preds[starts[s]:starts[s + 1]]:
                if steps[z] == _UNREACHED:
                    steps[z] = depth
                    reached.append(z)
        frontier = reached
    return np.array(steps, dtype=np.int64)


def _adversary_table(spec, ell, values, q_values, fallback, deterministic) -> np.ndarray:
    mask = spec.bound_mask[:, None, :]  # (Z, 1, B)
    masked = np.where(mask, q_values, np.inf)
    if not deterministic:
        return masked.argmin(axis=2).astype(np.int64)

    # Lowest (q, tail, b) among admissible responses, in that order.
    det_obs = spec.observation_probs.argmax(axis=3)[..., None]
    det_succ = np.take_along_axis(spec.transitions, det_obs, axis=3)[..., 0]  # (Z, A, B)
    steps = _attainment_steps(spec, ell, values, q_values, fallback, det_succ)
    tail = np.where(ell[:, None, None] <= values[det_succ], 0, steps[det_succ])
    best = mask & (q_values == masked.min(axis=2, keepdims=True))
    tail = np.where(best, tail, _UNREACHED)
    best &= tail == tail.min(axis=2, keepdims=True)
    return best.argmax(axis=2).astype(np.int64)


def q_value(sol: ValueSolution, z: int, a_ai: int, a_h: int) -> float:
    """One entry of the converged action-value table.

    Defined for every human action, admissible or not, so callers can ask
    what an out-of-bound action would cost.
    """
    spec = sol.spec
    z = _int_index(z, spec.num_states, "info state")
    a_ai = _int_index(a_ai, spec.num_ai_actions, "ai action")
    a_h = _int_index(a_h, spec.num_human_actions, "human action")
    return float(sol.q_values[z, a_ai, a_h])


def extract_policies(sol: ValueSolution) -> tuple[np.ndarray, np.ndarray]:
    """The maximin pair: (fallback AI policy, worst-case human response)."""
    return sol.fallback_policy, sol.adversary_policy


def brute_force_value(
    spec: GameSpec,
    z: int,
    horizon: int,
    *,
    node_budget: int = 10_000_000,
) -> float:
    """Depth-limited game value of one state by direct recursion over the game tree.

    value(z, 0) is the margin at ``z``; deeper values apply the same
    max/min/min backup as the solver, one node at a time in plain Python.
    Results cache on (state, depth), which changes nothing arithmetically.
    Zero-probability observation branches are skipped.

    Raises BudgetExceededError once more than ``node_budget`` nodes have
    been evaluated.
    """
    z = _int_index(z, spec.num_states, "info state")
    return _game_tree(spec, horizon, node_budget)(z)


def brute_force_values(
    spec: GameSpec,
    horizon: int,
    *,
    node_budget: int = 10_000_000,
) -> list[float]:
    """``brute_force_value`` of every state, all roots sharing one memo.

    The memo is keyed on (state, depth) alone, so a subtree evaluated for
    one root is reused by the next.  The budget applies per root and counts
    only the nodes that root evaluates first, so a root that fits its
    budget in ``brute_force_value`` fits it here too.
    """
    root_value = _game_tree(spec, horizon, node_budget)
    return [root_value(z) for z in range(spec.num_states)]


def _game_tree(spec: GameSpec, horizon: int, node_budget: int):
    """Memoized recursion to ``horizon``, as a function of the root state."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")

    ell = [float(m) for m in spec.margins]
    trans = spec.transitions.tolist()
    probs = spec.observation_probs.tolist()
    bound = spec.action_bound
    n_ai = spec.num_ai_actions
    n_obs = spec.num_observations

    memo: dict[tuple[int, int], float] = {}
    nodes = 0

    def value(state: int, depth: int) -> float:
        nonlocal nodes
        key = (state, depth)
        hit = memo.get(key)
        if hit is not None:
            return hit
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"brute force exceeded its node budget of {node_budget}"
            )
        if depth == 0:
            result = ell[state]
        else:
            here = ell[state]
            best = None
            for a in range(n_ai):
                worst = None
                for b in bound[state]:
                    expected = 0.0
                    row = probs[state][a][b]
                    nxt = trans[state][a][b]
                    for o in range(n_obs):
                        p = row[o]
                        if p > 0.0:
                            expected += p * value(nxt[o], depth - 1)
                    outcome = here if here <= expected else expected
                    if worst is None or outcome < worst:
                        worst = outcome
                if best is None or worst > best:
                    best = worst
            result = best
        memo[key] = result
        return result

    def root_value(z: int) -> float:
        nonlocal nodes
        nodes = 0
        return value(z, horizon)

    return root_value


def solution_payload(sol: ValueSolution) -> dict:
    """JSON-ready dict with the solved tables and run metadata."""
    return {
        "V": sol.values.tolist(),
        "Q": sol.q_values.tolist(),
        "safe_set": sorted(sol.safe_set),
        "pi_shield": sol.fallback_policy.tolist(),
        "pi_dagger": sol.adversary_policy.tolist(),
        "iterations": sol.iterations,
        "epsilon": sol.epsilon,
        "converged": sol.converged,
        "residual": sol.residual,
    }
