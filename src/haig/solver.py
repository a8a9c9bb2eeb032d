"""Exact solver for the zero-sum safety game on finite information states.

The quantity computed here is the worst-case minimum margin the AI can
guarantee over an unbounded interaction, assuming the human stays inside
the per-state admissible action bound and gets to see the AI's committed
action before responding.  It is the fixed point of the backup

    value'(z) = max over a_ai of
                min over admissible a_h of
                min( margin(z),  E over o of value(next(z, a_ai, a_h, o)) )

with the expectation taken inside the inner min, iterated from the
margins.  Two routes compute it, chosen by a fixed rule on the game:

* The threshold attractor, for strictly deterministic games: every
  positive observation probability is exactly 1.0 and no margin is -0.0.
  There every value is one of the margins, and V(z) >= c exactly when the
  AI can keep the play in {margin >= c} forever, the classical safety
  game (Zielonka 1998; Graedel, Thomas and Wilke, LNCS 2500, ch. 2).
  ``_threshold_attractor`` grows the human's attractor of {margin < c}
  as c rises through the distinct margins, in O(Z*A*B + Z log Z) where
  the sweeps take up to one O(Z*A*B) pass per state.  ``converged`` and
  ``residual`` (0.0) are those of the sweep, and so is ``iterations``:
  ``_sweep_count``, a rank pass over the values, gives the exact number
  of sweeps the sweep route would take when it is first read.
* Synchronous sweeps of the backup, for everything else: stochastic
  games, one-hot rows whose 1.0 is only approximate (such as 1 - 4e-13,
  which validation accepts, and where the values are not margins), -0.0
  margins (the sign of a zero value depends on the order of reduction),
  ``record_sweeps=True``, and a ``max_iters`` below the sweep's count
  (only a ``max_iters`` of at most ``num_states`` can be, so only such a
  budget has the count computed during the solve).  The sweep is also
  the reference the attractor is tested against.

Sweeps read only the previous iterate, so per-state updates are
order-independent and the run is reproducible bit for bit.  The iteration
is monotone non-increasing per state, which is asserted on every sweep.
On deterministic games the fixed point is reached exactly, in at most one
sweep per state, so convergence is detected by strict equality.  With
genuinely stochastic observations the iteration stops once the max-norm
residual drops to ``epsilon``; if the sweep budget runs out the solution is
returned with ``converged=False`` and the final residual.

Sweep layout.  ``_sweep_layout`` gathers the successor and probability
tensors once, straight from the spec, into C-contiguous (O, B, A, Z)
arrays.  A sweep is then a gather of the values and a product, a reduce
over the leading O axis, a min with the margins and reduces over B and A,
each written into a buffer allocated once.  On small games a sweep costs
about what these few numpy calls cost, whatever their arithmetic.  The O
reduce adds the observation terms left to right to +0.0, at every
observation count, and the Q table sums an observation-first copy with
the same call, so both give the same bits as the oracle.  Each
inadmissible human column holds a copy of the state's last admissible
column, so the min over human actions needs no mask: a duplicate of an
admissible entry cannot change a min, and numpy's ``minimum`` keeps its
second operand on ties, so copies placed after the last admissible entry
also keep the sign of a zero result as the masked reduction did.  (That
holds for up to eight actions a side: numpy reduces a longer contiguous
axis in SIMD lanes, whose order on ties between -0.0 and +0.0 depends on
the machine.  Such ties need a margin of -0.0.)

Residual per block.  ``_sweeps`` writes the iterates of up to 32 sweeps
into the rows of one buffer and checks them after the block: one
difference of neighbouring rows shows whether a sweep raised a value and
which sweep first meets the stop rule.  The sweeps after that one are
discarded, so values, count and residual are those of a check after every
sweep.  Above 2048 states the block shrinks to 2**16 // Z sweeps, at
least one, so its buffer adds at most about 512 KB.

Both routes end in the same tables.  The (Z, A) ``scores``, the worst
admissible Q of each action, are computed once here: the fallback is
their argmax, the adversary's responses attain them, and every filter
built from the solution uses them as its monitor.  The adversary table
is computed from them on first read, as the attractor's ``iterations``
is, so verify and a rollout that does not play the worst-case human pay
for neither.  For deterministic games the adversary breaks ties between
equally bad responses by how soon they realize the bad outcome.
``_attainment_steps`` finds those step counts with one breadth-first
search backwards from the states whose margin equals their value.

One step table.  The loop between AI and human is one relation: the
state each admissible (state, AI action, human action) step reaches under
each observation of positive probability, its support graph.  ``_steps``
lists those steps as columns (z, a, b, o, z2) under a (Z, A') table of
executed actions, and ``_grouped`` turns any two of its columns into
per-key lists.  On deterministic games each step has its one observation.
The attractor reads them there under every AI action, the attainment
search under the fallback alone, and exhaustive verify reads them under a
filter's table on any game.

``brute_force_values`` is an intentionally separate implementation, a
walk of the game tree used as an oracle in tests and by
``compare_oracle``.  It evaluates the (state, depth) nodes one depth layer
at a time, bottom up, node by node in plain Python, so its horizon is
bounded by its node budget alone.  It shares no code with either route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BudgetExceededError, SchemaError
from .model import GameSpec, _at_least, _int_index

DEFAULT_EPSILON = 1e-9
DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_MAX_SWEEPS_STOCHASTIC = 100_000
_UNREACHED = int(np.iinfo(np.int64).max)
_BLOCK_SWEEPS = 32  # most sweeps between two residual checks
_BLOCK_VALUES = 1 << 16  # most values a block writes, unless one sweep writes more


@dataclass(frozen=True, eq=False)
class ValueSolution:
    """Converged (or best-effort) solution of one safety game.

    Attributes:
        values: per-state guaranteed worst-case minimum margin.
        q_values: (Z, A, B) table min(margin(z), E[value(next)]), defined for
            every human action including inadmissible ones.
        scores: (Z, A) value of each AI action against the worst admissible
            human response, the minimum of ``q_values`` over the bound.  It
            is the monitor table of every filter built from this solution,
            and a state is certified when some action scores >= 0.
        safe_set: states whose value is >= 0.
        fallback_policy: per-state maximin AI action, the argmax of ``scores``.
        adversary_policy: (Z, A) worst-case human response to each AI action:
            an admissible action whose Q value equals the score, the lowest
            one (on deterministic games the soonest to realize it first).
            Computed from the tables above on first read, then kept.
        iterations: sweeps the sweep route takes, counting the final
            no-change sweep.  On the attractor route this is the exact
            count the sweep would take, found by ``_sweep_count`` from the
            values on first read (or during the solve, when a ``max_iters``
            of at most ``num_states`` needs it to pick the route), then kept.
        residual: max-norm change of the last sweep (0.0 when a
            deterministic game converged).
        sweeps: per-sweep value arrays when requested, else None.
    """

    spec: GameSpec
    values: np.ndarray
    q_values: np.ndarray
    scores: np.ndarray
    safe_set: frozenset[int]
    fallback_policy: np.ndarray
    converged: bool
    epsilon: float
    residual: float
    sweeps: tuple[np.ndarray, ...] | None = None
    _iterations: int | None = field(default=None, repr=False)  # None: the attractor's count, not yet computed

    @cached_property
    def iterations(self) -> int:
        if self._iterations is not None:
            return self._iterations
        return _sweep_count(self.spec, self.values)

    @cached_property
    def adversary_policy(self) -> np.ndarray:
        table = _adversary_table(self.spec, self.values, self.q_values, self.scores, self.fallback_policy)
        table.setflags(write=False)
        return table


def value_iteration(
    spec: GameSpec,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_iters: int | None = None,
    record_sweeps: bool = False,
) -> ValueSolution:
    """Solve the game: threshold attractor where exact, sweeps of the backup otherwise.

    The module docstring gives the rule that picks the route; both return
    the same bits wherever the attractor applies.

    Args:
        spec: a structurally valid game.
        epsilon: residual threshold for stochastic-observation games.
        max_iters: sweep budget. Defaults to ``num_states + 1`` for
            deterministic games (enough by construction) and 100000 otherwise.
            A budget below the exact count is run as sweeps and stops there.
        record_sweeps: keep every intermediate value array on the solution
            (always sweeps).

    Ties in every argmax/argmin are broken toward the lowest action index.
    For deterministic games the stored adversary policy additionally
    prefers, among equally bad responses, the one that realizes the bad
    outcome soonest; see ``_attainment_steps``.

    Raises ValueError, before any sweep, if ``epsilon`` is NaN, infinite or
    negative or ``max_iters`` is negative, and TypeError if ``max_iters``
    is not an integer.  Raises SchemaError, naming the
    first such state, if a margin is not finite; ``validate_model`` refuses
    such a game too.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if max_iters is not None:
        max_iters = _at_least(max_iters, 0, "max_iters")
    ell = spec.margins.astype(np.float64, copy=True)
    nonfinite = np.flatnonzero(~np.isfinite(ell))
    if nonfinite.size:
        z = int(nonfinite[0])
        raise SchemaError(f"margins must be finite: state {z} has margin {float(ell[z])!r}")
    trans = spec.transitions
    probs = spec.observation_probs
    deterministic = spec.is_deterministic()
    if max_iters is None:
        max_iters = spec.num_states + 1 if deterministic else DEFAULT_MAX_SWEEPS_STOCHASTIC

    values = iterations = None
    if deterministic and not record_sweeps and _strictly_deterministic(spec, ell):
        values = _threshold_attractor(spec, ell)
        if max_iters <= spec.num_states:  # the count is at most num_states, so only such a budget can cut it
            iterations = _sweep_count(spec, values)
            if iterations > max_iters:
                values = iterations = None
    if values is not None:
        converged, residual, history = True, 0.0, None
    else:
        values, iterations, converged, residual, history = _sweeps(
            spec, ell, deterministic, epsilon, max_iters, record_sweeps
        )

    q_values = _q_table(ell, trans, probs, values)
    scores = np.where(spec.bound_mask[:, None, :], q_values, np.inf).min(axis=2)
    fallback = scores.argmax(axis=1).astype(np.int64)
    safe = frozenset(int(z) for z in np.flatnonzero(values >= 0.0))

    for table in (values, q_values, scores, fallback):
        table.setflags(write=False)
    return ValueSolution(
        spec=spec,
        values=values,
        q_values=q_values,
        scores=scores,
        safe_set=safe,
        fallback_policy=fallback,
        converged=converged,
        epsilon=epsilon,
        residual=residual,
        sweeps=tuple(history) if history is not None else None,
        _iterations=iterations,
    )


def _sweeps(spec, ell, deterministic, epsilon, max_iters, record_sweeps):
    """Synchronous sweeps from the margins: (values, iterations, converged, residual, history).

    A block of sweeps writes its iterates into rows 1 to K of one (K + 1, Z)
    buffer, whose row 0 holds the iterate the block starts from.  K is
    ``_BLOCK_SWEEPS``, or ``_BLOCK_VALUES // Z`` but at least 1 on larger
    games, which bounds the buffer near 512 KB.  After the block the
    differences of neighbouring rows give every sweep's residual at once.
    The first sweep that meets the stop rule ends the run and the rows after
    it are discarded.  Every sweep up to it must not have raised a value (a
    NaN fails too), so a corrupt backup raises before any solution is
    returned, as when each sweep was checked on its own.  The residual is
    then taken again from the last two 1-D rows, whose max gives a zero
    residual the same sign as a check after each sweep did.
    """
    succ, weight = _sweep_layout(spec)
    nz = spec.num_states
    block = max(1, min(_BLOCK_SWEEPS, _BLOCK_VALUES // nz))
    rows = np.empty((block + 1, nz))
    rows[0] = ell
    products = np.empty(weight.shape)
    q = np.empty((spec.num_human_actions, spec.num_ai_actions, nz))
    ell_q = np.ascontiguousarray(np.broadcast_to(ell, q.shape))  # the margins broadcast once, not per sweep
    worst = np.empty(q.shape[1:])
    history = [ell.copy()] if record_sweeps else None
    iterations = 0
    converged = False
    residual = np.inf
    while iterations < max_iters:
        count = min(block, max_iters - iterations)
        for k in range(count):
            np.multiply(weight, rows[k][succ], out=products)
            np.add.reduce(products, axis=0, out=q)
            np.minimum(ell_q, q, out=q)
            np.minimum.reduce(q, axis=0, out=worst)
            np.maximum.reduce(worst, axis=0, out=rows[k + 1])
        drops = rows[:count] - rows[1:count + 1]
        largest = drops.max(axis=1)
        stops = np.flatnonzero(largest == 0.0 if deterministic else largest <= epsilon)
        kept = int(stops[0]) + 1 if stops.size else count
        if not np.all(drops[:kept] >= 0.0):
            raise RuntimeError("value sweep increased a state value; backup is corrupt")
        iterations += kept
        if history is not None:
            history.extend(row.copy() for row in rows[1:kept + 1])
        residual = float(np.max(rows[kept - 1] - rows[kept]))
        rows[0] = rows[kept]
        if stops.size:
            converged = True
            break
    return rows[0].copy(), iterations, converged, residual, history


def _q_table(ell, trans, probs, values) -> np.ndarray:
    terms = np.ascontiguousarray(np.moveaxis(probs * values[trans], 3, 0))  # observation-first, as the sweep sums
    return np.minimum(ell[:, None, None], np.add.reduce(terms, axis=0))


def _sweep_layout(spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Successors and observation weights, as C-contiguous (O, B, A, Z) arrays.

    The entries of an inadmissible human action b at state z copy those of
    b_last, the last admissible action at z; see the module docstring for
    why the last one.
    """
    nz, na, nb, no = spec.transitions.shape
    mask = spec.bound_mask
    last = nb - 1 - mask[:, ::-1].argmax(axis=1)
    cols = np.where(mask, np.arange(nb), last[:, None]).T.copy()  # (B, Z) in C order
    index = (np.arange(nz), np.arange(na)[:, None], cols[:, None, :], np.arange(no)[:, None, None, None])
    # numpy lays out a fancy-indexed result in the order of its index
    # arrays' strides, C order with these; ascontiguousarray only guards it.
    succ, weight = (np.ascontiguousarray(t[index]) for t in (spec.transitions, spec.observation_probs))
    return succ, weight


def _strictly_deterministic(spec: GameSpec, ell) -> bool:
    """True when the sweep's values on this deterministic game are bit-exact margins.

    That holds when every positive observation probability is exactly 1.0,
    so the expectation is one product by 1.0 plus zeros, and no margin is
    -0.0, whose sign after a min or a sum depends on the order of reduction.
    (``value_iteration`` has already refused non-finite margins.)
    """
    probs = spec.observation_probs
    return bool(
        probs.min() >= 0.0
        and np.all(probs.max(axis=3) == 1.0)
        and not np.any(np.signbit(ell) & (ell == 0.0))
    )


def _det_successors(spec: GameSpec) -> np.ndarray:
    """(Z, A, B) successor along each row's one positive-probability observation."""
    if spec.num_observations == 1:
        return spec.transitions[..., 0]
    det_obs = spec.observation_probs.argmax(axis=3)[..., None]
    return np.take_along_axis(spec.transitions, det_obs, axis=3)[..., 0]


def _steps(spec: GameSpec, executed) -> tuple[np.ndarray, ...]:
    """Every admissible step ``(z, a, b, o, z2)`` of positive probability, as columns in (z, a, b, o) order.

    ``executed`` is a (Z, A') table, ``z2 = transitions[z, executed[z, a], b, o]``, and two steps may share
    their ``(z, z2)``.  The gather reads booleans, so it allocates no float table the size of the game.
    """
    z, a, b = np.nonzero(np.broadcast_to(spec.bound_mask[:, None, :], (*executed.shape, spec.num_human_actions)))
    e = executed[z, a]
    k, o = np.nonzero((spec.observation_probs > 0.0)[z, e, b])
    z, a, b, e = z[k], a[k], b[k], e[k]
    return z, a, b, o, spec.transitions[z, e, b, o]


def _grouped(keys, items, n) -> list[list[int]]:
    """The distinct items of each key in ``range(n)``, ascending, from one sort of packed int64 keys."""
    span = int(items.max()) + 1 if len(items) else 1
    packed = np.sort(keys * span + items)
    packed = np.concatenate((packed[:1], packed[1:][packed[1:] != packed[:-1]]))  # without repeats
    starts = np.searchsorted(packed // span, np.arange(n + 1)).tolist()
    flat = (packed % span).tolist()
    return [flat[lo:hi] for lo, hi in zip(starts, starts[1:])]


def _predecessors(spec: GameSpec) -> list[list[int]]:
    """Per w, each (z, a) with an admissible step to w, as z * na + a: ``_grouped`` from ``_steps`` under every AI action."""
    nz, na = spec.num_states, spec.num_ai_actions
    z, a, _, _, w = _steps(spec, np.broadcast_to(np.arange(na), (nz, na)))
    return _grouped(w, z * na + a, nz)


def _margin_levels(ell) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """States in margin order, their sorted margins, the margin level of each, and where each level's run ends."""
    order = np.argsort(ell, kind="stable")
    sorted_ell = ell[order]
    rises = sorted_ell[1:] != sorted_ell[:-1]
    levels = np.concatenate(([0], np.cumsum(rises)))
    level_ends = np.append(np.flatnonzero(rises) + 1, len(ell))
    return order, sorted_ell, levels, level_ends


def _threshold_attractor(spec: GameSpec, ell) -> np.ndarray:
    """Values on a game where ``_strictly_deterministic`` holds.

    V(z) >= c exactly when the AI can keep the play inside {margin >= c}
    forever, so V(z) is the margin level at which z enters the human
    attractor of {margin < c} as c rises through the distinct margins.
    The attractor grows over ``_predecessors``, the distinct admissible
    (z, a) <- w edges: an edge marks (z, a) losing once w is attracted, and
    z is attracted when its last live action turns losing.
    """
    nz, na = spec.num_states, spec.num_ai_actions
    preds = _predecessors(spec)
    order, sorted_ell, levels, level_ends = _margin_levels(ell)

    # Attractor of {margin < c} as c rises: each state, taken in margin
    # order, is a target at its own level unless already attracted.
    live = [na] * nz
    losing = [False] * (nz * na)
    entry = [-1] * nz  # margin level at which each state is attracted
    for target, level in zip(order.tolist(), levels.tolist()):
        if entry[target] >= 0:
            continue
        entry[target] = level
        queue = [target]
        for w in queue:  # queue grows while it is read
            for za in preds[w]:
                if losing[za]:
                    continue
                losing[za] = True
                z = za // na
                live[z] -= 1
                if not live[z] and entry[z] < 0:
                    entry[z] = level
                    queue.append(z)

    return sorted_ell[np.append(0, level_ends[:-1])][entry]


def _sweep_count(spec: GameSpec, values) -> int:
    """The exact number of sweeps the sweep route takes to ``values``, on a game where ``_strictly_deterministic`` holds.

    Sweep k computes the least margin the AI can guarantee over k steps, so
    z holds its final value from sweep t(z) on, where t(z) is its rank (the
    number of steps the human needs) in the attractor of {margin <= V(z)}.
    The sweep stops one no-change sweep after the last state settles:
    ``1 + max t(z)``.  A state whose value is its own margin has t = 0, so
    only the states pulled below their margin, grouped by the level of
    their value, need a rank.  Ranks only fall as the target set grows, so
    one bucket pass per such value, keeping each (z, a)'s least successor
    rank over ``_predecessors``, carries them from one such value to the
    next; each fall of a state's rank revisits its predecessor edges (about
    once per state on random games and corridors).
    """
    nz, na = spec.num_states, spec.num_ai_actions
    ell = spec.margins
    pulled = np.flatnonzero(values < ell)
    if not pulled.size:
        return 1
    preds = _predecessors(spec)
    order, sorted_ell, levels, level_ends = _margin_levels(ell)
    pulled_levels = levels[np.searchsorted(sorted_ell, values[pulled])]  # each value is some state's margin
    by_level = np.argsort(pulled_levels, kind="stable")
    pulled, pulled_levels = pulled[by_level], pulled_levels[by_level]
    starts = np.flatnonzero(np.diff(pulled_levels, prepend=-1))
    groups = zip(pulled_levels[starts].tolist(), np.split(pulled, starts[1:]))
    order, level_ends = order.tolist(), level_ends.tolist()

    # Ranks in the attractor of {margin <= v}, at each value v that some
    # pulled state holds; every other state has rank 0 at its own value.
    rank = [_UNREACHED] * nz
    least = [_UNREACHED] * (nz * na)  # per (z, a): least rank among successors
    unranked = [na] * nz  # per z: actions whose least is still unreached
    deepest = 0
    targeted = 0
    for level, states in groups:
        buckets = [[]]
        for z in order[targeted:level_ends[level]]:
            if rank[z]:
                rank[z] = 0
                buckets[0].append(z)
        targeted = level_ends[level]
        for r, bucket in enumerate(buckets):  # buckets grows while it is read
            for w in bucket:
                if rank[w] != r:
                    continue
                for za in preds[w]:
                    old = least[za]
                    if r < old:
                        least[za] = r
                        z = za // na
                        if old == _UNREACHED:
                            unranked[z] -= 1
                            if unranked[z]:
                                continue
                        elif old + 1 < rank[z]:
                            continue  # the max over z's actions did not move
                        new = 1 + max(least[z * na:z * na + na])
                        if new < rank[z]:
                            rank[z] = new
                            while len(buckets) <= new:
                                buckets.append([])
                            buckets[new].append(z)
        deepest = max(deepest, *(rank[z] for z in states.tolist()))
    return 1 + deepest


def _attainment_steps(spec: GameSpec, ell, values, q_values, fallback) -> np.ndarray:
    """Steps the adversary needs to turn each state's value into a real margin.

    Zero at states whose margin already equals their value; elsewhere one
    more than the least count among the worst-case responses to the
    fallback action, found by one breadth-first search backwards along
    those responses: the steps of ``_steps`` under ``fallback[:, None]``
    whose Q value equals the state's value, ``_grouped`` by successor.
    Finite everywhere for converged deterministic games.
    """
    seeds = ell == values
    z, _, b, _, z2 = _steps(spec, fallback[:, None])
    worst = (q_values[z, fallback[z], b] == values[z]) & ~seeds[z]
    preds = _grouped(z2[worst], z[worst], spec.num_states)

    steps = [0 if seed else _UNREACHED for seed in seeds.tolist()]
    frontier = np.flatnonzero(seeds).tolist()
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for s in frontier:
            for z in preds[s]:
                if steps[z] == _UNREACHED:
                    steps[z] = depth
                    reached.append(z)
        frontier = reached
    return np.array(steps, dtype=np.int64)


def _adversary_table(spec, values, q_values, scores, fallback) -> np.ndarray:
    # Lowest admissible b with q == score; deterministic games: lowest (tail, b) among those.
    ell = spec.margins
    best = spec.bound_mask[:, None, :] & (q_values == scores[..., None])  # (Z, A, B)
    if spec.is_deterministic():
        det_succ = _det_successors(spec)
        steps = _attainment_steps(spec, ell, values, q_values, fallback)
        tail = np.where(ell[:, None, None] <= values[det_succ], 0, steps[det_succ])
        tail = np.where(best, tail, _UNREACHED)
        best &= tail == tail.min(axis=2, keepdims=True)
    return best.argmax(axis=2).astype(np.int64)


def brute_force_value(
    spec: GameSpec,
    z: int,
    horizon: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> float:
    """Depth-limited game value of one state, evaluated over the game tree by depth layers.

    value(z, 0) is the margin at ``z``; deeper values apply the same
    max/min/min backup as the solver, one node at a time in plain Python.
    Results cache on (state, depth), which changes nothing arithmetically.
    Zero-probability observation branches are skipped.  The horizon has no
    ceiling of its own: the work is bounded by the nodes evaluated.

    Raises BudgetExceededError, before evaluating any node, if more than
    ``node_budget`` (state, depth) nodes lie below ``(z, horizon)``.
    Before that it raises TypeError if ``horizon`` or ``node_budget`` is
    not an integer and ValueError if either is negative.
    """
    z = _int_index(z, spec.num_states, "info state")
    return _GameTree(spec, horizon, node_budget)(z)


def brute_force_values(
    spec: GameSpec,
    horizon: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[float]:
    """``brute_force_value`` of every state, all roots sharing one memo.

    The memo is keyed on (state, depth) alone, so a subtree evaluated for
    one root is reused by the next.  The budget applies per root and counts
    only the nodes that root evaluates first, so a root that fits its
    budget in ``brute_force_value`` fits it here too.
    """
    root_value = _GameTree(spec, horizon, node_budget)
    return [root_value(z) for z in range(spec.num_states)]


class _GameTree:
    """The game tree to ``horizon`` by depth layers; called with a root state, returns its value.

    The memo holds one dict per depth, state -> value, made when that
    depth is first evaluated, and every root reuses it.  A call goes down
    from ``(root, horizon)`` one depth at a time, following each state's
    distinct positive-probability successors into the nodes the memo
    lacks, and collects them as layers, which are evaluated bottom up, each
    depth reading the one below from the memo; ``nodes`` is the last
    root's count of them.  When Z * (horizon + 1) nodes could pass
    ``node_budget``, a first pass only counts them, holding one layer at a
    time, and raises BudgetExceededError once there are more than
    ``node_budget``, before any is evaluated or collected.  A node's value
    is the backup in plain Python floats: the observation terms added in
    order to 0.0, the min with the margin, the min over admissible human
    actions and the max over AI actions, so a -0.0 keeps its sign.  Each
    state's moves are listed on first use.  Nothing here refers back to
    the tree, so it leaves no reference cycle for the collector.
    """

    def __init__(self, spec: GameSpec, horizon: int, node_budget: int):
        self.horizon = _at_least(horizon, 0, "horizon")
        self.node_budget = _at_least(node_budget, 0, "node_budget")
        self.ell = spec.margins.tolist()
        self.trans = spec.transitions.tolist()
        self.probs = spec.observation_probs.tolist()
        self.bound = spec.action_bound
        # per state, once listed: per AI action, per admissible human action, the
        # (p, next state) pairs of positive p in observation order
        self.moves: list[list | None] = [None] * spec.num_states
        self.successors: list[list[int] | None] = [None] * spec.num_states
        self.memo: dict[int, dict[int, float]] = {}
        self.nodes = 0

    def __call__(self, z: int) -> float:
        if len(self.ell) * (self.horizon + 1) > self.node_budget:  # else no root can pass the budget
            nodes = 0
            for _, layer in self._new_layers(z):
                nodes += len(layer)
                if nodes > self.node_budget:
                    raise BudgetExceededError(f"brute force exceeded its node budget of {self.node_budget}")
        layers = list(self._new_layers(z))
        self.nodes = sum(len(layer) for _, layer in layers)
        for depth, layer in reversed(layers):
            self._evaluate(depth, layer)
        return self.memo[self.horizon][z]

    def _new_layers(self, z: int):
        """Top down from ``(z, horizon)``: (depth, states) for each depth with nodes the memo lacks."""
        layer, depth = [z], self.horizon
        memo, successors = self.memo, self.successors
        while True:
            known = memo.get(depth)
            if known:
                layer = [s for s in layer if s not in known]
            if not layer:
                return
            yield depth, layer
            if depth == 0:
                return
            below: set[int] = set()
            for s in layer:
                below.update(successors[s] or self._list_moves(s))
            layer, depth = list(below), depth - 1

    def _list_moves(self, s: int) -> list[int]:
        """Fill ``moves[s]`` and ``successors[s]``; returns the successors."""
        bound = self.bound[s]
        moves = self.moves[s] = [
            [[(p, t) for p, t in zip(probs[b], trans[b]) if p > 0.0] for b in bound]
            for probs, trans in zip(self.probs[s], self.trans[s])
        ]
        successors = self.successors[s] = list({t for per_a in moves for pairs in per_a for _, t in pairs})
        return successors

    def _evaluate(self, depth: int, layer: list[int]) -> None:
        level = self.memo.setdefault(depth, {})
        ell = self.ell
        if depth == 0:
            for s in layer:
                level[s] = ell[s]
            return
        below = self.memo[depth - 1]
        moves = self.moves
        for s in layer:
            here = ell[s]
            best = None
            for per_a in moves[s]:
                worst = None
                for pairs in per_a:
                    expected = 0.0
                    for p, t in pairs:
                        expected += p * below[t]
                    outcome = here if here <= expected else expected
                    if worst is None or outcome < worst:
                        worst = outcome
                if best is None or worst > best:
                    best = worst
            level[s] = best


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
