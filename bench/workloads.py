"""The benchmark's four workloads: documents, verb sequences and output checks.

A workload is a list of ops.  An op is one ``haig`` verb invocation, given
as the argv of ``haig.cli.main``, with the exit codes it may return and a
check on what it printed and wrote.  The checks compare against references
the solver does not produce: closed forms, a one-step backup written here,
and replays of traces and counterexamples against the document.

Every workload runs each verb at least once, so that every end-to-end
metric is measured on every workload.  Where the workload's own games do
not call for a verb, a companion call supplies it: ``generate chain`` and
``compare-oracle`` on that chain on ``corridor``, ``compare-oracle`` on a
small dense game on ``dense`` and on a small stochastic game on
``stochastic``.  Each stays a small share of its pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# compare-oracle runs deterministic games to horizon max(ORACLE_HORIZON,
# sweeps).  Past the sweep count the values no longer change, so the
# comparison stays exact, and the oracle's work, which grows with the
# horizon, is the same on nearly every seed: these games take 7 to 23 sweeps.
ORACLE_HORIZON = 24


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


@dataclass
class Op:
    verb: str                      # generate | solve | verify | rollout | oracle
    argv: list[str]
    output: str | None = None      # file the verb writes
    expect: tuple[int, ...] = (0,)
    check: Callable[[str, bytes | None], None] | None = None  # (stdout, output bytes)


@dataclass
class Plan:
    documents: dict            # file path -> serialized document bytes
    ops: list[Op]
    rollout_config: object     # RolloutConfig timed for filter_steps_per_s
    rollout_trace: str         # JSONL its filter-rollout op writes
    games: list = field(default_factory=list)  # GameSpecs, for tensor sizes


class _Collector:
    """Collects documents and ops for one workload."""

    def __init__(self, haig, workdir):
        self.haig = haig
        self.workdir = workdir
        self.documents = {}
        self.games = []
        self.ops = []

    def path(self, name):
        return os.path.join(self.workdir, name)

    def document(self, name, doc):
        path = self.path(name)
        self.documents[path] = self.haig.serialize(doc)
        self.games.append(doc.game)
        return path

    def generate(self, name, doc, args):
        path = self.document(name, doc)
        expected = self.documents[path]
        self.ops.append(Op("generate", ["generate", *args, "-o", path], output=path,
                           check=lambda out, data: _same_bytes(data, expected, name)))
        return path

    def op(self, *args, **kwargs):
        self.ops.append(Op(*args, **kwargs))

    def plan(self, config, trace):
        return Plan(self.documents, self.ops, config, trace, self.games)


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------


def _same_bytes(data, expected, what):
    if data != expected:
        raise CheckFailed(f"{what}: generated document differs from the set-up build")


def _solution(data):
    try:
        return json.loads(data)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"solution is not JSON: {exc}") from None


def backup(game, values):
    """One application of the safety backup to ``values``, in plain numpy."""
    expected = (game.observation_probs * values[game.transitions]).sum(axis=3)
    q = np.minimum(game.margins[:, None, None], expected)
    admissible = np.zeros((game.num_states, game.num_human_actions), dtype=bool)
    for z, row in enumerate(game.action_bound):
        admissible[z, list(row)] = True
    return np.where(admissible[:, None, :], q, np.inf).min(axis=2).max(axis=1)


def check_fixed_point(game, data):
    """Solve's values are a fixed point and its safe set is closed under the fallback."""
    sol = _solution(data)
    values = np.array(sol["V"], dtype=np.float64)
    if not np.array_equal(backup(game, values), values):
        raise CheckFailed("solved values change under one more backup")
    safe = np.array(sol["safe_set"], dtype=np.int64)
    if not np.array_equal(safe, np.flatnonzero(values >= 0.0)):
        raise CheckFailed("safe set is not the set of non-negative values")
    in_safe = np.zeros(game.num_states, dtype=bool)
    in_safe[safe] = True
    fallback = np.array(sol["pi_shield"], dtype=np.int64)
    for z in safe:
        a = fallback[z]
        for b in game.action_bound[z]:
            reached = game.transitions[z, a, b][game.observation_probs[z, a, b] > 0.0]
            if not in_safe[reached].all():
                raise CheckFailed(f"fallback at safe state {z} can leave the safe set")


def check_certified(out, count):
    """Verify's report line names ``count`` certified states."""
    if f" {count} certified states" not in out.splitlines()[0]:
        raise CheckFailed(f"verify did not certify exactly {count} states: {out.splitlines()[0]!r}")


def check_clean_verify(out, count):
    check_certified(out, count)
    if "no counterexamples" not in out:
        raise CheckFailed("verify reported a counterexample on a deterministic game")


def parse_counterexamples(out):
    """Counterexamples as printed by ``haig verify``: (start, steps, final, margin)."""
    found = []
    for line in out.splitlines():
        if line.startswith("counterexample from state "):
            found.append([int(line.split()[-1].rstrip(":")), [], None, None])
        elif line.startswith("  {") and found:
            found[-1][1].append(json.loads(line))
        elif line.startswith("  reaches state ") and found:
            words = line.split()
            found[-1][2] = int(words[2])
            found[-1][3] = float(words[-1])
    return found


def check_counterexamples(game, out, certified):
    """Every printed counterexample replays against the document."""
    for start, steps, final, final_margin in parse_counterexamples(out):
        if start not in certified:
            raise CheckFailed(f"counterexample starts at uncertified state {start}")
        z = start
        for step in steps:
            a, b, o = step["executed_a"], step["a_human"], step["obs"]
            if step["z"] != z or b not in game.action_bound[z]:
                raise CheckFailed(f"counterexample from {start} leaves the bound or the path")
            if game.observation_probs[z, a, b, o] <= 0.0:
                raise CheckFailed(f"counterexample from {start} uses an impossible observation")
            z = int(game.transitions[z, a, b, o])
        if not steps or z != final or not game.margins[z] < 0.0 or game.margins[z] != final_margin:
            raise CheckFailed(f"counterexample from {start} does not end on a negative margin")


def check_trace(game, data, steps, safe=None):
    """Replay a JSONL rollout: dynamics, bound, observations, and safety from a safe start."""
    records = [json.loads(line) for line in data.splitlines()]
    if len(records) != steps:
        raise CheckFailed(f"trace has {len(records)} steps, expected {steps}")
    z = records[0]["z"]
    for r in records:
        a, b, o = r["executed_a"], r["a_human"], r["obs"]
        if r["z"] != z or r["margin"] != game.margins[z]:
            raise CheckFailed(f"trace breaks the dynamics at t={r['t']}")
        if b not in game.action_bound[z] or game.observation_probs[z, a, b, o] <= 0.0:
            raise CheckFailed(f"trace leaves the bound or draws an impossible observation at t={r['t']}")
        if r["intervened"] != (a != r["task_a"]):
            raise CheckFailed(f"trace misreports an intervention at t={r['t']}")
        z = int(game.transitions[z, a, b, o])
        if safe is not None and z not in safe:
            raise CheckFailed(f"filtered trace leaves the safe set at t={r['t']}")


def _all(*checks):
    def run(out, data):
        for check in checks:
            check(out, data)
    return run


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def corridor_document(haig, seed, length):
    """Two corridors of ``length`` states; every joint action steps toward the sink.

    Corridor 0's sink is safe and corridor 1's fails; margins rise with the
    distance from the sink.  A state's value is therefore its sink's margin
    and the safe set is corridor 0, while the sweep solver needs ``length``
    sweeps to learn it.  The seed draws the margins and which corridor takes
    the lower state indices.  Indices rise along each corridor: the solver's
    attainment pass relaxes states in index order, so a shuffled corridor
    would add a second quadratic phase to the one this workload targets.
    """
    rng = np.random.default_rng(seed)
    n = 2 * length
    index = np.arange(n).reshape(2, length)[rng.permutation(2)]  # index[c, i]: corridor c, i steps from its sink
    margins = np.empty(n)
    sinks = (rng.uniform(0.1, 1.0), -rng.uniform(0.1, 1.0))
    for c in range(2):
        margins[index[c]] = sinks[c] + np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, length - 1))))
    transitions = np.empty((n, 2, 2, 1), dtype=np.int64)
    for c in range(2):
        transitions[index[c]] = index[c, np.maximum(np.arange(length) - 1, 0)][:, None, None, None]
    game = haig.GameSpec(
        num_states=n,
        ai_actions=("left", "right"),
        human_actions=("push", "pull"),
        observations=("none",),
        transitions=transitions,
        observation_probs=np.ones((n, 2, 2, 1)),
        margins=margins,
        action_bound=((0, 1),) * n,
        scenario=f"corridor(length={length},seed={seed})",
    )
    values = np.empty(n)
    for c in range(2):
        values[index[c]] = margins[index[c, 0]]
    return haig.SpecDocument(game=game), values, index


def corridor(haig, seed, workdir, tiny=False):
    length, chain_length, steps = (20, 10, 200) if tiny else (2000, 200, 20_000)
    b = _Collector(haig, workdir)
    doc, values, index = corridor_document(haig, seed, length)
    game = doc.game
    safe = frozenset(int(z) for z in index[0])
    start = int(index[0, np.random.default_rng(seed + 1).integers(length)])
    spec = b.document("corridor.haig.json", doc)
    chain = b.generate("chain.haig.json", haig.build_chain(chain_length), ["chain", "--length", str(chain_length)])

    def closed_form(out, data):
        sol = _solution(data)
        if sol["V"] != values.tolist():
            raise CheckFailed("corridor values differ from their sinks' margins")
        if sol["safe_set"] != sorted(safe):
            raise CheckFailed("corridor safe set is not the safe corridor")

    values_path, trace_path = b.path("corridor.values.json"), b.path("corridor.jsonl")
    b.op("solve", ["solve", spec, "-o", values_path], output=values_path, check=closed_form)
    b.op("verify", ["verify", spec, "--depth", "8"], check=lambda out, data: check_clean_verify(out, length))
    rollout_args = dict(task_policy="random", human_policy="uniform", filter_mode="least_restrictive",
                        initial_state=start, max_steps=steps, seed=seed)
    b.op("rollout", _rollout_argv(spec, trace_path, rollout_args), output=trace_path,
         check=lambda out, data: check_trace(game, data, steps, safe))
    b.op("oracle", ["compare-oracle", chain])
    config = haig.RolloutConfig(document=doc, **rollout_args)
    return b.plan(config, trace_path)


def _rollout_argv(spec, out, args):
    return [
        "filter-rollout", spec, "-o", out,
        "--task", args["task_policy"], "--human", args["human_policy"],
        "--filter", args["filter_mode"], "--state", str(args["initial_state"]),
        "--steps", str(args["max_steps"]), "--seed", str(args["seed"]),
    ]


def _random_doc(haig, game_seed, states, ai, human, observations, failure):
    """A random game and the ``haig generate`` arguments that write it."""
    doc = haig.random_game(game_seed, states=states, ai_actions=ai, human_actions=human,
                           observations=observations, failure_fraction=failure)
    args = ["random", "--seed", str(game_seed), "--states", str(states), "--ai-actions", str(ai),
            "--human-actions", str(human), "--observations", str(observations),
            "--failure-fraction", repr(failure)]
    return doc, args


def _oracle_argv(spec_path, iterations):
    return ["compare-oracle", spec_path, "--horizon", str(max(ORACLE_HORIZON, iterations))]


def dense(haig, seed, workdir, tiny=False):
    states, companion_states, steps = (40, 12, 200) if tiny else (1000, 30, 20_000)
    b = _Collector(haig, workdir)
    doc, args = _random_doc(haig, 2 * seed, states, 4, 4, 1, 0.05)
    game = doc.game
    sol = haig.value_iteration(game)
    safe = sol.safe_set
    start = sorted(safe)[np.random.default_rng(seed).integers(len(safe))]
    spec = b.generate("dense.haig.json", doc, args)
    small_doc, small_args = _random_doc(haig, 2 * seed + 1, companion_states, 4, 4, 1, 0.05)
    small = b.generate("companion.haig.json", small_doc, small_args)

    values_path, trace_path = b.path("dense.values.json"), b.path("dense.jsonl")
    b.op("solve", ["solve", spec, "-o", values_path], output=values_path,
         check=lambda out, data: check_fixed_point(game, data))
    b.op("verify", ["verify", spec, "--depth", "3"],
         check=lambda out, data: check_clean_verify(out, len(safe)))
    rollout_args = dict(task_policy="random", human_policy="uniform", filter_mode="least_restrictive",
                        initial_state=start, max_steps=steps, seed=seed)
    b.op("rollout", _rollout_argv(spec, trace_path, rollout_args), output=trace_path,
         check=lambda out, data: check_trace(game, data, steps, safe))
    b.op("oracle", _oracle_argv(small, haig.value_iteration(small_doc.game).iterations))
    config = haig.RolloutConfig(document=doc, **rollout_args)
    return b.plan(config, trace_path)


def stochastic(haig, seed, workdir, tiny=False):
    """Six fixed games; the seed draws their start states and rollout and sampling seeds.

    The games are the first six, in generator-seed order, whose safe set is
    non-empty: about half of all such games certify nothing, which would
    leave verify idle.  They are not drawn per seed because their sweep
    counts are heavy-tailed (about 100 to 4600 at this size), which would
    spread the solve time across seeds by half its median.  The oracle runs
    on a fixed 12-state game with 2 observations whose solve takes 131
    sweeps, which keeps the oracle's recursion short.
    """
    count, steps, samples = (2, 200, 200) if tiny else (6, 20_000, 10_000)
    b = _Collector(haig, workdir)
    rng = np.random.default_rng(seed)
    game_seed = 0
    config = None
    k = 0
    while k < count:
        doc, args = _random_doc(haig, game_seed, 30, 3, 3, 3, 0.05)
        game_seed += 1
        sol = haig.value_iteration(doc.game)
        if not sol.safe_set:
            continue
        game, safe = doc.game, sol.safe_set
        start = sorted(safe)[rng.integers(len(safe))]
        spec = b.generate(f"stochastic{k}.haig.json", doc, args)
        values_path, trace_path = b.path(f"stochastic{k}.values.json"), b.path(f"stochastic{k}.jsonl")

        def converged(out, data, safe=safe):
            sol = _solution(data)
            if not sol["converged"] or sorted(safe) != sol["safe_set"]:
                raise CheckFailed("stochastic solve did not converge to the set-up safe set")

        b.op("solve", ["solve", spec, "-o", values_path], output=values_path, check=converged)
        b.op("verify", ["verify", spec, "--depth", "8", "--samples", str(samples),
                        "--seed", str(rng.integers(2**31))],
             expect=(0, 2),
             check=_all(lambda out, data, n=len(safe): check_certified(out, n),
                        lambda out, data, game=game, safe=safe: check_counterexamples(game, out, safe)))
        rollout_args = dict(task_policy="random", human_policy="uniform", filter_mode="least_restrictive",
                            initial_state=start, max_steps=steps, seed=int(rng.integers(2**31)))
        b.op("rollout", _rollout_argv(spec, trace_path, rollout_args), output=trace_path,
             check=lambda out, data, game=game: check_trace(game, data, steps))
        if config is None:
            config, config_trace = haig.RolloutConfig(document=doc, **rollout_args), trace_path
        k += 1
    oracle_doc, _ = _random_doc(haig, 0, 6 if tiny else 12, 3, 3, 2, 0.1)
    b.op("oracle", ["compare-oracle", b.document("oracle.haig.json", oracle_doc)])
    return b.plan(config, config_trace)


SMALL_README_GAMES = (
    ("chain5", ["chain", "--length", "5"], lambda h: h.build_chain(5)),
    ("chain5_reach2", ["chain", "--length", "5", "--human-reach", "2"], lambda h: h.build_chain(5, 2)),
    ("chain5_reach3_odd1", ["chain", "--length", "5", "--human-reach", "3", "--odd-reach", "1"],
     lambda h: h.build_chain(5, 3, 1)),
    ("dialogue", ["dialogue"], lambda h: h.build_dialogue()),
    ("dialogue_conservative", ["dialogue", "--conservative"], lambda h: h.build_dialogue(True)),
)
# (ai, human) action counts of the four random games; fixed so that the
# oracle's work, which scales with their product, is the same on every seed.
SMALL_RANDOM_ACTIONS = ((2, 4), (4, 2), (3, 3), (2, 2))


def small(haig, seed, workdir, tiny=False):
    states, steps = (20, 50) if tiny else (100, 1000)
    b = _Collector(haig, workdir)
    games = [(name, args, build(haig)) for name, args, build in SMALL_README_GAMES]
    for k, (ai, human) in enumerate(SMALL_RANDOM_ACTIONS):
        doc, args = _random_doc(haig, 4 * seed + k, states, ai, human, 1, 0.05)
        games.append((f"random{k}", args, doc))
    config = None
    for name, args, doc in games:
        game = doc.game
        sol = haig.value_iteration(game)
        safe = sol.safe_set
        start = min(safe) if safe else 0
        spec = b.generate(f"{name}.haig.json", doc, args)
        values_path, trace_path = b.path(f"{name}.values.json"), b.path(f"{name}.jsonl")
        b.op("solve", ["solve", spec, "-o", values_path], output=values_path,
             check=lambda out, data, game=game: check_fixed_point(game, data))
        b.op("verify", ["verify", spec], check=lambda out, data, n=len(safe): check_clean_verify(out, n))
        if name == "chain5":
            b.op("verify", ["verify", spec, "--filter", "none"], expect=(2,),
                 check=lambda out, data, game=game, safe=safe: _chain5_control(game, out, safe))
        rollout_args = dict(task_policy="random", human_policy="worst_case", filter_mode="switch",
                            initial_state=start, max_steps=steps, seed=seed)
        b.op("rollout", _rollout_argv(spec, trace_path, rollout_args), output=trace_path,
             check=lambda out, data, game=game, safe=safe, start=start: check_trace(
                 game, data, steps, safe if start in safe else None))
        b.op("oracle", _oracle_argv(spec, sol.iterations))
        if config is None and name.startswith("random"):
            config, config_trace = haig.RolloutConfig(document=doc, **rollout_args), trace_path
    return b.plan(config, config_trace)


def _chain5_control(game, out, safe):
    """With the filter off, chain5 fails within 3 steps from state 3."""
    check_counterexamples(game, out, safe)
    if not any(start == 3 and len(steps) <= 3 for start, steps, _, _ in parse_counterexamples(out)):
        raise CheckFailed("control arm found no counterexample of at most 3 steps from state 3")


WORKLOADS = {"corridor": corridor, "dense": dense, "stochastic": stochastic, "small": small}
