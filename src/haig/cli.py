"""Command-line front end.

Verbs: generate, solve, filter-rollout, verify, compare-oracle.
Exit codes: 0 success, 2 verification found a counterexample,
3 bad input (file, schema, reference, policy), 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetExceededError, HaigError
from .filtering import FILTER_MODES, SWITCH
from .harness import (
    DEFAULT_DEPTH, RolloutConfig, compare_oracle, rollout, summary_csv, verify_safety,
)
from .scenarios import build_chain, build_dialogue, random_game
from .solver import DEFAULT_EPSILON, DEFAULT_NODE_BUDGET, solution_payload, value_iteration
from .specfile import _overwrite, canonical_json, load_spec, save_spec

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4

_COUNTEREXAMPLE_KEYS = ("z", "task_a", "executed_a", "a_human", "obs")  # printed per step


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="haig", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a built-in scenario document")
    gen.set_defaults(handler=_cmd_generate)
    gen.add_argument("scenario", choices=["chain", "dialogue", "random"])
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--length", type=int, default=5, help="chain: highest state index")
    gen.add_argument("--human-reach", type=int, default=1, help="chain: human action reach")
    gen.add_argument("--odd-reach", type=int, default=None, help="chain: admissible bound reach")
    gen.add_argument("--conservative", action="store_true", help="dialogue: full-action bound")
    gen.add_argument("--seed", type=int, default=0, help="random: generator seed")
    gen.add_argument("--states", type=int, default=20)
    gen.add_argument("--ai-actions", type=int, default=3)
    gen.add_argument("--human-actions", type=int, default=3)
    gen.add_argument("--observations", type=int, default=1)
    gen.add_argument("--failure-fraction", type=float, default=0.2)

    solve = sub.add_parser("solve", help="solve a document and write the value tables")
    solve.set_defaults(handler=_cmd_solve)
    solve.add_argument("spec")
    solve.add_argument("-o", "--output", required=True)
    solve.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    solve.add_argument("--max-iters", type=int, default=None)

    roll = sub.add_parser("filter-rollout", help="run one filtered rollout")
    roll.set_defaults(handler=_cmd_rollout)
    roll.add_argument("spec")
    roll.add_argument("-o", "--output", required=True, help="JSONL trace path")
    roll.add_argument("--task", default="random")
    roll.add_argument("--human", default="worst_case")
    roll.add_argument("--filter", default=SWITCH, choices=FILTER_MODES)
    roll.add_argument("--state", default="0", help="initial state index or label")
    roll.add_argument("--steps", type=int, default=20)
    roll.add_argument("--seed", type=int, default=0)
    roll.add_argument("--summary", default=None, help="also write a CSV metrics row")

    ver = sub.add_parser("verify", help="check the safety guarantee to a depth")
    ver.set_defaults(handler=_cmd_verify)
    ver.add_argument("spec")
    ver.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    ver.add_argument("--filter", default=SWITCH, choices=FILTER_MODES)
    # never read, kept so that older command lines still parse
    ver.add_argument("--samples", type=int, help="ignored: the check is exhaustive on every game")
    ver.add_argument("--seed", type=int, help="ignored: the check draws nothing")
    ver.add_argument("--max-nodes", type=int, default=None, help="expansion budget (default: none)")

    cmp = sub.add_parser("compare-oracle", help="cross-check the solver against brute force")
    cmp.set_defaults(handler=_cmd_compare)
    cmp.add_argument("spec")
    cmp.add_argument("--horizon", type=int, default=None)
    cmp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    cmp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    return parser


def _cmd_generate(args) -> int:
    if args.scenario == "chain":
        doc = build_chain(args.length, args.human_reach, args.odd_reach)
    elif args.scenario == "dialogue":
        doc = build_dialogue(conservative_bound=args.conservative)
    else:
        doc = random_game(
            args.seed,
            states=args.states,
            ai_actions=args.ai_actions,
            human_actions=args.human_actions,
            observations=args.observations,
            failure_fraction=args.failure_fraction,
        )
    save_spec(doc, args.output)
    print(f"wrote {args.output} ({doc.game.num_states} states)")
    return EXIT_OK


def _cmd_solve(args) -> int:
    doc = load_spec(args.spec)
    sol = value_iteration(doc.game, epsilon=args.epsilon, max_iters=args.max_iters)
    text = canonical_json(solution_payload(sol))  # rendered first: a refusal leaves no partial file
    _overwrite(args.output, text.encode("utf-8"))
    status = "converged" if sol.converged else f"NOT converged (residual {sol.residual!r})"
    print(f"{status} after {sol.iterations} sweeps; {len(sol.safe_set)}/{doc.game.num_states} states safe")
    return EXIT_OK


def _cmd_rollout(args) -> int:
    doc = load_spec(args.spec)
    config = RolloutConfig(
        document=doc,
        task_policy=args.task,
        human_policy=args.human,
        filter_mode=args.filter,
        initial_state=args.state,
        max_steps=args.steps,
        seed=args.seed,
    )
    trace = rollout(config)
    data = trace.to_jsonl()  # rendered first: a refusal leaves no partial file
    _overwrite(args.output, data)
    if args.summary:
        _overwrite(args.summary, summary_csv([trace]).encode("utf-8"))
    print(
        f"{len(trace.steps)} steps, min margin {trace.min_margin!r}, "
        f"{trace.violation_count} violations, intervention rate {trace.intervention_rate:.3f}"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = load_spec(args.spec)
    report = verify_safety(
        doc,
        depth=args.depth,
        filter_mode=args.filter,
        max_nodes=args.max_nodes,
    )
    print(
        f"exhaustive check to depth {report.depth} with filter={report.filter_mode}: "
        f"{len(report.certified_states)} certified states, {report.expanded} expansions"
    )
    for ce in report.counterexamples:
        print(f"counterexample from state {ce.steps[0].state}:")
        for step in ce.steps:
            record = step.to_json_dict()
            print("  " + json.dumps({key: record[key] for key in _COUNTEREXAMPLE_KEYS}, sort_keys=True))
        print(f"  reaches state {ce.final_state} with margin {ce.final_margin!r}")
    if not report.ok:
        return EXIT_COUNTEREXAMPLE
    print("no counterexamples")
    return EXIT_OK


def _cmd_compare(args) -> int:
    doc = load_spec(args.spec)
    report = compare_oracle(doc, args.horizon, epsilon=args.epsilon, node_budget=args.budget)
    print(
        f"horizon {report.horizon}, {report.iterations} sweeps, "
        f"max discrepancy {report.max_discrepancy!r} (tolerance {report.tolerance!r})"
    )
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


_PARSER = _build_parser()  # built once; each verb's subparser sets its handler


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (HaigError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
