from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import haig
from haig import (
    GameSpec, SpecDocument, build_chain, build_dialogue, load_spec, parse_spec, random_game, save_spec,
)
from haig.cli import EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_INPUT, EXIT_OK, main
from test_filtering import one_hot_observations


def _chain(tmp_path, name="chain.haig.json", extra=()):
    path = tmp_path / name
    assert main(["generate", "chain", "--length", "5", "-o", str(path), *extra]) == EXIT_OK
    return path


def test_generate_solve_pipeline(tmp_path, capsys):
    spec_path = _chain(tmp_path)
    doc = load_spec(spec_path)
    assert doc.game.num_states == 6

    out = tmp_path / "solution.json"
    assert main(["solve", str(spec_path), "-o", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["V"] == [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]
    assert payload["safe_set"] == [1, 2, 3, 4, 5]
    assert payload["converged"] is True
    assert "5/6 states safe" in capsys.readouterr().out


def test_generate_is_deterministic(tmp_path):
    a = _chain(tmp_path, "a.haig.json")
    b = _chain(tmp_path, "b.haig.json")
    assert a.read_bytes() == b.read_bytes()

    r1 = tmp_path / "r1.haig.json"
    r2 = tmp_path / "r2.haig.json"
    for path in (r1, r2):
        assert main([
            "generate", "random", "--seed", "12", "--states", "9",
            "--observations", "2", "-o", str(path),
        ]) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()


def test_generate_dialogue_variants(tmp_path):
    plain = tmp_path / "d.haig.json"
    cautious = tmp_path / "dc.haig.json"
    assert main(["generate", "dialogue", "-o", str(plain)]) == EXIT_OK
    assert main(["generate", "dialogue", "--conservative", "-o", str(cautious)]) == EXIT_OK
    assert load_spec(plain).game.scenario == "dialogue"
    assert load_spec(cautious).game.scenario == "dialogue-conservative"


def test_filter_rollout_outputs(tmp_path):
    spec_path = _chain(tmp_path)
    trace_path = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "summary.csv"
    argv = [
        "filter-rollout", str(spec_path), "--task", "constant:-1",
        "--human", "worst_case", "--state", "3", "--steps", "10",
        "--seed", "1", "-o", str(trace_path), "--summary", str(csv_path),
    ]
    assert main(argv) == EXIT_OK
    lines = trace_path.read_bytes().decode().splitlines()
    assert len(lines) == 10
    assert json.loads(lines[0])["z"] == 3
    assert csv_path.read_text().splitlines()[1] == "2.0,0,1.0"

    first = trace_path.read_bytes()
    assert main(argv) == EXIT_OK
    assert trace_path.read_bytes() == first


def test_outputs_rewritten_over_longer_files_match_fresh_ones(tmp_path):
    spec_path = _chain(tmp_path)
    names = ("game.haig.json", "values.json", "trace.jsonl", "summary.csv")

    def run(directory):
        directory.mkdir(exist_ok=True)
        game, values, trace, summary = (directory / name for name in names)
        assert main(["generate", "chain", "--length", "5", "-o", str(game)]) == EXIT_OK
        assert main(["solve", str(spec_path), "-o", str(values)]) == EXIT_OK
        assert main([
            "filter-rollout", str(spec_path), "--steps", "5", "-o", str(trace), "--summary", str(summary),
        ]) == EXIT_OK
        return [(directory / name).read_bytes() for name in names]

    fresh = run(tmp_path / "fresh")
    stale = tmp_path / "stale"
    stale.mkdir()
    for name, data in zip(names, fresh):
        (stale / name).write_bytes(b"stale line\n" * (len(data) // 11 + 100))
    assert run(stale) == fresh


def test_verify_exit_codes(tmp_path, capsys):
    spec_path = _chain(tmp_path)
    assert main(["verify", str(spec_path), "--depth", "8"]) == EXIT_OK
    assert "no counterexamples" in capsys.readouterr().out

    rc = main(["verify", str(spec_path), "--depth", "8", "--filter", "none"])
    assert rc == EXIT_COUNTEREXAMPLE
    out = capsys.readouterr().out
    assert "counterexample from state" in out


def test_verify_max_nodes(tmp_path, capsys):
    """The exact budget changes nothing; one less exits 4, a negative one exits 3."""
    spec_path = _chain(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(spec_path), "--depth", "8"]) == EXIT_OK
    default = capsys.readouterr()
    assert "1 expansions" in default.out  # the failure state, which no state steps into under the filter
    assert main(["verify", str(spec_path), "--depth", "8", "--max-nodes", "1"]) == EXIT_OK
    assert capsys.readouterr() == default

    assert main(["verify", str(spec_path), "--depth", "8", "--max-nodes", "0"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: verification exceeded max_nodes=0\n")

    assert main(["verify", str(spec_path), "--max-nodes", "-1"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: max_nodes must be >= 0, got -1\n")


def test_verify_ignores_samples_and_seed(tmp_path, capsys):
    """``--samples`` and ``--seed`` still parse, and change neither the output nor the exit code."""
    path = tmp_path / "game.haig.json"
    save_spec(random_game(7, states=30, observations=3, failure_fraction=0.05), path)
    capsys.readouterr()
    runs = []
    for extra in ((), ("--samples", "10000", "--seed", "5"), ("--samples", "-3", "--seed", "0")):
        code = main(["verify", str(path), "--depth", "8", *extra])
        runs.append((code, capsys.readouterr()))
    assert runs[0][0] == EXIT_COUNTEREXAMPLE and runs[0][1].err == ""
    assert runs[1:] == runs[:1] * 2


def test_compare_oracle_exit_codes(tmp_path):
    spec_path = _chain(tmp_path)
    assert main(["compare-oracle", str(spec_path)]) == EXIT_OK
    assert main(["compare-oracle", str(spec_path), "--budget", "2"]) == EXIT_BUDGET
    assert main(["compare-oracle", str(spec_path), "--budget", "-1"]) == EXIT_INPUT


def test_compare_oracle_runs_horizons_past_the_recursion_limit(tmp_path, capsys):
    """A stochastic game whose default horizon is its 2139 sweeps is checked in full, exactly, and exits 0."""
    path = tmp_path / "long.haig.json"
    save_spec(random_game(6, states=18, ai_actions=3, human_actions=3, observations=2, failure_fraction=0.1), path)
    start = time.perf_counter()
    assert main(["compare-oracle", str(path)]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "horizon 2139, 2139 sweeps, max discrepancy 0.0 (tolerance 0.0)\n"
    assert captured.err == ""


# sha256 of verify's stdout, so the counterexample listing keeps its bytes:
# (document, extra argv, exit code, digest)
_PINNED_VERIFY = [
    (lambda: build_chain(5), (), EXIT_COUNTEREXAMPLE,
     "d71b24428453fbe03956300011720fd13429b0bab694cbb1dc2fc90a1b65045e"),
    # stochastic games under the ignored sampling flags: the first prints what the last entry pins
    (lambda: random_game(9, states=12, observations=3, failure_fraction=0.1),
     ("--samples", "200", "--depth", "6"), EXIT_COUNTEREXAMPLE,
     "c73329ac48306ac9c8a47e4c4c817163216bd242417a6b95ad9e2e943eccd183"),
    (lambda: random_game(7, states=30, observations=3, failure_fraction=0.05),
     ("--samples", "2000", "--depth", "3"), EXIT_COUNTEREXAMPLE,
     "3592520367b22d41b276d1e59f13280a605dd4f51d8c1feadc11f9e51e4120c9"),
    # the exhaustive control arm on a 4x4 game, and on one-hot observations
    (lambda: random_game(2, states=200, ai_actions=4, human_actions=4, failure_fraction=0.05),
     ("--depth", "3"), EXIT_COUNTEREXAMPLE,
     "9184191cd9b65cd7090672efb43ecb3d3c1841e49c8d9433dd2ecda12af89fb1"),
    (lambda: one_hot_observations(random_game(3, states=60, observations=3, failure_fraction=0.05), 3),
     ("--depth", "3"), EXIT_COUNTEREXAMPLE,
     "5ee71229d3ac5ecb1673aa6a781cafba362592e004c321de47a6affffa92a53a"),
    # the exhaustive search on a stochastic game's support graph
    (lambda: random_game(9, states=12, observations=3, failure_fraction=0.1),
     ("--depth", "6"), EXIT_COUNTEREXAMPLE,
     "c73329ac48306ac9c8a47e4c4c817163216bd242417a6b95ad9e2e943eccd183"),
]


@pytest.mark.parametrize("build, extra, code, digest", _PINNED_VERIFY)
def test_verify_output_is_pinned(tmp_path, capsys, build, extra, code, digest):
    path = tmp_path / "game.haig.json"
    save_spec(build(), path)
    assert main(["verify", str(path), "--filter", "none", *extra]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _corridors(length, seed):
    """Two shuffled corridors stepping toward their sinks, one safe and one failing."""
    rng = np.random.default_rng(seed)
    n = 2 * length
    index = rng.permutation(n).reshape(2, length)  # index[c, i]: corridor c, i steps from its sink
    transitions = np.empty((n, 2, 2, 1), dtype=np.int64)
    margins = np.empty(n)
    for c, sink in enumerate((rng.uniform(0.1, 1.0), -rng.uniform(0.1, 1.0))):
        transitions[index[c]] = index[c, np.maximum(np.arange(length) - 1, 0)][:, None, None, None]
        margins[index[c]] = sink + np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, length - 1))))
    return SpecDocument(game=GameSpec(
        num_states=n,
        ai_actions=("left", "right"),
        human_actions=("push", "pull"),
        observations=("none",),
        transitions=transitions,
        observation_probs=np.ones((n, 2, 2, 1)),
        margins=margins,
        action_bound=((0, 1),) * n,
    ))


# sha256 of the value file `haig solve` writes, so its layout keeps every byte
_PINNED_SOLVE = [
    (lambda: build_chain(5), "80f00715f31019ccea859f70452d9516e8e78d4c1d1c519dbddb94cd0a470d63"),
    (build_dialogue, "750adb755e5cff8fd56a4812774ae84d53f35bbbe9817cd679059e8c58dc518c"),
    (lambda: random_game(2, states=1000, ai_actions=4, human_actions=4, failure_fraction=0.05),
     "e3461098b9fdac6275faaff77a0bfac2b4942b65c7050c291ba7a0ebf3c8e7fa"),
    (lambda: random_game(7, states=30, observations=3, failure_fraction=0.05),
     "8c4ac3270e0f7c1706a7fdb6b1a8088f079a8b0100b83b46025671ca891abef7"),
    (lambda: _corridors(150, 4), "d21005af267fe1c377ecf43f4f9e26734d968d7dec887349e08792f0cb82374d"),
]


@pytest.mark.parametrize("build, digest", _PINNED_SOLVE)
def test_solve_output_is_pinned(tmp_path, build, digest):
    spec, out = tmp_path / "game.haig.json", tmp_path / "values.json"
    save_spec(build(), spec)
    assert main(["solve", str(spec), "-o", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_refused_outputs_are_never_opened(tmp_path, capsys, monkeypatch):
    """A value file or trace that cannot be written exits 3 and creates or truncates no file."""
    spec_path = _chain(tmp_path)
    out = tmp_path / "values.json"
    for earlier in (None, b"earlier"):
        if earlier is not None:
            out.write_bytes(earlier)
        assert main(["solve", str(spec_path), "-o", str(out), "--max-iters", "0"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: cannot write the non-finite number inf at residual\n"
        assert (out.read_bytes() if out.exists() else None) == earlier

    def refuse(trace):
        raise haig.SerializationError("trace refused")

    monkeypatch.setattr(haig.RolloutTrace, "to_jsonl", refuse)
    trace = tmp_path / "trace.jsonl"
    for earlier in (None, b"earlier"):
        if earlier is not None:
            trace.write_bytes(earlier)
        assert main(["filter-rollout", str(spec_path), "-o", str(trace)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: trace refused\n"
        assert (trace.read_bytes() if trace.exists() else None) == earlier


def test_solve_refuses_a_malformed_epsilon_or_budget_before_sweeping(tmp_path, capsys):
    """Each of these used to run the whole 100,000-sweep budget on a stochastic game."""
    spec_path = tmp_path / "stochastic.haig.json"
    save_spec(random_game(0, states=30, observations=3, failure_fraction=0.05), spec_path)
    out = tmp_path / "values.json"
    refusals = [
        (["--epsilon", "-1"], "epsilon must be finite and >= 0, got -1.0"),
        (["--epsilon", "nan"], "epsilon must be finite and >= 0, got nan"),
        (["--epsilon", "inf"], "epsilon must be finite and >= 0, got inf"),
        (["--epsilon=-inf"], "epsilon must be finite and >= 0, got -inf"),
        (["--max-iters", "-1"], "max_iters must be >= 0, got -1"),
    ]
    for extra, message in refusals:
        start = time.perf_counter()
        assert main(["solve", str(spec_path), "-o", str(out), *extra]) == EXIT_INPUT
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
    assert main(["compare-oracle", str(spec_path), "--epsilon", "-1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: epsilon must be finite and >= 0, got -1.0\n"

    # epsilon 0 and a budget of 0 stay valid
    assert main(["solve", str(_chain(tmp_path)), "-o", str(out), "--epsilon", "0"]) == EXIT_OK
    assert json.loads(out.read_text())["epsilon"] == 0.0
    assert main(["solve", str(spec_path), "-o", str(out), "--max-iters", "0", "--epsilon", "0"]) == EXIT_INPUT
    assert capsys.readouterr().err.endswith("error: cannot write the non-finite number inf at residual\n")


@pytest.mark.parametrize("argv, entries", [
    (["random", "--states", "270000", "--ai-actions", "4", "--human-actions", "4"], 4_320_000),
    (["chain", "--length", "99999", "--human-reach", "7"], 4_500_000),
])
def test_generate_refuses_a_game_the_parser_refuses(tmp_path, capsys, argv, entries):
    out = tmp_path / "big.haig.json"
    start = time.perf_counter()
    assert main(["generate", *argv, "-o", str(out)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: game declares {entries} (state, ai action, human action, observation) "
        f"entries, more than the limit of {haig.specfile.MAX_JOINT_ENTRIES}\n"
    )
    assert not out.exists()


def test_input_errors(tmp_path, capsys):
    missing = tmp_path / "missing.haig.json"
    out = tmp_path / "out.json"
    assert main(["solve", str(missing), "-o", str(out)]) == EXIT_INPUT

    mangled = tmp_path / "mangled.haig.json"
    mangled.write_text("{ not json")
    assert main(["solve", str(mangled), "-o", str(out)]) == EXIT_INPUT

    spec_path = _chain(tmp_path)
    trace = tmp_path / "t.jsonl"
    assert main([
        "filter-rollout", str(spec_path), "--task", "imaginary", "-o", str(trace),
    ]) == EXIT_INPUT
    assert main([
        "filter-rollout", str(spec_path), "--state", "99", "-o", str(trace),
    ]) == EXIT_INPUT
    assert main(["generate", "chain", "--length", "1", "-o", str(out)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err

    # a few bytes may declare a game too large to allocate; it is refused first
    huge = tmp_path / "huge.haig.json"
    game = json.loads(spec_path.read_text())["game"]
    game.update(states=1_000_000_000, transition={"default": "self", "entries": []})
    huge.write_text(json.dumps({"format_version": "1", "game": game}))
    start = time.perf_counter()
    assert main(["solve", str(huge), "-o", str(out)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert "limit" in capsys.readouterr().err

    # an integer beyond int64 is a schema error, not an OverflowError
    overflow = tmp_path / "overflow.haig.json"
    raw = json.loads(spec_path.read_text())
    raw["ground_truth"]["projection"][0][0] = 10**30
    overflow.write_text(json.dumps(raw))
    assert main(["solve", str(overflow), "-o", str(out)]) == EXIT_INPUT
    assert "projection[0][0]" in capsys.readouterr().err


def test_filter_rollout_refuses_an_action_index_out_of_range(tmp_path, capsys):
    spec_path = _chain(tmp_path)
    trace = tmp_path / "t.jsonl"
    for flag, message in (("--task=constant:7", "ai action index 7 out of range [0, 3)"),
                          ("--human=scripted:0,9", "human action index 9 out of range [0, 3)")):
        assert main(["filter-rollout", str(spec_path), flag, "-o", str(trace)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()


def test_filter_rollout_refuses_a_state_outside_the_ground_truth(tmp_path, capsys):
    """Chain 5 plus an isolated self-looping state 6, which its mirror ground truth does not project to."""
    doc = build_chain(5)
    spec = doc.game
    transitions = np.concatenate([spec.transitions, np.full((1, 3, 3, 1), 6)])
    game = dataclasses.replace(
        spec,
        num_states=7,
        transitions=transitions,
        observation_probs=np.ones(transitions.shape),
        margins=np.append(spec.margins, 1.0),
        action_bound=spec.action_bound + spec.action_bound[:1],
    )
    spec_path = tmp_path / "island.haig.json"
    save_spec(SpecDocument(game=game, ground_truth=doc.ground_truth), spec_path)
    trace = tmp_path / "t.jsonl"
    assert main(["filter-rollout", str(spec_path), "--state", "5", "-o", str(trace)]) == EXIT_OK
    capsys.readouterr()
    assert main(["filter-rollout", str(spec_path), "--state", "6", "-o", str(trace)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: ground truth has no configuration projecting to state 6\n"


def test_main_calls_share_no_state(tmp_path, capsys):
    """The parser is built once; each call parses its own arguments from the defaults."""
    spec_path = _chain(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(spec_path), "--depth", "2"]) == EXIT_OK
    assert "to depth 2 " in capsys.readouterr().out
    assert main(["verify", str(spec_path)]) == EXIT_OK
    assert "to depth 8 " in capsys.readouterr().out


def test_console_entry_point(tmp_path):
    """The installed script must behave like main()."""
    result = subprocess.run(
        [sys.executable, "-c", "import haig.cli, sys; sys.exit(haig.cli.main(sys.argv[1:]))",
         "generate", "chain", "-o", str(tmp_path / "c.haig.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == EXIT_OK
    assert "wrote" in result.stdout
    parse_spec((tmp_path / "c.haig.json").read_bytes())


def test_python_dash_m_runs_from_the_source_tree(tmp_path):
    src = Path(haig.__file__).resolve().parent.parent
    out = tmp_path / "m.haig.json"
    result = subprocess.run(
        [sys.executable, "-m", "haig", "generate", "chain", "--length", "3", "-o", str(out)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout == f"wrote {out} (4 states)\n"
    assert load_spec(out) == build_chain(3)


def test_usage_error_is_argparse_standard():
    with pytest.raises(SystemExit) as info:
        main(["solve"])  # missing required arguments
    assert info.value.code == 2
