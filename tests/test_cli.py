from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import haig
from haig import build_chain, load_spec, parse_spec, random_game, save_spec
from haig.cli import EXIT_BUDGET, EXIT_COUNTEREXAMPLE, EXIT_INPUT, EXIT_OK, main


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


def test_verify_exit_codes(tmp_path, capsys):
    spec_path = _chain(tmp_path)
    assert main(["verify", str(spec_path), "--depth", "8"]) == EXIT_OK
    assert "no counterexamples" in capsys.readouterr().out

    rc = main(["verify", str(spec_path), "--depth", "8", "--filter", "none"])
    assert rc == EXIT_COUNTEREXAMPLE
    out = capsys.readouterr().out
    assert "counterexample from state" in out


def test_compare_oracle_exit_codes(tmp_path):
    spec_path = _chain(tmp_path)
    assert main(["compare-oracle", str(spec_path)]) == EXIT_OK
    assert main(["compare-oracle", str(spec_path), "--budget", "2"]) == EXIT_BUDGET


def test_deep_oracle_horizon_is_a_budget_error(tmp_path, capsys):
    """A default horizon past the interpreter's recursion limit exits 4, not with a traceback."""
    path = tmp_path / "long.haig.json"
    save_spec(build_chain(1200, 2), path)
    start = time.perf_counter()
    assert main(["compare-oracle", str(path)]) == EXIT_BUDGET
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: brute force horizon 1201 ")


# sha256 of verify's stdout, so the counterexample listing keeps its bytes:
# (document, extra argv, exit code, digest)
_PINNED_VERIFY = [
    (lambda: build_chain(5), (), EXIT_COUNTEREXAMPLE,
     "b280e6786f54fd7c2c92eda756e488d440d7396acfd91294b9017d02d1e983a3"),
    (lambda: random_game(9, states=12, observations=3, failure_fraction=0.1),
     ("--samples", "200", "--depth", "6"), EXIT_COUNTEREXAMPLE,
     "2486d84503153b6b8fdea53d1992a3afa7bf9c5ca7eee78ece0db519609343f1"),
    # about 3500 draws from the sampling stream
    (lambda: random_game(7, states=30, observations=3, failure_fraction=0.05),
     ("--samples", "2000", "--depth", "3"), EXIT_COUNTEREXAMPLE,
     "f323ceed7199cd98b21184b46e45e7c2757572fdfa10185cf368cd8659f317f4"),
]


@pytest.mark.parametrize("build, extra, code, digest", _PINNED_VERIFY)
def test_verify_output_is_pinned(tmp_path, capsys, build, extra, code, digest):
    path = tmp_path / "game.haig.json"
    save_spec(build(), path)
    assert main(["verify", str(path), "--filter", "none", *extra]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
