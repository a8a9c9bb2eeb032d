"""Benchmark of the haig pipeline: verb wall times end to end, module self time traced.

Run from the root of a checkout:

    python3 bench/run.py --workload dense --seed 1 --seconds 20 --trace 0

One process runs one workload, single-threaded, calling the real verbs
in-process through ``haig.cli.main(argv)``.  Set-up builds and writes the
workload's documents (three times, reporting the median), imports haig
from ``src/`` and warms every verb up once.  The run then repeats passes
of the workload's verb sequence for ``--seconds`` and reports the median
pass, with times scaled to a reference machine speed (see ``scaled``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, taken from
spans recorded around the calls between haig's modules (see
``tracing.py``).  Every op's output is checked (see ``workloads.py``); an
unexpected exit code, a failed check or an exception counts as a failed
op and never aborts the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record: workload, why it was chosen, seed, machine, per-pass
times and the failures.  The record and the spans are also written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
# An untraced op shorter than this on the first pass is timed, on later
# passes, as the median of REPEATS runs: single runs of a few milliseconds
# scatter too much on a shared machine.
REPEAT_BELOW_S = 0.1
REPEATS = 3
DECISION_PAIRS = 2000

THROUGHPUT_EVERY_S = 2.0
THROUGHPUT_SAMPLE_S = 0.25
SPEED_EVERY_S = 0.25
# Time of ``reference_loop`` on the 2-core Xeon the benchmark was developed
# on, in a quiet spell; reported times are scaled to this speed.
REFERENCE_LOOP_S = 0.0065
VERBS = ("generate", "solve", "verify", "rollout", "oracle")
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "filter_steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"verb.{verb}_s": "s" for verb in VERBS},
    "specfile.load_s": "s",
    "specfile.load_mb_per_s": "MB/s",
    "specfile.save_s": "s",
    "specfile.doc_bytes": "bytes",
    "model.validate_s": "s",
    "model.tensor_bytes": "bytes",
    "scenarios.build_s": "s",
    "solver.value_iteration_s": "s",
    "solver.value_iteration_calls": "count",
    "solver.sweeps": "count",
    "solver.us_per_sweep": "us",
    "solver.payload_s": "s",
    "solver.brute_force_s": "s",
    "solver.brute_force_calls": "count",
    "filtering.perfect_filter_s": "s",
    "filtering.filter_action_s": "s",
    "filtering.filter_action_calls": "count",
    "filtering.decision_us_p50": "us",
    "filtering.decision_us_p99": "us",
    "harness.rollout_self_s": "s",
    "harness.jsonl_s": "s",
    "harness.verify_self_s": "s",
    "harness.verify_expansions": "count",
    "harness.verify_expansions_per_s": "1/s",
    "harness.verify_counterexamples": "count",
    "harness.oracle_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
# Self times compared when naming the layer that dominates a traced pass.
SELF_TIME_LAYERS = [
    name for name, unit in PER_LAYER_UNITS.items()
    if unit == "s" and not name.startswith(("verb.", "trace."))
]


def import_haig():
    """Import haig from the checkout's ``src/``, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "haig", "__init__.py")):
        raise SystemExit(f"error: no haig sources under {SRC}")
    sys.path.insert(0, SRC)
    import haig
    import haig.cli

    if not os.path.abspath(haig.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: haig was imported from {haig.__file__}, not from {SRC}")
    return haig


class Runner:
    """Runs ops through ``haig.cli.main`` and accounts for each one."""

    def __init__(self, haig, plan):
        self.haig = haig
        self.plan = plan
        self.attempted = 0
        self.failures = []
        self._first = {}  # op index -> (stdout, output bytes) of its first checked run
        self._repeats = {}  # op index -> runs per untraced pass

    def run_pass(self, tracer=None, between=None):
        """Wall time per verb for one pass over the plan's ops.

        ``between`` is called after every op, outside the timings.
        """
        times = dict.fromkeys(VERBS, 0.0)
        for index, op in enumerate(self.plan.ops):
            repeats = 1 if tracer is not None else self._repeats.get(index, 1)
            runs = [self.run_op(index, op, tracer) for _ in range(repeats)]
            self._repeats.setdefault(index, REPEATS if runs[0] < REPEAT_BELOW_S else 1)
            times[op.verb] += statistics.median(runs)
            if between is not None:
                between()
        return times

    def run_op(self, index, op, tracer=None):
        self.attempted += 1
        out = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = self.haig.cli.main(op.argv)
                else:
                    tracer.op = self.attempted
                    tracer.open(f"cli.{op.argv[0]}")
                    try:
                        code = self.haig.cli.main(op.argv)
                    finally:
                        tracer.close()
        except (Exception, SystemExit) as exc:  # an op's failure must not end the run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        reason = error or self._verdict(index, op, code, out.getvalue())
        if reason:
            self.failures.append({"op": index, "argv": op.argv, "reason": reason[:500]})
        return elapsed

    def _verdict(self, index, op, code, out):
        if code not in op.expect:
            return f"exit code {code}, expected one of {op.expect}"
        data = None
        if op.output is not None:
            with open(op.output, "rb") as fh:
                data = fh.read()
        if index in self._first:
            if self._first[index] != (out, data):
                return "output differs from the first pass"
            return None
        if op.check is not None:
            try:
                op.check(out, data)
            except CheckFailed as exc:
                return f"check failed: {exc}"
            except Exception as exc:  # a malformed output can break a check's parsing
                return f"check raised {type(exc).__name__}: {exc}"
        self._first[index] = (out, data)
        return None


def write_documents(plan):
    for path, data in plan.documents.items():
        with open(path, "wb") as fh:
            fh.write(data)


def set_up(haig, workload, seed, workdir, tiny):
    """Build and write the documents SETUP_REPEATS times; the median build counts."""
    builds, plan, failures = [], None, []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh = WORKLOADS[workload](haig, seed, workdir, tiny=tiny)
        write_documents(fresh)
        builds.append(time.perf_counter() - start)
        if plan is not None and fresh.documents != plan.documents:
            failures.append({"op": None, "argv": [], "reason": "set-up builds differ across repetitions"})
        plan = fresh
    return plan, statistics.median(builds), failures


def warm_up(haig, workdir):
    """Run every verb once on a small chain so imports and first calls are paid here."""
    spec = os.path.join(workdir, "warmup.haig.json")
    out = os.path.join(workdir, "warmup.out")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["generate", "chain", "--length", "5", "-o", spec],
            ["solve", spec, "-o", out],
            ["verify", spec],
            ["filter-rollout", spec, "-o", out, "--steps", "50"],
            ["compare-oracle", spec],
        ):
            if haig.cli.main(argv) != 0:
                raise SystemExit(f"error: warm-up of {argv[0]} failed")


def reference_loop():
    """Time of a fixed pure-Python loop, a gauge of the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def scaled(value, unit, loop_s):
    """``value``, measured while ``reference_loop`` took ``loop_s``, at the reference speed.

    The machine is shared with other tenants, and its speed drifts by a
    quarter or more over tens of seconds, for every op alike.  Times are
    therefore reported as they would read when the loop takes
    REFERENCE_LOOP_S, and rates inversely.  The loop is the benchmark's own
    code, so a change to haig moves a scaled time as it moves the measured
    one.  Counts and sizes are not scaled.
    """
    factor = REFERENCE_LOOP_S / loop_s
    if unit in ("s", "us"):
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value


class Speed:
    """``reference_loop`` timed between ops, at most every SPEED_EVERY_S."""

    def __init__(self):
        self.loops = []
        self._next = 0.0

    def __call__(self):
        if time.perf_counter() >= self._next:
            self.loops.append(reference_loop())
            self._next = time.perf_counter() + SPEED_EVERY_S

    def loop_s(self, since=0):
        """Median loop time sampled since index ``since``."""
        return statistics.median(self.loops[since:] or self.loops[-1:])


class Throughput:
    """Steps per second of ``rollout(config, solution)``.

    Called between ops, it samples at most every THROUGHPUT_EVERY_S, so the
    samples spread over the whole run as the passes do.  A sample repeats
    the call for at least THROUGHPUT_SAMPLE_S and is scaled by the median of
    five reference loops timed just before it.
    """

    def __init__(self, haig, config, solution):
        self.haig = haig
        self.config = config
        self.solution = solution
        self.rates = []
        self.trace = None
        self._next = 0.0

    def __call__(self):
        if time.perf_counter() < self._next:
            return
        loop_s = statistics.median(reference_loop() for _ in range(5))
        start = end = time.perf_counter()
        steps = 0
        while end - start < THROUGHPUT_SAMPLE_S:
            self.trace = self.haig.harness.rollout(self.config, self.solution)
            steps += len(self.trace.steps)
            end = time.perf_counter()
        self.rates.append(scaled(steps / (end - start), "steps/s", loop_s))
        self._next = end + THROUGHPUT_EVERY_S


def decision_times_us(haig, solution, seed):
    """One ``filter_action`` call each, over seeded (state, action) pairs, both modes."""
    spec = solution.spec
    rng = np.random.default_rng(seed)
    states = rng.integers(spec.num_states, size=DECISION_PAIRS).tolist()
    actions = rng.integers(spec.num_ai_actions, size=DECISION_PAIRS).tolist()
    samples = []
    for mode in ("switch", "least_restrictive"):
        flt = haig.perfect_filter(solution, mode)
        for z, a in zip(states, actions):
            start = time.perf_counter_ns()
            haig.filter_action(flt, z, a)
            samples.append((time.perf_counter_ns() - start) / 1000.0)
    cuts = statistics.quantiles(samples, n=100)
    return cuts[49], cuts[98]


def layer_metrics(tracer, plan):
    self_time, calls = tracer.self_times()
    counts = tracer.counts

    def total(*names):
        return sum(self_time.get(name, 0.0) for name in names)

    load = total("specfile.load_spec", "specfile.parse_spec")
    solve = total("solver.value_iteration")
    verify = total("harness.verify_safety")
    return {
        "specfile.load_s": load,
        "specfile.load_mb_per_s": counts["doc_bytes_loaded"] / 1e6 / load if load else 0.0,
        "specfile.save_s": total("specfile.save_spec", "specfile.serialize"),
        "specfile.doc_bytes": sum(len(data) for data in plan.documents.values()),
        "model.validate_s": total("model.validate_model"),
        "model.tensor_bytes": sum(g.transitions.nbytes + g.observation_probs.nbytes for g in plan.games),
        "scenarios.build_s": total("scenarios.random_game", "scenarios.build_chain", "scenarios.build_dialogue"),
        "solver.value_iteration_s": solve,
        "solver.value_iteration_calls": calls.get("solver.value_iteration", 0),
        "solver.sweeps": counts["sweeps"],
        "solver.us_per_sweep": solve * 1e6 / counts["sweeps"] if counts["sweeps"] else 0.0,
        "solver.payload_s": total("solver.solution_payload"),
        "solver.brute_force_s": total("solver.brute_force_value"),
        "solver.brute_force_calls": calls.get("solver.brute_force_value", 0),
        "filtering.perfect_filter_s": total("filtering.perfect_filter"),
        "filtering.filter_action_s": total("filtering.filter_action"),
        "filtering.filter_action_calls": calls.get("filtering.filter_action", 0),
        "harness.rollout_self_s": total("harness.rollout"),
        "harness.jsonl_s": total("harness.RolloutTrace.to_jsonl"),
        "harness.verify_self_s": verify,
        "harness.verify_expansions": counts["verify_expansions"],
        "harness.verify_expansions_per_s": counts["verify_expansions"] / verify if verify else 0.0,
        "harness.verify_counterexamples": counts["verify_counterexamples"],
        "harness.oracle_self_s": total("harness.compare_oracle"),
        "cli.self_s": total(*(name for name in self_time if name.startswith("cli."))),
    }


def why(workload):
    """The workload's reason for being, as BENCHMARK.json states it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return next(w["why"] for w in json.load(fh)["workloads"] if w["name"] == workload)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def run(workload, seed, seconds, trace, tiny=False):
    """Set up, measure for ``seconds`` and return (result, record, spans)."""
    start = time.perf_counter()
    haig = import_haig()
    import_s = time.perf_counter() - start

    raw_passes = []
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan, build_s, failures = set_up(haig, workload, seed, workdir, tiny)
        start = time.perf_counter()
        solution = haig.value_iteration(plan.rollout_config.document.game)
        warm_up(haig, workdir)
        setup_s = import_s + build_s + time.perf_counter() - start

        runner = Runner(haig, plan)
        speed = Speed()
        throughput = None if trace else Throughput(haig, plan.rollout_config, solution)

        def between_ops():
            speed()
            if throughput is not None:
                throughput()

        speed()
        setup_s = scaled(setup_s, "s", speed.loop_s())
        untraced, traced, tracers = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            pass_start = time.perf_counter()
            mark = len(speed.loops)
            if trace and len(traced) < len(untraced):
                tracer = Tracer()
                tracer.install()
                try:
                    times = runner.run_pass(tracer, between_ops)
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
                row, rows = layer_metrics(tracer, plan), traced
            else:
                times = runner.run_pass(between=between_ops)
                row, rows = {f"verb.{verb}_s": t for verb, t in times.items()}, untraced
            row["pipeline_s"] = sum(times.values())
            loop_s = speed.loop_s(mark)
            rows.append({name: scaled(value, UNITS[name], loop_s) for name, value in row.items()})
            raw_passes.append({"trace": rows is traced, "pipeline_s": row["pipeline_s"], "loop_s": loop_s})
            now = time.perf_counter()
            if now + (now - pass_start) > deadline and (traced or not trace):
                break

        if trace:
            metrics = {name: median_of(rows, name) for name in PER_LAYER_UNITS
                       for rows in (traced, untraced) if name in rows[0]}
            loop_s = statistics.median(reference_loop() for _ in range(3))
            for name, value in zip(("filtering.decision_us_p50", "filtering.decision_us_p99"),
                                   decision_times_us(haig, solution, seed)):
                metrics[name] = scaled(value, "us", loop_s)
            metrics["trace.overhead_s"] = median_of(traced, "pipeline_s") - median_of(untraced, "pipeline_s")
            units = PER_LAYER_UNITS
        else:
            with open(plan.rollout_trace, "rb") as fh:
                if throughput.trace.to_jsonl() != fh.read():
                    failures.append({"op": None, "argv": [], "reason": "throughput rollout differs from its verb"})
            metrics = {
                "setup_s": setup_s,
                "pipeline_s": median_of(untraced, "pipeline_s"),
                "filter_steps_per_s": statistics.median(throughput.rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += runner.failures
    result = {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "why": why(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "ops_per_pass": len(plan.ops),
        "reference_loop_s": REFERENCE_LOOP_S,
        "passes": raw_passes,
        "failures": failures,
    }
    if traced:
        layers = {name: metrics[name] for name in SELF_TIME_LAYERS}
        record["layer_self_s"] = dict(sorted(layers.items(), key=lambda item: -item[1]))
    spans = [tracer.dump() for tracer in tracers]
    return result, record, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="workload seed, >= 0")
    parser.add_argument("--seconds", required=True, type=float, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    result, record, spans = run(args.workload, args.seed, args.seconds, args.trace)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
