#!/usr/bin/env python3
"""Layered benchmark for qtrace's exact inference.

One workload per process, a closed loop with one caller that waits for
each answer.  A query is one answered input (see ``workloads.py``); the
loop answers whole passes over the seed's inputs until ``--seconds`` have
passed.  Every answer is checked outside the timed region: by the
residual, least-solution and Dijkstra checks of ``verify.py``, against the
committed digests of exact answers in ``answers.json``, and, for the first
input of each pairing, against ``qtrace.cli.main``.  See README.md.

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, one fresh process each
    python3 perfbench/run.py --write-digests    # recompute answers.json

The last line of standard output is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics (a traced run) with ``--trace 1``.
Run it with the interpreter's asserts on: ``qtrace.solvers`` verifies its
fixed point with ``assert``, so ``python -O`` would time an unverified
solver.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "answers.json"
DIGEST_SEEDS = 32  # answers.json covers seeds 0..31; other seeds check seed % 32 too
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_s.p50": "s",
    "query_s.p90": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# time to import qtrace and load every shipped fixture, in a fresh interpreter
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import qtrace
from importlib import resources
from qtrace.bundled import fixture_text, load_model
for entry in sorted(resources.files("qtrace.fixtures").iterdir(), key=lambda e: e.name):
    if entry.name.endswith(".json"):
        load_model(entry.name)
    elif entry.name.endswith(".qtp"):
        fixture_text(entry.name)
print(time.perf_counter() - t0)
"""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    sys.path.insert(0, str(SRC))
    import qtrace

    if Path(qtrace.__file__).resolve().parent != SRC / "qtrace":
        _fail(f"imported qtrace from {qtrace.__file__}, not from {SRC}")


def measure_setup() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _text_digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def run_passes(cases, seconds: float, tracer=None):
    """Answer whole passes over ``cases`` until ``seconds`` have passed.

    Returns latencies (ns), per-case answer digests, the number of queries
    that raised, the pass count and the wall time.
    """
    latencies: list[int] = []
    answers: Counter = Counter()
    raised = 0
    runs = [(c.name, tracer.wrap("bench.query", c.run) if tracer else c.run) for c in cases]
    passes = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        for name, run in runs:
            if tracer:
                tracer.query_id += 1
            t0 = time.perf_counter_ns()
            try:
                text = run().text
            except Exception:  # a failing query is counted, and the loop goes on
                latencies.append(time.perf_counter_ns() - t0)
                if not raised:
                    traceback.print_exc()
                raised += 1
                continue
            latencies.append(time.perf_counter_ns() - t0)
            answers[(name, _text_digest(text))] += 1
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return latencies, answers, raised, passes, time.perf_counter() - started


def _combined(answers: list[str]) -> str:
    return hashlib.sha256(" ".join(answers).encode()).hexdigest()[:16]


def verify(cases, workload: str, seed: int, fx, make_cases):
    """Answer every case once more, untimed, and check it.

    Returns the good text digest and the problems of each case, whether
    the seed's answers match the committed digest (for a seed that
    answers.json does not cover, the inputs of ``seed % DIGEST_SEEDS`` are
    answered as well and compared instead), the number of those extra
    inputs, and the sizes summed (or, for maxima, maximized) over one pass.
    """
    from verify import answer_digest, inspect

    good, problems, counts, maxima, digests = {}, {}, Counter(), Counter(), []
    for case in cases:
        try:
            answer = case.run()
        except Exception as exc:  # reported as a problem of this case
            problems[case.name] = [f"raised {exc!r}"]
            digests.append("raised")
            continue
        found, sizes = inspect(answer)
        for key in ("max_bits", "largest_scc"):
            maxima[key] = max(maxima[key], sizes.pop(key, 0))
        counts.update(sizes)
        digests.append(answer_digest(answer))
        good[case.name] = _text_digest(answer.text)
        if found:
            problems[case.name] = found
    counts.update(maxima)

    ref_seed = seed % DIGEST_SEEDS
    ref_cases = [] if ref_seed == seed else make_cases(fx, ref_seed)
    if ref_cases:
        digests = []
        for case in ref_cases:
            try:
                digests.append(answer_digest(case.run()))
            except Exception:  # the reference input must answer too
                digests.append("raised")
    expected = json.loads(DIGESTS.read_text())["workloads"][workload][str(ref_seed)]
    return good, problems, _combined(digests) == expected, len(ref_cases), counts


def cli_agreement(cases) -> dict[str, list[str]]:
    """Run the cases that carry a CLI check through ``qtrace.cli.main``."""
    OUT.mkdir(exist_ok=True)
    out = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for case in cases:
            if case.cli_check is None:
                continue
            try:
                mismatch = case.cli_check(tmp, case.run())
            except Exception as exc:  # a crash in the CLI path is a mismatch
                mismatch = f"raised {exc!r}"
            if mismatch:
                out[f"cli {case.name}"] = [mismatch]
    return out


def _percentile(sorted_values: list[int], q: int) -> float:
    """Nearest-rank percentile, in seconds."""
    rank = -(-len(sorted_values) * q // 100)
    return sorted_values[max(rank, 1) - 1] / 1e9


LAYER_UNITS = {"queries_per_s": "1/s", "_s": "s", "_ratio": "ratio", "_bits": "bits", "_bytes": "bytes"}


def _layer_unit(name: str) -> str:
    return next((u for end, u in LAYER_UNITS.items() if name.endswith(end)), "count")


def _layer_metrics(tracer, counts, queries, passes, traced_wall, untraced) -> dict[str, float]:
    """Per-layer metrics: times in seconds per query, sizes per pass."""
    states, space, mutants = counts["states"], counts["space"], counts["mutants"]
    metrics = tracer.summary(queries)
    metrics.update({
        "solvers.unknowns": counts["unknowns"],
        "solvers.live_ratio": counts["unknowns"] / states if states else 0.0,
        "solvers.largest_scc": counts["largest_scc"],
        "solvers.max_bits": counts["max_bits"],
        "domains.kleene_rounds": counts["rounds"],
        "programs.valuations": counts["valuations"],
        "programs.reachable": counts["reachable"],
        "products.states": states,
        "products.edges": counts["edges"],
        "products.kept_ratio": states / space if space else 0.0,
        "oracle.traces": tracer.traces // passes,
        "lawcheck.checks": counts["checks"],
        "lawcheck.mutants_killed_ratio": counts["killed"] / mutants if mutants else 0.0,
        "cli.render_bytes": counts["render_bytes"],
        "trace.untraced_queries_per_s": untraced[0] / untraced[1],
        "trace.traced_queries_per_s": queries / traced_wall,
    })
    return metrics


def run_workload(args, workloads) -> int:
    from tracing import Tracer

    fx = workloads.Fixtures()
    make_cases = workloads.WORKLOADS[args.workload]
    cases = make_cases(fx, args.seed)

    if args.trace:
        # untraced first half, traced second half: their rates give the overhead
        u_latencies, u_answers, u_raised, _, u_wall = run_passes(cases, args.seconds / 2)
        untraced = (len(u_latencies), u_wall)
        tracer = Tracer()
        tracer.install(own_modules=(workloads,), extra={"cli.render": (workloads, "render")})
        try:
            latencies, answers, raised, passes, wall = run_passes(cases, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        answers += u_answers
        raised += u_raised
        queries_attempted = len(latencies) + len(u_latencies)
    else:
        latencies, answers, raised, passes, wall = run_passes(cases, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        queries_attempted = len(latencies)

    good, problems, committed, ref_count, counts = verify(
        cases, args.workload, args.seed, fx, make_cases
    )
    cli_problems = cli_agreement(cases)
    cli_count = sum(c.cli_check is not None for c in cases)
    if not committed:
        # which answer changed is not known, so none of them is trusted
        problems["answers.json"] = [f"answers for seed {args.seed % DIGEST_SEEDS} differ from the committed digest"]
    wrong = sum(
        n for (name, digest), n in answers.items()
        if name in problems or good.get(name) != digest or (not committed and not ref_count)
    )
    queries = len(latencies)
    attempted = queries_attempted + ref_count + cli_count
    failed = raised + wrong + len(cli_problems) + (ref_count if not committed else 0)
    for name, found in sorted({**problems, **cli_problems}.items()):
        for problem in found:
            print(f"FAIL {args.workload} {name}: {problem}", file=sys.stderr)

    if args.trace:
        metrics = _layer_metrics(tracer, counts, queries, passes, wall, untraced)
        units = {k: _layer_unit(k) for k in metrics}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        ordered = sorted(latencies)
        metrics = {
            "setup_s": args.setup_s,
            "query_s.p50": _percentile(ordered, 50),
            "query_s.p90": _percentile(ordered, 90),
            "queries_per_s": queries / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    print(
        f"{args.workload} seed={args.seed} queries={queries} passes={passes} "
        f"inputs={len(cases)} attempted={attempted} failed={failed} "
        f"error_ratio={failed / attempted:.6g}",
        file=sys.stderr,
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args, names) -> int:
    """Every workload in its own fresh process; fails on any error."""
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name}: no result (exit code {done.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
              f"error_ratio={result['failed'] / result['attempted']:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return status


def write_digests(workloads) -> int:
    """Recompute answers.json from the current code: per workload and seed,
    one digest over the answers of all inputs in order.  Refuses on any
    failed check."""
    from verify import answer_digest, inspect

    fx = workloads.Fixtures()
    doc = {"seeds": DIGEST_SEEDS, "workloads": {}}
    for name, make_cases in workloads.WORKLOADS.items():
        per_seed = doc["workloads"][name] = {}
        for seed in range(DIGEST_SEEDS):
            digests = []
            for case in make_cases(fx, seed):
                answer = case.run()
                problems, _ = inspect(answer)
                if problems:
                    _fail(f"{name} seed {seed} {case.name}: {problems}")
                digests.append(answer_digest(answer))
            per_seed[str(seed)] = _combined(digests)
        print(f"{name}: {DIGEST_SEEDS} seeds", file=sys.stderr)
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    if sys.flags.optimize:
        _fail("refusing to run under python -O: qtrace.solvers checks its fixed point with assert")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "qtrace" / "__init__.py").is_file():
        _fail(f"no qtrace sources under {SRC}; run from a checkout of the repository")

    _import_package()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.write_digests:
        return write_digests(workloads)
    if args.workload is None:
        return run_all(args, list(workloads.WORKLOADS))
    args.setup_s = measure_setup()
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
