"""Benchmark for fedgame: four seeded workloads, checked answers, named metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload stable-sets --seed 1 --seconds 35 --trace 0

Workloads: stable-sets, verdicts and cli, which BENCHMARK.json lists, and
two-size, which is run by hand only (see README.md).  Each is a
closed loop with one client: the next query starts when the previous one
returns.  The run repeats whole rounds of the workload's fixed query set
until ``--seconds`` have passed, times every query, and checks every answer
against ``oracle.py`` and the paper's anchors.

``--trace 0`` reports the end-to-end metrics: queries_per_s, query_p50_ms,
setup_s and peak_rss_mb.  ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a copy goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is timed in this many fresh processes; the median is reported.
SETUP_RUNS = 5
# cli.interpreter_ms and cli.import_ms: fresh processes per traced run.
START_RUNS = 5


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def _setup_once(workload: str, seed: int) -> float:
    """Seconds from process start to "first query ready" in a fresh process."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.close()
    if child.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up child for {workload} failed")
    return elapsed


def _start_times() -> dict:
    """Bare interpreter start, and ``import fedgame.cli`` in a fresh one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interpreter, imports = [], []
    probe = "import time; t = time.perf_counter(); import fedgame.cli; print(time.perf_counter() - t)"
    for _ in range(START_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        interpreter.append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
        )
        imports.append(float(out.stdout))
    return {"cli.interpreter_ms": _median_ms(interpreter), "cli.import_ms": _median_ms(imports)}


class Raised(str):
    """An exception in place of an answer."""


class Rounds:
    """Per-query timings and answers over whole rounds of one query set."""

    def __init__(self, count: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(count)]
        self.answers: list[list] = [[] for _ in range(count)]

    def run(self, calls: list) -> None:
        for i, call in enumerate(calls):
            start = time.perf_counter()
            try:
                answer = call()
            except Exception as exc:  # the program raised: this answer fails its check
                answer = Raised(f"{type(exc).__name__}: {exc}")
            self.times[i].append(time.perf_counter() - start)
            self.answers[i].append(answer)

    def total(self) -> float:
        return sum(sum(t) for t in self.times)


def _failures(check, rounds: list[Rounds]) -> tuple[int, int]:
    """(attempted, failed): an answer fails if the check rejects the first
    answer to its query, or if it differs from that first answer."""
    firsts = [answers[0] for answers in rounds[0].answers]
    holds = [h and not isinstance(a, Raised) for h, a in zip(check(firsts), firsts)]
    attempted = failed = 0
    for r in rounds:
        for i, answers in enumerate(r.answers):
            attempted += len(answers)
            failed += sum(1 for a in answers if not holds[i] or a != firsts[i])
    return attempted, failed


def _peak_rss_mb(workload) -> float:
    if workload.child_peak_kb:
        return max(workload.child_peak_kb) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _contended(samples: list[float]) -> float:
    """A query's latency over one run: the 90th percentile of its times.

    The host runs at two speeds, each for seconds to minutes, and the slow
    one, with other tenants busy, holds most of every run.  The median or
    the mean of a query's times moves with the share of fast rounds in the
    run; the 90th percentile stays on the slow speed.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _repeat(seconds: float, one_round) -> None:
    """Whole rounds while the next one is expected to end within ``seconds``
    (at least one)."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        begun = time.perf_counter()
        one_round()
        now = time.perf_counter()
        longest = max(longest, now - begun)
        if now + longest - start > seconds:
            return


def measure(workload, seconds: float) -> tuple[dict, list[Rounds], dict]:
    rounds = Rounds(len(workload.queries))
    calls = [q.run for q in workload.queries]
    _repeat(seconds, lambda: rounds.run(calls))
    latency = [_contended(ts) for ts in rounds.times]
    metrics = {
        "queries_per_s": len(latency) / sum(latency),
        "query_p50_ms": statistics.median(latency) * 1000.0,
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    detail = {
        "rounds": len(rounds.times[0]),
        "query_times_ms": {q.name: [t * 1000.0 for t in ts] for q, ts in zip(workload.queries, rounds.times)},
    }
    return metrics, [rounds], detail


def measure_traced(workload, seconds: float, span_path: Path) -> tuple[dict, list[Rounds], dict]:
    import tracing

    calls = [q.run_in_process or q.run for q in workload.queries]
    probe = tracing.probe_calls()
    plain, traced = Rounds(len(calls)), Rounds(len(calls))
    tracer = tracing.Tracer()
    reports, first_spans = [], []

    def one_round() -> None:
        plain.run(calls)
        tracer.install()
        try:
            traced.run(calls)
            probe_bytes = sum(call() for call in probe)
        finally:
            tracer.uninstall()
        output = sum(
            len(answers[-1][1].encode())
            for q, answers in zip(workload.queries, traced.answers)
            if q.run_in_process and not isinstance(answers[-1], Raised)
        )
        report, spans = tracer.round_report(output + probe_bytes)
        if not reports:
            first_spans.extend(spans)
        reports.append(report)

    _repeat(seconds, one_round)
    tracing.write_spans(first_spans, span_path)
    # Counts are whole numbers and repeat from round to round; times take the median.
    metrics = {}
    for name, value in reports[0].items():
        median = statistics.median_low if isinstance(value, int) else statistics.median
        metrics[name] = median([r[name] for r in reports])
    metrics["trace.overhead_ms"] = (traced.total() - plain.total()) / len(reports) * 1000.0
    metrics.update(_start_times())
    return metrics, [plain, traced], {"rounds": len(reports), "spans": str(span_path.relative_to(ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fedgame" / "__init__.py").is_file():
        sys.stderr.write(f"error: the program's source is missing ({SRC / 'fedgame'})\n")
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_child:
        import workloads

        workloads.build(args.workload, args.seed, OUT)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    setup = [] if args.trace else [_setup_once(args.workload, args.seed) for _ in range(SETUP_RUNS)]
    import workloads

    workload = workloads.build(args.workload, args.seed, OUT)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, rounds, detail = measure_traced(workload, args.seconds, OUT / f"{stem}.spans.jsonl")
    else:
        metrics, rounds, detail = measure(workload, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
    attempted, failed = _failures(workload.check, rounds)
    units = _units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
