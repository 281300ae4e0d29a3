"""Spans around the program's public functions, recorded from outside it.

``Tracer.install()`` replaces the module attributes the program calls
through with wrappers, and ``uninstall()`` puts the originals back.  Each
wrapper records one span -- name, start, end and the index of the span that
was open when it started -- in memory.  ``enumerate_partitions`` returns a
generator, so its wrapper records a span around every ``next()``; timing the
call alone would end before any partition is built.

A span's self time is its duration minus the time covered by its child
spans.  ``round_report()`` turns one round's spans into per-layer figures
and clears them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

from fedgame.montecarlo import TrialPlan

# (module, attribute, span name).  The same function appears under every
# module that imported it by name, because callers look it up there.
WRAPPED = (
    ("fedgame.stability", "coalition_member_mse", "errors.member_mse"),
    ("fedgame.errors", "coalition_member_mse", "errors.member_mse"),
    ("fedgame.errors", "player_errors", "errors.player_errors"),
    ("fedgame.errors", "two_size_errors", "errors.two_size_errors"),
    ("fedgame.stability", "two_size_errors", "errors.two_size_errors"),
    ("fedgame.constructive", "two_size_errors", "errors.two_size_errors"),
    ("fedgame.weights", "optimal_coarse_mse", "weights.optimal_mse"),
    ("fedgame.weights", "optimal_fine_mse", "weights.optimal_mse"),
    ("fedgame.weights", "optimal_v", "weights.optimal_v"),
    ("fedgame.weights", "optimal_w", "weights.optimal_w"),
    ("fedgame.stability", "find_stable_partitions", "stability.find_stable_partitions"),
    ("fedgame.stability", "is_core_stable", "stability.verdict"),
    ("fedgame.stability", "is_strict_core_stable", "stability.verdict"),
    ("fedgame.stability", "is_individually_stable", "stability.verdict"),
    ("fedgame.stability", "two_size_blocking_search", "stability.two_size_search"),
    ("fedgame.stability", "two_size_weak_blocking_search", "stability.two_size_search"),
    ("fedgame.stability", "two_size_individually_stable", "stability.two_size_search"),
    ("fedgame.constructive", "construct_individually_stable_uniform", "constructive.construct"),
    ("fedgame.constructive", "construct_strict_core_coarse", "constructive.construct"),
    ("fedgame.montecarlo", "run_case", "montecarlo.run_case"),
    ("fedgame.montecarlo", "empirical_mse_mean", "montecarlo.empirical"),
    ("fedgame.montecarlo", "empirical_mse_linreg", "montecarlo.empirical"),
    ("fedgame.cli", "main", "cli.main"),
)
GENERATORS = (
    ("fedgame.stability", "enumerate_partitions", "model.enumerate_partitions"),
    ("fedgame.cli", "enumerate_partitions", "model.enumerate_partitions"),
)

# Per-layer metrics read from one round's spans: self time and call counts.
SELF_MS = {
    "model.enumerate_partitions.self_ms": "model.enumerate_partitions",
    "errors.member_mse.self_ms": "errors.member_mse",
    "errors.two_size_errors.self_ms": "errors.two_size_errors",
    "errors.player_errors.self_ms": "errors.player_errors",
    "weights.optimal_mse.self_ms": "weights.optimal_mse",
    "stability.find_stable_partitions.self_ms": "stability.find_stable_partitions",
    "stability.verdict.self_ms": "stability.verdict",
    "stability.two_size_search.self_ms": "stability.two_size_search",
    "constructive.construct.self_ms": "constructive.construct",
    "cli.main.self_ms": "cli.main",
}
CALLS = {
    "errors.member_mse.calls": "errors.member_mse",
    "errors.two_size_errors.calls": "errors.two_size_errors",
    "weights.optimal_mse.calls": "weights.optimal_mse",
    "weights.optimal_v.calls": "weights.optimal_v",
    "constructive.construct.calls": "constructive.construct",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self._counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        span = self.spans[index]
        span[1] = start
        span[2] = end

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start)
            if name == "montecarlo.empirical":
                plan = next(a for a in (*args, *kwargs.values()) if isinstance(a, TrialPlan))
                self._counts["montecarlo.trials"] += plan.trials
                self._counts["montecarlo.resamples"] += result.resamples
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._timed_iteration(name, fn(*args, **kwargs))

        return wrapper

    def _timed_iteration(self, name: str, iterator):
        caller = self.spans[self.stack[-1]][0] if self.stack else None
        while True:
            index = self._open(name)
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index, start)
            self._counts["model.partitions"] += 1
            if caller == "stability.find_stable_partitions":
                self._counts["searched partitions"] += 1
            yield item

    def install(self) -> None:
        for wrap, table in ((self._wrap, WRAPPED), (self._wrap_generator, GENERATORS)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # --- reports ------------------------------------------------------------

    def round_report(self, output_bytes: int) -> tuple[dict, list]:
        """Per-layer figures for the spans recorded since the last report,
        and those spans; clears both."""
        spans, counts = self.spans, self._counts
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans):
            self_ms[name] += (end - start - child[i]) * 1000.0
            total_s[name] += end - start  # no wrapped function calls itself
            calls[name] += 1
        report = {metric: self_ms[name] for metric, name in SELF_MS.items()}
        report.update({metric: calls[name] for metric, name in CALLS.items()})
        search_s = total_s["stability.find_stable_partitions"]
        mc_s = total_s["montecarlo.empirical"]
        report["model.partitions"] = counts["model.partitions"]
        report["stability.partitions_per_s"] = counts["searched partitions"] / search_s if search_s else 0.0
        report["montecarlo.trials"] = counts["montecarlo.trials"]
        report["montecarlo.resamples"] = counts["montecarlo.resamples"]
        report["montecarlo.trials_per_s"] = counts["montecarlo.trials"] / mc_s if mc_s else 0.0
        report["cli.output_bytes"] = output_bytes
        self.spans = []
        self._counts = Counter()
        return report, spans


def write_spans(spans: list, path: Path) -> None:
    with path.open("w") as handle:
        for name, start, end, parent in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def probe_calls() -> list:
    """One small, fixed call into each layer.  Every traced round ends with
    these, so that every layer is timed on every workload; on a layer the
    workload itself does not use, the figure is the probe's alone.  Each
    call returns the bytes it printed through the cli."""
    from fedgame import cli, constructive, errors, montecarlo, stability
    from fedgame.model import FineOptimal, GameConfig, Partition, TwoSizeGame, Uniform

    three = GameConfig((5, 5, 25), 10, 1)
    four = GameConfig((5, 7, 9, 30), 10, 1)
    game = TwoSizeGame(11, 106, 70, 7)
    two_size = constructive.two_size_game_config(game, 100, 1)
    arrangement = ((70, 3),) + ((0, 1),) * 4
    case = montecarlo.agreement_battery()[0]
    plan = montecarlo.TrialPlan(trials=4096, seed=0)

    def run_cli() -> int:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli.main(["reproduce", "--table", "1"])
        return len(buffer.getvalue().encode())

    return [
        lambda: errors.player_errors(Partition.grand(3), Uniform(), three) and 0,
        lambda: stability.find_stable_partitions(three, Uniform(), "core") and 0,
        lambda: stability.is_core_stable(Partition.singletons(4), FineOptimal(), four) and 0,
        lambda: constructive.construct_individually_stable_uniform(game, two_size) and 0,
        lambda: stability.two_size_blocking_search(game, arrangement, Uniform(), two_size) and 0,
        lambda: montecarlo.run_case(case, plan) and 0,
        run_cli,
    ]
