"""Shared pieces of the benchmark: metric names, run ledger, checks, output."""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: Times each workload repeats its whole set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Largest share of a traced run's total that per-layer self times may
#: leave unexplained (the accounting check of every traced run).
ACCOUNTING_TOLERANCE = 0.05

#: End-to-end metrics: every workload reports each of them (untraced runs).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rwr_smape", "ratio"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
)

_CORE = (
    ("core.weights_s", "s"),
    ("core.init_s", "s"),
    ("core.shingle_s", "s"),
    ("core.merge_s", "s"),
    ("core.pricing_s", "s"),
    ("core.sparsify_s", "s"),
    ("core.pairs_priced", "count"),
    ("core.merge_yield", "ratio"),
    ("core.merges", "count"),
    ("core.iterations", "count"),
    ("core.eps", "1/s"),
)

#: Per-layer metrics: every traced run prints all of them; a layer the
#: workload does not exercise reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graph.generate_s", "s"),
    ("partitioning.louvain_s", "s"),
    ("distributed.cluster_build_s", "s"),
    *((f"{g}.{name}", unit) for g in ("sparse", "dense") for name, unit in _CORE),
    ("distributed.route_ms", "ms"),
    ("queries.operator_build_ms", "ms"),
    ("queries.operator_builds", "count"),
    ("queries.matvec_us", "us"),
    ("queries.matvecs_per_query", "count"),
    ("queries.capped", "count"),
    ("queries.rwr_ms", "ms"),
    ("queries.php_ms", "ms"),
    ("queries.hop_ms", "ms"),
    ("serving.start_s", "s"),
    ("serving.queue_wait_ms", "ms"),
    ("serving.batch_fill", "count"),
    ("serving.compute_ms", "ms"),
    ("serving.wire_ms", "ms"),
    ("serving.swaps", "count"),
    ("parallel.redispatches", "count"),
    ("streaming.ingest_ms", "ms"),
    ("streaming.edges_absorbed", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.total_s", "s"),
    ("trace.unattributed_share", "ratio"),
)


class Run:
    """One workload run: its ledger of operations, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted: Dict[str, int] = OrderedDict()
        self.failed: Dict[str, int] = OrderedDict()
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    # -- ledger ---------------------------------------------------------
    def attempt(self, kind: str, count: int = 1) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + count
        self.failed.setdefault(kind, 0)

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + count

    # -- checks ---------------------------------------------------------
    def check(self, ok: bool, message: str) -> bool:
        """Record a failed correctness check (kept short; first few printed)."""
        if not ok:
            self.problems.append(message)
        return bool(ok)

    def note(self, line: str) -> None:
        self.notes.append(line)

    # -- output ---------------------------------------------------------
    def emit(self) -> int:
        """Print the run's accounting and its result line; return the exit code."""
        print(f"workload        {self.workload} (seed {self.seed}, {self.seconds:g} s, "
              f"trace {int(self.trace)})")
        print(f"defaults        {library_defaults()}")
        if self.trace:
            share = self.metrics["trace.unattributed_share"]
            self.check(abs(share) <= ACCOUNTING_TOLERANCE,
                       f"per-layer self times leave {share:.1%} of the traced total unexplained "
                       f"(tolerance {ACCOUNTING_TOLERANCE:.0%})")
            traced = " ".join(f"{name}={self.metrics[name]:.6g}" for name, _ in END_TO_END
                              if name in self.metrics)
            print(f"traced e2e      {traced}")
        for line in self.notes:
            print(line)
        for kind, count in self.attempted.items():
            print(f"ops             {kind}: attempted {count}, failed {self.failed[kind]}")
        for message in self.problems[:10]:
            print(f"CHECK FAILED    {message}")
        if len(self.problems) > 10:
            print(f"CHECK FAILED    ... {len(self.problems) - 10} more")
        spec = PER_LAYER if self.trace else END_TO_END
        missing = [name for name, _ in spec if name not in self.metrics]
        if missing:
            raise RuntimeError(f"workload did not produce metrics {missing}")
        correct = not self.problems
        result = {
            "correct": correct,
            "attempted": int(sum(self.attempted.values())),
            "failed": int(sum(self.failed.values())),
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit} for name, unit in spec
            },
        }
        sys.stdout.flush()
        print(json.dumps(result))
        return 0 if correct else 1


def library_defaults() -> str:
    """The summarizer defaults in force (the benchmark never overrides them)."""
    from repro.core import PegasusConfig

    config = PegasusConfig()
    return f"engine={config.engine} backend={config.backend} cost_cache={config.cost_cache}"


def timed_setups(setup: Callable[[], object]):
    """Run *setup* ``SETUP_REPEATS`` times; return (last result, median seconds)."""
    durations = []
    result = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - started)
    return result, statistics.median(durations)


def peak_rss_mb(extra_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus the given live processes, MB."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in extra_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
