"""``build`` workload: PeGaSus summaries of a sparse and a dense graph.

Set-up generates ``INSTANCES`` graphs of each regime (the same for every
seed), samples 100 target nodes per graph from the seed (as in Fig. 7)
and runs one small warm-up summary.  The measured loop summarizes one
sparse and one dense graph per round, cycling through the instances,
until ``--seconds`` have passed (whole rounds only).  Right after each
summary it answers RWR queries on it for the graph's first ``QUERIES``
targets, one ``rwr_scores`` call each: the latency a user of the summary
sees.  Every summary is checked against Eq. 3 and for a valid node
partition, and every answer for the properties of RWR; the answers for
the first graphs' first targets are also checked against the reference
kit on the summary and scored against converged exact RWR on the input
graph.  Peak RSS is read before any of the kit's work.
"""

from __future__ import annotations

import inspect
import statistics
import time

import numpy as np

from calltrace import CallTracer
from common import SETUP_REPEATS, Run, peak_rss_mb, percentile, timed_setups

#: (dataset stand-in, scale) per regime: about 18k edges each, average
#: degree about 9 (sparse) and about 40 (dense).
REGIMES = (("sparse", "lastfm_asia", 3.5), ("dense", "synthetic_dense", 0.45))
#: Graphs per regime: about as many sparse+dense rounds as a 25 s run
#: completes; a longer run cycles through them again.  Graph ``i`` is the
#: stand-in built with seed ``i`` for every run seed, which draws the
#: targets and summary seeds: graphs drawn per run seed made per-run
#: throughput depend on which graphs a run got.
INSTANCES = 5
TARGETS = 100
RATIO = 0.5
#: Timed RWR queries on each summary (its graph's first targets).
QUERIES = 40
#: The answers of the first graphs of each regime, for their first
#: targets, are checked against the kit and scored for ``rwr_smape``.
SMAPE_PAIRS = 2
SMAPE_TARGETS = 8
WARMUP = ("lastfm_asia", 0.2)


def _make_inputs(seed: int, generate):
    rng = np.random.default_rng(seed)
    inputs = []
    for index in range(INSTANCES):
        for regime, name, scale in REGIMES:
            graph = generate(name, scale=scale, seed=index).graph
            targets = np.sort(rng.choice(graph.num_nodes, size=TARGETS, replace=False))
            inputs.append((regime, index, graph, targets, int(rng.integers(2**31))))
    return inputs


def _install_core_tracing(tracer: CallTracer):
    """Trace the layers inside ``summarize``; returns the per-call context."""
    import repro.core.pegasus as pegasus
    from repro.core import CostModel, PersonalizedWeights
    from repro.core.batch import BatchCostEvaluator

    context = {"pairs": 0, "first_iteration": None, "last_iteration": None}

    def shingle_exit(started, ended, result, args):
        if context["first_iteration"] is None:
            context["first_iteration"] = started

    def merge_exit(started, ended, result, args):
        context["last_iteration"] = ended

    def scalar_exit(started, ended, result, args):
        context["pairs"] += 1

    def columnar_exit(started, ended, result, args):
        # A columnar call prices len(a_ids) pairs unless it declined (None).
        if result is not None:
            context["pairs"] += len(args[1])

    tracer.patch(PersonalizedWeights, "__init__", "core.weights")
    tracer.patch(pegasus, "candidate_groups", "core.shingle")
    tracer.patch(pegasus, "merge_groups", "core.merge")
    tracer.patch(CostModel, "evaluate_merge", "core.pricing_scalar")
    tracer.patch(BatchCostEvaluator, "evaluate_scores", "core.pricing_columnar")
    tracer.on_exit.update({
        "core.shingle": shingle_exit,
        "core.merge": merge_exit,
        "core.pricing_scalar": scalar_exit,
        "core.pricing_columnar": columnar_exit,
    })
    return context


def run(run: Run) -> None:
    from repro import PegasusConfig, load_dataset, rwr_scores, summarize

    tracer = CallTracer() if run.trace else None
    generate = tracer.wrap("graph.generate", load_dataset) if tracer else load_dataset

    def setup():
        inputs = _make_inputs(run.seed, generate)
        warm_graph = generate(WARMUP[0], scale=WARMUP[1], seed=run.seed).graph
        summarize(warm_graph, targets=np.arange(10), compression_ratio=RATIO,
                  config=PegasusConfig(seed=run.seed))
        return inputs

    inputs, setup_s = timed_setups(setup)
    generate_s = tracer.get("graph.generate").total_s / SETUP_REPEATS if tracer else 0.0

    context = _install_core_tracing(tracer) if tracer else None
    call = tracer.wrap("core.summarize", summarize) if tracer else summarize
    per_regime = {regime: {"edges": 0, "seconds": 0.0, "calls": 0, "merges": 0,
                           "iterations": 0, "pairs": 0, "init": 0.0, "sparsify": 0.0,
                           "latency": []}
                  for regime, _, _ in REGIMES}
    sizes = []  # what the Eq. 3 check needs, checked once the loop is over
    scored = {}  # (regime, index) -> (summary, {target: answer})
    measured = 0.0
    pair = 0
    while measured < run.seconds:
        start = (pair % INSTANCES) * len(REGIMES)
        pair += 1
        for regime, index, graph, targets, summary_seed in inputs[start:start + len(REGIMES)]:
            run.attempt("summaries")
            if tracer:
                tracer.prefix = regime + "."
                context.update(first_iteration=None, last_iteration=None, pairs=0,
                               weights_before=tracer.get(regime + ".core.weights").total_s)
            started = time.perf_counter()
            try:
                result = call(graph, targets=targets, compression_ratio=RATIO,
                              config=PegasusConfig(seed=summary_seed))
            except Exception as error:  # counted and reported, run continues
                run.fail("summaries")
                run.check(False, f"summarize {regime}#{index} raised {error!r}")
                continue
            ended = time.perf_counter()
            elapsed = ended - started
            measured += elapsed
            book = per_regime[regime]
            book["edges"] += graph.num_edges
            book["seconds"] += elapsed
            book["calls"] += 1
            book["merges"] += result.total_merges
            book["iterations"] += result.iterations
            if tracer:
                weights = tracer.get(regime + ".core.weights").total_s - context["weights_before"]
                first = context["first_iteration"] or ended
                book["init"] += first - started - weights
                book["sparsify"] += ended - (context["last_iteration"] or first)
                book["pairs"] += context["pairs"]
            sizes.append(_check_summary(run, f"{regime}#{index}", graph, result.summary))
            keep = None
            if index < SMAPE_PAIRS and (regime, index) not in scored:
                keep = {}
                scored[(regime, index)] = (result.summary, keep)
            measured += _query(run, rwr_scores, result.summary, targets[:QUERIES],
                               book["latency"], keep)
    if tracer:
        tracer.restore()
        tracer.prefix = ""
    # Read before the checks below, which import the kit and factor
    # matrices in this process.
    rss = peak_rss_mb()

    for regime, index, graph, targets, summary_seed in inputs[:SMAPE_PAIRS * len(REGIMES)]:
        if (regime, index) not in scored:  # a run too short to reach them
            summary = summarize(graph, targets=targets, compression_ratio=RATIO,
                                config=PegasusConfig(seed=summary_seed)).summary
            keep = {}
            scored[(regime, index)] = (summary, keep)
            _query(run, rwr_scores, summary, targets[:SMAPE_TARGETS], [], keep)
    _check_sizes(run, sizes)
    smape = _check_queries(run, inputs[:SMAPE_PAIRS * len(REGIMES)], scored, rwr_scores)
    total_edges = sum(book["edges"] for book in per_regime.values())
    total_s = sum(book["seconds"] for book in per_regime.values())
    for regime, book in per_regime.items():
        run.note(f"{regime:<15} {book['calls']} summaries, "
                 f"{book['edges'] / book['seconds']:.0f} edges/s, "
                 f"{len(book['latency'])} queries, p50 "
                 f"{1000.0 * statistics.median(book['latency']):.2f} ms")
    latency = [np.asarray(book["latency"]) * 1000.0 for book in per_regime.values()]
    run.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=rss,
        rwr_smape=smape,
        throughput=total_edges / total_s,
        # Each regime's percentile, averaged: pooled, the two regimes'
        # query times form two clusters and the median falls between them.
        latency_p50_ms=statistics.mean(percentile(values, 50) for values in latency),
    )
    if tracer:
        _layer_metrics(run, tracer, per_regime, generate_s, total_s)


def _query(run: Run, rwr_scores, summary, nodes, latency, keep) -> float:
    """Time one RWR query per node on *summary*; return the seconds spent."""
    spent = 0.0
    for node in nodes.tolist():
        run.attempt("rwr queries")
        started = time.perf_counter()
        try:
            answer = rwr_scores(summary, node)
        except Exception as error:  # counted and reported, run continues
            run.fail("rwr queries")
            run.check(False, f"rwr_scores({node}) on a summary raised {error!r}")
            continue
        elapsed = time.perf_counter() - started
        spent += elapsed
        latency.append(elapsed)
        run.check(answer.min() >= -1e-12 and abs(answer.sum() - 1.0) <= 1e-9,
                  f"RWR({node}) on a summary is not a distribution")
        if keep is not None and len(keep) < SMAPE_TARGETS:
            keep[node] = answer
    return spent


def _check_summary(run: Run, label: str, graph, summary):
    """Structural checks; returns what the Eq. 3 check needs."""
    run.check(not summary.is_weighted, f"{label}: PeGaSus summary is weighted")
    supernode_of = np.array(summary.supernode_of)
    live = np.unique(supernode_of)
    run.check(supernode_of.shape == (graph.num_nodes,), f"{label}: partition has wrong length")
    run.check(np.array_equal(live, np.sort(np.asarray(summary.supernodes()))),
              f"{label}: supernodes do not partition the nodes")
    lo, hi, _ = summary.superedge_arrays()
    run.check(bool(np.isin(lo, live).all() and np.isin(hi, live).all()),
              f"{label}: superedge on a dead supernode")
    return label, graph.num_nodes, graph.num_edges, supernode_of, lo.size, summary.size_in_bits()


def _check_sizes(run: Run, sizes) -> None:
    """Every summary meets its budget, with its size recomputed by Eq. 3."""
    import refkit

    for label, num_nodes, num_edges, supernode_of, superedges, reported in sizes:
        size = refkit.summary_size_bits(num_nodes, supernode_of, superedges)
        budget = RATIO * refkit.graph_size_bits(num_nodes, num_edges)
        run.check(size <= budget * (1 + 1e-12),
                  f"{label}: Eq. 3 size {size:.0f} over budget {budget:.0f}")
        run.check(abs(size - reported) <= 1e-6 * size,
                  f"{label}: reported size {reported:.0f} != Eq. 3 {size:.0f}")


def _check_queries(run: Run, inputs, scored, rwr_scores) -> float:
    """Check the kept RWR answers against the kit; return their mean SMAPE vs exact RWR."""
    import refkit

    defaults = inspect.signature(rwr_scores).parameters
    tolerance = refkit.rwr_tolerance(defaults["max_iterations"].default,
                                     defaults["tolerance"].default,
                                     restart=defaults["restart"].default)
    scores = []
    for regime, index, graph, _, _ in inputs:
        summary, answers = scored[(regime, index)]
        sample = np.fromiter(answers, dtype=np.int64)
        exact = refkit.rwr_exact(refkit.graph_adjacency(graph.num_nodes, graph.edge_array()),
                                 sample, method="iterate")
        lo, hi, weights = summary.superedge_arrays()
        on_summary = refkit.rwr_exact(
            refkit.summary_adjacency(summary.supernode_of, lo, hi, weights), sample)
        for column, (node, answer) in enumerate(answers.items()):
            gap = float(np.abs(answer - on_summary[:, column]).sum())
            if not run.check(gap <= tolerance,
                             f"{regime}#{index} RWR({node}) off by {gap:.3g} > {tolerance:.3g}"):
                continue
            scores.append(refkit.smape(exact[:, column], answer))
    return float(np.mean(scores)) if scores else float("nan")


def _layer_metrics(run: Run, tracer: CallTracer, per_regime, generate_s: float, total_s: float):
    layers = 0.0
    for regime, book in per_regime.items():
        calls = max(book["calls"], 1)

        def stat(name):
            return tracer.get(f"{regime}.core.{name}")

        self_times = {
            "weights_s": stat("weights").self_s,
            "init_s": book["init"],
            "shingle_s": stat("shingle").self_s,
            "merge_s": stat("merge").self_s,
            "pricing_s": stat("pricing_scalar").self_s + stat("pricing_columnar").self_s,
            "sparsify_s": book["sparsify"],
        }
        layers += sum(self_times.values())
        for name, value in self_times.items():
            run.metrics[f"{regime}.core.{name}"] = value / calls
        run.metrics[f"{regime}.core.pairs_priced"] = book["pairs"] / calls
        run.metrics[f"{regime}.core.merge_yield"] = book["merges"] / max(book["pairs"], 1)
        run.metrics[f"{regime}.core.merges"] = book["merges"] / calls
        run.metrics[f"{regime}.core.iterations"] = book["iterations"] / calls
        run.metrics[f"{regime}.core.eps"] = book["edges"] / book["seconds"]
    run.metrics["graph.generate_s"] = generate_s
    run.metrics["trace.total_s"] = total_s
    run.metrics["trace.unattributed_share"] = (total_s - layers) / total_s
