"""``query-batch`` workload: Sect. IV multi-query answering in one process.

Set-up generates the ``dblp`` stand-in and builds a 2-machine Alg. 3
summary cluster, both with the library defaults (so both are the same
for every seed, as the paper's datasets are fixed graphs); the seed
draws the query nodes.  The measured loop sends
batches of 32 distinct query nodes to ``DistributedCluster.answer_batch``,
one batch each of RWR, PHP and HOP per round, until ``--seconds`` of
answering have passed.  A stopwatch around ``Machine.answer`` (the one
call per query inside ``answer_batch``) gives each answer's latency; the
latency percentiles are each type's, averaged over the three types.

Every answer is checked against the reference kit on its machine's
reconstructed graph; ``rwr_smape`` scores a fixed sample of cluster RWR
answers against converged RWR on the input graph.  The checks run in a
forked child process, so the kit's imports and factorizations stay out
of this process's peak RSS.
"""

from __future__ import annotations

import inspect
import multiprocessing
import statistics
import time

import numpy as np

from calltrace import CallTracer
from common import SETUP_REPEATS, Run, peak_rss_mb, percentile, timed_setups

DATASET = ("dblp", 3.0)  # about 5.4k nodes, 17k edges
MACHINES = 2
RATIO = 0.5  # per-machine budget as a share of Size(G)
BATCH = 32
TYPES = ("rwr", "php", "hop")
#: ``rwr_smape`` scores the first RWR batches' answers (128 queries).
SMAPE_BATCHES = 4


def _install_query_tracing(tracer: CallTracer):
    """Trace the query layer under ``answer_batch``; returns the capped counter."""
    import repro.distributed.cluster as cluster_module
    import repro.distributed.pipeline as pipeline
    from repro.queries import ReconstructedOperator, php_scores, rwr_scores

    tracer.patch(pipeline, "louvain_partition", "partitioning.louvain")
    tracer.patch(cluster_module, "rwr_scores", "queries.rwr")
    tracer.patch(cluster_module, "php_scores", "queries.php")
    tracer.patch(cluster_module, "hop_distances", "queries.hop")
    tracer.patch(ReconstructedOperator, "__init__", "queries.operator_build")
    tracer.patch(ReconstructedOperator, "matvec", "queries.matvec")
    caps = {"rwr": inspect.signature(rwr_scores).parameters["max_iterations"].default,
            "php": inspect.signature(php_scores).parameters["max_iterations"].default}
    state = {"capped": 0, "matvecs_seen": 0}

    def exit_for(kind):
        # Only RWR and PHP call matvec, one at a time, so the matvecs since
        # the previous one returned are this answer's; an answer that ran
        # max_iterations of them hit the cap instead of the tolerance.
        def hook(started, ended, result, args):
            calls = tracer.get("queries.matvec").calls
            if calls - state["matvecs_seen"] >= caps[kind]:
                state["capped"] += 1
            state["matvecs_seen"] = calls
        return hook

    for kind in ("rwr", "php"):
        tracer.on_exit[f"queries.{kind}"] = exit_for(kind)
    return state


def run(run: Run) -> None:
    from repro import load_dataset
    from repro.distributed import build_summary_cluster
    from repro.distributed.cluster import Machine

    tracer = CallTracer() if run.trace else None
    state = _install_query_tracing(tracer) if tracer else None
    generate = tracer.wrap("graph.generate", load_dataset) if tracer else load_dataset
    build = (tracer.wrap("distributed.cluster_build", build_summary_cluster)
             if tracer else build_summary_cluster)

    def setup():
        graph = generate(DATASET[0], scale=DATASET[1]).graph
        return graph, build(graph, MACHINES, RATIO * graph.size_in_bits())

    (graph, cluster), setup_s = timed_setups(setup)
    if tracer:
        setup_layers = {name: tracer.get(name).total_s / SETUP_REPEATS for name in
                        ("graph.generate", "partitioning.louvain", "distributed.cluster_build")}

    answer = tracer.wrap("distributed.answer_batch", cluster.answer_batch) if tracer else cluster.answer_batch
    checker = _CheckerProcess(cluster, graph)
    latencies = {kind: [] for kind in TYPES}  # seconds per answer, by type
    original_answer = Machine.answer

    def timed_answer(machine, node, query_type):
        started = time.perf_counter()
        result = original_answer(machine, node, query_type)
        latencies[query_type].append(time.perf_counter() - started)
        return result

    rng = np.random.default_rng([run.seed, 1])
    seconds = {kind: 0.0 for kind in TYPES}
    counts = {kind: 0 for kind in TYPES}
    measured = 0.0
    Machine.answer = timed_answer
    try:
        while measured < run.seconds:
            for kind in TYPES:
                nodes = rng.choice(graph.num_nodes, size=BATCH, replace=False)
                run.attempt(f"{kind} queries", BATCH)
                started = time.perf_counter()
                try:
                    answers = answer(nodes, kind)
                except Exception as error:  # counted and reported, run continues
                    run.fail(f"{kind} queries", BATCH)
                    run.check(False, f"answer_batch({kind}) raised {error!r}")
                    continue
                elapsed = time.perf_counter() - started
                seconds[kind] += elapsed
                counts[kind] += BATCH
                measured += elapsed
                checker.submit(kind, nodes, answers)
    finally:
        Machine.answer = original_answer
        if tracer:
            tracer.restore()
    # Read before the checks: the child's memory is its own, and nothing
    # of the kit has been imported here.
    rss = peak_rss_mb()

    rwr_batches = counts["rwr"] // BATCH
    for _ in range(SMAPE_BATCHES - rwr_batches):  # a run too short to reach them
        nodes = rng.choice(graph.num_nodes, size=BATCH, replace=False)
        run.attempt("rwr queries", BATCH)
        checker.submit("rwr", nodes, cluster.answer_batch(nodes, "rwr"))
    problems, smape = checker.finish()
    for message in problems:
        run.check(False, message)

    answered = sum(counts.values())
    for kind in TYPES:
        rate = counts[kind] / seconds[kind] if seconds[kind] else 0.0
        run.note(f"{kind + ' qps':<15} {rate:.1f}")
    run.note(f"latency         {sum(map(len, latencies.values()))} answers timed one by one")
    # Each type's percentile, averaged: the types' answer times form
    # clusters, and a pooled percentile falls where two of them overlap,
    # which moves with how much the machine's speed varied in the run.
    by_type = [1000.0 * np.asarray(values) for values in latencies.values()]
    run.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=rss,
        rwr_smape=smape,
        throughput=answered / measured,
        latency_p50_ms=statistics.mean(percentile(values, 50) for values in by_type),
    )
    if tracer:
        _layer_metrics(run, tracer, state, setup_layers, measured)


class _CheckerProcess:
    """Runs :class:`_Checker` in a forked child fed batch by batch.

    The child only stores what it is sent until :meth:`finish`, so it
    takes no CPU from the measured loop; then it checks every answer,
    scores the first ``SMAPE_BATCHES`` RWR batches and sends back its
    problems and the SMAPE.
    """

    def __init__(self, cluster, graph):
        context = multiprocessing.get_context("fork")
        self.connection, child = context.Pipe()
        self.process = context.Process(target=_check_in_child, args=(child, cluster, graph),
                                       daemon=True)
        self.process.start()
        child.close()

    def submit(self, kind: str, nodes: np.ndarray, answers) -> None:
        self.connection.send((kind, nodes, answers))

    def finish(self):
        try:
            self.connection.send(None)
            return self.connection.recv()
        finally:
            self.connection.close()
            self.process.join(timeout=60)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()


def _check_in_child(connection, cluster, graph) -> None:
    import refkit
    from repro.queries import php_scores, rwr_scores

    received = []
    while True:
        item = connection.recv()
        if item is None:
            break
        received.append(item)
    local = Run("query-batch", 0, 0.0, False)
    checker = _Checker(local, cluster, rwr_scores, php_scores)
    scored = []
    for kind, nodes, answers in received:
        checker.check(kind, nodes, answers)
        if kind == "rwr" and len(scored) < SMAPE_BATCHES:
            scored.append((nodes, answers))
    sample = np.concatenate([nodes for nodes, _ in scored])
    served = [answers[int(node)] for nodes, answers in scored for node in nodes]
    exact = refkit.Reference(refkit.graph_adjacency(graph.num_nodes, graph.edge_array())).rwr(sample)
    smape = float(np.mean([refkit.smape(exact[:, i], answer) for i, answer in enumerate(served)]))
    connection.send((local.problems, smape))
    connection.close()


class _Checker:
    """Checks every answer against the kit on its machine's reconstructed graph."""

    def __init__(self, run: Run, cluster, rwr_scores, php_scores):
        import refkit

        self.run = run
        self.cluster = cluster
        self.references = {}
        rwr = inspect.signature(rwr_scores).parameters
        php = inspect.signature(php_scores).parameters
        self.rwr_tolerance = refkit.rwr_tolerance(
            rwr["max_iterations"].default, rwr["tolerance"].default, restart=rwr["restart"].default)
        self.php_tolerance = refkit.php_tolerance(
            php["max_iterations"].default, php["tolerance"].default,
            continuation=php["continuation"].default)

    def _reference(self, machine):
        import refkit

        if machine.machine_id not in self.references:
            summary = machine.source
            lo, hi, weights = summary.superedge_arrays()
            self.references[machine.machine_id] = refkit.Reference(
                refkit.summary_adjacency(summary.supernode_of, lo, hi, weights))
        return self.references[machine.machine_id]

    def check(self, kind: str, nodes: np.ndarray, answers) -> None:
        run = self.run
        if not run.check(list(answers) == [int(n) for n in nodes], f"{kind}: answer keys differ"):
            return
        groups = {}
        for node in nodes.tolist():
            groups.setdefault(self.cluster.machine_for(node).machine_id, []).append(node)
        for machine_id, members in groups.items():
            reference = self._reference(self.cluster.machines[machine_id])
            expected = getattr(reference, kind)(members)
            for column, node in enumerate(members):
                got, want = answers[node], expected[:, column]
                if kind == "hop":
                    run.check(np.array_equal(got, want), f"HOP({node}) differs from BFS")
                elif kind == "rwr":
                    gap = float(np.abs(got - want).sum())
                    run.check(gap <= self.rwr_tolerance,
                              f"RWR({node}) L1 gap {gap:.3g} > {self.rwr_tolerance:.3g}")
                else:
                    gap = float(np.abs(got - want).max())
                    run.check(gap <= self.php_tolerance,
                              f"PHP({node}) max gap {gap:.3g} > {self.php_tolerance:.3g}")


def _layer_metrics(run: Run, tracer: CallTracer, state, setup_layers, measured: float) -> None:
    get = tracer.get
    batches = get("distributed.answer_batch").calls
    iterative = get("queries.rwr").calls + get("queries.php").calls
    builds = get("queries.operator_build")
    matvec = get("queries.matvec")
    run.metrics.update({
        "graph.generate_s": setup_layers["graph.generate"],
        "partitioning.louvain_s": setup_layers["partitioning.louvain"],
        "distributed.cluster_build_s": setup_layers["distributed.cluster_build"],
        "distributed.route_ms": 1000.0 * get("distributed.answer_batch").self_s / max(batches, 1),
        "queries.operator_build_ms": 1000.0 * builds.total_s / max(builds.calls, 1),
        "queries.operator_builds": builds.calls,
        "queries.matvec_us": 1e6 * matvec.total_s / max(matvec.calls, 1),
        "queries.matvecs_per_query": matvec.calls / max(iterative, 1),
        "queries.capped": state["capped"],
    })
    for kind in TYPES:
        stat = get(f"queries.{kind}")
        run.metrics[f"queries.{kind}_ms"] = 1000.0 * stat.total_s / max(stat.calls, 1)
    layers = sum(get(name).self_s for name in (
        "distributed.answer_batch", "queries.rwr", "queries.php", "queries.hop",
        "queries.operator_build", "queries.matvec"))
    run.metrics["trace.total_s"] = measured
    run.metrics["trace.unattributed_share"] = (measured - layers) / measured
