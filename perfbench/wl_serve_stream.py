"""``serve-stream`` workload: open-loop TCP serving while edges stream in.

Set-up generates the ``lastfm_asia`` stand-in, holds out 5 % of its
edges as an insert stream, builds a 2-machine ``StreamingSummarizer`` on
the rest and serves its cluster through ``NetServer`` → ``TenantHost``
(2 lanes), with the summarizer attached to the tenant's server.

The run has two phases over the same two TCP connections.  First, for
``CLOSED_SHARE`` of ``--seconds``, a closed loop: each connection sends
its next RWR/PHP/HOP query as soon as the previous reply arrives, which
measures the stack's capacity (``throughput``).  Then, for the rest, an
open loop: a Poisson stream of queries at a fixed rate, about a quarter
of that capacity, while small insert batches arrive at a fixed cadence and
``StreamingSummarizer.ingest(refresh="none")`` absorbs them on the event
loop.  Latency runs from each query's scheduled send time to its reply.
The graph, the held-out edges and the cluster are the same for every
seed; the seed orders the stream and draws the queries and their times.

Every served answer is checked for the method's properties; after the
stream, a sample of queries is checked against the reference kit on each
machine's summary plus residual edges, and the absorbed edge count
against the benchmark's own count of novel stream edges.
"""

from __future__ import annotations

import asyncio
import inspect
import statistics
import time

import numpy as np

from calltrace import CallTracer
from common import SETUP_REPEATS, Run, peak_rss_mb, percentile

DATASET = ("lastfm_asia", 1.0)  # about 1.2k nodes, 5k edges
MACHINES = 2
LANES = 2
CONNECTIONS = 2
RATIO = 0.5
HOLDOUT = 0.05
#: Share of ``--seconds`` spent in the closed-loop (capacity) phase.
CLOSED_SHARE = 0.2
#: Poisson query rate of the open-loop phase: about a quarter of the
#: closed-loop capacity, so that a slow spell of the machine does not
#: push the stack near saturation (see README).
RATE_QPS = 32.0
INSERT_PERIOD_S = 0.5
#: A run whose load generator sent its p99 query later than this after
#: its scheduled time measured the generator, not the server: it fails.
LAG_LIMIT_MS = 50.0
MIX = ("rwr", "php", "hop")
#: Queries per type checked against the kit after the stream ends.
POST_SAMPLE = 64
TENANT = "bench"


def make_inputs(seed: int, generate):
    """The graph, its base part and its held-out insert stream (seed-ordered)."""
    from repro.graph import Graph

    graph = generate(DATASET[0], scale=DATASET[1]).graph
    edges = graph.edge_array()
    order = np.random.default_rng(0).permutation(edges.shape[0])
    held = max(1, int(round(HOLDOUT * edges.shape[0])))
    base = Graph.from_edges(graph.num_nodes, edges[order[:-held]])
    stream = edges[order[-held:]]
    return graph, base, stream[np.random.default_rng([seed, 0]).permutation(held)]


class Stack:
    """One started serving stack: summarizer, tenant host, TCP server, clients."""

    @classmethod
    async def start(cls, seed: int, generate, tracer, obs) -> "Stack":
        from repro.serving import NetClient, NetServer, TenantHost
        from repro.streaming import StreamingSummarizer

        self = cls()
        self.graph, self.base, self.stream = make_inputs(seed, generate)
        build = StreamingSummarizer
        if tracer:
            build = tracer.wrap("distributed.cluster_build", StreamingSummarizer)
        self.summarizer = build(self.base, MACHINES, RATIO * self.base.size_in_bits())
        started = time.perf_counter()
        self.host = await TenantHost(workers=LANES, obs=obs).start()
        self.server = await self.host.add_tenant(TENANT, self.summarizer.cluster)
        self.summarizer.attach(self.server)
        self.net = await NetServer(self.host, obs=obs).start()
        self.clients = [await NetClient.connect("127.0.0.1", self.net.port)
                        for _ in range(CONNECTIONS)]
        self.start_s = time.perf_counter() - started
        # Warm-up: every query type on a node of each machine, so both
        # lanes have built their operators before anything is timed.
        parts = self.summarizer.cluster.machines
        for machine in parts:
            node = int(machine.part_nodes[0])
            for kind in MIX:
                await self.clients[0].query(TENANT, node, kind)
        return self

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.net.stop()
        self.summarizer.detach()
        await self.host.close()

    def lane_pids(self):
        return [pid for lane in self.host.executor.lane_pids() for pid in lane]


def run(run: Run) -> None:
    asyncio.run(_run(run))


async def _run(run: Run) -> None:
    from repro import load_dataset
    from repro.obs import MetricsRegistry, ObsConfig, Tracer

    tracer = CallTracer() if run.trace else None
    obs = None
    if tracer:
        import repro.distributed.pipeline as pipeline

        tracer.patch(pipeline, "louvain_partition", "partitioning.louvain")
        obs = ObsConfig(registry=MetricsRegistry(), tracer=Tracer(ring=1_000_000))
    generate = tracer.wrap("graph.generate", load_dataset) if tracer else load_dataset

    durations, start_times = [], []
    for repeat in range(SETUP_REPEATS):
        began = time.perf_counter()
        stack = await Stack.start(run.seed, generate, tracer, obs)
        durations.append(time.perf_counter() - began)
        start_times.append(stack.start_s)
        if repeat < SETUP_REPEATS - 1:
            await stack.close()
    setup_s = statistics.median(durations)
    if tracer:
        tracer.restore()

    try:
        closed = await _closed_loop(run, stack, CLOSED_SHARE * run.seconds)
        if tracer:  # the layer metrics cover the open-loop phase only
            open_from = len(obs.tracer.spans())
            before = stack.host.stats(TENANT).as_dict()  # the ledger is live
        load = await _drive(run, stack, (1.0 - CLOSED_SHARE) * run.seconds)
        if tracer:
            spans = obs.tracer.spans()[open_from:]
            after = stack.host.stats(TENANT).as_dict()
            stats = {key: after[key] - before[key] for key in after}
        # Read before the post-stream checks, which import the kit and
        # factor matrices in this process.
        rss = peak_rss_mb(stack.lane_pids())
        post = await _post_stream(run, stack, load)
    finally:
        await stack.close()

    _check_served(run, closed["served"] + list(zip(load["queries"], load["answers"])))
    lag = percentile(load["lag_ms"], 99)
    run.check(lag <= LAG_LIMIT_MS, f"load generator p99 lag {lag:.1f} ms > {LAG_LIMIT_MS:g} ms")
    latencies = load["latency_ms"]
    run.note(f"capacity        {len(closed['served'])} queries in {closed['span_s']:.2f} s, "
             f"closed loop over {CONNECTIONS} connections")
    run.note(f"latency         {len(latencies)} queries at {RATE_QPS:g}/s over "
             f"{CONNECTIONS} connections, {len(load['ingest_ms'])} ingests, "
             f"p90 {percentile(latencies, 90):.2f} ms")
    run.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=rss,
        rwr_smape=post,
        throughput=len(closed["served"]) / closed["span_s"],
        latency_p50_ms=statistics.median(latencies),
    )
    if tracer:
        setup_layers = {name: tracer.get(name).total_s / SETUP_REPEATS for name in
                        ("graph.generate", "partitioning.louvain", "distributed.cluster_build")}
        _layer_metrics(run, spans, stats, load, setup_layers, statistics.median(start_times))


async def _closed_loop(run: Run, stack: Stack, seconds: float):
    """The capacity phase: each connection sends on the previous reply."""
    rng = np.random.default_rng([run.seed, 5])
    served = []  # ((node, kind), answer)
    deadline = time.perf_counter() + seconds

    async def client(index: int) -> None:
        sent = 0
        while time.perf_counter() < deadline:
            node, kind = int(rng.integers(stack.graph.num_nodes)), MIX[sent % len(MIX)]
            sent += 1
            run.attempt("served requests")
            try:
                answer = await stack.clients[index].query(TENANT, node, kind)
            except Exception as error:  # counted and reported, the loop goes on
                run.fail("served requests")
                run.check(False, f"served {kind}({node}) raised {error!r}")
                continue
            served.append(((node, kind), answer))

    began = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(CONNECTIONS)))
    return {"served": served, "span_s": time.perf_counter() - began}


async def _drive(run: Run, stack: Stack, seconds: float):
    """The open-loop phase: Poisson queries plus timed insert batches."""
    # A Poisson process given its count: RATE_QPS * seconds arrivals at
    # sorted uniform times, so every run offers the same number of queries.
    rng = np.random.default_rng([run.seed, 3])
    count = int(round(RATE_QPS * seconds))
    due = np.sort(rng.uniform(0.0, seconds, size=count))
    nodes = rng.integers(0, stack.graph.num_nodes, size=count)
    inserts = max(1, int(seconds / INSERT_PERIOD_S))
    batches = np.array_split(stack.stream, inserts)
    load = {
        "queries": [(int(n), MIX[i % len(MIX)]) for i, n in enumerate(nodes)],
        "answers": [None] * due.size,
        "latency_ms": [],
        "sent_latency_ms": [],
        "lag_ms": [],
        "ingest_ms": [],
        "novel": 0,
    }
    t0 = time.perf_counter() + 0.05

    async def fire(index: int, scheduled: float) -> None:
        node, kind = load["queries"][index]
        run.attempt("served requests")
        sent = time.perf_counter()
        load["lag_ms"].append(1000.0 * (sent - scheduled))
        try:
            answer = await stack.clients[index % CONNECTIONS].query(TENANT, node, kind)
        except Exception as error:  # counted and reported, the stream goes on
            run.fail("served requests")
            run.check(False, f"served {kind}({node}) raised {error!r}")
            return
        replied = time.perf_counter()
        load["answers"][index] = answer
        load["latency_ms"].append(1000.0 * (replied - scheduled))
        load["sent_latency_ms"].append(1000.0 * (replied - sent))

    async def send_queries() -> None:
        tasks = []
        for index, offset in enumerate(due.tolist()):
            scheduled = t0 + offset
            delay = scheduled - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(fire(index, scheduled)))
        await asyncio.gather(*tasks)

    async def send_inserts() -> None:
        for index, batch in enumerate(batches):
            delay = t0 + (index + 0.5) * INSERT_PERIOD_S - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            run.attempt("ingests")
            began = time.perf_counter()
            try:
                report = stack.summarizer.ingest(batch, refresh="none")
            except Exception as error:  # counted and reported, the stream goes on
                run.fail("ingests")
                run.check(False, f"ingest #{index} raised {error!r}")
                continue
            load["ingest_ms"].append(1000.0 * (time.perf_counter() - began))
            load["novel"] += report.novel

    await asyncio.gather(send_queries(), send_inserts())
    return load


def _check_served(run: Run, served) -> None:
    """Every served answer has the properties of its method."""
    for (node, kind), answer in served:
        if answer is None:
            continue
        if kind == "rwr":
            ok = answer.min() >= -1e-12 and abs(answer.sum() - 1.0) <= 1e-9
        elif kind == "php":
            ok = answer.min() >= 0.0 and answer.max() <= 1.0 and answer[node] == 1.0
        else:
            ok = (np.array_equal(answer, np.round(answer)) and answer[node] == 0
                  and answer.min() >= 0)
        run.check(bool(ok), f"served {kind}({node}) lacks the method's properties")


async def _post_stream(run: Run, stack: Stack, load) -> float:
    """Check a post-stream sample against the kit; return the RWR SMAPE."""
    import refkit
    from repro.queries import php_scores, rwr_scores

    rwr = inspect.signature(rwr_scores).parameters
    php = inspect.signature(php_scores).parameters
    tolerances = {
        "rwr": refkit.rwr_tolerance(rwr["max_iterations"].default, rwr["tolerance"].default,
                                    restart=rwr["restart"].default),
        "php": refkit.php_tolerance(php["max_iterations"].default, php["tolerance"].default,
                                    continuation=php["continuation"].default),
    }
    summarizer = stack.summarizer
    novel = _novel_edges(stack.base, stack.stream)
    for absorbed in (summarizer.delta.num_pending, load["novel"]):
        run.check(absorbed == novel, f"absorbed {absorbed} edges, the stream had {novel} novel")

    references = {}
    for machine in summarizer.cluster.machines:
        source = machine.source
        summary = getattr(source, "summary", source)
        lo, hi, weights = summary.superedge_arrays()
        adj = refkit.summary_adjacency(summary.supernode_of, lo, hi, weights)
        if hasattr(source, "extra_edge_array"):
            adj = refkit.residual_adjacency(adj, source.extra_edge_array())
        references[machine.machine_id] = refkit.Reference(adj)
    full = refkit.graph_adjacency(stack.graph.num_nodes, stack.graph.edge_array())
    exact = refkit.Reference(full, method="iterate")

    rng = np.random.default_rng([run.seed, 4])
    scores = []
    for kind in MIX:
        sample = rng.choice(stack.graph.num_nodes, size=POST_SAMPLE, replace=False)
        run.attempt("post-stream queries", sample.size)
        answers = await asyncio.gather(*(stack.clients[i % CONNECTIONS].query(TENANT, int(node), kind)
                                         for i, node in enumerate(sample)))
        if kind == "rwr":
            truth = exact.rwr(sample)
            scores = [refkit.smape(truth[:, i], answer) for i, answer in enumerate(answers)]
        for node, answer in zip(sample.tolist(), answers):
            machine_id = int(summarizer.assignment[node])
            want = getattr(references[machine_id], kind)([node])[:, 0]
            if kind == "hop":
                run.check(np.array_equal(answer, want), f"post-stream HOP({node}) differs")
            elif kind == "rwr":
                gap = float(np.abs(answer - want).sum())
                run.check(gap <= tolerances["rwr"], f"post-stream RWR({node}) L1 gap {gap:.3g}")
            else:
                gap = float(np.abs(answer - want).max())
                run.check(gap <= tolerances["php"], f"post-stream PHP({node}) max gap {gap:.3g}")
    return float(np.mean(scores))


def _novel_edges(base, stream: np.ndarray) -> int:
    """Distinct stream edges absent from the base graph, counted here."""
    n = base.num_nodes
    def keys(edges):
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        return np.unique(lo.astype(np.int64) * n + hi)
    return int(np.setdiff1d(keys(stream), keys(base.edge_array())).size)


def _layer_metrics(run: Run, spans, stats, load, setup_layers, start_s: float) -> None:
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.duration_s)
    # A batch records one compute span per request; keep one per batch.
    compute = sorted({(span.pid, span.duration_s) for span in spans if span.name == "compute"})
    totals = by_name.get("total", [])
    served = sum(totals)
    layers = sum(sum(by_name.get(name, [])) for name in ("queue", "assemble", "dispatch", "reply"))
    median_ms = lambda values: 1000.0 * statistics.median(values) if values else 0.0  # noqa: E731
    run.metrics.update({
        "graph.generate_s": setup_layers["graph.generate"],
        "partitioning.louvain_s": setup_layers["partitioning.louvain"],
        "distributed.cluster_build_s": setup_layers["distributed.cluster_build"],
        "serving.start_s": start_s,
        "serving.queue_wait_ms": median_ms(by_name.get("queue", [])),
        "serving.batch_fill": (stats["answered"] + stats["failed"]) / max(stats["batches"], 1),
        "serving.compute_ms": median_ms([duration for _, duration in compute]),
        # Means subtract request by request (medians would not): the
        # client's wait from its actual send, less the server's total.
        "serving.wire_ms": (statistics.mean(load["sent_latency_ms"]) - 1000.0 * served / len(totals)
                            if totals else 0.0),
        "serving.swaps": stats["swaps"],
        "parallel.redispatches": stats["redispatches"],
        "streaming.ingest_ms": statistics.median(load["ingest_ms"]),
        "streaming.edges_absorbed": load["novel"],
        "loadgen.lag_p99_ms": percentile(load["lag_ms"], 99),
        "trace.total_s": served,
        "trace.unattributed_share": (served - layers) / served if served else 0.0,
    })
