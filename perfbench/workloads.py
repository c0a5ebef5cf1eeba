"""The three benchmark workloads, driven through the public Python API.

Each ``run_<workload>(seed, seconds, trace, sizes)`` builds its inputs from
the seed, measures for about ``seconds`` seconds, checks the program's
outputs and returns an :class:`Outcome`.  With ``trace=False`` the outcome
carries the end-to-end metrics: wall clock, measured with nothing patched
(sim-churn-heal reads churn events and probe messages from a
counters-only ``obs`` session, the only place the program reports them).
With ``trace=True`` it carries the per-layer metrics: set-up and one unit
of measured work run under span wrappers (:mod:`spans`), after the same
unit ran unwrapped so the tracing overhead is measured.

Library defaults only: no engine or backend knob (``use_rating_cache``,
``refine_mode``, ``batch_size``, ``n_workers``, ``telemetry_interval``) is
passed anywhere, so a change of default shows up in the numbers.

Every measured unit (a round of the query stream, a churn run, a pass of
floods or fetches) is repeated on identical inputs; its deterministic
outputs must repeat exactly, or the run fails.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import heapq
import math
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
from repro import obs
from repro.content import live as content_live
from repro.content import plane as content_plane
from repro.content.manifest import generate_objects
from repro.content.placement import place_content
from repro.core import makalu as core_makalu
from repro.faults.scenario import load_scenario
from repro.node import boot as node_boot
from repro.search import flooding
from repro.sim import churn as sim_churn
from repro.sim import queueing

from catalog import PER_LAYER
from spans import SpanRecorder

#: The unpatched flood kernel, captured at import: correctness references
#: must never be recorded as spans of the program.
_REF_FLOOD = flooding.flood

perf = time.perf_counter


@dataclass
class Outcome:
    """What one benchmark run produced."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Why a per-layer metric reads 0 on this workload.
    absent: Dict[str, str] = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    #: Sample counts and other facts about the run, for the record.
    samples: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors

    def attempt(self, label: str, n_ops: int, fn: Callable):
        """Run ``fn``; an exception fails its ``n_ops`` operations."""
        self.attempted += n_ops
        try:
            return fn()
        except Exception as exc:  # counted and reported, never hidden
            self.failed += n_ops
            self.errors.append(f"{label} raised {type(exc).__name__}: {exc}")
            return None

    def wrong(self, n_ops: int, message: str) -> None:
        """A completed operation returned a wrong or inexact result."""
        self.failed += n_ops
        if len(self.errors) < 50:
            self.errors.append(message)

    def same(self, label: str, first, other) -> None:
        """Determinism gate: a repeated unit must reproduce its outputs."""
        if first != other:
            self.errors.append(
                f"determinism: {label} differs between repeats: "
                f"{first!r} != {other!r}"
            )


def derive_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent input seeds from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


_SMALL_ARRAY = np.random.default_rng(0).random(50_000)


def _small_kernel() -> None:
    heap: list = []
    for k in range(20_000):
        heapq.heappush(heap, (k * 7919) % 10007)
    while heap:
        heapq.heappop(heap)
    np.unique(np.sort(_SMALL_ARRAY))


def _large_kernel() -> None:
    keys = np.random.default_rng(1).permutation(200_000).tolist()
    table = {}
    for k in keys[:100_000]:
        table[k] = k
    total = 0
    for k in keys[100_000:]:
        total += table.get(k, 0)
    np.sort(np.random.default_rng(2).random(500_000))


class HostSpeed:
    """How fast this host runs right now, from two fixed reference kernels.

    Scales set-up time on the sim workloads.  A shared host's speed drifts
    by tens of percent over minutes, which no amount of in-run averaging
    removes.  The benchmark times two kernels independent of the program
    -- a small one (heap and sort work that stays in cache) and a large
    one (a 100k-entry dict and a 4 MB sort) -- between measured units,
    keeps each one's fastest time, and scales the set-up median by the
    geometric mean of their slowdowns against the reference VM's typical
    times (``NOMINAL_S``).  Rates are scaled in step with the work
    instead (:class:`InRunSpeed`).
    """

    KERNELS = (_small_kernel, _large_kernel)
    NOMINAL_S = (0.010, 0.040)

    def __init__(self):
        self.best = [float("inf")] * len(self.NOMINAL_S)
        self.probes = 0

    def probe(self, times: int = 2) -> None:
        for _ in range(times):
            for i, kernel in enumerate(self.KERNELS):
                t = perf()
                kernel()
                self.best[i] = min(self.best[i], perf() - t)
            self.probes += 1

    @property
    def slowdown(self) -> float:
        """Above 1 when the host currently runs slower than the reference."""
        return math.prod(b / n for b, n in zip(self.best, self.NOMINAL_S)) \
            ** (1 / len(self.NOMINAL_S))

    def normalize_seconds(self, seconds: float) -> float:
        """``seconds`` as they would read on the reference host."""
        return seconds / self.slowdown


_DICT_KEYS = np.random.default_rng(3).permutation(40_000).tolist()


def _dict_kernel() -> None:
    table = {}
    for k in _DICT_KEYS[:20_000]:
        table[k] = k
    total = 0
    for k in _DICT_KEYS[20_000:]:
        total += table.get(k, 0)


def _graph_kernel() -> None:
    """Set-adjacency edits: the builder's join and prune, in miniature."""
    adj = [set() for _ in range(500)]
    x = 1
    for _ in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x % 500, (x >> 9) % 500
        if len(adj[a]) < 6:
            adj[a].add(b)
            adj[b].add(a)
        else:
            c = min(adj[a])
            adj[a].discard(c)
            adj[c].discard(a)


class InRunSpeed:
    """How fast this host runs *while* the measured work runs.

    The reference host switches between a fast and a slow state (a
    cache-resident kernel reads about 11 or 17 ms) for seconds to minutes
    at a time, and kernels timed only between measured units miss much of
    it: over 16 repeats of one churn instance, scaling by a kernel timed
    just before and after each run cut the spread of run times only from
    0.17 to 0.15.  So three small kernels (heap and sort, set-adjacency
    edits, dict fill and lookup) are timed in step with the work, and the
    work's seconds are scaled by the geometric mean of each kernel's time
    against the reference VM's typical time (``NOMINAL_S``):

    - ``sim-search``: each arm's call is scaled by a probe taken just
      before it, and each arm counts with its median scaled call.
    - ``sim-churn-heal``: ``ChurnSimulation.run`` itself calls
      :meth:`probe` -- once after the initial build and at every snapshot,
      through :class:`_ProbedPlane` -- and each stretch of the run between
      two probes is scaled by their mean slowdown (:meth:`stretches`).
    - ``live-flood``: every flood and fetch is scaled by a one-shot probe
      taken just before it.

    Computed both ways from the same five to ten runs on the reference
    VM, this took the spread of the gated rate from 0.08 to 0.05
    (``sim-search``, against scaling by :class:`HostSpeed`), from 0.23
    unscaled to 0.03 (churn) and from 0.10 unscaled to 0.04 (live); one
    slowdown taken over a whole churn or live run left 0.04 and 0.06.
    """

    KERNELS = (_small_kernel, _graph_kernel, _dict_kernel)
    NOMINAL_S = (0.010, 0.0037, 0.0025)

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.samples: List[List[float]] = [[] for _ in self.KERNELS]
        #: (start, end, slowdown) of every probe since the reset.
        self.marks: List[tuple] = []

    def probe(self, reps: int = 2) -> float:
        """Time each kernel (its fastest of ``reps``); return the slowdown."""
        start = perf()
        for i, kernel in enumerate(self.KERNELS):
            best = float("inf")
            for _ in range(reps):
                t = perf()
                kernel()
                best = min(best, perf() - t)
            self.samples[i].append(best)
        slow = self._slowdown([s[-1] for s in self.samples])
        self.marks.append((start, perf(), slow))
        return slow

    def stretches(self) -> tuple:
        """Seconds between the first and the last probe, less the probes.

        Returns ``(wall, scaled)``: ``scaled`` divides each stretch between
        two probes by the mean of their slowdowns.
        """
        wall = scaled = 0.0
        for (_, end, k0), (start, _, k1) in zip(self.marks, self.marks[1:]):
            wall += start - end
            scaled += (start - end) / ((k0 + k1) / 2)
        return wall, scaled

    def _slowdown(self, times) -> float:
        return math.prod(t / n for t, n in zip(times, self.NOMINAL_S)) \
            ** (1 / len(self.NOMINAL_S))

    @property
    def slowdown(self) -> float:
        """Above 1 when the host ran slower than the reference."""
        return self._slowdown([_median(s) for s in self.samples])


class _ProbedPlane(content_plane.ContentPlane):
    """A ContentPlane that samples the host's speed at its run hooks.

    Only untraced churn runs use it.  The kernels draw no program RNG, so
    the run's outputs are a plain plane's; the traced run checks this by
    comparing its plain-plane unit with a probed one.
    """

    speed: InRunSpeed

    def start(self, churn) -> None:
        self.speed.probe()
        super().start(churn)

    def on_snapshot(self, t: float) -> None:
        self.speed.probe()
        super().on_snapshot(t)


class LoopbackSpeed:
    """How fast this host serves loopback TCP right now.

    A live boot is some 540 serial dials and handshakes over loopback, so
    its time follows the host's socket and wake-up latency.  On the
    reference VM that drifted twofold from one minute to the next while
    the compute kernels of :class:`HostSpeed` moved 10-15%.  Before each
    boot the benchmark times a fixed kernel -- ``ROUND_TRIPS`` serial
    connect, 23-byte echo and close on its own echo server -- and scales
    the boot median by the kernel's median against the reference VM's
    typical time (``NOMINAL_S``).  Over 18 windows of 11 boots each on
    one host this cut the spread of the windows' boot medians from 0.49
    to 0.04.
    """

    ROUND_TRIPS = 100
    NOMINAL_S = 0.030

    def __init__(self):
        self.times: List[float] = []
        self._server = None

    async def start(self) -> None:
        async def echo(reader, writer):
            try:
                while True:
                    writer.write(await reader.readexactly(23))
                    await writer.drain()
            except asyncio.IncompleteReadError:
                pass
            finally:
                writer.close()

        self._server = await asyncio.start_server(echo, "127.0.0.1", 0)

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()

    async def probe(self) -> None:
        port = self._server.sockets[0].getsockname()[1]
        t = perf()
        for _ in range(self.ROUND_TRIPS):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"x" * 23)
            await writer.drain()
            await reader.readexactly(23)
            writer.close()
            await writer.wait_closed()
        self.times.append(perf() - t)

    @property
    def slowdown(self) -> float:
        """Above 1 when loopback currently runs slower than the reference."""
        return _median(self.times) / self.NOMINAL_S

    def normalize_seconds(self, seconds: float) -> float:
        """``seconds`` as they would read on the reference host."""
        return seconds / self.slowdown


def _best_rate(work: List[Optional[float]],
               repeats: List[List[Optional[float]]]) -> float:
    """Work per second of a repeated sequence of identical units.

    ``work[i]`` is unit ``i``'s work (None when it failed) and
    ``repeats[r][i]`` its wall seconds in repeat ``r``.  Each unit counts
    with its fastest repeat: on a shared host the slow repeats measure the
    neighbours, the fastest one the work.
    """
    total_work = total_s = 0.0
    for i, w in enumerate(work):
        times = [rep[i] for rep in repeats if rep[i] is not None]
        if w is None or not times:
            continue
        total_work += w
        total_s += min(times)
    return total_work / total_s if total_s else 0.0


def _sample_indices(n: int, k: int) -> np.ndarray:
    """``k`` evenly spaced indices of ``range(n)`` (no RNG)."""
    return np.unique(np.linspace(0, n - 1, min(k, n)).astype(np.int64))


# ----------------------------------------------------------------------
# Tracing: what is wrapped, where it is looked up
# ----------------------------------------------------------------------


def _count_bereaved(tracer, args, kwargs, result) -> None:
    tracer.count("core.maintenance.bereaved", int(len(result)))


def _count_settle_timeout(tracer, args, kwargs, result) -> None:
    if result is False:
        tracer.count("node.boot.settle.timeouts")


def install_spans(tracer: SpanRecorder,
                  graph_labels: Dict[int, str]) -> None:
    """Patch every traced entry point at the site its callers look it up.

    ``graph_labels`` maps ``id(graph)`` to the overlay name used in the
    ``search.flood_queries.<label>`` span.
    """
    def flood_queries_name(graph, *args, **kwargs):
        return f"search.flood_queries.{graph_labels.get(id(graph), 'other')}"

    t = tracer
    # Methods are looked up on the class by every caller.
    t.patch(core_makalu.MakaluBuilder, "build", "core.makalu.build")
    t.patch(core_makalu.MakaluBuilder, "join", "core.makalu.join",
            skip_inside="core.makalu.build")
    # sim.churn imported repair_after_failure by name.
    t.patch(sim_churn, "repair_after_failure",
            "core.maintenance.repair_after_failure",
            on_result=_count_bereaved)
    # The benchmark calls these through the package namespace.
    t.patch(repro, "powerlaw_graph", "topology.powerlaw_graph")
    t.patch(repro, "flood_queries", flood_queries_name)
    t.patch(repro, "identifier_queries", "search.identifier_queries")
    t.patch(repro, "build_attenuated_filters",
            "search.build_attenuated_filters")
    t.patch(queueing, "simulate_workload", "sim.queueing.simulate_workload")
    # flood_queries and the churn probes resolve flood() at call time.
    t.patch(flooding, "flood", "search.flood")
    t.patch(sim_churn.ChurnSimulation, "run", "sim.churn.run")
    t.patch(sim_churn.ChurnSimulation, "crash_nodes", "sim.churn.crash_nodes")
    for method in ("heal", "fetch", "on_join", "on_crash"):
        t.patch(content_plane.ContentPlane, method, f"content.plane.{method}")
    for method in ("start", "flood", "stop"):
        t.patch(node_boot.LiveOverlay, method, f"node.boot.{method}")
    t.patch(node_boot.LiveOverlay, "settle", "node.boot.settle",
            on_result=_count_settle_timeout)
    t.patch(content_live.LiveContent, "seed_stores",
            "content.live.seed_stores")
    t.patch(content_live.LiveContent, "fetch", "content.live.fetch")


def _span_metrics(tracer: SpanRecorder) -> Dict[str, float]:
    """``<span>.{calls,total_s,self_s}`` plus the tracer's own tallies."""
    out: Dict[str, float] = dict(tracer.counts)
    summary = tracer.summary()
    for name, row in summary.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    fq = [row for name, row in summary.items()
          if name.startswith("search.flood_queries.")]
    if fq:
        out["search.flood_queries.self_s"] = sum(r["self_s"] for r in fq)
    return out


def _accept_ratio(counters: Dict[str, int]) -> Optional[float]:
    attempted = counters.get("makalu.connections_attempted", 0)
    if not attempted:
        return None
    return counters.get("makalu.connections_accepted", 0) / attempted


def _finish_per_layer(out: Outcome, values: Dict[str, float],
                      overhead: float, traced_wall: float,
                      covered: float) -> None:
    """Emit every declared per-layer name; record why zeros are zero."""
    values["trace.overhead_ratio"] = overhead
    values["trace.unattributed_fraction"] = (
        max(0.0, 1.0 - covered / traced_wall) if traced_wall > 0 else 1.0
    )
    for metric in PER_LAYER:
        value = values.get(metric.name)
        if value is None:
            out.absent[metric.name] = (
                "layer not run by this workload (declared for "
                f"{', '.join(metric.workloads)})"
            )
            value = 0.0
        out.metrics[metric.name] = float(value)


# ----------------------------------------------------------------------
# sim-search
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimSearchSizes:
    makalu_nodes: int = 1000
    powerlaw_nodes: int = 30_000
    n_objects: int = 500
    replication_ratio: float = 0.005
    #: ~400 queries: enough that one seed's query sample does not set the
    #: per-message cost, short enough that each arm repeats ~10 times.
    stream_s: float = 120.0
    zipf_exponent: float = 0.8
    makalu_ttl: int = 3
    powerlaw_ttl: int = 6
    identifier_ttl: int = 25
    queue_ttl: int = 3
    queue_multiple: float = 2.0
    service_time: float = 0.05
    latency_scale: float = 0.0002
    check_sample: int = 32
    setup_repeats: int = 3
    min_rounds: int = 2


#: The four arms of a sim-search round; the first three are the search arms.
SIM_ARMS = ("makalu", "powerlaw", "ident", "queue")


@dataclass
class SimSearchInputs:
    makalu: object
    powerlaw: object
    mk_place: object
    pl_place: object
    router: object
    stream: object
    scaled: object
    mk_sources: np.ndarray
    pl_sources: np.ndarray
    query_seeds: List[int]

    def fingerprint(self) -> str:
        return _fingerprint(
            self.makalu.indptr, self.makalu.indices, self.powerlaw.indptr,
            self.powerlaw.indices, self.router.filters.levels[-1],
            self.stream.times, self.stream.objects, self.mk_sources,
            self.pl_sources,
        )


def sim_search_setup(seed: int, sz: SimSearchSizes) -> SimSearchInputs:
    s = derive_seeds(seed, 11)
    model = repro.EuclideanModel(sz.makalu_nodes, seed=s[0])
    makalu = repro.makalu_graph(model=model, seed=s[1])
    powerlaw = repro.powerlaw_graph(sz.powerlaw_nodes, seed=s[2])
    mk_place = repro.place_objects(makalu.n_nodes, sz.n_objects,
                                   sz.replication_ratio, seed=s[3])
    pl_place = repro.place_objects(powerlaw.n_nodes, sz.n_objects,
                                   sz.replication_ratio, seed=s[4])
    filters = repro.build_attenuated_filters(makalu, mk_place, depth=3)
    stream = repro.generate_workload(
        repro.GNUTELLA_2006, sz.stream_s, n_objects=sz.n_objects,
        zipf_exponent=sz.zipf_exponent, seed=s[5],
    )
    return SimSearchInputs(
        makalu=makalu, powerlaw=powerlaw, mk_place=mk_place,
        pl_place=pl_place, router=repro.AbfRouter(makalu, filters),
        stream=stream,
        scaled=queueing.scale_workload(stream, sz.queue_multiple),
        mk_sources=queueing.draw_workload_sources(
            makalu.n_nodes, stream.n_queries, seed=s[6]),
        pl_sources=queueing.draw_workload_sources(
            powerlaw.n_nodes, stream.n_queries, seed=s[7]),
        query_seeds=s[8:11],
    )


@dataclass
class SimSearchRound:
    #: Arm name -> results (None when the call raised).
    results: Dict[str, object]
    #: Arm name -> wall seconds of its one call.
    seconds: Dict[str, float]
    #: Arm name -> those seconds scaled to the reference host.
    scaled: Dict[str, float]

    def messages(self, arm: str) -> Optional[int]:
        r = self.results[arm]
        if r is None:
            return None
        if arm == "queue":
            return r.messages
        if arm == "ident":
            return sum(x.messages for x in r)
        return sum(x.total_messages for x in r)

    def digest(self) -> dict:
        """Deterministic outputs of the round (None for a failed arm)."""
        out = {}
        for arm in SIM_ARMS[:3]:
            r = self.results[arm]
            out[arm] = None if r is None else (
                sum(x.success for x in r), self.messages(arm))
        q = self.results["queue"]
        out["queue"] = None if q is None else (
            q.messages, int(q.resolved.sum()), q.response_quantile(0.99),
            float(q.utilization.max()), float(q.peak_queue_delay.max()))
        return out


def sim_search_round(inp: SimSearchInputs, sz: SimSearchSizes,
                     out: Outcome,
                     speed: Optional[InRunSpeed] = None) -> SimSearchRound:
    """Serve the stream four ways, timing each arm's call.

    With ``speed``, each call's seconds are also scaled by the slowdown of
    a probe taken just before it.
    """
    nq = inp.stream.n_queries
    s_mk, s_pl, s_id = inp.query_seeds
    calls = {
        "makalu": lambda: repro.flood_queries(
            inp.makalu, inp.mk_place, nq, sz.makalu_ttl, seed=s_mk,
            sources=inp.mk_sources),
        "powerlaw": lambda: repro.flood_queries(
            inp.powerlaw, inp.pl_place, nq, sz.powerlaw_ttl, seed=s_pl,
            sources=inp.pl_sources),
        "ident": lambda: repro.identifier_queries(
            inp.router, inp.mk_place, nq, ttl=sz.identifier_ttl, seed=s_id,
            sources=inp.mk_sources),
        "queue": lambda: queueing.simulate_workload(
            inp.makalu, inp.scaled, inp.mk_place, ttl=sz.queue_ttl,
            sources=inp.mk_sources, service_time=sz.service_time,
            latency_scale=sz.latency_scale),
    }
    results, seconds, scaled = {}, {}, {}
    for arm, call in calls.items():
        slow = speed.probe() if speed is not None else 1.0
        t = perf()
        results[arm] = out.attempt(arm, nq, call)
        seconds[arm] = perf() - t
        scaled[arm] = seconds[arm] / slow
    return SimSearchRound(results, seconds, scaled)


def check_sim_search(inp: SimSearchInputs, sz: SimSearchSizes,
                     rnd: SimSearchRound, out: Outcome) -> None:
    """Invariants on a sample of every arm, against per-query references."""
    nq = inp.stream.n_queries
    sample = _sample_indices(nq, sz.check_sample)
    arms = (
        ("makalu", inp.makalu, inp.mk_place, sz.makalu_ttl,
         inp.query_seeds[0], inp.mk_sources),
        ("powerlaw", inp.powerlaw, inp.pl_place, sz.powerlaw_ttl,
         inp.query_seeds[1], inp.pl_sources),
    )
    for label, graph, place, ttl, seed, sources in arms:
        results = rnd.results[label]
        if results is None:
            continue
        if len(results) != nq:
            out.wrong(nq, f"flood_queries({label}) returned {len(results)} "
                          f"results for {nq} queries")
            continue
        srcs, objs = flooding.draw_query_workload(
            graph, place, nq, seed=seed, sources=sources)
        for i in sample:
            ref = _REF_FLOOD(graph, int(srcs[i]), ttl,
                             replica_mask=place.holder_mask(int(objs[i])))
            got = results[i]
            want = (ref.total_messages, int(ref.duplicates_per_hop.sum()),
                    ref.first_hit_hop, ref.replicas_found)
            have = (got.total_messages, int(got.duplicates_per_hop.sum()),
                    got.first_hit_hop, got.replicas_found)
            if have != want:
                out.wrong(1, f"flood_queries({label}) query {i}: {have} "
                             f"!= flood() reference {want}")

    ident = rnd.results["ident"]
    if ident is not None:
        obj_of_key = {inp.mk_place.key_of(o): o
                      for o in range(inp.mk_place.n_objects)}
        for i in sample:
            r = ident[i]
            obj = obj_of_key.get(r.target_key)
            ok = (r.source == inp.mk_sources[i] and obj is not None
                  and 0 <= r.messages <= sz.identifier_ttl
                  and int(r.path[0]) == r.source)
            if ok and r.success:
                ok = bool(inp.mk_place.holder_mask(obj)[r.resolved_at])
            if not ok:
                out.wrong(1, f"identifier query {i} violates routing "
                             f"invariants (source, key, budget or holder)")

    q = rnd.results["queue"]
    if q is not None:
        util = q.utilization
        if q.n_queries != nq or util.min() < 0 or util.max() > 1 + 1e-9 \
                or np.any(q.response_time[q.resolved] < 0):
            out.wrong(nq, "simulate_workload result out of range")
        for i in sample:
            if not q.resolved[i]:
                continue
            # Arrival-order forwarding can reach fewer nodes than the
            # hop-synchronous flood, never more.
            ref = _REF_FLOOD(inp.makalu, int(q.sources[i]), sz.queue_ttl,
                             replica_mask=inp.mk_place.holder_mask(
                                 int(q.objects[i])))
            if not ref.success:
                out.wrong(1, f"queued query {i} resolved but no replica "
                             f"lies within TTL {sz.queue_ttl}")


def _sim_search_quality(rnd: SimSearchRound) -> dict:
    searches = [rnd.results[a] for a in SIM_ARMS[:3]
                if rnd.results[a] is not None]
    mk = rnd.results["makalu"] or []
    out = {
        "search_success_rate": (
            sum(r.success for arm in searches for r in arm)
            / sum(len(arm) for arm in searches) if searches else 0.0),
        "messages_per_query": (
            sum(r.total_messages for r in mk) / len(mk) if mk else 0.0),
    }
    if rnd.results["queue"] is not None:
        out["queue_p99_s"] = rnd.results["queue"].response_quantile(0.99)
    return out


def _useful_ratio(results) -> float:
    messages = sum(r.total_messages for r in results)
    return sum(r.nodes_visited - 1 for r in results) / messages


def run_sim_search(seed: int, seconds: float, trace: bool,
                   sz: SimSearchSizes = SimSearchSizes()) -> Outcome:
    out = Outcome(sizes=asdict(sz))
    if trace:
        return _trace_sim_search(seed, sz, out)
    setups, prints = [], []
    for _ in range(sz.setup_repeats):
        t = perf()
        inp = sim_search_setup(seed, sz)
        setups.append(perf() - t)
        prints.append(inp.fingerprint())
    for other in prints[1:]:
        out.same("sim-search set-up", prints[0], other)

    rounds: List[SimSearchRound] = []
    host = HostSpeed()
    speed = InRunSpeed()
    start = perf()
    while len(rounds) < sz.min_rounds or perf() - start < seconds:
        host.probe()
        rounds.append(sim_search_round(inp, sz, out, speed))
    check_sim_search(inp, sz, rounds[0], out)
    first = rounds[0].digest()
    for rnd in rounds[1:]:
        out.same("sim-search round", first, rnd.digest())

    # Each arm repeats identical work every round.  Unscaled rates count
    # each arm call with its fastest repeat; the gated rate takes each
    # arm's median scaled call.
    search = SIM_ARMS[:3]
    repeats = [[r.seconds[a] for a in search] for r in rounds]
    nq = inp.stream.n_queries
    arm_rates = {
        a: _best_rate([nq if rounds[0].results[a] is not None else None],
                      [[r.seconds[a]] for r in rounds])
        for a in SIM_ARMS}
    scaled_rates = [
        nq / _median([r.scaled[a] for r in rounds if r.results[a] is not None])
        if rounds[0].results[a] is not None else 0.0 for a in SIM_ARMS]
    out.metrics.update(
        setup_s=host.normalize_seconds(_median(setups)),
        sim_queries_per_s=_best_rate(
            [nq if rounds[0].results[a] is not None else None
             for a in search], repeats),
        queue_msgs_per_s=_best_rate(
            [rounds[0].messages("queue")],
            [[r.seconds["queue"]] for r in rounds]),
        failed_fraction=out.failed / out.attempted,
        peak_rss_mb=_peak_rss_mb(),
        # Queries, not messages: a change that floods more for the same
        # queries reads slower, not busier.  Every arm weighs the same, so
        # the power-law floods (most of the wall time, and the most
        # seed-dependent cost per query) do not drown the other kernels.
        throughput_per_s=(
            math.prod(scaled_rates) ** (1 / len(scaled_rates))),
        **_sim_search_quality(rounds[0]),
    )
    out.samples = {"setups": len(setups), "rounds": len(rounds),
                   "queries_per_round": 4 * nq, "host_probes": host.probes,
                   "host_slowdown": host.slowdown,
                   "setup_unscaled_s": _median(setups),
                   "arm_queries_per_s": arm_rates,
                   "arm_slowdowns": {a: [r.seconds[a] / r.scaled[a]
                                         for r in rounds] for a in SIM_ARMS}}
    return out


def _trace_sim_search(seed: int, sz: SimSearchSizes, out: Outcome) -> Outcome:
    tracer = SpanRecorder(run_id=f"sim-search-{seed}")
    labels: Dict[int, str] = {}
    with obs.observed() as session:
        install_spans(tracer, labels)
        try:
            t_a = perf()
            inp = sim_search_setup(seed, sz)
            t_b = perf()
        finally:
            tracer.restore()
    counters = session.metrics.snapshot()["counters"]
    labels.update({id(inp.makalu): "makalu", id(inp.powerlaw): "powerlaw"})

    t = perf()
    plain = sim_search_round(inp, sz, out)
    untraced = perf() - t
    with obs.observed():
        install_spans(tracer, labels)
        try:
            t_c = perf()
            traced = sim_search_round(inp, sz, out)
            t_d = perf()
        finally:
            tracer.restore()
    check_sim_search(inp, sz, plain, out)
    out.same("sim-search round (untraced vs traced)", plain.digest(),
             traced.digest())

    values = _span_metrics(tracer)
    values["core.makalu.accept_ratio"] = _accept_ratio(counters)
    for arm in ("makalu", "powerlaw"):
        if traced.results[arm] is not None:
            values[f"search.useful_ratio.{arm}"] = _useful_ratio(
                traced.results[arm])
    q = traced.results["queue"]
    if q is not None:
        values["sim.queueing.messages"] = q.messages
        values["sim.queueing.util_max"] = float(q.utilization.max())
        values["sim.queueing.peak_queue_delay_s"] = float(
            q.peak_queue_delay.max())
    covered = tracer.root_coverage(t_a, t_b) + tracer.root_coverage(t_c, t_d)
    _finish_per_layer(out, values, (t_d - t_c) / untraced,
                      (t_b - t_a) + (t_d - t_c), covered)
    return out


# ----------------------------------------------------------------------
# sim-churn-heal
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnSizes:
    #: Small enough that each instance's run (~3 s) repeats within a run.
    n_nodes: int = 400
    instances: int = 4
    duration: float = 100.0
    n_objects: int = 100
    object_size: tuple = (2048, 8192)
    k: int = 3
    heal_interval: float = 10.0
    snapshot_interval: float = 10.0
    probe_queries: int = 16
    fetch_probes: int = 8
    scenario: str = "paper-live-failures"
    setup_repeats: int = 5
    min_runs: int = 2


@dataclass
class ChurnInputs:
    objects: list
    plane: object
    sim: object


def churn_setup(seed: int, sz: ChurnSizes,
                speed: Optional[InRunSpeed] = None) -> ChurnInputs:
    """One instance's inputs; with ``speed`` its runs sample the host."""
    s = derive_seeds(seed, 4)
    model = repro.EuclideanModel(sz.n_nodes, seed=s[0])
    objects = generate_objects(sz.n_objects, seed=s[1],
                               size_range=sz.object_size)
    plane_cls = content_plane.ContentPlane if speed is None else _ProbedPlane
    plane = plane_cls(objects, content_plane.ContentConfig(
        k=sz.k, heal_interval=sz.heal_interval, heal_enabled=True,
        read_repair=True, rebalance_on_join=True,
        fetch_probes=sz.fetch_probes, placement_seed=s[2],
    ))
    sim = sim_churn.ChurnSimulation(
        model=model, seed=s[3],
        churn_config=sim_churn.ChurnConfig(
            snapshot_interval=sz.snapshot_interval,
            probe_queries=sz.probe_queries),
        faults=load_scenario(sz.scenario), content=plane,
    )
    if speed is not None:
        plane.speed = speed
    return ChurnInputs(objects, plane, sim)


@dataclass
class ChurnRun:
    wall_s: float
    counters: Dict[str, int]
    snapshots: Optional[list]
    report: object
    #: Wall seconds less the in-run speed probes, scaled to the reference
    #: host by them (the wall seconds when the run was not probed).
    scaled_s: float

    @property
    def events(self) -> int:
        c = self.counters
        return (c.get("churn.departures", 0) + c.get("churn.rejoins", 0)
                + c.get("faults.crash_victims", 0))

    def digest(self) -> dict:
        keep = ("churn.departures", "churn.rejoins", "faults.crash_victims",
                "search.flood.queries", "search.flood.messages_sent",
                "content.fetch.requests", "content.fetch.hits")
        return {
            "counters": {k: self.counters.get(k, 0) for k in keep},
            "snapshots": None if self.snapshots is None else [
                (s.n_online, s.n_components, s.search_success)
                for s in self.snapshots],
            "report": None if self.report is None else self.report.to_dict(),
        }


def churn_run(inp: ChurnInputs, sz: ChurnSizes, out: Outcome) -> ChurnRun:
    """One ChurnSimulation.run, counted through the program's obs counters.

    The session records counters only (no profiler, no tracer); churn
    events and probe messages are not visible from outside otherwise.
    """
    speed = getattr(inp.plane, "speed", None)
    if speed is not None:
        speed.reset()
        speed.probe()
    with obs.observed() as session:
        t = perf()
        snaps = out.attempt("ChurnSimulation.run", 1,
                            lambda: inp.sim.run(sz.duration))
        wall = perf() - t
    scaled = wall
    if speed is not None:
        speed.probe()
        wall, scaled = speed.stretches()
    run = ChurnRun(wall, dict(session.metrics.snapshot()["counters"]), snaps,
                   None if snaps is None else inp.plane.durability_report(),
                   scaled)
    c = run.counters
    out.attempted += (run.events + c.get("search.flood.queries", 0)
                      + c.get("content.fetch.requests", 0))
    return run


def check_churn(inp: ChurnInputs, sz: ChurnSizes, run: ChurnRun,
                out: Outcome) -> None:
    """Replica bytes and availability, recomputed from outside."""
    if run.snapshots is None:
        return
    plane, online = inp.plane, inp.sim.online
    expected_snaps = int(sz.duration // sz.snapshot_interval)
    if len(run.snapshots) != expected_snaps or run.events == 0:
        out.wrong(1, f"churn run produced {len(run.snapshots)} snapshots "
                     f"and {run.events} events")
    available = 0
    for obj in inp.objects:
        data = obj.data()
        live = [h for h in plane.holders(obj.key) if online[h]]
        available += bool(live)
        for h in live:
            if plane.stores[h].get_object(obj.key) != data:
                out.wrong(1, f"replica of {obj.key} on node {h} differs "
                             f"from the corpus")
    if available / len(inp.objects) != run.report.availability:
        out.wrong(1, f"availability {run.report.availability} != live-holder "
                     f"census {available / len(inp.objects)}")


def _churn_quality(runs: List[ChurnRun]) -> dict:
    """Quality over one run of each instance (repeats are identical)."""
    probes = sum(r.counters.get("search.flood.queries", 0) for r in runs)
    sent = sum(r.counters.get("search.flood.messages_sent", 0) for r in runs)
    snaps = [s for r in runs for s in r.snapshots or ()]
    reports = [r.report for r in runs if r.report is not None]
    return {
        # Every snapshot runs the same number of probes.
        "search_success_rate": (statistics.fmean(
            s.search_success for s in snaps) if snaps else 0.0),
        "messages_per_query": sent / probes if probes else 0.0,
        "availability": (statistics.fmean(r.availability for r in reports)
                         if reports else 0.0),
    }


def run_sim_churn_heal(seed: int, seconds: float, trace: bool,
                       sz: ChurnSizes = ChurnSizes()) -> Outcome:
    out = Outcome(sizes=asdict(sz))
    # Independent instances average out one overlay's luck; each repeats.
    instances = derive_seeds(seed, sz.instances)
    if trace:
        return _trace_churn(instances[0], sz, out)
    # Set-up is cheap next to a run, so it is timed a few extra times.
    setups: List[float] = []
    for _ in range(sz.setup_repeats - 1):
        t = perf()
        churn_setup(instances[0], sz)
        setups.append(perf() - t)
    runs: List[List[ChurnRun]] = [[] for _ in instances]
    host = HostSpeed()
    speed = InRunSpeed()
    start = perf()
    n = 0
    while (min(len(r) for r in runs) < sz.min_runs
           or perf() - start < seconds):
        i = n % len(instances)
        n += 1
        # Free the previous run's overlay first, so peak memory is one
        # run's, not a collector-timing accident.
        inp = None
        gc.collect()
        host.probe()
        t = perf()
        inp = churn_setup(instances[i], sz, speed)
        setups.append(perf() - t)
        run = churn_run(inp, sz, out)
        if not runs[i]:
            check_churn(inp, sz, run, out)
        runs[i].append(run)
    for reps in runs:
        for run in reps[1:]:
            out.same("churn run", reps[0].digest(), run.digest())

    # Unscaled, each instance counts with its fastest repeat; scaled by
    # the speed sampled inside each run, with the median of its repeats.
    firsts = [reps[0] for reps in runs]
    events = sum(r.events for r in firsts)
    rate = events / sum(min(x.wall_s for x in reps) for reps in runs)
    scaled = events / sum(_median([x.scaled_s for x in reps]) for reps in runs)
    out.metrics.update(
        setup_s=host.normalize_seconds(_median(setups)),
        churn_events_per_s=rate,
        failed_fraction=out.failed / out.attempted,
        peak_rss_mb=_peak_rss_mb(),
        throughput_per_s=scaled,
        **_churn_quality(firsts),
    )
    out.samples = {"setups": len(setups), "runs": n,
                   "events_per_instance": [r.events for r in firsts],
                   "host_probes": host.probes,
                   "host_slowdown": host.slowdown,
                   "run_slowdowns": [[x.wall_s / x.scaled_s for x in reps]
                                     for reps in runs],
                   "setup_unscaled_s": _median(setups)}
    return out


def _trace_churn(seed: int, sz: ChurnSizes, out: Outcome) -> Outcome:
    tracer = SpanRecorder(run_id=f"sim-churn-heal-{seed}")
    # The untraced unit samples the host speed as the timed runs do, so
    # the determinism gate below also shows the probes change no output.
    plain = churn_run(churn_setup(seed, sz, InRunSpeed()), sz, out)
    inp = churn_setup(seed, sz)
    install_spans(tracer, {})
    try:
        t_a = perf()
        traced = churn_run(inp, sz, out)
        t_b = perf()
    finally:
        tracer.restore()
    check_churn(inp, sz, traced, out)
    out.same("churn run (untraced vs traced)", plain.digest(),
             traced.digest())

    c = traced.counters
    values = _span_metrics(tracer)
    stats = inp.plane.stats
    values.update({
        "core.makalu.accept_ratio": _accept_ratio(c),
        "sim.churn.departures": c.get("churn.departures", 0),
        "sim.churn.rejoins": c.get("churn.rejoins", 0),
        "faults.crash_victims": c.get("faults.crash_victims", 0),
        "content.plane.bytes_pushed": (
            stats["heal.bytes"] + stats["repair.bytes"]
            + stats["rebalance.bytes"]),
        "content.plane.fetch_hit_ratio": (
            stats["fetch.hits"] / stats["fetch.requests"]
            if stats["fetch.requests"] else None),
    })
    _finish_per_layer(out, values, traced.wall_s / plain.wall_s, t_b - t_a,
                      tracer.root_coverage(t_a, t_b))
    return out


# ----------------------------------------------------------------------
# live-flood
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LiveSizes:
    n_peers: int = 100
    n_keys: int = 50
    replication_ratio: float = 0.02
    ttl: int = 4
    flood_pass: int = 25
    min_floods: int = 100
    flood_share: float = 0.75
    n_corpus: int = 16
    object_size: tuple = (16 * 1024, 64 * 1024)
    k: int = 3
    fetch_pass: int = 8
    min_fetch_passes: int = 2
    #: A boot is cheap (~0.7 s) and noisy; its median needs many samples.
    setup_repeats: int = 11
    op_timeout_s: float = 30.0


@dataclass
class LiveInputs:
    graph: object
    place: object
    overlay: object
    content: object
    floods: List[tuple]  # (source, object index)
    fetches: List[tuple]  # (source, key)
    corpus_bytes: Dict[int, bytes]


async def live_setup(seed: int, sz: LiveSizes) -> LiveInputs:
    """Build the overlay and corpus, then boot every peer."""
    s = derive_seeds(seed, 6)
    graph = repro.makalu_graph(
        model=repro.EuclideanModel(sz.n_peers, seed=s[0]), seed=s[1])
    place = repro.place_objects(graph.n_nodes, sz.n_keys,
                                sz.replication_ratio, seed=s[2])
    corpus = generate_objects(sz.n_corpus, seed=s[3],
                              size_range=sz.object_size)
    cplace = place_content(graph, [o.key for o in corpus], k=sz.k, seed=s[4])
    rng = np.random.default_rng(s[5])
    floods = [(int(rng.integers(graph.n_nodes)), int(rng.integers(sz.n_keys)))
              for _ in range(sz.flood_pass)]
    fetches = []
    for j in range(sz.fetch_pass):
        key = corpus[j % len(corpus)].key
        holders = set(cplace.replicas(key))
        others = [u for u in range(graph.n_nodes) if u not in holders]
        fetches.append((int(others[rng.integers(len(others))]), key))
    overlay = node_boot.LiveOverlay(graph, placement=place)
    await overlay.start()
    return LiveInputs(
        graph=graph, place=place, overlay=overlay,
        content=content_live.LiveContent(overlay, corpus, cplace),
        floods=floods, fetches=fetches,
        corpus_bytes={o.key: o.data() for o in corpus},
    )


async def _timed(coro, timeout: float):
    t = perf()
    result = await asyncio.wait_for(coro, timeout)
    return result, perf() - t


async def live_flood_pass(inp: LiveInputs, sz: LiveSizes, out: Outcome,
                          speed: Optional[InRunSpeed] = None):
    """One pass of serial floods, each checked against flood() on the graph.

    Returns ``(latencies, digest, scaled)``, one entry per flood (None
    where it raised); ``scaled`` divides each latency by the slowdown of
    ``speed``'s probe just before the flood (by 1 without ``speed``).  An
    inexact flood (for instance one whose quiescence wait timed out) shows
    as a parity mismatch.
    """
    latencies, digest, scaled = [], [], []
    for src, obj in inp.floods:
        out.attempted += 1
        slow = speed.probe(reps=1) if speed is not None else 1.0
        try:
            res, dt = await _timed(
                inp.overlay.flood(src, inp.place.key_of(obj), ttl=sz.ttl),
                sz.op_timeout_s)
        except Exception as exc:  # includes the wait_for timeout
            out.wrong(1, f"flood({src}, obj {obj}) raised "
                         f"{type(exc).__name__}: {exc}")
            latencies.append(None)
            digest.append(None)
            scaled.append(None)
            continue
        latencies.append(dt)
        scaled.append(dt / slow)
        ref = _REF_FLOOD(inp.graph, src, sz.ttl,
                         replica_mask=inp.place.holder_mask(obj))
        have = (res.total_messages, res.duplicates, res.success)
        want = (ref.total_messages, int(ref.duplicates_per_hop.sum()),
                ref.success)
        if have != want:
            out.wrong(1, f"live flood from {src} for obj {obj}: {have} != "
                         f"sim flood() {want}")
        digest.append(have)
    return latencies, digest, scaled


async def live_fetch_pass(inp: LiveInputs, sz: LiveSizes, out: Outcome,
                          speed: Optional[InRunSpeed] = None):
    """One pass of serial fetches; bytes must equal the generated corpus.

    Returns what :func:`live_flood_pass` returns, per fetch.
    """
    latencies, digest, scaled = [], [], []
    for src, key in inp.fetches:
        out.attempted += 1
        slow = speed.probe(reps=1) if speed is not None else 1.0
        try:
            data, dt = await _timed(inp.content.fetch(src, key, ttl=sz.ttl),
                                    sz.op_timeout_s)
        except Exception as exc:  # includes the wait_for timeout
            out.wrong(1, f"fetch({src}, {key}) raised "
                         f"{type(exc).__name__}: {exc}")
            latencies.append(None)
            digest.append(None)
            scaled.append(None)
            continue
        latencies.append(dt)
        scaled.append(dt / slow)
        ok = data == inp.corpus_bytes[key]
        if not ok:
            out.wrong(1, f"fetch({src}, {key}) returned "
                         f"{'nothing' if data is None else 'wrong bytes'}")
        digest.append(ok)
    return latencies, digest, scaled


async def _live_measure(seed: int, seconds: float, sz: LiveSizes,
                        out: Outcome) -> None:
    setups = []
    inp = None
    loopback = LoopbackSpeed()
    await loopback.start()
    try:
        for i in range(sz.setup_repeats):
            if inp is not None:
                await inp.overlay.stop()
            await loopback.probe()
            t = perf()
            inp = await live_setup(seed, sz)
            setups.append(perf() - t)
    finally:
        await loopback.close()
    try:
        flood_lat: List[list] = []
        fetch_lat: List[list] = []
        digests, fetch_digests = [], []
        # Every served flood's and fetch's seconds, scaled to the
        # reference host by the probe taken just before it.
        scaled: List[float] = []
        speed = InRunSpeed()
        start = perf()
        while (len(flood_lat) * sz.flood_pass < sz.min_floods
               or perf() - start < sz.flood_share * seconds):
            lat, digest, sc = await live_flood_pass(inp, sz, out, speed)
            flood_lat.append(lat)
            digests.append(digest)
            scaled += [x for x in sc if x is not None]
            if not any(lat):
                break  # every flood failed; counted above
        inp.content.seed_stores()
        while (len(fetch_digests) < sz.min_fetch_passes
               or perf() - start < seconds):
            lat, digest, sc = await live_fetch_pass(inp, sz, out, speed)
            fetch_lat.append(lat)
            fetch_digests.append(digest)
            scaled += [x for x in sc if x is not None]
    finally:
        await inp.overlay.stop()
    for d in digests[1:]:
        out.same("live flood pass", digests[0], d)
    for d in fetch_digests[1:]:
        out.same("live fetch pass", fetch_digests[0], d)

    # Quality from one pass (all passes are identical); rate and latency
    # percentiles over every flood served.
    one = [x for x in digests[0] if x is not None] if digests else []
    served = [(d[0], t) for dig, lat in zip(digests, flood_lat)
              for d, t in zip(dig, lat) if d is not None]
    flood_s = sum(t for _, t in served)
    msgs_per_s = sum(m for m, _ in served) / flood_s if flood_s else 0.0
    ms = [1000.0 * t for _, t in served]
    fetch_ms = [1000.0 * x for lat in fetch_lat for x in lat if x is not None]
    op_s = flood_s + sum(fetch_ms) / 1000.0
    out.metrics.update(
        setup_s=loopback.normalize_seconds(_median(setups)),
        live_flood_p50_ms=_median(ms),
        live_flood_p90_ms=float(np.percentile(ms, 90)) if ms else 0.0,
        live_msgs_per_s=msgs_per_s,
        live_fetch_p50_ms=_median(fetch_ms),
        search_success_rate=sum(x[2] for x in one) / len(one) if one else 0.0,
        messages_per_query=sum(x[0] for x in one) / len(one) if one else 0.0,
        failed_fraction=out.failed / out.attempted,
        peak_rss_mb=_peak_rss_mb(),
        # Floods and fetches served per second of serving them, each
        # scaled by the host speed sampled just before it.
        throughput_per_s=len(scaled) / sum(scaled) if scaled else 0.0,
    )
    out.samples = {"setups": len(setups), "floods": len(ms),
                   "fetches": len(fetch_ms),
                   "ops_per_s_unscaled": ((len(ms) + len(fetch_ms)) / op_s
                                          if op_s else 0.0),
                   "op_slowdown": speed.slowdown,
                   "loopback_slowdown": loopback.slowdown,
                   "setup_unscaled_s": _median(setups)}


def _node_counters(overlay) -> Dict[str, int]:
    return overlay.merged_registry(top_peers=0).snapshot()["counters"]


async def _live_trace(seed: int, sz: LiveSizes, out: Outcome) -> None:
    tracer = SpanRecorder(run_id=f"live-flood-{seed}")
    with obs.observed() as session:
        install_spans(tracer, {})
        try:
            t_a = perf()
            inp = await live_setup(seed, sz)
            t_b = perf()
        finally:
            tracer.restore()
    accept = _accept_ratio(session.metrics.snapshot()["counters"])
    try:
        t = perf()
        plain = await live_flood_pass(inp, sz, out)
        inp.content.seed_stores()
        plain_fetch = await live_fetch_pass(inp, sz, out)
        untraced = perf() - t
        before = _node_counters(inp.overlay)
        install_spans(tracer, {})
        try:
            t_c = perf()
            traced = await live_flood_pass(inp, sz, out)
            inp.content.seed_stores()
            traced_fetch = await live_fetch_pass(inp, sz, out)
            t_d = perf()
        finally:
            tracer.restore()
        after = _node_counters(inp.overlay)
    finally:
        install_spans(tracer, {})
        try:
            t_e = perf()
            await inp.overlay.stop()
            t_f = perf()
        finally:
            tracer.restore()
    out.same("live flood pass (untraced vs traced)", plain[1], traced[1])
    out.same("live fetch pass (untraced vs traced)", plain_fetch[1],
             traced_fetch[1])

    delta = {k: after.get(k, 0) - before.get(k, 0) for k in (
        "node.rx.query", "node.query.fresh", "node.tx.bytes", "node.rx.bytes",
        "node.protocol_errors", "node.desyncs", "node.content.chunks_tx",
        "node.content.bytes_tx")}
    values = _span_metrics(tracer)
    values["core.makalu.accept_ratio"] = accept
    values.setdefault("node.boot.settle.timeouts", 0)
    values.update({k: v for k, v in delta.items() if k != "node.query.fresh"})
    if delta["node.rx.query"]:
        values["node.query.useful_ratio"] = (
            delta["node.query.fresh"] / delta["node.rx.query"])
    wall = (t_b - t_a) + (t_d - t_c) + (t_f - t_e)
    covered = (tracer.root_coverage(t_a, t_b) + tracer.root_coverage(t_c, t_d)
               + tracer.root_coverage(t_e, t_f))
    _finish_per_layer(out, values, (t_d - t_c) / untraced, wall, covered)


def run_live_flood(seed: int, seconds: float, trace: bool,
                   sz: LiveSizes = LiveSizes()) -> Outcome:
    out = Outcome(sizes=asdict(sz))
    if trace:
        asyncio.run(_live_trace(seed, sz, out))
    else:
        asyncio.run(_live_measure(seed, seconds, sz, out))
    return out


RUNNERS = {
    "sim-search": run_sim_search,
    "sim-churn-heal": run_sim_churn_heal,
    "live-flood": run_live_flood,
}

