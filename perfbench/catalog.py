"""Every name the benchmark emits, declared once, with unit and direction.

``BENCHMARK.json`` at the repository root carries the subset its format
allows (name, unit, direction, bound); this module is the full
declaration, and ``test_perfbench.py`` checks the two agree and that the
runs emit exactly what is declared here.

Three kinds of metric:

* ``GATED`` -- the end-to-end metrics every workload emits on its last
  output line with ``--trace 0``; each carries the regression bound.
* ``REPORTED`` -- the end-to-end metrics by their workload-specific names.
  Each workload prints and records the ones listed for it.  The gated
  metrics are among them (``throughput_per_s`` aliases the workload's
  headline rate).
* ``PER_LAYER`` -- the traced run's per-layer metrics, emitted by every
  workload on its last line with ``--trace 1`` (0 where the layer does
  not run in that workload; the run's record says why).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

WORKLOADS = {
    "sim-search": (
        "paper search experiments (Table 1, Fig. 4, Sec. 6) on prebuilt "
        "Makalu and power-law overlays: flood kernels, ABF routing, queueing"
    ),
    "sim-churn-heal": (
        "fault tolerance: churn plus paper-live-failures with a healing "
        "content plane; the builder changes the overlay edge by edge"
    ),
    "live-flood": (
        "asyncio peers over loopback TCP: serial floods then chunked "
        "object fetches; the only workload running repro.node"
    ),
}

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]
    help: str
    bound: Optional[float] = None


def _m(name, unit, better, workloads, help, bound=None) -> Metric:
    return Metric(name, unit, better, tuple(workloads), help, bound)


SIM = ("sim-search",)
CHURN = ("sim-churn-heal",)
LIVE = ("live-flood",)

GATED = (
    _m("setup_s", "s", "lower", ALL,
       "median set-up time: substrate, overlays and filters (live: and "
       "boot), scaled to the nominal host (sim: compute kernels; live: "
       "loopback round trips)", 0.25),
    _m("throughput_per_s", "1/s", "higher", ALL,
       "requested operations per wall second, scaled to the nominal host "
       "by reference kernels: queries (sim-search, geometric mean over its "
       "four arms), churn events (sim-churn-heal), floods and fetches "
       "(live-flood)", 0.25),
    _m("search_success_rate", "fraction", "higher", ALL,
       "successful searches / attempted (churn: the flood probes)", 0.1),
    _m("messages_per_query", "msgs", "lower", ALL,
       "Table-1 cost: Makalu flood arm; churn: per probe; live: per flood",
       0.2),
    _m("peak_rss_mb", "MB", "lower", ALL,
       "peak resident memory of this workload's process", 0.2),
)

REPORTED = (
    GATED[0],
    _m("sim_queries_per_s", "queries/s", "higher", SIM,
       "flood (both overlays) and identifier queries per wall second"),
    _m("queue_msgs_per_s", "msgs/s", "higher", SIM,
       "messages serviced per wall second by simulate_workload"),
    _m("churn_events_per_s", "events/s", "higher", CHURN,
       "departures, rejoins and crash victims per wall second of run()"),
    _m("live_flood_p50_ms", "ms", "lower", LIVE,
       "median wall time of one LiveOverlay.flood"),
    _m("live_flood_p90_ms", "ms", "lower", LIVE,
       "p90 wall time of one LiveOverlay.flood (>= 10 samples beyond)"),
    _m("live_msgs_per_s", "msgs/s", "higher", LIVE,
       "query messages delivered per wall second of the flood phase"),
    _m("live_fetch_p50_ms", "ms", "lower", LIVE,
       "median wall time of one LiveContent.fetch (locate plus transfer)"),
    GATED[2],
    GATED[3],
    _m("queue_p99_s", "virtual_s", "lower", SIM,
       "Sec-6 response-time p99 from simulate_workload"),
    _m("availability", "fraction", "higher", CHURN,
       "DurabilityReport.availability at the end of the run"),
    _m("failed_fraction", "fraction", "lower", ALL,
       "operations that raised, timed out or were wrong / attempted"),
    GATED[4],
    GATED[1],
)

# Per-layer metrics are named after the modules whose public calls the
# traced run wraps: X.calls / X.total_s / X.self_s are spans around X.
_T = ("s", "lower")
_N = ("count", "lower")
_R = ("ratio", "higher")


def _layer(name, kind, workloads, help) -> Metric:
    unit, better = kind
    return _m(name, unit, better, workloads, help)


SIM_CHURN = SIM + CHURN
PER_LAYER = (
    _layer("core.makalu.build.total_s", _T, ALL,
           "MakaluBuilder.build (set-up; churn: the initial build in run)"),
    _layer("core.makalu.join.calls", _N, CHURN,
           "MakaluBuilder.join outside build, i.e. rejoins"),
    _layer("core.makalu.join.total_s", _T, CHURN, "as above, seconds"),
    _layer("core.makalu.accept_ratio", _R, ALL,
           "makalu.connections_accepted / makalu.connections_attempted"),
    _layer("core.maintenance.repair_after_failure.calls", _N, CHURN,
           "repair_after_failure as sim.churn looks it up"),
    _layer("core.maintenance.repair_after_failure.total_s", _T, CHURN,
           "as above, seconds"),
    _layer("core.maintenance.bereaved", _N, CHURN,
           "survivors returned by repair_after_failure, summed"),
    _layer("topology.powerlaw_graph.total_s", _T, SIM,
           "power-law overlay generation"),
    _layer("search.flood_queries.makalu.total_s", _T, SIM,
           "flood_queries on the Makalu overlay"),
    _layer("search.flood_queries.powerlaw.total_s", _T, SIM,
           "flood_queries on the power-law overlay"),
    _layer("search.flood_queries.self_s", _T, SIM,
           "flood_queries time outside per-query flood() spans"),
    _layer("search.flood.calls", _N, SIM_CHURN,
           "flood() calls (flood_queries' scalar path; churn probes)"),
    _layer("search.flood.total_s", _T, SIM_CHURN, "as above, seconds"),
    _layer("search.identifier_queries.total_s", _T, SIM,
           "identifier_queries through an AbfRouter"),
    _layer("search.build_attenuated_filters.total_s", _T, SIM,
           "depth-3 attenuated Bloom filters (setup)"),
    _layer("search.useful_ratio.makalu", _R, SIM,
           "first deliveries / messages, Makalu flood arm"),
    _layer("search.useful_ratio.powerlaw", _R, SIM,
           "first deliveries / messages, power-law flood arm"),
    _layer("sim.queueing.simulate_workload.total_s", _T, SIM,
           "simulate_workload on Makalu"),
    _layer("sim.queueing.messages", _N, SIM,
           "messages serviced by simulate_workload"),
    _m("sim.queueing.util_max", "fraction", "lower", SIM,
       "busiest node's utilization"),
    _m("sim.queueing.peak_queue_delay_s", "virtual_s", "lower", SIM,
       "largest queueing delay any message saw"),
    _layer("sim.churn.run.total_s", _T, CHURN, "ChurnSimulation.run"),
    _layer("sim.churn.run.self_s", _T, CHURN,
           "run() time outside every wrapped child call"),
    _layer("sim.churn.crash_nodes.calls", _N, CHURN,
           "ChurnSimulation.crash_nodes (fault injector crashes)"),
    _layer("sim.churn.crash_nodes.total_s", _T, CHURN, "as above, seconds"),
    _layer("sim.churn.departures", _N, CHURN, "obs counter churn.departures"),
    _layer("sim.churn.rejoins", _N, CHURN, "obs counter churn.rejoins"),
    _layer("faults.crash_victims", _N, CHURN,
           "obs counter faults.crash_victims"),
    _layer("content.plane.heal.calls", _N, CHURN, "ContentPlane.heal"),
    _layer("content.plane.heal.total_s", _T, CHURN, "as above, seconds"),
    _layer("content.plane.fetch.calls", _N, CHURN,
           "ContentPlane.fetch (fetch probes with read-repair)"),
    _layer("content.plane.fetch.total_s", _T, CHURN, "as above, seconds"),
    _layer("content.plane.on_join.calls", _N, CHURN,
           "ContentPlane.on_join (rebalance on rejoin)"),
    _layer("content.plane.on_join.total_s", _T, CHURN, "as above, seconds"),
    _layer("content.plane.on_crash.calls", _N, CHURN,
           "ContentPlane.on_crash (disk wipe)"),
    _layer("content.plane.on_crash.total_s", _T, CHURN, "as above, seconds"),
    _m("content.plane.bytes_pushed", "bytes", "lower", CHURN,
       "heal, repair and rebalance bytes pushed"),
    _layer("content.plane.fetch_hit_ratio", _R, CHURN,
           "fetch hits / fetch requests"),
    _layer("node.boot.start.total_s", _T, LIVE,
           "LiveOverlay.start: listen, dial, handshake"),
    _layer("node.boot.flood.calls", _N, LIVE, "LiveOverlay.flood"),
    _layer("node.boot.flood.total_s", _T, LIVE, "as above, seconds"),
    _layer("node.boot.flood.self_s", _T, LIVE,
           "flood time outside settle (mostly counter snapshots)"),
    _layer("node.boot.settle.calls", _N, LIVE,
           "LiveOverlay.settle (floods, fetch locates, pushes)"),
    _layer("node.boot.settle.total_s", _T, LIVE, "the quiescence wait"),
    _layer("node.boot.settle.timeouts", _N, LIVE,
           "settle calls that returned False"),
    _layer("node.boot.stop.total_s", _T, LIVE, "LiveOverlay.stop"),
    _layer("node.rx.query", _N, LIVE,
           "query frames received, merged registry, traced pass"),
    _layer("node.query.useful_ratio", _R, LIVE,
           "node.query.fresh / node.rx.query, traced pass"),
    _m("node.tx.bytes", "bytes", "lower", LIVE, "bytes sent, traced pass"),
    _m("node.rx.bytes", "bytes", "lower", LIVE,
       "bytes received, traced pass"),
    _layer("node.protocol_errors", _N, LIVE,
           "recoverable decode faults, traced pass"),
    _layer("node.desyncs", _N, LIVE, "links desynced, traced pass"),
    _layer("content.live.seed_stores.total_s", _T, LIVE,
           "LiveContent.seed_stores"),
    _layer("content.live.fetch.calls", _N, LIVE, "LiveContent.fetch"),
    _layer("content.live.fetch.total_s", _T, LIVE, "as above, seconds"),
    _layer("content.live.fetch.self_s", _T, LIVE,
           "fetch time outside settle: the chunk transfer"),
    _layer("node.content.chunks_tx", _N, LIVE,
           "chunk frames sent, traced pass"),
    _m("node.content.bytes_tx", "bytes", "lower", LIVE,
       "chunk payload bytes sent, traced pass"),
    _m("trace.overhead_ratio", "ratio", "lower", ALL,
       "traced / untraced wall of the same measured work"),
    _m("trace.unattributed_fraction", "fraction", "lower", ALL,
       "share of traced wall not covered by any top-level span"),
)


def benchmark_json_fields() -> dict:
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in GATED
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def reported_for(workload: str) -> Tuple[Metric, ...]:
    """The REPORTED metrics a workload emits, in declaration order."""
    return tuple(m for m in REPORTED if workload in m.workloads)
