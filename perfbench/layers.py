"""Which program functions the traced run wraps, and the per-layer table.

Each entry of :func:`install` names a public function or method at a
layer boundary and the span it records; :data:`PER_LAYER` turns spans
and counters into the per-layer metrics listed in ``BENCHMARK.json``.

Time metrics come in two forms.  ``*self_s`` is the layer's self time:
its spans' durations minus the time their child spans cover.  Any
other ``*_s`` is inclusive: the duration of the layer's outermost spans
(a span whose parent belongs to the same metric is not added twice).
"""

from __future__ import annotations

import numpy as np

from perfbench.tracer import Tracer, import_all_modules, patch_function, patch_method


def _count_appended(tracer, result, args, kwargs):
    """Count the records an extend call appended (a record list, or a
    dict of equal-length column arrays)."""
    records = args[1]
    if isinstance(records, dict):
        records = next(iter(records.values()), ())
    tracer.count("extension.backends.appends", len(records))


def _count_result_len(counter: str):
    def hook(tracer, result, args, kwargs):
        tracer.count(counter, len(result))

    return hook


def _count_batch_epochs(tracer, result, args, kwargs):
    tracer.count("orbits.propagations", int(result.shape[0]))


def _count_one_propagation(tracer, result, args, kwargs):
    tracer.count("orbits.propagations")


def _count_sim_events(tracer, result, args, kwargs):
    tracer.count("net.events", int(result))


def _count_iperf(tracer, result, args, kwargs):
    tracer.count("tcp.retransmits", result.retransmits)
    tracer.count("tcp.timeouts", result.timeouts)


def _count_udp_burst(tracer, result, args, kwargs):
    tracer.count("nodes.udp_lost", result.packets_sent - result.packets_received)


def _runtime_hook(mode: str):
    def hook(tracer, result, args, kwargs):
        stats = result.stats if hasattr(result, "stats") else result[1]
        walls = [shard.wall_s for shard in stats.shards if not shard.resumed]
        tracer.count("runtime.failed_attempts", len(stats.failures))
        tracer.runtime_runs.append((mode, walls))

    return hook


#: The runtime entry point behind each service mode.
RUNTIME_MODES = {
    "records": ("repro.runtime.pool", "run_campaign_sharded"),
    "fabric": ("repro.runtime.fabric", "run_fabric_campaign"),
    "sketch": ("repro.runtime.reduce", "run_campaign_sketched"),
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer table reads."""
    import_all_modules()

    from repro.analysis.streaming import GroupedAccumulator
    from repro.extension.backends import (
        ColumnarBackend,
        InMemoryBackend,
        SpillBackend,
    )
    from repro.extension.campaign import ExtensionCampaign
    from repro.extension.sessions import SessionGenerator
    from repro.extension.storage import Dataset
    from repro.net.node import Node
    from repro.net.packet import Protocol
    from repro.net.simulator import Simulator
    from repro.nodes.rpi import MeasurementNode
    from repro.orbits.constellation import WalkerShell
    from repro.service.app import ServiceHandler
    from repro.service.runner import CampaignService
    from repro.starlink.access import Scenario
    from repro.starlink.bentpipe import BentPipeModel
    from repro.tcp.flow import TcpFlow
    from repro.weather.history import WeatherHistory
    from repro.web.browser import PageLoadSimulator
    from repro.web.hosting import HostingModel
    from repro.web.page import PageProfileGenerator

    def method(cls, attr, span, on_result=None):
        patch_method(cls, attr, lambda fn: tracer.wrap(fn, span, on_result))

    def function(module, attr, span, on_result=None):
        patch_function(module, attr, lambda fn: tracer.wrap(fn, span, on_result))

    # orbits
    method(
        WalkerShell,
        "positions_ecef",
        "orbits.positions_ecef",
        _count_one_propagation,
    )
    method(
        WalkerShell,
        "positions_ecef_batch",
        "orbits.positions_ecef_batch",
        _count_batch_epochs,
    )
    # starlink
    method(BentPipeModel, "serving_geometry", "starlink.serving_geometry")
    function(
        "repro.starlink.timeline",
        "compute_serving_timeline",
        "starlink.compute_serving_timeline",
        _count_result_len("starlink.timeline_epochs"),
    )
    for attr in ("sample_rtt_to_pop_s", "capacity_bps", "loss_rate"):
        method(BentPipeModel, attr, f"starlink.{attr}")
    method(MeasurementNode, "precompute_geometry", "starlink.precompute_geometry")
    method(BentPipeModel, "handover_loss_model", "starlink.handover_loss_model")
    method(Scenario, "build", "starlink.scenario_build")
    # weather
    function("repro.weather.impairment", "impairment_for", "weather.impairment_for")
    method(WeatherHistory, "condition_at", "weather.condition_at")
    # web
    method(PageLoadSimulator, "load", "web.load")
    method(PageProfileGenerator, "draw", "web.draw")
    method(HostingModel, "resolve", "web.resolve")
    function("repro.web.speedtest", "run_browser_speedtest", "web.speedtest")
    # rng
    function("repro.rng", "stream", "rng.stream")
    # extension
    method(SessionGenerator, "events", "extension.sessions")
    method(ExtensionCampaign, "run_user", "extension.run_user")
    # extension.backends: writes
    method(Dataset, "extend_page_loads", "backends.write", _count_appended)
    method(Dataset, "extend_speedtests", "backends.write", _count_appended)
    method(Dataset, "flush", "backends.write")
    for cls in (InMemoryBackend, ColumnarBackend, SpillBackend):
        for attr in ("extend_page_load_arrays", "extend_speedtest_arrays"):
            method(cls, attr, "backends.write", _count_appended)
    # extension.backends: reads
    for attr in ("iter_page_load_column_chunks", "iter_speedtest_column_chunks"):
        patch_method(
            Dataset,
            attr,
            lambda fn: tracer.wrap_iterator(
                fn, "backends.read", "extension.backends.chunks_read"
            ),
        )
    _patch_decoders(tracer)
    method(Dataset, "page_load_slice", "backends.slice")
    method(Dataset, "speedtest_slice", "backends.slice")
    # analysis
    method(GroupedAccumulator, "update", "analysis.fold")
    method(GroupedAccumulator, "merge", "analysis.fold")
    for attr in (
        "request_count",
        "unique_domains",
        "median_ptt_ms",
        "median_speedtest_mbps",
    ):
        method(Dataset, attr, "analysis.exact")
    # runtime: one entry point per service mode
    for mode, (module, attr) in RUNTIME_MODES.items():
        function(module, attr, f"runtime.run.{mode}", _runtime_hook(mode))
    function("repro.runtime.merge", "merge_shard_results", "runtime.merge")
    function("repro.runtime.reduce", "reduce_shard_sketches", "runtime.merge")
    # service
    method(CampaignService, "submit", "service.submit")
    method(ServiceHandler, "_send_results", "service.results")
    # net, nodes, tcp
    method(Simulator, "run", "net.run", _count_sim_events)
    function("repro.nodes.iperf", "run_iperf_tcp", "nodes.iperf_tcp", _count_iperf)
    function("repro.nodes.iperf", "run_udp_burst", "nodes.udp_burst", _count_udp_burst)

    def count_flow(tracer, result, args, kwargs):
        tracer.count("tcp.flows")

    method(TcpFlow, "__init__", "tcp.flow_init", count_flow)
    send = Node.send

    def counting_send(node, packet):
        send(node, packet)
        if packet.protocol is Protocol.UDP and packet.src == node.name:
            tracer.count("nodes.udp_packets")

    Node.send = counting_send


def _patch_decoders(tracer: Tracer) -> None:
    """Wrap the record decoders, including the references the backends'
    codec table captured at import time."""
    from repro.extension import backends, columnar

    hook = _count_result_len("extension.backends.materialised_records")
    wrapped = {}
    for attr in ("decode_page_loads", "decode_speedtests"):
        original = getattr(columnar, attr)
        wrapped[original] = tracer.wrap(original, "backends.materialise", hook)
        patch_function("repro.extension.columnar", attr, wrapped.__getitem__)
    for kind, entry in list(backends._CODECS.items()):
        backends._CODECS[kind] = tuple(wrapped.get(item, item) for item in entry)


# -- per-layer table -----------------------------------------------------

#: ``(metric, unit, kind, spans-or-counter)``; kind is ``count`` (spans
#: named), ``counter`` (a counter's value), ``self`` or ``total``.
PER_LAYER = (
    ("orbits.propagations", "count", "counter", "orbits.propagations"),
    (
        "orbits.self_s",
        "s",
        "self",
        ("orbits.positions_ecef", "orbits.positions_ecef_batch"),
    ),
    ("starlink.geometry_lookups", "count", "count", ("starlink.serving_geometry",)),
    ("starlink.geometry_scans", "count", "counter", "starlink.geometry_scans"),
    ("starlink.geometry_self_s", "s", "self", ("starlink.serving_geometry",)),
    ("starlink.timeline_epochs", "count", "counter", "starlink.timeline_epochs"),
    ("starlink.timeline_s", "s", "total", ("starlink.compute_serving_timeline",)),
    ("starlink.rtt_samples", "count", "count", ("starlink.sample_rtt_to_pop_s",)),
    (
        "starlink.bentpipe_self_s",
        "s",
        "self",
        ("starlink.sample_rtt_to_pop_s", "starlink.capacity_bps", "starlink.loss_rate"),
    ),
    (
        "starlink.path_build_s",
        "s",
        "total",
        (
            "starlink.precompute_geometry",
            "starlink.handover_loss_model",
            "starlink.scenario_build",
        ),
    ),
    ("weather.impairments", "count", "count", ("weather.impairment_for",)),
    ("weather.self_s", "s", "self", ("weather.impairment_for", "weather.condition_at")),
    ("web.page_loads", "count", "count", ("web.load",)),
    (
        "web.self_s",
        "s",
        "self",
        ("web.load", "web.draw", "web.resolve", "web.speedtest"),
    ),
    ("rng.streams", "count", "count", ("rng.stream",)),
    ("rng.self_s", "s", "self", ("rng.stream",)),
    ("extension.sessions_self_s", "s", "self", ("extension.sessions",)),
    ("extension.records_self_s", "s", "self", ("extension.run_user",)),
    ("extension.backends.appends", "count", "counter", "extension.backends.appends"),
    ("extension.backends.write_s", "s", "total", ("backends.write",)),
    (
        "extension.backends.chunks_read",
        "count",
        "counter",
        "extension.backends.chunks_read",
    ),
    ("extension.backends.read_s", "s", "total", ("backends.read",)),
    (
        "extension.backends.materialised_records",
        "count",
        "counter",
        "extension.backends.materialised_records",
    ),
    ("extension.backends.materialise_s", "s", "total", ("backends.materialise",)),
    ("extension.backends.slice_s", "s", "total", ("backends.slice",)),
    ("analysis.fold_s", "s", "total", ("analysis.fold",)),
    ("analysis.exact_self_s", "s", "self", ("analysis.exact",)),
    ("runtime.run_records_s", "s", "total", ("runtime.run.records",)),
    ("runtime.run_fabric_s", "s", "total", ("runtime.run.fabric",)),
    ("runtime.run_sketch_s", "s", "total", ("runtime.run.sketch",)),
    ("runtime.merge_s", "s", "total", ("runtime.merge",)),
    ("runtime.shard_wall_max_s", "s", "counter", "runtime.shard_wall_max_s"),
    ("runtime.shard_wall_sum_s", "s", "counter", "runtime.shard_wall_sum_s"),
    ("runtime.shard_wall_spread_s", "s", "counter", "runtime.shard_wall_spread_s"),
    ("runtime.overhead_s", "s", "counter", "runtime.overhead_s"),
    ("runtime.failed_attempts", "count", "counter", "runtime.failed_attempts"),
    ("service.submit_s", "s", "total", ("service.submit",)),
    ("service.queue_wait_s", "s", "counter", "service.queue_wait_s"),
    ("service.results_s", "s", "total", ("service.results",)),
    ("service.results_rows", "count", "counter", "service.results_rows"),
    ("service.http_errors", "count", "counter", "service.http_errors"),
    ("net.events", "count", "counter", "net.events"),
    ("net.run_s", "s", "total", ("net.run",)),
    ("nodes.udp_packets", "count", "counter", "nodes.udp_packets"),
    ("nodes.udp_lost", "count", "counter", "nodes.udp_lost"),
    ("tcp.flows", "count", "counter", "tcp.flows"),
    ("tcp.retransmits", "count", "counter", "tcp.retransmits"),
    ("tcp.timeouts", "count", "counter", "tcp.timeouts"),
)


def _span_durations(trace: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each span's duration and self time (duration minus children)."""
    duration = trace["end"] - trace["start"]
    children = np.zeros_like(duration)
    parent = trace["parent"]
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    return duration, duration - children


def derived_counters(
    trace: dict, names: list[str], tracer_counters: dict, runtime_runs
) -> dict:
    """Counters computed from span structure and runtime results."""
    counters = dict(tracer_counters)
    ids = {name: index for index, name in enumerate(names)}
    name = trace["name"]
    parent = trace["parent"]
    # A serving-geometry lookup that misses every cache scans its epoch,
    # and a scan propagates the shell exactly once.
    geometry = ids.get("starlink.serving_geometry", -1)
    positions = ids.get("orbits.positions_ecef", -1)
    is_positions = name == positions
    scans = is_positions & (parent >= 0)
    scans[scans] = name[parent[scans]] == geometry
    counters["starlink.geometry_scans"] = int(scans.sum())
    wall_max = wall_sum = spread = overhead = 0.0
    run_durations = {}
    duration, _ = _span_durations(trace)
    for mode in RUNTIME_MODES:
        mode_id = ids.get(f"runtime.run.{mode}", -1)
        run_durations[mode] = list(duration[name == mode_id])
    for mode, walls in runtime_runs:
        run_s = run_durations[mode].pop(0)
        slowest = max(walls) if walls else 0.0
        wall_max += slowest
        wall_sum += sum(walls)
        spread += (slowest - min(walls)) if walls else 0.0
        overhead += run_s - slowest
    counters["runtime.shard_wall_max_s"] = wall_max
    counters["runtime.shard_wall_sum_s"] = wall_sum
    counters["runtime.shard_wall_spread_s"] = spread
    counters["runtime.overhead_s"] = overhead
    # Queue wait: from a submission's arrival until the runtime starts
    # its campaign (service-side preparation such as the records mode's
    # timeline precompute included).  The client is closed-loop, so the
    # i-th submission pairs with the i-th runtime call.
    submit_starts = np.sort(trace["start"][name == ids.get("service.submit", -1)])
    runtime_ids = [ids.get(f"runtime.run.{mode}", -1) for mode in RUNTIME_MODES]
    run_starts = np.sort(trace["start"][np.isin(name, runtime_ids)])
    n = min(len(submit_starts), len(run_starts))
    counters["service.queue_wait_s"] = float((run_starts[:n] - submit_starts[:n]).sum())
    return counters


def per_layer_metrics(trace: dict, names: list[str], counters: dict) -> dict:
    """Every :data:`PER_LAYER` metric as ``{name: {value, unit}}``."""
    ids = {name: index for index, name in enumerate(names)}
    duration, self_time = _span_durations(trace)
    name = trace["name"]
    parent = trace["parent"]
    metrics = {}
    for metric, unit, kind, source in PER_LAYER:
        if kind == "counter":
            value = counters.get(source, 0)
        else:
            wanted = [ids[span] for span in source if span in ids]
            mask = np.isin(name, wanted)
            if kind == "count":
                value = int(mask.sum())
            elif kind == "self":
                value = float(self_time[mask].sum())
            else:
                nested = mask & (parent >= 0)
                nested[nested] = np.isin(name[parent[nested]], wanted)
                value = float(duration[mask & ~nested].sum())
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
