"""Sketch merge-reduce over campaign shards: aggregates without columns.

The record-path engine (:mod:`repro.runtime.pool`) ships every record
a shard produced back to the parent, which merges them into one
dataset — the right thing when the dataset itself is the product.  For
analysis-only campaign runs at production scale, the parent only needs
the *aggregates*, and those are mergeable: each worker folds its
users' records straight into the sketch/accumulator states of
:mod:`repro.analysis.streaming` and ships those tiny states over the
supervision pipe instead.  Raw columns are never centralised; the
parent's reduce is a per-key sketch merge (associative and commutative
up to the rank-error bound, so completion order never matters) guarded
by the same partition validation the record merge uses.

The path reuses the supervising dispatcher wholesale — timeouts, crash
retries, backoff and in-process degradation all behave exactly as in
DESIGN.md §8 — by passing :func:`run_shard_sketch` /
:func:`validate_sketch_result` through ``supervise_shards``'s
``task_fn``/``validate_fn`` seams.  Checkpointing is record-shaped and
therefore not wired up here: a sketch run that dies restarts, it never
resumes half-reduced state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.analysis.streaming import DEFAULT_COMPRESSION, GroupedAccumulator
from repro.errors import ConfigurationError
from repro.extension import columnar
from repro.runtime.merge import _validate_partition
from repro.runtime.shard import (
    CampaignRunStats,
    ShardStats,
    TimelineSpill,
    plan_shards,
)

@dataclass(frozen=True)
class SketchSpec:
    """What a sketch-reduce campaign folds, per shard.

    Attributes:
        page_load_keys: Page-load columns forming each sketch's group
            key (e.g. ``("city", "is_starlink")``); empty disables the
            page-load fold.
        page_load_value: The folded page-load value column (stored or
            derived, e.g. ``ptt_ms``).
        page_load_distinct: Optional label column counted exactly per
            key (``domain`` for the #domain cells).
        speedtest_keys: Speedtest group-key columns; empty disables
            the speedtest fold.
        speedtest_values: Speedtest value columns, one grouped
            accumulator each (e.g. download and upload Mbps).
        compression: t-digest compression for every sketch.
    """

    page_load_keys: tuple[str, ...] = ("city", "is_starlink")
    page_load_value: str = "ptt_ms"
    page_load_distinct: str | None = "domain"
    speedtest_keys: tuple[str, ...] = ("city", "is_starlink")
    speedtest_values: tuple[str, ...] = ("download_mbps", "upload_mbps")
    compression: int = DEFAULT_COMPRESSION

    def __post_init__(self) -> None:
        if not self.page_load_keys and not self.speedtest_keys:
            raise ConfigurationError(
                "a SketchSpec must fold page loads, speedtests, or both"
            )


#: The Table 1 shape: PTT sketches per (city, connection type) with
#: exact distinct-domain counts, plus per-city speedtest sketches —
#: enough for every grouped aggregate the paper's tables report.
DEFAULT_SKETCH_SPEC = SketchSpec()


@dataclass
class ShardSketchResult:
    """One shard's mergeable aggregate states (no records, no columns).

    ``user_indices`` carries the covered partition slice so the reduce
    can enforce the same exactly-once invariant the record merge does;
    the states themselves are the picklable snapshots of
    :class:`~repro.analysis.streaming.GroupedAccumulator`.
    """

    shard_id: int
    user_indices: list[int]
    page_load_state: dict | None
    speedtest_states: dict[str, dict] = field(default_factory=dict)
    stats: ShardStats = None


def _page_load_value_column(spec: SketchSpec, arrays) -> "object":
    if spec.page_load_value in columnar.PAGE_LOAD_DERIVED:
        return columnar.derived_page_load_column(
            spec.page_load_value, arrays.__getitem__
        )
    return arrays[spec.page_load_value]


def run_shard_sketch(
    config, shard_id: int, user_indices, timelines=None, spec=None
) -> ShardSketchResult:
    """Execute one shard and fold its records into sketch states.

    Mirrors :func:`repro.runtime.shard.run_shard` (same config
    rebuild, same timeline adoption, same determinism contract) but
    each user's finished records are encoded to columns and folded
    into the shard-local accumulators immediately — nothing but the
    compressed states and exact counters survives the user loop, so a
    worker's footprint is one user's records plus the sketches.
    """
    from repro.extension.campaign import ExtensionCampaign

    spec = spec if spec is not None else DEFAULT_SKETCH_SPEC
    if isinstance(timelines, TimelineSpill):
        timelines = timelines.load()
    worker_config = replace(config, n_workers=1)
    if hasattr(worker_config, "precompute_timelines"):
        worker_config = replace(worker_config, precompute_timelines=False)
    campaign = ExtensionCampaign(worker_config)
    if timelines:
        campaign.install_timelines(timelines)
    users = campaign.population.users
    stats = ShardStats(shard_id=shard_id, n_users=len(user_indices))
    page_grouped = (
        GroupedAccumulator(compression=spec.compression)
        if spec.page_load_keys
        else None
    )
    speed_grouped = {
        value: GroupedAccumulator(compression=spec.compression)
        for value in (spec.speedtest_values if spec.speedtest_keys else ())
    }
    started = time.perf_counter()
    for index in user_indices:
        page_loads, speedtests = campaign.run_user(users[index])
        stats.n_page_loads += len(page_loads)
        stats.n_speedtests += len(speedtests)
        if page_grouped is not None and page_loads:
            arrays = columnar.encode_page_loads(page_loads)
            page_grouped.update(
                tuple(arrays[key] for key in spec.page_load_keys),
                _page_load_value_column(spec, arrays),
                distinct=(
                    arrays[spec.page_load_distinct]
                    if spec.page_load_distinct
                    else None
                ),
            )
        if speed_grouped and speedtests:
            arrays = columnar.encode_speedtests(speedtests)
            keys = tuple(arrays[key] for key in spec.speedtest_keys)
            for value, grouped in speed_grouped.items():
                grouped.update(keys, arrays[value])
    stats.wall_s = time.perf_counter() - started
    campaign.add_geometry_stats(stats)
    return ShardSketchResult(
        shard_id=shard_id,
        user_indices=list(user_indices),
        page_load_state=(
            page_grouped.to_state() if page_grouped is not None else None
        ),
        speedtest_states={
            value: grouped.to_state()
            for value, grouped in speed_grouped.items()
        },
        stats=stats,
    )


def validate_sketch_result(result, shard_id: int, user_indices) -> str | None:
    """Why a worker's sketch result is unusable, or ``None`` if fine.

    The sketch twin of ``validate_shard_result``: right type, right
    shard id, and coverage of exactly the assigned user indices.
    """
    if not isinstance(result, ShardSketchResult):
        return f"expected ShardSketchResult, got {type(result).__name__}"
    if result.shard_id != shard_id:
        return f"shard id mismatch: assigned {shard_id}, got {result.shard_id}"
    expected = set(user_indices)
    got = set(result.user_indices)
    if got != expected:
        missing = sorted(expected - got)
        surplus = sorted(got - expected)
        return f"user-index set mismatch (missing {missing}, surplus {surplus})"
    return None


@dataclass
class SketchReduceResult:
    """The merged aggregates of a sketch-reduce campaign run.

    Attributes:
        page_loads: Per-key PTT (or other value) sketches, merged over
            every shard; ``None`` when the spec folded no page loads.
        speedtests: ``{value column: merged grouped accumulator}``.
        stats: The run's supervision/timing counters (same class the
            record path reports).
    """

    page_loads: GroupedAccumulator | None
    speedtests: dict[str, GroupedAccumulator]
    stats: CampaignRunStats


def reduce_shard_sketches(
    results, spec: SketchSpec, expected_indices=None
) -> tuple[GroupedAccumulator | None, dict[str, GroupedAccumulator]]:
    """Merge per-shard sketch states (partition-validated).

    Shards are merged in ascending shard id for determinism, though
    merge commutativity makes any order equivalent within the error
    bound.  The same exactly-once checks as the record merge apply:
    duplicate, missing or surplus user indices raise.
    """
    results = sorted(results, key=lambda result: result.shard_id)
    _validate_partition(
        (result.user_indices for result in results), expected_indices
    )
    page = (
        GroupedAccumulator(compression=spec.compression)
        if spec.page_load_keys
        else None
    )
    speed = {
        value: GroupedAccumulator(compression=spec.compression)
        for value in (spec.speedtest_values if spec.speedtest_keys else ())
    }
    for result in results:
        if page is not None and result.page_load_state is not None:
            page.merge(GroupedAccumulator.from_state(result.page_load_state))
        for value, state in result.speedtest_states.items():
            if value in speed:
                speed[value].merge(GroupedAccumulator.from_state(state))
    return page, speed


def run_campaign_sketched(
    config,
    spec: SketchSpec | None = None,
    *,
    policy=None,
    fault_plan=None,
    on_partial=None,
    on_event=None,
    should_stop=None,
) -> SketchReduceResult:
    """Run a campaign as a supervised sketch merge-reduce.

    The parallel analogue of
    :func:`repro.runtime.pool.run_campaign_sharded` for analysis-only
    runs: the same shard planning, the same supervisor (timeouts,
    retries, degradation), but workers return
    :class:`ShardSketchResult` states and the parent reduces them —
    raw records never cross a process boundary and are never held
    centrally.  ``config.n_workers == 1`` folds in-process.

    ``on_partial`` is the partial-merge emission seam: it is invoked
    with ``(page_partial, speedtest_partials, completed, n_shards)``
    every time a shard's states are folded into the running merge, in
    completion order — the converging Table 1/3 cells the campaign
    service streams over SSE while slower shards are still running.
    Merge commutativity keeps every partial within the sketches' rank
    error of the same cells over the covered users, and counts exact.
    ``on_event``/``should_stop`` are forwarded to the supervisor
    (progress events; cooperative cancellation raising
    :class:`~repro.errors.CampaignCancelledError`).
    """
    from repro.extension.campaign import ExtensionCampaign
    from repro.runtime.pool import _pool_context
    from repro.runtime.supervision import SupervisorPolicy, supervise_shards

    spec = spec if spec is not None else DEFAULT_SKETCH_SPEC
    started = time.perf_counter()
    campaign = ExtensionCampaign(config)
    users = campaign.population.users
    n_workers = max(1, config.n_workers)
    n_shards = max(1, min(n_workers, len(users)))
    shards = plan_shards(
        [max(user.pages_per_day, 0.01) for user in users], n_shards
    )
    planned = [
        (shard_id, indices)
        for shard_id, indices in enumerate(shards)
        if indices
    ]
    expected_indices = {index for _, indices in planned for index in indices}
    timelines = None
    if n_workers > 1 and campaign._should_precompute_timelines():
        timelines = {
            name: campaign.timeline_for_city(name)
            for name in campaign._starlink_cities()
        }
    failures: list = []
    n_worker_processes = 0
    spill: TimelineSpill | None = None
    # Running partial merge, fed in completion order as shards land.
    partial_page = (
        GroupedAccumulator(compression=spec.compression)
        if spec.page_load_keys
        else None
    )
    partial_speed = {
        value: GroupedAccumulator(compression=spec.compression)
        for value in (spec.speedtest_values if spec.speedtest_keys else ())
    }
    folded = 0

    def fold_partial(result) -> None:
        nonlocal folded
        if partial_page is not None and result.page_load_state is not None:
            partial_page.merge(
                GroupedAccumulator.from_state(result.page_load_state)
            )
        for value, state in result.speedtest_states.items():
            if value in partial_speed:
                partial_speed[value].merge(GroupedAccumulator.from_state(state))
        folded += 1
        if on_partial is not None:
            on_partial(partial_page, partial_speed, folded, len(planned))

    def emit(event_type: str, **data) -> None:
        if on_event is not None:
            on_event({"type": event_type, **data})

    emit(
        "campaign_planned",
        n_shards=len(planned),
        n_users=len(users),
        n_workers=n_workers,
    )
    try:
        if n_workers == 1 or len(planned) == 1:
            from repro.errors import CampaignCancelledError

            fresh = []
            for shard_id, indices in planned:
                if should_stop is not None and should_stop():
                    raise CampaignCancelledError(
                        f"campaign cancelled with {len(fresh)}/{len(planned)} "
                        "shards complete",
                        completed_shards=len(fresh),
                        n_shards=len(planned),
                    )
                emit("shard_dispatched", shard_id=shard_id, attempt=0)
                result = run_shard_sketch(
                    config, shard_id, indices, timelines, spec
                )
                fresh.append(result)
                fold_partial(result)
                emit(
                    "shard_completed",
                    shard_id=shard_id,
                    attempts=1,
                    n_page_loads=result.stats.n_page_loads,
                    n_speedtests=result.stats.n_speedtests,
                    wall_s=result.stats.wall_s,
                )
        else:
            if policy is None:
                policy = SupervisorPolicy.from_config(config)
            context = _pool_context(config)
            task_timelines = timelines
            if timelines and context.get_start_method() != "fork":
                spill = TimelineSpill.write(timelines)
                task_timelines = spill
            tasks = [
                (config, shard_id, indices, task_timelines, spec)
                for shard_id, indices in planned
            ]
            n_worker_processes = min(n_workers, len(tasks))
            fresh, failures = supervise_shards(
                tasks,
                n_worker_processes,
                policy=policy,
                context=context,
                fault_plan=fault_plan,
                on_success=fold_partial,
                task_fn=run_shard_sketch,
                validate_fn=validate_sketch_result,
                on_event=on_event,
                should_stop=should_stop,
            )
    finally:
        if spill is not None:
            spill.cleanup()
    reduce_started = time.perf_counter()
    page, speed = reduce_shard_sketches(
        fresh, spec, expected_indices=expected_indices
    )
    finished = time.perf_counter()
    stats = CampaignRunStats(
        n_workers=n_workers,
        wall_s=finished - started,
        merge_s=finished - reduce_started,
        shards=sorted((r.stats for r in fresh), key=lambda s: s.shard_id),
        failures=failures,
        n_worker_processes=n_worker_processes,
    )
    return SketchReduceResult(page_loads=page, speedtests=speed, stats=stats)
