"""Shard planning and per-shard campaign execution.

A *shard* is a subset of the campaign's user population, identified by
indices into ``ExtensionCampaign.population.users``.  Each shard is
executed by :func:`run_shard`, which rebuilds the campaign from its
config (so shards are self-contained and cross-process safe) and runs
the per-user pipeline for its users only.

Determinism contract (see DESIGN.md): every record a user contributes
is a pure function of ``(CampaignConfig, user)`` — all stochastic
draws come from streams keyed by the root seed plus user-scoped labels
— so any partition of users over any number of workers produces the
same per-user record lists, and the order-preserving merge
(:mod:`repro.runtime.merge`) reassembles the exact serial dataset.
"""

from __future__ import annotations

import math
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.extension.records import PageLoadRecord, SpeedtestRecord


@dataclass(frozen=True)
class TimelineSpill:
    """Parent-precomputed timelines parked in a temp file, by path.

    Under ``spawn``/``forkserver`` the worker's arguments are pickled
    into the process-startup pipe, and CPython's parent keeps the
    pipe's read end open while writing — so a child that dies during
    its boot handshake leaves a payload larger than the pipe buffer
    (which several cities' timelines are) wedged in ``Process.start()``
    forever.  A supervisor that exists to survive dying workers cannot
    carry that risk, so the engine ships big timeline payloads
    out-of-band: spill once to disk in the parent, hand workers this
    tiny path reference, and let :func:`run_shard` load it back.
    (``fork`` workers keep the in-memory dict: nothing is pickled and
    the pages are shared copy-on-write.)
    """

    path: str

    @classmethod
    def write(cls, timelines) -> "TimelineSpill":
        """Spill a ``{city: ServingTimeline}`` dict; returns the ref."""
        handle, path = tempfile.mkstemp(prefix="repro-timelines-", suffix=".pkl")
        with os.fdopen(handle, "wb") as stream:
            pickle.dump(timelines, stream)
        return cls(path=path)

    def load(self):
        """Read the spilled timelines back (each worker, each attempt)."""
        with open(self.path, "rb") as stream:
            return pickle.load(stream)

    def cleanup(self) -> None:
        """Remove the spill file (parent-side, after the run)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass


@dataclass
class ShardStats:
    """Timing/throughput counters of one shard's execution."""

    shard_id: int
    n_users: int
    n_page_loads: int = 0
    n_speedtests: int = 0
    wall_s: float = 0.0
    geometry_scans: int = 0
    geometry_hits: int = 0
    timeline_hits: int = 0
    #: Attempts the supervisor spent on this shard (1 = first try).
    attempts: int = 1
    #: True when the result was adopted from a checkpoint, not re-run.
    resumed: bool = False

    @property
    def n_records(self) -> int:
        """Total records the shard produced."""
        return self.n_page_loads + self.n_speedtests

    @property
    def records_per_s(self) -> float:
        """Shard throughput, records per wall-clock second."""
        return self.n_records / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class CampaignRunStats:
    """Aggregate counters of one campaign run (serial or sharded)."""

    n_workers: int
    wall_s: float = 0.0
    merge_s: float = 0.0
    shards: list[ShardStats] = field(default_factory=list)
    #: Every failed shard attempt the supervisor recovered from
    #: (:class:`repro.runtime.supervision.ShardFailure` entries).
    failures: list = field(default_factory=list)
    #: Shards adopted from a checkpoint instead of being re-run.
    resumed_shards: int = 0
    #: Concurrent worker processes used (0 = everything in-process).
    n_worker_processes: int = 0

    @property
    def n_records(self) -> int:
        """Total records across all shards."""
        return sum(s.n_records for s in self.shards)

    @property
    def records_per_s(self) -> float:
        """End-to-end throughput, records per wall-clock second."""
        return self.n_records / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def geometry_scans(self) -> int:
        """Per-epoch serving-geometry scans done across all shards."""
        return sum(s.geometry_scans for s in self.shards)

    @property
    def timeline_hits(self) -> int:
        """Serving-geometry lookups answered by precomputed timelines."""
        return sum(s.timeline_hits for s in self.shards)

    @property
    def n_failures(self) -> int:
        """Failed shard attempts the supervisor observed (and survived)."""
        return len(self.failures)

    @property
    def n_retried_shards(self) -> int:
        """Shards that needed more than one attempt."""
        return sum(1 for s in self.shards if s.attempts > 1)

    def summary(self) -> str:
        """One-line human-readable report for experiment notes."""
        shard_part = ", ".join(
            f"shard{s.shard_id}: {s.n_users}u/{s.n_records}rec/{s.wall_s:.2f}s"
            + ("/resumed" if s.resumed else "")
            + (f"/{s.attempts}att" if s.attempts > 1 else "")
            for s in self.shards
        )
        fault_part = ""
        if self.failures:
            by_kind: dict[str, int] = {}
            for failure in self.failures:
                by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
            kinds = ", ".join(
                f"{kind} x{count}" for kind, count in sorted(by_kind.items())
            )
            fault_part = (
                f"; survived {len(self.failures)} failed attempt(s): {kinds}"
            )
        resume_part = (
            f"; {self.resumed_shards} shard(s) resumed from checkpoint"
            if self.resumed_shards
            else ""
        )
        return (
            f"{self.n_workers} worker(s), {self.n_records} records in "
            f"{self.wall_s:.2f}s ({self.records_per_s:.0f} rec/s; "
            f"merge {self.merge_s * 1000.0:.0f} ms; geometry: "
            f"{self.timeline_hits} timeline hits, {self.geometry_scans} "
            f"scans{fault_part}{resume_part}) [{shard_part}]"
        )


@dataclass
class ShardResult:
    """Everything a shard sends back to the merge step."""

    shard_id: int
    #: user index -> (page loads, speedtests), both in event-time order.
    user_records: dict[int, tuple[list[PageLoadRecord], list[SpeedtestRecord]]]
    stats: ShardStats


def plan_shards(costs: list[float], n_shards: int) -> list[list[int]]:
    """Partition item indices into ``n_shards`` balanced shards.

    Greedy longest-processing-time assignment on the given per-item
    cost estimates (for users: expected daily page volume).  Fully
    deterministic: ties break on index, shards are returned with their
    member indices sorted.  Shards may be empty when there are fewer
    items than shards.  Degenerate cost estimates (zero, negative,
    NaN, infinite) are clamped to zero rather than poisoning the sort:
    every index is still assigned exactly once, just without a useful
    balance hint.
    """
    if n_shards < 1:
        raise ConfigurationError(f"need at least one shard, got {n_shards}")
    costs = [
        cost if (math.isfinite(cost) and cost > 0.0) else 0.0 for cost in costs
    ]
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    loads = [0.0] * n_shards
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    for index in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        shards[target].append(index)
        loads[target] += costs[index]
    for shard in shards:
        shard.sort()
    return shards


def run_shard(
    config, shard_id: int, user_indices: list[int], timelines=None
) -> ShardResult:
    """Execute one shard of a campaign and return its per-user records.

    Rebuilds the campaign from ``config`` (forced serial so a worker
    never recursively spawns workers); the population derives
    deterministically from the config, so ``user_indices`` mean the
    same users in every process.

    ``timelines`` optionally maps city name to a precomputed
    :class:`repro.starlink.timeline.ServingTimeline` computed once by
    the campaign parent; installing it means this worker never redoes
    the serving-geometry scans every sibling would otherwise repeat.
    The timeline is bit-identical to the scan path, so the shard's
    records are unchanged either way.
    """
    from repro.extension.campaign import ExtensionCampaign

    if isinstance(timelines, TimelineSpill):
        timelines = timelines.load()
    worker_config = replace(config, n_workers=1)
    if hasattr(worker_config, "precompute_timelines"):
        # The parent already decided; workers only consume what they get.
        worker_config = replace(worker_config, precompute_timelines=False)
    campaign = ExtensionCampaign(worker_config)
    if timelines:
        campaign.install_timelines(timelines)
    users = campaign.population.users
    stats = ShardStats(shard_id=shard_id, n_users=len(user_indices))
    user_records: dict[int, tuple[list[PageLoadRecord], list[SpeedtestRecord]]] = {}
    started = time.perf_counter()
    for index in user_indices:
        page_loads, speedtests = campaign.run_user(users[index])
        user_records[index] = (page_loads, speedtests)
        stats.n_page_loads += len(page_loads)
        stats.n_speedtests += len(speedtests)
    stats.wall_s = time.perf_counter() - started
    campaign.add_geometry_stats(stats)
    return ShardResult(shard_id=shard_id, user_records=user_records, stats=stats)


def _run_shard_task(args) -> ShardResult:
    """`multiprocessing.Pool.map` entry point (must be a top-level callable)."""
    config, shard_id, user_indices, timelines = args
    return run_shard(config, shard_id, user_indices, timelines)
