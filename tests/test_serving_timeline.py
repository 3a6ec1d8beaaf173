"""ServingTimeline: bit-identity with on-demand scans, lookup semantics.

The timeline precompute (``repro.starlink.timeline``) must reproduce
``BentPipeModel.serving_geometry`` *exactly* — same serving satellite,
same float ranges and elevations — across outages, obstruction masks
and sparse epoch sets, because the sharded campaign's determinism
contract rides on it.
"""

import os
import pickle

import numpy as np
import pytest

from repro.constants import STARLINK_RESCHEDULE_INTERVAL_S
from repro.errors import ConfigurationError
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.starlink.bentpipe import _CACHE_MISS, BentPipeModel
from repro.starlink.obstruction import ObstructionMask
from repro.starlink.pop import pop_for_city
from repro.starlink.timeline import ServingTimeline, compute_serving_timeline


def _model(city_name="london", shell=None, obstruction=None):
    shell = shell if shell is not None else starlink_shell1(
        n_planes=24, sats_per_plane=12
    )
    pop = pop_for_city(city_name)
    return BentPipeModel(
        shell,
        city(city_name).location,
        pop.gateway,
        city_name,
        obstruction=obstruction,
    )


def _timeline_for(model, **kwargs):
    return compute_serving_timeline(
        model.shell,
        model.terminal,
        model.gateway,
        min_elevation_deg=model.min_elevation_deg,
        obstruction=model.obstruction,
        **kwargs,
    )


def _assert_matches_scan(model, timeline):
    """Every timeline epoch equals the on-demand scan, field for field."""
    mismatches = 0
    for epoch in timeline.epochs:
        expected = model._scan_epoch(int(epoch))
        got = timeline.lookup(int(epoch))
        if expected is None:
            mismatches += got is not None
            continue
        if got is None:
            mismatches += 1
            continue
        same = (
            got.satellite == expected.satellite
            and got.terminal_range_m == expected.terminal_range_m
            and got.gateway_range_m == expected.gateway_range_m
            and got.elevation_deg == expected.elevation_deg
        )
        mismatches += not same
    assert mismatches == 0


def test_timeline_matches_scan_over_multi_hour_window():
    model = _model()
    timeline = _timeline_for(model, start_s=0.0, end_s=6 * 3600.0)
    assert len(timeline) == 6 * 3600 // 15
    _assert_matches_scan(model, timeline)


def test_timeline_matches_scan_with_obstruction_and_outages():
    mask = ObstructionMask.generate(seed=3, severity="bad")
    model = _model("seattle", obstruction=mask)
    timeline = _timeline_for(model, start_s=0.0, end_s=4 * 3600.0)
    _assert_matches_scan(model, timeline)
    # A bad mask must actually produce outage epochs, or the test
    # exercises nothing.
    assert np.count_nonzero(timeline.sat_index < 0) > 0


def test_sparse_shell_has_outages_and_matches():
    model = _model(shell=starlink_shell1(n_planes=8, sats_per_plane=4))
    timeline = _timeline_for(model, start_s=0.0, end_s=3 * 3600.0)
    assert np.count_nonzero(timeline.sat_index < 0) > 0
    _assert_matches_scan(model, timeline)


def test_sparse_epoch_set_matches_scan():
    model = _model("barcelona")
    rng = np.random.default_rng(7)
    epochs = np.unique(rng.integers(0, 20_000, size=300))
    timeline = _timeline_for(model, epochs=epochs)
    assert len(timeline) == len(epochs)
    _assert_matches_scan(model, timeline)


def test_chunking_invariant():
    model = _model()
    reference = _timeline_for(model, start_s=0.0, end_s=3600.0)
    for chunk in (1, 17, 10_000):
        other = _timeline_for(model, start_s=0.0, end_s=3600.0, chunk_epochs=chunk)
        assert np.array_equal(other.sat_index, reference.sat_index)
        assert np.array_equal(other.terminal_range_m, reference.terminal_range_m)
        assert np.array_equal(other.gateway_range_m, reference.gateway_range_m)
        assert np.array_equal(other.elevation_deg, reference.elevation_deg)


def test_serving_geometry_uses_attached_timeline():
    model = _model()
    timeline = _timeline_for(model, start_s=0.0, end_s=3600.0)
    expected = [model.serving_geometry(t) for t in np.arange(0.0, 3600.0, 7.5)]
    model.attach_timeline(timeline)
    got = [model.serving_geometry(t) for t in np.arange(0.0, 3600.0, 7.5)]
    assert got == expected
    assert timeline.hits == len(got)


def test_lookup_outside_window_is_cache_miss_and_scan_fallback():
    model = _model()
    timeline = model.build_timeline(0.0, 600.0)
    assert timeline.lookup(10**6) is _CACHE_MISS
    # serving_geometry falls back to the scan outside the window.
    far = 10**6 * STARLINK_RESCHEDULE_INTERVAL_S
    assert model.serving_geometry(far) == model._scan_epoch(10**6)


def test_timeline_pickle_roundtrip():
    model = _model()
    timeline = _timeline_for(model, start_s=0.0, end_s=1800.0)
    clone = pickle.loads(pickle.dumps(timeline))
    assert isinstance(clone, ServingTimeline)
    assert np.array_equal(clone.epochs, timeline.epochs)
    assert clone.geometries() == timeline.geometries()
    assert clone.covers(int(timeline.epochs[0]))


def test_timeline_validates_inputs():
    model = _model()
    with pytest.raises(ConfigurationError):
        _timeline_for(model)  # neither epochs nor a window
    with pytest.raises(ConfigurationError):
        _timeline_for(model, start_s=100.0, end_s=100.0)
    with pytest.raises(ConfigurationError):
        _timeline_for(model, epochs=np.array([3, 2, 1]))
    with pytest.raises(ConfigurationError):
        _timeline_for(model, start_s=0.0, end_s=600.0, chunk_epochs=0)


def test_nbytes_is_compact():
    model = _model()
    timeline = _timeline_for(model, start_s=0.0, end_s=86_400.0)
    per_epoch = timeline.nbytes / len(timeline)
    assert per_epoch <= 36.0  # ~28 bytes of payload + the epoch index


def test_campaign_precompute_counts_timeline_hits():
    from repro.extension.campaign import CampaignConfig, ExtensionCampaign

    config = CampaignConfig(
        seed=5,
        duration_s=2 * 86_400.0,
        request_fraction=0.2,
        cities=("london",),
        shell_planes=24,
        shell_sats_per_plane=12,
        precompute_timelines=True,
    )
    campaign = ExtensionCampaign(config)
    campaign.run()
    stats = campaign.last_run_stats
    assert stats is not None
    assert sum(shard.timeline_hits for shard in stats.shards) > 0


def test_negative_mask_candidate_arcs_are_pruned():
    """Masked/negative-elevation terminals get interval-pruned arcs,
    not the dense full-circle fallback."""
    from repro.starlink.timeline import _TWO_PI, _candidate_arcs, _candidate_pairs

    observer = city("london").location
    shell = starlink_shell1(n_planes=24, sats_per_plane=12)
    arcs = _candidate_arcs(observer, shell, -5.0)
    assert sum(hi - lo for lo, hi in arcs) < _TWO_PI
    epochs = np.arange(0, 240, dtype=np.int64)
    rows, _ = _candidate_pairs(shell, observer, epochs, -5.0)
    assert len(rows) < len(epochs) * len(shell.satellites)


def test_negative_mask_timeline_matches_scan():
    mask = ObstructionMask.generate(seed=2, severity="bad")
    model = _model(obstruction=mask)
    model.min_elevation_deg = -5.0
    timeline = _timeline_for(model, start_s=0.0, end_s=3600.0)
    _assert_matches_scan(model, timeline)


def test_hemispheric_mask_degenerates_to_full_circle():
    from repro.starlink.timeline import _TWO_PI, _candidate_arcs

    shell = starlink_shell1(n_planes=24, sats_per_plane=12)
    arcs = _candidate_arcs(city("london").location, shell, -90.0)
    assert arcs == [(0.0, _TWO_PI)]


def test_covers_range_contiguous_and_sparse():
    model = _model()
    contiguous = _timeline_for(model, start_s=0.0, end_s=600.0)  # epochs 0..39
    assert contiguous.covers_range(0, 39)
    assert not contiguous.covers_range(0, 40)
    assert not contiguous.covers_range(5, 2)
    sparse = _timeline_for(model, epochs=np.array([2, 4, 8], dtype=np.int64))
    assert sparse.covers_range(4, 4)
    assert not sparse.covers_range(2, 4)  # 3 missing


def test_ensure_timeline_reuses_covering_window():
    model = _model()
    first = model.ensure_timeline(0.0, 900.0)
    assert model.ensure_timeline(0.0, 450.0) is first
    wider = model.ensure_timeline(0.0, 1800.0)
    assert wider is not first
    assert model.ensure_timeline(0.0, 1800.0) is wider


# -- per-chunk candidate generation ---------------------------------------

SIX_MONTHS_EPOCHS = 180 * 86_400 // 15


def _months_long_sparse_epochs(seed):
    """A sparse six-month epoch set with one contiguous run."""
    rng = np.random.default_rng(seed)
    sparse = rng.integers(0, SIX_MONTHS_EPOCHS, size=200)
    run = np.arange(400_000, 400_150)
    return np.unique(np.concatenate([sparse, run])).astype(np.int64)


@pytest.mark.parametrize("terminal", ["clear", "obstructed", "negative_mask"])
def test_sparse_months_long_batch_matches_scan(terminal):
    mask = None if terminal == "clear" else ObstructionMask.generate(
        seed=3, severity="bad"
    )
    # Barcelona's latitude band yields two arcs (ascending and
    # descending passes), so both arc tests run.
    model = _model("barcelona", obstruction=mask)
    if terminal == "negative_mask":
        model.min_elevation_deg = -5.0
    epochs = _months_long_sparse_epochs(seed=11)
    # Chunks of 64 epochs: sparse ones spanning weeks, dense ones inside
    # the contiguous run, and chunks straddling both.
    timeline = _timeline_for(model, epochs=epochs, chunk_epochs=64)
    assert np.array_equal(timeline.epochs, epochs)
    _assert_matches_scan(model, timeline)
    if terminal == "obstructed":
        # The mask must cause outages, or it exercises nothing.
        assert np.count_nonzero(timeline.sat_index < 0) > 0


_RSS_PROBE = """
import numpy as np
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.starlink.pop import pop_for_city
from repro.starlink.timeline import compute_serving_timeline

shell = starlink_shell1(n_planes=36, sats_per_plane=18)
epochs = np.unique(np.random.default_rng(3).integers(0, {n_epochs}, 20_000))
timeline = compute_serving_timeline(
    shell, city("london").location, pop_for_city("london").gateway, epochs=epochs
)
assert len(timeline) == len(epochs)
# VmHWM is this process's own peak; ru_maxrss would also carry the
# forking test process's size across exec.
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM"))
print(int(peak.split()[1]) // 1024)
"""

#: Peak RSS allowed for one city's six-month sparse batch (fresh
#: interpreter, imports included).  Candidate generation over the whole
#: span instead of per chunk needed 340 MB for this batch.
SPARSE_BATCH_RSS_CEILING_MB = 120


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM"
)
def test_six_month_sparse_batch_rss_is_bounded():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE.format(n_epochs=SIX_MONTHS_EPOCHS)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    peak_mb = int(completed.stdout.strip().splitlines()[-1])
    assert peak_mb < SPARSE_BATCH_RSS_CEILING_MB
