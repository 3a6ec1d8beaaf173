"""Bent-pipe model tests."""

import numpy as np
import pytest

from repro.errors import VisibilityError
from repro.geo.cities import city
from repro.orbits.constellation import starlink_shell1
from repro.starlink.bentpipe import BentPipeModel, OUTAGE_RTT_PENALTY_S
from repro.starlink.pop import pop_for_city
from repro.weather.history import WeatherHistory


@pytest.fixture(scope="module")
def shell():
    return starlink_shell1(n_planes=24, sats_per_plane=12)


@pytest.fixture(scope="module")
def bentpipe(shell):
    weather = WeatherHistory(seed=1, duration_s=3 * 86_400.0)
    return BentPipeModel(
        shell,
        city("london").location,
        pop_for_city("london").gateway,
        "london",
        weather=weather,
        seed=1,
    )


def test_serving_geometry_stable_within_epoch(bentpipe):
    a = bentpipe.serving_geometry(30.0)
    b = bentpipe.serving_geometry(44.9)
    assert a is not None
    assert a.satellite == b.satellite


def test_serving_can_change_across_epochs(bentpipe):
    names = {
        bentpipe.serving_geometry(t).satellite
        for t in np.arange(0.0, 600.0, 15.0)
        if bentpipe.serving_geometry(t) is not None
    }
    assert len(names) > 1


def test_propagation_delay_physical(bentpipe):
    geometry = bentpipe.serving_geometry(100.0)
    # Bent pipe spans at least 2x the 550 km altitude, below 2x max slant.
    assert 0.0035 < geometry.propagation_delay_s < 0.0085


def test_base_one_way_delay_includes_processing(bentpipe):
    geometry = bentpipe.serving_geometry(100.0)
    base = bentpipe.base_one_way_delay_s(100.0)
    assert base > geometry.propagation_delay_s + 0.005


def test_mean_rtt_in_starlink_regime(bentpipe):
    rtts = [bentpipe.mean_rtt_to_pop_s(t) * 1000 for t in np.arange(0, 86_400, 3600.0)]
    median = float(np.median(rtts))
    assert 25.0 < median < 90.0  # the paper's observed PoP-ping regime


def test_sampled_rtt_jitters(bentpipe):
    draws = {round(bentpipe.sample_rtt_to_pop_s(500.0), 6) for _ in range(8)}
    assert len(draws) > 1


def test_rtt_higher_at_evening_load(bentpipe):
    # UTC+1: 19:30 local = 18.5h UTC; 03:30 local = 02:30 UTC.
    evening = np.mean(
        [bentpipe.mean_rtt_to_pop_s(18.5 * 3600.0 + d * 86400) for d in range(2)]
    )
    night = np.mean(
        [bentpipe.mean_rtt_to_pop_s(2.5 * 3600.0 + d * 86400) for d in range(2)]
    )
    assert evening > night


def test_loss_rate_bounded(bentpipe):
    for t in np.arange(0, 86_400, 7200.0):
        assert 0.0 <= bentpipe.loss_rate(t) <= 1.0


def test_capacity_positive(bentpipe):
    assert bentpipe.capacity_bps(1000.0) > 1e6


def test_outage_handling():
    sparse = starlink_shell1(n_planes=3, sats_per_plane=2)
    model = BentPipeModel(
        sparse,
        city("london").location,
        pop_for_city("london").gateway,
        "london",
        seed=2,
    )
    outage_times = [t for t in np.arange(0, 7200, 15.0) if model.is_outage(float(t))]
    assert outage_times, "6 satellites cannot cover London"
    t = float(outage_times[0])
    assert model.mean_rtt_to_pop_s(t) == OUTAGE_RTT_PENALTY_S
    assert model.loss_rate(t) == 1.0
    with pytest.raises(VisibilityError):
        model.base_one_way_delay_s(t)


def test_link_delay_provider_offsets_time(bentpipe):
    provider = bentpipe.link_delay_provider(time_offset_s=1000.0)
    assert provider(0.0) == pytest.approx(bentpipe.base_one_way_delay_s(1000.0))


def test_handover_loss_model_produces_windows(bentpipe):
    model, events, samples = bentpipe.handover_loss_model(0.0, 600.0)
    assert model.burst_windows, "10 minutes of tracking must include handovers"
    assert samples
    # Windows are in simulation time (shifted by -start).
    starts = [w[0] for w in model.burst_windows]
    assert min(starts) >= -120.0  # warm-up events may pre-date t=0 slightly
    assert max(starts) <= 600.0


def test_handover_loss_windows_sorted(bentpipe):
    model, _, _ = bentpipe.handover_loss_model(0.0, 900.0)
    starts = [w[0] for w in model.burst_windows]
    assert starts == sorted(starts)


def test_clear_sky_without_weather(shell):
    from repro.weather.conditions import WeatherCondition

    model = BentPipeModel(
        shell,
        city("london").location,
        pop_for_city("london").gateway,
        "london",
        weather=None,
        seed=3,
    )
    assert model.condition_at(12345.0) is WeatherCondition.CLEAR_SKY


# -- per-instant link state -------------------------------------------------


def _london_model(shell, seed=4, cls=BentPipeModel, **kwargs):
    return cls(
        shell,
        city("london").location,
        pop_for_city("london").gateway,
        "london",
        weather=WeatherHistory(seed=seed, duration_s=120 * 86_400.0),
        seed=seed,
        **kwargs,
    )


class _UnmemoisedBentPipe(BentPipeModel):
    """Re-derives the link state on every question (the oracle)."""

    def link_state(self, t_s):
        self._link_state = None
        return super().link_state(t_s)


def test_link_state_evaluated_once_per_instant(shell, monkeypatch):
    import repro.starlink.bentpipe as bentpipe_module

    calls = []
    original = bentpipe_module.impairment_for

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bentpipe_module, "impairment_for", counting)
    model = _london_model(shell)
    for t in (5_000.0, 5_000.0, 9_000.0):
        model.sample_rtt_to_pop_s(t)
        model.loss_rate(t)
        model.capacity_bps(t)
        model.base_one_way_delay_s(t)
        model.mean_rtt_to_pop_s(t)
        model.impairment_at(t)
    assert len(calls) == 2


def test_link_state_fields_match_their_sources(shell):
    from repro.weather.impairment import impairment_for

    model = _london_model(shell)
    for t in (3_600.0, 40 * 86_400.0, 100 * 86_400.0 + 7.5):
        state = model.link_state(t)
        geometry = model.serving_geometry(t)
        assert state.t_s == t
        assert state.geometry == geometry
        assert state.impairment == impairment_for(
            model.condition_at(t), geometry.elevation_deg
        )
        assert state.utilization == model.capacity.utilization(t)


def test_link_state_memo_keeps_every_draw(shell):
    """Memoised and re-derived link states give the same draw sequence."""
    times = [1_000.0, 1_000.0, 1_007.0, 50_000.0, 50_000.0, 86_400.0 * 30]
    draws = []
    for cls in (BentPipeModel, _UnmemoisedBentPipe):
        model = _london_model(shell, cls=cls)
        draws.append([
            (
                model.sample_rtt_to_pop_s(t),
                model.capacity_bps(t, downlink=True),
                model.capacity_bps(t, downlink=False, noisy=False),
                model.loss_rate(t),
                model.mean_rtt_to_pop_s(t),
                model.link_delay_provider()(t),
                model.wireless_extra_delay_provider()(t),
            )
            for t in times
        ])
    assert draws[0] == draws[1]
