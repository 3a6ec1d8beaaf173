"""Cross-subsystem integration tests.

These exercise full vertical slices: constellation -> bent pipe ->
packet network -> transport -> measurement -> analysis.
"""

import numpy as np
import pytest

from repro.geo.cities import city
from repro.nodes.iperf import run_iperf_tcp, run_udp_burst
from repro.nodes.rpi import MeasurementNode
from repro.orbits.constellation import starlink_shell1
from repro.orbits.tle import parse_tle_file
from repro.starlink.access import AccessConfig, build_starlink_path
from repro.starlink.bentpipe import BentPipeModel
from repro.starlink.pop import pop_for_city
from repro.weather.history import WeatherHistory


@pytest.fixture(scope="module")
def shell():
    return starlink_shell1(n_planes=24, sats_per_plane=12)


def test_tle_export_reimport_preserves_visibility(shell):
    """The constellation survives a round trip through the TLE format.

    This is the paper's actual pipeline: satellites tracked from a TLE
    file.  Geometry after re-import must match to sub-kilometre error.
    """
    from repro.orbits.propagator import J2Propagator

    text = shell.to_tle_file()
    tles = parse_tle_file(text)
    assert len(tles) == len(shell)
    original = shell.satellites[100]
    reparsed = next(t for t in tles if t.name == original.name)
    prop = J2Propagator(reparsed.to_elements(), epoch_s=reparsed.epoch_campaign_s)
    for t in (0.0, 300.0, 900.0):
        error_m = float(
            np.linalg.norm(prop.position_ecef(t) - original.position_ecef(t))
        )
        assert error_m < 2_000.0, f"TLE roundtrip error {error_m:.0f} m at t={t}"


def test_bentpipe_delay_follows_satellite_motion(shell):
    bentpipe = BentPipeModel(
        shell,
        city("london").location,
        pop_for_city("london").gateway,
        "london",
        seed=0,
    )
    delays = [
        bentpipe.base_one_way_delay_s(float(t)) for t in np.arange(0, 300, 15.0)
    ]
    assert len(set(round(d, 6) for d in delays)) > 3  # it moves


def test_tcp_over_live_bentpipe(shell):
    """A TCP flow whose propagation delay tracks the moving satellite."""
    bentpipe = BentPipeModel(
        shell,
        city("wiltshire").location,
        pop_for_city("wiltshire").gateway,
        "wiltshire",
        seed=1,
    )
    path = build_starlink_path(
        bentpipe,
        city("gcp_london").location,
        AccessConfig(
            dl_rate_bps=30e6,
            time_offset_s=3600.0,
            stochastic_wireless_queueing=False,
        ),
    )
    result = run_iperf_tcp(path, cc="cubic", duration_s=6.0)
    assert result.goodput_mbps > 18.0
    assert result.min_rtt_ms > 20.0  # bent pipe + terrestrial floor


def test_handover_bursts_visible_in_udp(shell):
    """UDP over a bent pipe with handover loss shows bursty drops."""
    bentpipe = BentPipeModel(
        shell,
        city("wiltshire").location,
        pop_for_city("wiltshire").gateway,
        "wiltshire",
        seed=2,
    )
    loss, events, _ = bentpipe.handover_loss_model(
        0.0, 120.0, seed=2, burst_loss=0.8, burst_duration_s=5.0, time_offset_s=0.0
    )
    path = build_starlink_path(
        bentpipe,
        city("gcp_london").location,
        AccessConfig(
            dl_rate_bps=20e6,
            loss_dl=loss,
            time_offset_s=0.0,
            stochastic_wireless_queueing=False,
        ),
    )
    result = run_udp_burst(path, rate_bps=10e6, duration_s=60.0)
    if any(0 <= e.t_s <= 55.0 for e in events if e.reason.value != "acquired"):
        assert result.loss_fraction > 0.01


def test_node_cron_campaign_statistics(shell):
    """A day of cron speedtests produces a plausible distribution."""
    weather = WeatherHistory(seed=3, duration_s=3 * 86_400.0)
    node = MeasurementNode("barcelona", shell=shell, weather=weather, seed=3)
    from repro.nodes.cron import cron_times

    samples = [
        node.speedtest(t).download_mbps for t in cron_times(0, 2 * 86_400.0, 1800.0)
    ]
    assert len(samples) == 96
    assert 60.0 < float(np.median(samples)) < 260.0
    assert max(samples) > float(np.median(samples))


def test_campaign_to_analysis_pipeline():
    """Campaign -> dataset -> weather join -> AS detection, end to end."""
    from repro.analysis.aschange import detect_as_switch_time
    from repro.analysis.weatherjoin import ptt_by_condition
    from repro.extension.campaign import CampaignConfig, ExtensionCampaign
    from repro.timeline import LONDON_AS_SWITCH_T

    config = CampaignConfig(
        seed=4,
        duration_s=100 * 86_400.0,
        request_fraction=0.04,
        cities=("london",),
        shell_planes=24,
        shell_sats_per_plane=12,
    )
    campaign = ExtensionCampaign(config)
    dataset = campaign.run()
    starlink_records = dataset.select(city="london", is_starlink=True)
    assert len(starlink_records) > 100

    switch = detect_as_switch_time(starlink_records)
    assert switch is not None
    assert abs(switch - LONDON_AS_SWITCH_T) < 10 * 86_400.0

    groups = ptt_by_condition(starlink_records, campaign.weather, "london")
    assert len(groups) >= 3  # several conditions observed over 100 days


def test_dataset_persistence_roundtrip(tmp_path):
    from repro.extension.campaign import CampaignConfig, ExtensionCampaign
    from repro.extension.storage import Dataset

    config = CampaignConfig(
        seed=5, duration_s=3 * 86_400.0, request_fraction=0.3, cities=("seattle",)
    )
    dataset = ExtensionCampaign(config).run()
    path = tmp_path / "campaign.jsonl"
    dataset.to_jsonl(path)
    loaded = Dataset.from_jsonl(path)
    assert len(loaded.page_loads) == len(dataset.page_loads)
    assert loaded.median_ptt_ms(city="seattle") == pytest.approx(
        dataset.median_ptt_ms(city="seattle")
    )


@pytest.mark.slow
def test_full_scale_campaign_matches_table1_shape():
    """The unscaled six-month campaign: ~40k readings, Table 1 shape."""
    from repro.extension.campaign import CampaignConfig, ExtensionCampaign

    dataset = ExtensionCampaign(CampaignConfig(seed=0)).run()
    # The paper reports "more than 50,000 readings" across all signals;
    # page loads alone land in the tens of thousands.
    assert len(dataset.page_loads) > 25_000
    # Request counts approximate Table 1 (they are calibration targets).
    assert dataset.request_count(city="london", is_starlink=True) == pytest.approx(
        12_933, rel=0.25
    )
    assert dataset.request_count(city="seattle", is_starlink=True) == pytest.approx(
        3_597, rel=0.35
    )
    # Orderings hold at full scale in every deep-dive city.
    for city_name in ("london", "seattle", "sydney"):
        starlink = dataset.median_ptt_ms(city=city_name, is_starlink=True)
        other = dataset.median_ptt_ms(city=city_name, is_starlink=False)
        assert starlink < other * 1.05, f"{city_name}: {starlink:.0f} vs {other:.0f}"
    # Sydney pays the geographic penalty over London.
    assert (
        dataset.median_ptt_ms(city="sydney", is_starlink=True)
        > 1.3 * dataset.median_ptt_ms(city="london", is_starlink=True)
    )
