"""Cron-scheduler and iperf tests."""

import pytest

from repro.errors import ConfigurationError
from repro.geo.cities import city
from repro.nodes.cron import CronJob, cron_times
from repro.nodes.iperf import analytic_udp_loss_fraction, run_iperf_tcp, run_udp_burst
from repro.rng import stream
from repro.starlink.access import AccessConfig, build_broadband_path


def test_cron_times_basic():
    times = cron_times(0.0, 3600.0, 300.0)
    assert times == [i * 300.0 for i in range(12)]


def test_cron_times_offset():
    times = cron_times(0.0, 1000.0, 300.0, offset_s=60.0)
    assert times == [60.0, 360.0, 660.0, 960.0]


def test_cron_times_partial_window():
    times = cron_times(450.0, 1000.0, 300.0)
    assert times == [600.0, 900.0]


def test_cron_rejects_bad_interval():
    with pytest.raises(ConfigurationError):
        cron_times(0.0, 100.0, 0.0)
    with pytest.raises(ConfigurationError):
        cron_times(100.0, 0.0, 10.0)


def test_cron_job_jitter_bounded():
    job = CronJob("speedtest", interval_s=300.0, jitter_s=5.0)
    rng = stream(0, "cron")
    times = job.times(0.0, 3000.0, rng)
    for index, t in enumerate(times):
        assert index * 300.0 <= t <= index * 300.0 + 5.0


def test_cron_job_validates():
    with pytest.raises(ConfigurationError):
        CronJob("x", interval_s=100.0, offset_s=150.0)


def _wifi_path(dl=30e6):
    return build_broadband_path(
        city("london").location,
        city("gcp_london").location,
        AccessConfig(dl_rate_bps=dl, ul_rate_bps=10e6),
    )


def test_iperf_tcp_reaches_capacity():
    result = run_iperf_tcp(_wifi_path(), cc="cubic", duration_s=6.0)
    assert result.cc == "cubic"
    assert result.goodput_mbps > 24.0
    assert result.min_rtt_ms > 1.0


def test_iperf_upload_direction():
    result = run_iperf_tcp(_wifi_path(), cc="cubic", duration_s=5.0, download=False)
    assert 6.0 < result.goodput_mbps < 10.5  # UL rate is 10 Mbps


def test_udp_burst_clean_link():
    result = run_udp_burst(_wifi_path(), rate_bps=25e6, duration_s=3.0)
    assert result.loss_fraction < 0.02
    assert result.achieved_mbps == pytest.approx(25.0, rel=0.1)
    assert result.packets_received <= result.packets_sent


def test_udp_burst_overdriven_link_loses():
    result = run_udp_burst(_wifi_path(dl=10e6), rate_bps=40e6, duration_s=3.0)
    assert result.loss_fraction > 0.5
    assert result.achieved_mbps < 12.0


def test_udp_burst_rejects_bad_rate():
    with pytest.raises(ConfigurationError):
        run_udp_burst(_wifi_path(), rate_bps=0.0)


def test_analytic_loss_fraction_constant():
    rng = stream(1, "loss")
    measured = analytic_udp_loss_fraction(lambda t: 0.2, 0.0, 10.0, 1000.0, rng)
    assert measured == pytest.approx(0.2, abs=0.02)


def test_analytic_loss_fraction_windowed():
    rng = stream(2, "loss")

    def probability(t):
        return 1.0 if 2.0 <= t < 4.0 else 0.0

    measured = analytic_udp_loss_fraction(probability, 0.0, 10.0, 1000.0, rng)
    assert measured == pytest.approx(0.2, abs=0.02)


def test_analytic_loss_rejects_bad_window():
    rng = stream(3, "loss")
    with pytest.raises(ConfigurationError):
        analytic_udp_loss_fraction(lambda t: 0.0, 5.0, 5.0, 100.0, rng)
