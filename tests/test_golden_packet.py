"""Golden digest of the event engine: Fig 8's packet results are pinned.

The heap-driven event engine is the bit-exact oracle of the packet
layer (DESIGN.md §10).  Performance changes to it — the heap layout,
inlined scheduling, the link fast path, the TCP scoreboard — must run
the same callbacks at the same times in the same order.  This test
runs a shortened Figure 8 matrix through the figure's own path
builders and compares each flow's outcome, and each ``Simulator.run``
event count, against a digest recorded before those changes.

As in ``test_golden_campaign.py``, one digest is recorded per numpy
minor version and SIMD dispatch level, since the Starlink path's
geometry goes through numpy's vectorised transcendentals (on numpy 2.4
the two dispatch levels happen to agree).  Combinations with no
recorded digest are skipped with the digest they produced, ready to be
recorded.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.figure8 import CCAS, LINK_RATE_BPS, _starlink_path, _wifi_path
from repro.net.simulator import Simulator
from repro.nodes.iperf import run_iperf_tcp, run_udp_burst
from repro.nodes.rpi import MeasurementNode
from repro.orbits.constellation import starlink_shell1
from repro.weather.history import WeatherHistory

from tests.test_golden_campaign import _dispatch

SEED = 5
T_START_S = 4 * 3600.0
#: Starlink flows must outlast the 2.5 s epoch gap that opens every
#: Starlink path; Wi-Fi flows and the UDP bursts see no gaps.
STARLINK_FLOW_S = 4.0
OPEN_FLOW_S = 0.75

#: ``(numpy major.minor, dispatch) -> sha256`` of the matrix summary.
GOLDEN_DIGESTS = {
    ("2.4", "avx512"): (
        "3d54518b4e20129f6e8a85881cd09a9a471e3d5a3ca487a8a875be3bff6d64ed"
    ),
    ("2.4", "baseline"): (
        "3d54518b4e20129f6e8a85881cd09a9a471e3d5a3ca487a8a875be3bff6d64ed"
    ),
}


def _run_matrix() -> dict:
    shell = starlink_shell1(n_planes=36, sats_per_plane=18)
    weather = WeatherHistory(seed=SEED, duration_s=2 * 86_400.0)
    node = MeasurementNode("wiltshire", shell=shell, weather=weather, seed=SEED)
    node.precompute_geometry([T_START_S], horizon_s=STARLINK_FLOW_S + 30.0)

    def starlink(duration_s, with_epoch_gaps=True):
        return _starlink_path(
            node, T_START_S, duration_s, SEED, with_epoch_gaps=with_epoch_gaps
        )

    summary = {"udp": {}, "tcp": {}}
    for env, path in (
        ("starlink", starlink(OPEN_FLOW_S, with_epoch_gaps=False)),
        ("wifi", _wifi_path(SEED)),
    ):
        result = run_udp_burst(path, rate_bps=LINK_RATE_BPS, duration_s=OPEN_FLOW_S)
        summary["udp"][env] = [result.packets_sent, result.packets_received]
    for cc in CCAS:
        for env, path, duration_s in (
            ("starlink", starlink(STARLINK_FLOW_S), STARLINK_FLOW_S),
            ("wifi", _wifi_path(SEED), OPEN_FLOW_S),
        ):
            result = run_iperf_tcp(path, cc=cc, duration_s=duration_s)
            summary["tcp"][f"{cc}/{env}"] = [
                repr(result.goodput_mbps),
                result.retransmits,
                result.timeouts,
            ]
    return summary


def test_figure8_matrix_matches_golden_digest(monkeypatch):
    event_counts = []
    run = Simulator.run

    def counting_run(sim, *args, **kwargs):
        executed = run(sim, *args, **kwargs)
        event_counts.append(executed)
        return executed

    monkeypatch.setattr(Simulator, "run", counting_run)
    summary = _run_matrix()
    summary["events"] = event_counts

    # Shape checks hold on every platform, recorded digest or not.
    assert len(event_counts) == 2 + 2 * len(CCAS)
    for env, (sent, received) in summary["udp"].items():
        assert 0 < received <= sent, env
    for key, (goodput, _, _) in summary["tcp"].items():
        assert float(goodput) > 0, key

    digest = hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()
    ).hexdigest()
    key = (".".join(np.__version__.split(".")[:2]), _dispatch())
    expected = GOLDEN_DIGESTS.get(key)
    if expected is None:
        pytest.skip(f"no golden digest recorded for {key}; this run: {digest}")
    assert digest == expected, json.dumps(summary, sort_keys=True)
