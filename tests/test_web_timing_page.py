"""NavigationTiming and page-profile tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rng import stream
from repro.web.page import PageProfileGenerator
from repro.web.timing import NavigationTiming
from repro.web.tranco import TrancoList


def _timing(**overrides):
    values = dict(
        redirect_s=0.05,
        dns_s=0.02,
        connect_s=0.04,
        tls_s=0.05,
        request_s=0.06,
        response_s=0.08,
        dom_s=0.2,
        render_s=0.1,
    )
    values.update(overrides)
    return NavigationTiming(**values)


def test_ptt_is_sum_of_network_components():
    timing = _timing()
    assert timing.page_transit_time_s == pytest.approx(
        0.05 + 0.02 + 0.04 + 0.05 + 0.06 + 0.08
    )


def test_plt_adds_device_components():
    timing = _timing()
    assert timing.page_load_time_s == pytest.approx(timing.page_transit_time_s + 0.3)


def test_ptt_excludes_device_work():
    fast_device = _timing(dom_s=0.01, render_s=0.01)
    slow_device = _timing(dom_s=2.0, render_s=1.0)
    assert fast_device.page_transit_time_s == slow_device.page_transit_time_s
    assert slow_device.page_load_time_s > fast_device.page_load_time_s


def test_millisecond_properties():
    timing = _timing()
    assert timing.ptt_ms == pytest.approx(timing.page_transit_time_s * 1000)
    assert timing.plt_ms == pytest.approx(timing.page_load_time_s * 1000)


def test_negative_component_rejected():
    with pytest.raises(ValueError):
        _timing(dns_s=-0.001)


@given(
    st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0)
)
def test_plt_ge_ptt_property(dom, render):
    timing = _timing(dom_s=dom, render_s=render)
    assert timing.page_load_time_s >= timing.page_transit_time_s


def test_page_profiles_realistic():
    tranco = TrancoList()
    generator = PageProfileGenerator()
    rng = stream(0, "pages")
    profiles = [generator.draw(tranco.site(100), rng) for _ in range(500)]
    sizes = [p.document_bytes for p in profiles]
    assert min(sizes) >= 2_000
    assert max(sizes) <= 4_000_000
    assert 20_000 < sorted(sizes)[len(sizes) // 2] < 200_000
    redirects = [p.n_redirects for p in profiles]
    assert set(redirects) <= {0, 1, 2}
    assert redirects.count(0) > redirects.count(2)


def test_page_profiles_device_work_positive():
    tranco = TrancoList()
    generator = PageProfileGenerator()
    rng = stream(1, "pages")
    profile = generator.draw(tranco.site(1), rng)
    assert profile.dom_work_s > 0
    assert profile.render_work_s > 0


def test_redirect_draw_matches_generator_choice():
    """The bisected CDF consumes one double and picks what
    ``Generator.choice(p=...)`` picks."""
    from bisect import bisect_right

    import numpy as np

    from repro.web.page import _REDIRECT_CDF

    probabilities = PageProfileGenerator.REDIRECT_PROBABILITIES
    ours = np.random.default_rng(9)
    numpy_choice = np.random.default_rng(9)
    for _ in range(20_000):
        expected = int(numpy_choice.choice(len(probabilities), p=probabilities))
        assert bisect_right(_REDIRECT_CDF, ours.random()) == expected
    assert ours.random() == numpy_choice.random()
