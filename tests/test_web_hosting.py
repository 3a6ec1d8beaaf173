"""Hosting/CDN model tests."""

import numpy as np
import pytest

from repro.web.hosting import HostingModel, ServerKind, cdn_probability


@pytest.fixture(scope="module")
def hosting():
    return HostingModel(seed=0)


def test_cdn_probability_declines_with_rank():
    probabilities = [cdn_probability(r) for r in (1, 100, 1000, 100_000, 900_000)]
    assert probabilities == sorted(probabilities, reverse=True)
    assert probabilities[0] > 0.85
    assert probabilities[-1] < 0.45


def test_resolution_deterministic_per_domain(hosting):
    first = hosting.resolve("example.com", 5000, "UK")
    second = hosting.resolve("example.com", 5000, "UK")
    assert first == second


def test_resolution_varies_by_region(hosting):
    resolutions = {
        region: hosting.resolve("some-site.example", 5000, region)
        for region in ("UK", "USA", "AU")
    }
    assert len({r.server_one_way_s for r in resolutions.values()}) > 1


def test_top_sites_mostly_cdn(hosting):
    kinds = [
        hosting.resolve(f"top-{i}.example", 10, "UK").kind for i in range(300)
    ]
    cdn_fraction = sum(1 for k in kinds if k is ServerKind.CDN_EDGE) / len(kinds)
    assert cdn_fraction > 0.8


def test_tail_sites_often_remote(hosting):
    kinds = [
        hosting.resolve(f"tail-{i}.example", 800_000, "UK").kind for i in range(400)
    ]
    cdn_fraction = sum(1 for k in kinds if k is ServerKind.CDN_EDGE) / len(kinds)
    assert cdn_fraction < 0.6


def test_popular_sites_closer_on_average(hosting):
    popular = np.mean(
        [
            hosting.resolve(f"p-{i}.example", 50, "UK").server_one_way_s
            for i in range(300)
        ]
    )
    unpopular = np.mean(
        [
            hosting.resolve(f"u-{i}.example", 500_000, "UK").server_one_way_s
            for i in range(300)
        ]
    )
    assert unpopular > 1.5 * popular


def test_au_pays_more_than_uk(hosting):
    au = np.mean(
        [
            hosting.resolve(f"x-{i}.example", 5000, "AU").server_one_way_s
            for i in range(300)
        ]
    )
    uk = np.mean(
        [
            hosting.resolve(f"x-{i}.example", 5000, "UK").server_one_way_s
            for i in range(300)
        ]
    )
    assert au > uk


def test_think_time_positive(hosting):
    for i in range(50):
        resolved = hosting.resolve(f"t-{i}.example", 1000, "EU")
        assert resolved.server_think_s > 0


def test_latencies_physical(hosting):
    for i in range(200):
        resolved = hosting.resolve(f"l-{i}.example", int(10 ** (i % 6) + 1), "USA")
        assert 0.0 < resolved.server_one_way_s < 0.4


def test_memoised_resolution_matches_a_fresh_model():
    memoised = HostingModel(seed=3)
    memoised.MAX_CACHED_SITES = 4
    sites = [(f"site-{i % 7}.example", 100 + i % 7, "UK") for i in range(40)]
    for domain, rank, region in sites:
        fresh = HostingModel(seed=3).resolve(domain, rank, region)
        assert memoised.resolve(domain, rank, region) == fresh
    assert len(memoised._resolved) == 4  # the LRU stays bounded
