"""Golden digest of record generation: the dataset's bits are pinned.

Every performance change to record generation (geometry batching, the
per-instant link state, memoised hosting, the redirect draw) must leave
the dataset bit-identical.  The identity suites compare execution paths
against each other; this test compares against a digest recorded
before those changes, so a drift shared by every path is caught too.

Float results of numpy's vectorised transcendentals depend on the SIMD
path numpy dispatches to (AVX-512 kernels round differently from the
AVX2/SSE ones), so one digest is recorded per numpy minor version and
dispatch level.  Combinations with no recorded digest are skipped with
the digest they produced, ready to be recorded.
"""

import hashlib

import numpy as np
import pytest

from repro.extension import columnar
from repro.extension.campaign import CampaignConfig, ExtensionCampaign

GOLDEN_CONFIG = dict(
    seed=7,
    duration_s=14 * 86_400.0,
    request_fraction=0.1,
    speedtest_boost=50.0,
    cities=("london", "seattle", "sydney"),
)

#: ``(numpy major.minor, dispatch) -> sha256`` of the canonical columns.
GOLDEN_DIGESTS = {
    ("2.4", "avx512"): (
        "1a31e889dcfdc028b44b623110dd51be43260db2f52d8e81b736cc9e22316f61"
    ),
    ("2.4", "baseline"): (
        "6a93a4229b4323226102479547b656ef1231640b297032c9c5a3aabd2a712ee9"
    ),
}
GOLDEN_COUNTS = (2629, 140)


def _dispatch() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return "avx512" if __cpu_features__.get("AVX512_SKX") else "baseline"


def dataset_digest(dataset) -> str:
    """sha256 over every canonical page-load and speedtest column."""
    hasher = hashlib.sha256()
    for names, column in (
        (columnar.PAGE_LOAD_COLUMNS, dataset.page_load_column),
        (columnar.SPEEDTEST_COLUMNS, dataset.speedtest_column),
    ):
        for name in names:
            array = np.ascontiguousarray(column(name))
            hasher.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
            hasher.update(array.tobytes())
    return hasher.hexdigest()


def test_serial_campaign_matches_golden_digest():
    dataset = ExtensionCampaign(CampaignConfig(**GOLDEN_CONFIG)).run()
    assert (dataset.n_page_loads, dataset.n_speedtests) == GOLDEN_COUNTS
    digest = dataset_digest(dataset)
    key = (".".join(np.__version__.split(".")[:2]), _dispatch())
    expected = GOLDEN_DIGESTS.get(key)
    if expected is None:
        pytest.skip(f"no golden digest recorded for {key}; this run: {digest}")
    assert digest == expected
