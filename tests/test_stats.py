import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from bell_lab.core import RngStream
from bell_lab.stats import (DriftingDeviceSpec, bin_means, breakdown_demo,
                            chebyshev_confidence, default_breakdown_spec,
                            homogeneity_test, runs_test, table_homogeneity)


# ---------------------------------------------------------------------------
# chebyshev

def test_chebyshev_exact_values():
    assert chebyshev_confidence(2.0, 1.0) == 0.75
    assert chebyshev_confidence(1.0, 1.0) == 0.0
    # k = sqrt(2000) ~ 44.7 leaves 1/2000 of the mass outside
    assert chebyshev_confidence(1.0, 1.0 / math.sqrt(2000.0)) == pytest.approx(
        0.9995, abs=1e-12)


def test_chebyshev_degenerate_cases():
    assert chebyshev_confidence(1.0, 0.0) == 1.0
    assert chebyshev_confidence(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        chebyshev_confidence(0.0, -1.0)


@given(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False))
def test_chebyshev_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    assert chebyshev_confidence(hi, 1.0) >= chebyshev_confidence(lo, 1.0)


# ---------------------------------------------------------------------------
# binning

def test_bin_means_contiguous_tail_dropped():
    assert bin_means(range(10), 3).tolist() == [1.0, 4.0, 7.0]
    with pytest.raises(ValueError, match="fewer data points than bins"):
        bin_means([1.0], 2)
    with pytest.raises(ValueError, match="n_bins must be >= 1"):
        bin_means([1.0], 0)


@given(st.integers(1, 3000), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_bin_means_equal_per_slice_means(n, n_bins, seed):
    n_bins = min(n_bins, n)
    values = np.random.default_rng(seed).normal(size=n) * 10.0 ** (seed % 9)
    size = n // n_bins
    slices = [np.mean(values[k * size:(k + 1) * size]) for k in range(n_bins)]
    assert np.array_equal(bin_means(values, n_bins), slices)


# ---------------------------------------------------------------------------
# homogeneity

def test_chi_square_flags_a_switched_law():
    values = np.array([0] * 300 + [1] * 300)
    r = homogeneity_test(values, "chi_square", n_parts=2)
    assert r["details"] == {"dof": 1, "parts": 2, "categories": [0, 1]}
    assert r["p_value"] < 1e-12


def test_chi_square_passes_a_steady_law():
    values = np.tile([0, 1], 300)  # identical counts in both halves
    r = homogeneity_test(values, "chi_square")
    assert r["p_value"] > 0.9


def test_table_homogeneity_drops_a_zero_column():
    r = table_homogeneity([[10, 0, 20], [15, 0, 12]], parts=2)
    stat, p_value, dof, _ = sps.chi2_contingency([[10, 20], [15, 12]])
    assert r == {"statistic": stat, "p_value": p_value,
                 "details": {"dof": 1, "parts": 2}}


def test_chi_square_single_category_is_uninformative():
    r = homogeneity_test(np.zeros(100), "chi_square")
    assert r["p_value"] == 1.0


def test_ks_detects_shift_and_requires_two_parts():
    steady = RngStream(1).generator().normal(size=400)
    assert homogeneity_test(steady, "ks")["p_value"] > 0.001
    shifted = np.concatenate([steady[:200], steady[200:] + 3.0])
    assert homogeneity_test(shifted, "ks")["p_value"] < 1e-12
    with pytest.raises(ValueError):
        homogeneity_test(steady, "ks", n_parts=3)


def test_runs_test_patterns():
    clustered = runs_test([0.0] * 50 + [1.0] * 50)
    assert clustered["p_value"] < 1e-12  # two runs: far too few
    assert clustered["details"] == {"runs": 2, "n_above": 50, "n_below": 50}
    alternating = runs_test([0, 1] * 50)
    assert alternating["p_value"] < 1e-12  # a hundred runs: far too many
    steady = runs_test(RngStream(2).generator().normal(size=500))
    assert steady["p_value"] > 0.001
    one_sided = runs_test([1.0, 1.0, 1.0, 2.0])
    assert one_sided["p_value"] == 1.0


def test_homogeneity_api():
    with pytest.raises(ValueError):
        homogeneity_test([1, 2], "anova")


# ---------------------------------------------------------------------------
# drifting-device demo

def test_device_spec_validation():
    with pytest.raises(ValueError):
        DriftingDeviceSpec((0.0, 1.0), (((0, 10, (1.0,))),))
    with pytest.raises(ValueError):
        DriftingDeviceSpec((0.0, 1.0), ((0, 10, (0.7, 0.7)),))
    spec = DriftingDeviceSpec((0.0, 1.0), ((4, 10, (0.1, 0.9)),
                                           (0, 4, (0.5, 0.5))))
    assert spec.run_probs(10).tolist() == [[0.5, 0.5]] * 4 + [[0.1, 0.9]] * 6
    with pytest.raises(ValueError, match="regimes cover 10 runs, campaign has 12"):
        spec.run_probs(12)
    gap = DriftingDeviceSpec((0.0, 1.0), ((0, 4, (0.5, 0.5)),
                                          (5, 10, (0.1, 0.9))))
    with pytest.raises(ValueError, match="without gaps"):
        gap.run_probs(10)


def test_default_spec_mirrors_itself():
    spec = default_breakdown_spec()
    probs = spec.run_probs(100)
    assert probs.shape == (100, 6)
    assert probs[:50].tolist() == [probs[99][::-1].tolist()] * 50
    # the two regimes average to a margin of exactly zero
    margins = 1.0 - np.asarray(spec.values)
    m0 = float(np.dot(probs[0], margins))
    m1 = float(np.dot(probs[99], margins))
    assert m0 + m1 == pytest.approx(0.0, abs=1e-12)
    assert m0 < -0.5


def test_breakdown_demo_contradiction_pattern():
    spec = DriftingDeviceSpec(default_breakdown_spec().values,
                              ((0, 5, default_breakdown_spec().regimes[0][2]),
                               (5, 10, default_breakdown_spec().regimes[1][2])))
    res = breakdown_demo(spec, runs=10, run_len=10_000, stream=RngStream(4))
    assert (res["runs"], res["run_length"]) == (10, 10_000)
    assert [r["run"] for r in res["per_run"]] == list(range(10))
    # every run screams, the pool stays quiet, homogeneity explains why;
    # rejection is one-sided, so only the heavy-top regime rejects
    assert res["n_rejecting_100_sem"] == 5
    assert all(abs(r["z"]) > 100 for r in res["per_run"])
    assert abs(res["pooled"]["z"]) < 4.0
    assert res["pooled"]["n"] == 10 * 10_000
    h = res["homogeneity"]
    assert h["chi_square"]["p_value"] < 1e-6
    assert h["ks"]["p_value"] < 0.01
    assert h["runs"]["p_value"] < 0.01


def test_breakdown_demo_validates_coverage():
    with pytest.raises(ValueError, match="regimes cover 100 runs"):
        breakdown_demo(default_breakdown_spec(), 20, 100, RngStream(5))
    one_run = DriftingDeviceSpec((0.0, 1.0), ((0, 1, (0.5, 0.5)),))
    with pytest.raises(ValueError, match="runs must be >= 2"):
        breakdown_demo(one_run, 1, 100, RngStream(5))


def test_breakdown_sem_is_the_sample_sem():
    # each run's SEM comes from its count table; it must equal the plain
    # sample SEM of the values those counts stand for
    spec = DriftingDeviceSpec((0.0, 0.5, 2.0), ((0, 2, (0.2, 0.3, 0.5)),
                                                (2, 4, (0.6, 0.3, 0.1))))
    stream = RngStream(3)
    res = breakdown_demo(spec, runs=4, run_len=50, stream=stream)
    margins = 1.0 - np.asarray(spec.values)
    counts = [stream.child(i).generator().multinomial(50, p)
              for i, p in enumerate(spec.run_probs(4))]
    for stat, c in zip(res["per_run"] + [res["pooled"]],
                       counts + [np.sum(counts, axis=0)]):
        x = np.repeat(margins, c)
        assert stat.get("n", res["run_length"]) == x.size
        assert stat["mean"] == pytest.approx(np.mean(x), rel=1e-12)
        assert stat["sem"] == pytest.approx(
            np.std(x, ddof=1) / math.sqrt(x.size), rel=1e-12)
        assert stat["z"] == pytest.approx(stat["mean"] / stat["sem"], rel=1e-12)


def test_runs_test_too_short_to_vary():
    # one value on each side of the median always makes two runs
    res = runs_test([0.0, 1.0])
    assert res["p_value"] == 1.0 and res["details"]["note"] == "too few values"


def test_chi_square_needs_two_parts():
    for parts in (-1, 0, 1):
        with pytest.raises(ValueError):
            homogeneity_test([0, 1, 0, 1], "chi_square", n_parts=parts)
