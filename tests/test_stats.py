import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import stats as sps

from bell_lab.core import RngStream
from bell_lab.stats import (DriftingDeviceSpec, _chi2_sf, bin_means,
                            breakdown_demo, chebyshev_confidence,
                            default_breakdown_spec, homogeneity_test,
                            runs_test, table_homogeneity)


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
    assert (r["statistic"], r["details"]) == (stat, {"dof": dof, "parts": 2})
    assert math.isclose(r["p_value"], p_value, rel_tol=1e-12)


# scipy is the oracle for the three p-values, which stats computes with
# numpy and the standard library alone

@given(st.integers(1, 300), st.floats(0, 5000))
def test_chi_square_tail_matches_scipy(dof, x):
    expected = sps.chi2.sf(x, dof)
    got = _chi2_sf(x, dof)
    if expected > 1e-290:
        assert math.isclose(got, expected, rel_tol=1e-12)
    else:
        assert got <= 1e-289


@pytest.mark.parametrize("dof, x", [(2000, 3000.0), (5001, 5200.0),
                                    (100_000, 99_000.0)])
def test_chi_square_tail_rescales_past_float_range(dof, x):
    # the scaled terms pass 2**900 here; unscaled, they would overflow
    assert math.isclose(_chi2_sf(x, dof), sps.chi2.sf(x, dof), rel_tol=1e-12)


@given(st.integers(1, 5).flatmap(lambda cols: st.lists(
    st.lists(st.integers(0, 60), min_size=cols, max_size=cols),
    min_size=1, max_size=4)))
def test_table_homogeneity_matches_chi2_contingency(table):
    kept = np.asarray(table)[:, np.sum(table, axis=0) > 0]
    try:
        stat, p_value, dof, _ = sps.chi2_contingency(kept)
    except ValueError as exc:
        with pytest.raises(ValueError) as ours:
            table_homogeneity(table)
        if "zero element" in str(exc):
            assert str(ours.value) == str(exc)
        return
    r = table_homogeneity(table)
    assert (r["statistic"], r["details"]["dof"]) == (stat, dof)
    assert math.isclose(r["p_value"], p_value, rel_tol=1e-12)


def assert_ks_matches_scipy(values):
    half = values.size // 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = sps.ks_2samp(values[:half], values[half:2 * half], method="exact")
    r = homogeneity_test(values, "ks")
    assert r["statistic"] == ref.statistic
    if caught:
        # scipy's exact sum rounded past 1 and it fell back to its
        # asymptotic law: check the p-value, 1, against Hodges' exact
        # alternating sum of binomials in integers
        assert "Exact calculation unsuccessful" in str(caught[0].message)
        h = round(r["statistic"] * half)
        tail = Fraction(2 * sum((-1) ** (k + 1) * math.comb(2 * half, half - k * h)
                                for k in range(1, half // h + 1)),
                        math.comb(2 * half, half))
        assert r["p_value"] == 1.0 and math.isclose(tail, 1.0, rel_tol=1e-12)
    else:
        assert r["p_value"] == ref.pvalue


@given(st.integers(1, 400), st.integers(1, 6), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
@example(7, 2, 0, 1)  # scipy's exact sum rounds past 1 here
def test_ks_halves_match_scipy_exact(half, levels, shift, seed):
    # few levels make heavy ties; levels = 6 draws continuous values
    rng = np.random.default_rng(seed)
    values = (rng.normal(size=2 * half) if levels == 6
              else rng.integers(0, levels, size=2 * half).astype(float))
    values[half:] += shift / 4
    assert_ks_matches_scipy(values)


@pytest.mark.parametrize("half, shift", [(10_001, 0.0), (12_500, 0.05),
                                         (20_000, 0.02)])
def test_ks_halves_stay_exact_past_scipys_auto_limit(half, shift):
    # scipy's default turns asymptotic above 10,000 values a half; the
    # halves test stays exact
    values = RngStream(half).generator().normal(size=2 * half).round(1)
    values[half:] += shift
    assert_ks_matches_scipy(values)


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=300))
def test_runs_test_tail_matches_scipy(values):
    r = runs_test(values)
    if "note" in r["details"]:
        return
    expected = min(1.0, 2.0 * sps.norm.sf(abs(r["statistic"])))
    assert math.isclose(r["p_value"], expected, rel_tol=1e-12)


def test_table_homogeneity_refuses_negative_or_no_counts():
    for table in ([[3, -1], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError):
            table_homogeneity(table)


def test_ks_halves_propagate_nan_as_scipy_does():
    r = homogeneity_test([0.5, math.nan, 2.0, 3.0], "ks")
    ref = sps.ks_2samp([0.5, math.nan], [2.0, 3.0])
    assert math.isnan(ref.statistic) and math.isnan(ref.pvalue)
    assert math.isnan(r["statistic"]) and math.isnan(r["p_value"])


def test_table_homogeneity_refuses_a_part_with_no_counts():
    # an empty part makes a zero expected cell, which the test cannot score
    for table in ([[3, 5], [0, 0]], [[0, 0, 0], [2, 0, 7], [1, 4, 0]]):
        with pytest.raises(ValueError, match="^The internally computed table "
                           "of expected frequencies has a zero element at "):
            table_homogeneity(table)


@pytest.mark.parametrize("table", [[[3], [5]], [[3, 5]], [[0, 4, 1]]])
def test_table_homogeneity_without_freedom_is_uninformative(table):
    assert table_homogeneity(table, parts=len(table)) == {
        "statistic": 0.0, "p_value": 1.0,
        "details": {"dof": 0, "parts": len(table)}}


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
