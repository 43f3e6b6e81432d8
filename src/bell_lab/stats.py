"""Significance and homogeneity machinery for finite runs.

The point of this module is the distinction it enforces: a standard
error only measures distance from a hypothesis IF the data behave like
independent draws from one fixed law.  The tools come in matched pairs:
per-run SEMs and chebyshev_confidence quantify significance under that
assumption, and the homogeneity tests check whether it deserves any
trust.  breakdown_demo wires both onto a device that drifts mid-series,
where per-run certainty and pooled complacency coexist.

Every p-value comes from numpy and the standard library: the
chi-square tail is erfc plus a finite series, the two-sample KS tail is
exact at every half size, and the runs test's normal tail is erfc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, plain, plain_list


def chebyshev_confidence(mean: float, sem_value: float) -> float:
    """Distribution-free confidence that the mean differs from zero.

    With k = |mean| / sem the distance in standard errors, the confidence
    is 1 - 1/k^2 floored at zero.  sem = 0 admits no spread at all: the
    confidence is then 1, or 0 for a zero mean.
    """
    if sem_value < 0:
        raise ValueError("sem must be >= 0")
    dist = abs(mean)
    if sem_value == 0.0:
        return 1.0 if dist else 0.0
    k = dist / sem_value
    # below one sem the bound is vacuous; guarding also avoids k**2
    # underflow for subnormal distances
    return 0.0 if k <= 1.0 else 1.0 - 1.0 / (k * k)


# ---------------------------------------------------------------------------
# binning

def bin_means(values, n_bins: int) -> np.ndarray:
    """Means of n_bins contiguous equal bins; drops the len % n_bins tail."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    arr = np.asarray(values, dtype=float)
    size = arr.size // n_bins
    if size == 0:
        raise ValueError("fewer data points than bins")
    return arr[:n_bins * size].reshape(n_bins, size).mean(axis=1)


# ---------------------------------------------------------------------------
# homogeneity

HOMOGENEITY_METHODS = ("chi_square", "ks", "runs")


def _result(statistic, p_value, **details) -> dict:
    return {"statistic": float(statistic), "p_value": float(p_value),
            "details": details}


# fdlibm's split of log(2): k * _LN2_HI is exact for k < 2**21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with a positive integer dof.

    With y = x/2 the tail is a finite sum: the Poisson terms
    e^-y y^a / a! for a = 0 .. dof/2 - 1 at even dof, and erfc(sqrt(y))
    plus the terms e^-y y^a / Gamma(a + 1) for a = 1/2 .. dof/2 - 1 at
    odd dof.  Each term is the last times y / a.  The terms and their
    sum are kept scaled by 2^k, so that none under- or overflows, and
    e^-y enters as 2^-k e^-r, with r = y - k log 2 reduced in two exact
    steps; the tail is then as accurate as the sum's roundings.
    """
    if x <= 0:
        return 1.0
    y = 0.5 * x
    k = round(y / math.log(2.0))
    term = math.exp(k * _LN2_LO - (y - k * _LN2_HI))
    if dof % 2:
        head, a = math.erfc(math.sqrt(y)), 0.5
        term *= 2.0 * math.sqrt(y / math.pi)
    else:
        head, a = 0.0, 0.0
    total = 0.0
    while a < 0.5 * dof:
        total += term
        a += 1.0
        term *= y / a
        if term > 2.0 ** 900:
            term, total, k = term * 2.0 ** -900, total * 2.0 ** -900, k - 900
    return head + math.ldexp(total, -k)


def table_homogeneity(table, **details) -> dict:
    """Contingency chi-square: do all rows of a count table share one law?

    Rows are parts of a series and columns are categories.  A category
    that no part shows carries no information and is dropped.  As
    scipy's chi2_contingency does, the statistic takes Yates' correction
    at 1 degree of freedom, is 0 with p = 1 at 0 degrees of freedom, and
    a zero expected cell (a part with no counts) is a ValueError.
    details are reported after the degrees of freedom.
    """
    table = np.asarray(table)
    if (table < 0).any():
        raise ValueError("counts must be >= 0")
    table = table[:, table.sum(axis=0) > 0]
    if not table.size:
        raise ValueError("the table holds no counts")
    observed = table.astype(float)
    expected = (observed.sum(axis=1, keepdims=True) * observed.sum(axis=0)
                / observed.sum())
    if not expected.all():
        cell = tuple(np.argwhere(expected == 0)[0])
        raise ValueError("The internally computed table of expected "
                         f"frequencies has a zero element at {cell}.")
    dof = (expected.shape[0] - 1) * (expected.shape[1] - 1)
    if dof == 0:
        return _result(0.0, 1.0, dof=0, **details)
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return _result(stat, _chi2_sf(stat, dof), dof=dof, **details)


def _chi_square_parts(values: np.ndarray, n_parts: int) -> dict:
    if n_parts < 2:
        raise ValueError("the chi_square variant compares at least 2 parts")
    size = values.size // n_parts
    if size == 0:
        raise ValueError("fewer values than parts")
    used = values[:size * n_parts]
    cats, coded = np.unique(used, return_inverse=True)
    if cats.size < 2:
        return _result(0.0, 1.0, note="single category", parts=n_parts)
    table = [np.bincount(part, minlength=cats.size)
             for part in coded.reshape(n_parts, size)]
    return table_homogeneity(table, parts=n_parts, categories=cats.tolist())


def _ks_equal_sf(n: int, h: int) -> float:
    """P(D >= h/n) for the two-sided KS distance D of two samples of n
    values each, exact at every n: Hodges' lattice-path count (Ark. Mat.
    1958) as an alternating sum, evaluated Horner-style from the far end
    as scipy's ks_2samp does, so it matches that bit for bit; a sum
    that rounds past 1 is 1."""
    if h == 0:
        return 1.0
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return min(1.0, 2.0 * p)


def _ks_halves(values: np.ndarray) -> dict:
    half = values.size // 2
    if half < 1:
        raise ValueError("need at least 2 values")
    if np.isnan(values[:2 * half]).any():
        return _result(math.nan, math.nan, half_size=half)
    a, b = np.sort(values[:half]), np.sort(values[half:2 * half])
    pooled = np.concatenate([a, b])
    # D = h / half, h the largest gap between the halves' step counts
    h = int(np.abs(np.searchsorted(a, pooled, side="right")
                   - np.searchsorted(b, pooled, side="right")).max())
    return _result(h / half, _ks_equal_sf(half, h), half_size=half)


def runs_test(values) -> dict:
    """Wald-Wolfowitz runs test around the median, normal approximation.

    Values equal to the median are dropped.  A sequence stuck on one
    side, or too short for the run count to vary, is reported as
    uninformative (p = 1) rather than an error.
    """
    arr = np.asarray(values, dtype=float)
    med = float(np.median(arr))
    signs = arr[arr != med] > med
    n1 = int(signs.sum())
    n2 = int(signs.size - n1)
    if n1 == 0 or n2 == 0 or n1 == n2 == 1:  # n1 = n2 = 1: always two runs
        note = "too few values" if n1 * n2 else "one-sided sequence"
        return _result(0.0, 1.0, note=note, n_above=n1, n_below=n2)
    r = 1 + int(np.sum(signs[1:] != signs[:-1]))
    n = n1 + n2
    mean_r = 1.0 + 2.0 * n1 * n2 / n
    var_r = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n ** 2 * (n - 1))
    z = (r - mean_r) / math.sqrt(var_r)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return _result(z, min(1.0, p), runs=r, n_above=n1, n_below=n2)


def homogeneity_test(values, method: str = "chi_square",
                     n_parts: int = 2) -> dict:
    """Test whether a sequence looks identically distributed along its length.

    chi_square compares category counts across n_parts contiguous parts;
    ks compares the two halves as continuous samples; runs checks the
    above/below-median pattern for clustering.  Every test returns
    {"statistic", "p_value", "details"}.
    """
    arr = np.asarray(values)
    if method == "chi_square":
        return _chi_square_parts(arr, n_parts)
    if method == "ks":
        if n_parts != 2:
            raise ValueError("the ks variant compares exactly 2 parts")
        return _ks_halves(arr.astype(float))
    if method == "runs":
        return runs_test(arr)
    raise ValueError(f"method must be one of {HOMOGENEITY_METHODS}")


# ---------------------------------------------------------------------------
# drifting-device breakdown demo

@dataclass(frozen=True)
class DriftingDeviceSpec:
    """A device emitting symbols whose law switches between run regimes.

    values maps symbol index to the monitored statistic's value; each
    regime is (first_run, end_run, probabilities) with end exclusive.
    """

    values: tuple
    regimes: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not all(map(math.isfinite, vals)):
            raise ValueError("symbol values must be finite")
        regs = []
        for start, stop, probs in self.regimes:
            p = tuple(float(q) for q in probs)
            if len(p) != len(vals):
                raise ValueError("each regime needs one probability per symbol")
            if not (all(q >= 0 for q in p) and abs(sum(p) - 1.0) <= 1e-9):
                raise ValueError("regime probabilities must be >= 0 and sum to 1")
            regs.append((int(start), int(stop), p))
        regs.sort(key=lambda r: r[0])
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "regimes", tuple(regs))

    def run_probs(self, runs: int) -> np.ndarray:
        """The (runs, symbols) probabilities, row i the law of run i."""
        edge = 0
        for start, stop, _ in self.regimes:
            if start != edge or stop <= start:
                raise ValueError("regimes must tile runs 0..runs-1 without gaps")
            edge = stop
        if edge != runs:
            raise ValueError(f"regimes cover {edge} runs, campaign has {runs}")
        return np.repeat([p for _, _, p in self.regimes],
                         [stop - start for start, stop, _ in self.regimes], axis=0)


def default_breakdown_spec() -> DriftingDeviceSpec:
    """Six symbols on a 0..2 value grid, top-heavy first half, mirrored second.

    Both halves average to 1 jointly, while each run sits hundreds of
    standard errors away from it.
    """
    values = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
    heavy = (0.02, 0.03, 0.05, 0.15, 0.30, 0.45)
    return DriftingDeviceSpec(values, ((0, 50, heavy), (50, 100, heavy[::-1])))


REJECT_SEM = 100.0  # the n_rejecting_100_sem key names it


def _margin_stats(counts: np.ndarray, margins: np.ndarray) -> tuple:
    """n, mean, SEM and z of x = margin over the last axis of counts; z is
    NaN where the counts show no spread at all (SEM = 0)."""
    n = counts.sum(axis=-1)
    # one dot product per row, summed as np.dot sums a single row
    s1, s2 = ((counts[..., None, :] @ m[:, None])[..., 0, 0]
              for m in (margins, margins ** 2))
    mean = s1 / n
    # float_power calls pow() as Python's float ** 2 does; an array's ** 2
    # multiplies, which rounds differently for about 0.1% of values
    var = (s2 - n * np.float_power(mean, 2)) / (n - 1)
    sem = np.sqrt(np.maximum(var, 0.0) / n)
    z = np.divide(mean, sem, out=np.full(np.shape(mean), np.nan), where=sem > 0)
    return n, mean, sem, z


def breakdown_demo(spec: DriftingDeviceSpec, runs: int, run_len: int,
                   stream: RngStream) -> dict:
    """Run the drifting device and score it every way at once.

    Every single run rejects the pooled-mean hypothesis with enormous
    significance, the pooled series quietly accepts it, and the
    homogeneity battery explains why: the series is not one experiment.
    The tested margin is x = 1 - value and the null says its mean is
    >= 0; a run rejects when z drops below -REJECT_SEM.  Run i draws its
    symbol counts, one multinomial, from stream.child(i), seeded with
    every other run's by RngStream.child_generators.  Returns the results
    breakdown writes to summary.json; z is None where SEM = 0.
    """
    if run_len < 2:
        raise ValueError("run_len must be >= 2 for a standard error")
    if runs < 2:
        raise ValueError("runs must be >= 2 to compare two halves")
    probs = spec.run_probs(runs)
    counts = np.array([rng.multinomial(run_len, p)
                       for rng, p in zip(stream.child_generators(runs), probs)])
    margins = 1.0 - np.asarray(spec.values)
    _, mean, sem, z = _margin_stats(counts, margins)
    pooled = _margin_stats(counts.sum(axis=0), margins)
    half = runs // 2
    homogeneity = {
        "chi_square": table_homogeneity([counts[:half].sum(axis=0),
                                         counts[half:].sum(axis=0)]),
        "ks": _ks_halves(mean),
        "runs": runs_test(mean),
    }
    return {
        "runs": runs,
        "run_length": run_len,
        "per_run": [{"run": i, "mean": m, "sem": s, "z": v}
                    for i, (m, s, v) in enumerate(zip(mean.tolist(), sem.tolist(),
                                                      plain_list(z)))],
        "pooled": dict(zip(("n", "mean", "sem", "z"), map(plain, pooled))),
        "n_rejecting_100_sem": int(np.count_nonzero(z < -REJECT_SEM)),
        "homogeneity": {name: {k: h[k] for k in ("statistic", "p_value")}
                        for name, h in homogeneity.items()},
    }
