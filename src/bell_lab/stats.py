"""Significance and homogeneity machinery for finite runs.

The point of this module is the distinction it enforces: a standard
error only measures distance from a hypothesis IF the data behave like
independent draws from one fixed law.  The tools come in matched pairs:
per-run SEMs and chebyshev_confidence quantify significance under that
assumption, and the homogeneity tests check whether it deserves any
trust.  breakdown_demo wires both onto a device that drifts mid-series,
where per-run certainty and pooled complacency coexist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, plain


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


def table_homogeneity(table, **details) -> dict:
    """Contingency chi-square: do all rows of a count table share one law?

    Rows are parts of a series and columns are categories.  A category
    that no part shows carries no information and is dropped.  details
    are reported after the degrees of freedom.
    """
    table = np.asarray(table)
    table = table[:, table.sum(axis=0) > 0]
    from scipy import stats as sps  # about a second to import: load on use
    stat, p_value, dof, _ = sps.chi2_contingency(table)
    return _result(stat, p_value, dof=int(dof), **details)


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


def _ks_halves(values: np.ndarray) -> dict:
    half = values.size // 2
    if half < 1:
        raise ValueError("need at least 2 values")
    from scipy import stats as sps
    res = sps.ks_2samp(values[:half], values[half:2 * half])
    return _result(res.statistic, res.pvalue, half_size=half)


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
    from scipy import stats as sps
    p = 2.0 * float(sps.norm.sf(abs(z)))
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
    symbol counts, one multinomial, from stream.child(i), spawned once per
    campaign.  Returns the results breakdown writes to summary.json; z
    is None where SEM = 0.
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
        "per_run": [{"run": i, "mean": m, "sem": s, "z": plain(v)}
                    for i, (m, s, v) in enumerate(zip(mean.tolist(),
                                                      sem.tolist(), z))],
        "pooled": dict(zip(("n", "mean", "sem", "z"), map(plain, pooled))),
        "n_rejecting_100_sem": int(np.count_nonzero(z < -REJECT_SEM)),
        "homogeneity": {name: {k: h[k] for k in ("statistic", "p_value")}
                        for name, h in homogeneity.items()},
    }
