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

from .core import RngStream


@dataclass(frozen=True)
class ChebyshevResult:
    """Distribution-free confidence that the mean differs from zero.

    k is the distance in standard errors; confidence = 1 - 1/k^2 floored
    at zero.  certain flags the degenerate sem = 0 case, where the data
    admit no spread at all.
    """

    k: float
    confidence: float
    certain: bool


def chebyshev_confidence(mean: float, sem_value: float) -> ChebyshevResult:
    if sem_value < 0:
        raise ValueError("sem must be >= 0")
    dist = abs(mean)
    if sem_value == 0.0:
        if dist == 0.0:
            return ChebyshevResult(0.0, 0.0, False)
        return ChebyshevResult(math.inf, 1.0, True)
    k = dist / sem_value
    # below one sem the bound is vacuous; guarding also avoids k**2
    # underflow for subnormal distances
    conf = 0.0 if k <= 1.0 else 1.0 - 1.0 / (k * k)
    return ChebyshevResult(k, conf, False)


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


@dataclass(frozen=True)
class HomogeneityResult:
    method: str
    statistic: float
    p_value: float
    details: dict


def table_homogeneity(table, **details) -> HomogeneityResult:
    """Contingency chi-square: do all rows of a count table share one law?

    Rows are parts of a series and columns are categories.  A category
    that no part shows carries no information and is dropped.  details
    are reported after the degrees of freedom.
    """
    table = np.asarray(table)
    table = table[:, table.sum(axis=0) > 0]
    from scipy import stats as sps  # about a second to import: load on use
    stat, p_value, dof, _ = sps.chi2_contingency(table)
    return HomogeneityResult("chi_square", float(stat), float(p_value),
                             {"dof": int(dof), **details})


def _chi_square_parts(values: np.ndarray, n_parts: int) -> HomogeneityResult:
    if n_parts < 2:
        raise ValueError("the chi_square variant compares at least 2 parts")
    size = values.size // n_parts
    if size == 0:
        raise ValueError("fewer values than parts")
    used = values[:size * n_parts]
    cats, coded = np.unique(used, return_inverse=True)
    if cats.size < 2:
        return HomogeneityResult("chi_square", 0.0, 1.0,
                                 {"note": "single category", "parts": n_parts})
    table = [np.bincount(part, minlength=cats.size)
             for part in coded.reshape(n_parts, size)]
    return table_homogeneity(table, parts=n_parts, categories=cats.tolist())


def _ks_halves(values: np.ndarray) -> HomogeneityResult:
    half = values.size // 2
    if half < 1:
        raise ValueError("need at least 2 values")
    from scipy import stats as sps
    res = sps.ks_2samp(values[:half], values[half:2 * half])
    return HomogeneityResult("ks", float(res.statistic), float(res.pvalue),
                             {"half_size": half})


def runs_test(values) -> HomogeneityResult:
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
        return HomogeneityResult("runs", 0.0, 1.0,
                                 {"note": note, "n_above": n1, "n_below": n2})
    r = 1 + int(np.sum(signs[1:] != signs[:-1]))
    n = n1 + n2
    mean_r = 1.0 + 2.0 * n1 * n2 / n
    var_r = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n ** 2 * (n - 1))
    z = (r - mean_r) / math.sqrt(var_r)
    from scipy import stats as sps
    p = 2.0 * float(sps.norm.sf(abs(z)))
    return HomogeneityResult("runs", float(z), min(1.0, p),
                             {"runs": r, "n_above": n1, "n_below": n2})


def homogeneity_test(values, method: str = "chi_square",
                     n_parts: int = 2) -> HomogeneityResult:
    """Test whether a sequence looks identically distributed along its length.

    chi_square compares category counts across n_parts contiguous parts;
    ks compares the two halves as continuous samples; runs checks the
    above/below-median pattern for clustering.
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

    def check_covers(self, runs: int) -> None:
        edge = 0
        for start, stop, _ in self.regimes:
            if start != edge or stop <= start:
                raise ValueError("regimes must tile runs 0..runs-1 without gaps")
            edge = stop
        if edge != runs:
            raise ValueError(f"regimes cover {edge} runs, campaign has {runs}")

    def probs_for(self, run: int) -> tuple:
        for start, stop, probs in self.regimes:
            if start <= run < stop:
                return probs
        raise ValueError(f"run {run} outside all regimes")


def default_breakdown_spec() -> DriftingDeviceSpec:
    """Six symbols on a 0..2 value grid, top-heavy first half, mirrored second.

    Both halves average to 1 jointly, while each run sits hundreds of
    standard errors away from it.
    """
    values = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
    heavy = (0.02, 0.03, 0.05, 0.15, 0.30, 0.45)
    return DriftingDeviceSpec(values, ((0, 50, heavy), (50, 100, heavy[::-1])))


@dataclass(frozen=True)
class RunStat:
    """One run's view of the statistic x = null_margin under study.

    z is None when the run shows no spread at all (sem = 0).
    """

    run: int
    n: int
    mean: float
    sem: float
    z: float | None


REJECT_SEM = 100.0  # the n_rejecting_100_sem key of to_dict names it


@dataclass(frozen=True)
class BreakdownReport:
    """Per-run and pooled significance plus homogeneity of the whole series.

    The tested margin is x = 1 - value; the null says its mean is >= 0.
    A run rejects when z drops below -REJECT_SEM.
    """

    per_run: tuple
    pooled: RunStat
    homogeneity: dict
    symbol_counts: tuple

    def n_rejecting(self) -> int:
        return sum(1 for r in self.per_run
                   if r.z is not None and r.z < -REJECT_SEM)

    def to_dict(self) -> dict:
        return {
            "runs": len(self.per_run),
            "run_length": self.per_run[0].n,
            "per_run": [{"run": r.run, "mean": r.mean, "sem": r.sem, "z": r.z}
                        for r in self.per_run],
            "pooled": {"n": self.pooled.n, "mean": self.pooled.mean,
                       "sem": self.pooled.sem, "z": self.pooled.z},
            "n_rejecting_100_sem": self.n_rejecting(),
            "homogeneity": {name: {"statistic": h.statistic,
                                   "p_value": h.p_value}
                            for name, h in self.homogeneity.items()},
        }


def _run_stat(run: int, counts: np.ndarray, margins: np.ndarray) -> RunStat:
    n = int(counts.sum())
    s1 = float(np.dot(counts, margins))
    s2 = float(np.dot(counts, margins ** 2))
    mean = s1 / n
    var = (s2 - n * mean ** 2) / (n - 1)
    se = math.sqrt(max(var, 0.0) / n)
    return RunStat(run, n, mean, se, mean / se if se > 0 else None)


def breakdown_demo(spec: DriftingDeviceSpec | None = None, runs: int = 100,
                   run_len: int = 100_000,
                   stream: RngStream | None = None) -> BreakdownReport:
    """Run the drifting device and score it every way at once.

    Every single run rejects the pooled-mean hypothesis with enormous
    significance, the pooled series quietly accepts it, and the
    homogeneity battery explains why: the series is not one experiment.
    Run i draws its symbol counts, one multinomial, from stream.child(i).
    """
    if run_len < 2:
        raise ValueError("run_len must be >= 2 for a standard error")
    if runs < 2:
        raise ValueError("runs must be >= 2 to compare two halves")
    spec = spec if spec is not None else default_breakdown_spec()
    stream = stream if stream is not None else RngStream(0)
    spec.check_covers(runs)
    margins = 1.0 - np.asarray(spec.values)
    counts = np.array([stream.child(i).generator().multinomial(
        run_len, spec.probs_for(i)) for i in range(runs)])
    per_run = [_run_stat(i, c, margins) for i, c in enumerate(counts)]
    pooled_counts = counts.sum(axis=0)
    pooled = _run_stat(-1, pooled_counts, margins)

    half = runs // 2
    run_means = np.array([r.mean for r in per_run])
    homogeneity = {
        "chi_square": table_homogeneity([counts[:half].sum(axis=0),
                                         counts[half:].sum(axis=0)]),
        "ks": _ks_halves(run_means),
        "runs": runs_test(run_means),
    }
    return BreakdownReport(tuple(per_run), pooled, homogeneity,
                           tuple(int(v) for v in pooled_counts))
