"""The lab's headline claims, as one table.

Each target measures once on its own random stream, keyed by the
target's fixed position in the table, and holds every measured value to
bounds stored as data.  `bell-lab reproduce` runs the table at the
command's seed and the acceptance gate (tests/test_acceptance.py) at its
own, so every claim is checked on two independent seeds with the same
bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bellgame, estimators, pairing, randi, sources, stats
from .core import CountTable, Events, RngStream, outcome_counts

RUNS = 1000  # runs per challenge campaign

# post-selected CHSH of the default contextual model, frozen from the
# quadrature oracle in the acceptance gate
CONTEXTUAL_S = 3.9098593171027436

SINGLET_DELTAS = tuple(k * math.pi / 8 for k in range(1, 9))
SMEAR_WIDTH = math.pi / 8

_LIMITS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class Bound:
    """measured within tol of target (op "+-", a sequence element by
    element), or the one-sided limit `measured op target`."""

    op: str
    target: object
    tol: float = 0.0

    def holds(self, measured) -> bool:
        if self.op == "+-":
            m = np.asarray(measured, dtype=float)
            t = np.asarray(self.target, dtype=float)
            return m.shape == t.shape and bool(np.all(np.abs(m - t) <= self.tol))
        return _LIMITS[self.op](measured, self.target)

    def __str__(self) -> str:
        if self.op == "+-":
            return f"{_show(self.target)}+-{self.tol:g}"
        return f"{self.op}{_show(self.target)}"


@dataclass(frozen=True)
class Target:
    """One claim: measure(n, stream) returns one measured value
    per check, in order; a check is (name, *bounds) and passes when every
    bound holds.  seconds is the wall-time limit the acceptance gate sets."""

    name: str
    n: int | None
    measure: Callable
    checks: tuple
    seconds: float | None = None


def _show(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_show(x) for x in v) + "]"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def check(name: str, measured, bounds, n) -> dict:
    """Decide one check, print its [ok]/[FAIL] line, return its record."""
    passed = all(b.holds(measured) for b in bounds)
    shown = " and ".join(map(str, bounds))
    print(f"[{'ok' if passed else 'FAIL'}] {name}: measured={_show(measured)} "
          f"bound={shown}")
    return {"name": name, "measured": measured,
            "bounds": [vars(b) for b in bounds], "n": n, "passed": passed}


def run(name: str, seed: int, stream: int = 0) -> list:
    """Measure one target on its stream and decide each of its checks."""
    target = TARGETS[name]
    key = RngStream(seed, (stream, list(TARGETS).index(name)))
    measured = target.measure(target.n, key)
    return [check(c[0], m, c[1:], target.n)
            for c, m in zip(target.checks, measured, strict=True)]


# ---------------------------------------------------------------------------
# measurements

def _singlet(n, stream):
    rng = stream.generator()
    draws = [sources.singlet_pairs(0.0, d, n, rng) for d in SINGLET_DELTAS]
    return ([float(np.mean(a * b)) for a, b in draws],
            float(np.mean([np.mean(a) for a, _ in draws])))


def _smeared(n, stream):
    jitter = sources.AngleJitter(0.0, SMEAR_WIDTH)
    a, b = sources.smeared_pairs(jitter, jitter, n, stream.generator())
    return (float(np.mean(a * b)),)


def _pairing(n, stream):
    # one setting a side; outcomes alternate, from -1 on A and from +1 on B
    ea, eb = (Events(np.arange(k), np.zeros(k, dtype=np.int64),
                     np.resize([first, -first], k))
              for k, first in ((1000, -1), (1003, 1)))
    offsets = [pairing.covariance(pairing.pair_systematic(ea, eb, k))
               for k in (1, 2, 3, 4)]
    return offsets, pairing.covariance(
        pairing.pair_random(ea, eb, n, stream.generator()))


def _spreadsheet(n, stream):
    sums = sources.cfd_sheet_sums(n, sources.InstructionDist.uniform(), 200,
                                  stream.generator())
    return (int(np.abs(sums).max()) / n,)


def _gill(dist):
    return lambda n, stream: (randi.gill_campaign(
        dist, n, RUNS, stream)[0]["chsh_violation_rate"],)


def _balls(source, n, stream) -> tuple:
    results, _ = randi.vongher_campaign(source, RUNS, n, stream)
    return results["bell_violation_rate"], results["chsh_violation_rate"]


def _bellgame(n, stream):
    scores = np.unique(bellgame.counterfactual_table()["score"]).tolist()
    games = ((bellgame.ScriptedStrategy(bellgame.PERFECT_SCRIPT), 4),
             (bellgame.RandomProgramStrategy(), n), (bellgame.QuantumStrategy(), n))
    script, rnd, qs = (bellgame.play_game(s, rounds, stream.child(k).generator())
                       for k, (s, rounds) in enumerate(games))
    return scores, script.points, rnd.avg_score, qs.avg_score


def _contextual(n, stream):
    rng = stream.generator()
    params = sources.ContextualParams()
    # each setting pair's outcomes counted as drawn: holding all 4n trials
    # at once would take 35 MB more at the default n
    counts = np.zeros((2, 2, 3, 3), np.int64)
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        counts[x, y] += outcome_counts(*sources.contextual_batch(x, y, n, params, rng))
    est = estimators.chsh(CountTable((0, 1), (0, 1), counts))
    return est["s_value"], sum(est["sizes"]) / (4 * n)


def _chebyshev(n, stream):
    return (stats.chebyshev_confidence(2.0, 1.0),
            stats.chebyshev_confidence(2.0, 2.0 / 44.72135955))


def _breakdown(n, stream):
    res = stats.breakdown_demo(stats.default_breakdown_spec(), 100, n, stream)
    return (res["n_rejecting_100_sem"], abs(res["pooled"]["z"]),
            res["homogeneity"]["chi_square"]["p_value"])


# ---------------------------------------------------------------------------
# the table; a target's stream is its position here, so never reorder it

QRC_BOUND = randi.qrc_win_bound(RUNS)

TARGETS = {t.name: t for t in (
    Target("singlet", 100_000, _singlet, (
        ("singlet-law", Bound("+-", [-math.cos(d) for d in SINGLET_DELTAS], 0.01)),
        ("singlet-marginal", Bound("+-", 0.0, 0.02)))),
    Target("smeared", 200_000, _smeared, (
        ("smeared-law", Bound("+-", -(math.sin(SMEAR_WIDTH) / SMEAR_WIDTH) ** 2,
                              0.01)),)),
    Target("pairing", 100_000, _pairing, (
        ("pairing-offsets", Bound("+-", [-1.0, 1.0, -1.0, 1.0])),
        ("pairing-random", Bound("+-", 0.0, 4.0 / math.sqrt(100_000))))),
    Target("spreadsheet", 10_000, _spreadsheet, (
        ("spreadsheet-bound", Bound("<=", 2.0)),)),
    Target("gill-uniform", 3200, _gill(sources.InstructionDist.uniform()), (
        ("gill-uniform", Bound("<=", QRC_BOUND)),), seconds=60.0),
    Target("gill-boundary", 3200,
           _gill(sources.InstructionDist.positive_boundary()), (
               ("gill-boundary", Bound("+-", 0.5, 0.1), Bound("<=", QRC_BOUND)),)),
    Target("vongher-strict", 800,
           lambda *args: (_balls(sources.strict(), *args),), (
               ("vongher-strict", Bound("+-", (0.0, 0.0))),), seconds=40.0),
    Target("vongher-boundary", 800,
           lambda *args: _balls(sources.missing_pairs(), *args)[:1], (
               ("vongher-boundary", Bound("+-", 0.5, 0.1)),)),
    Target("vongher-partial", 800,
           lambda *args: _balls(sources.partial_anticorr(0.87), *args)[:1], (
               ("vongher-partial", Bound("+-", 0.87, 0.05)),), seconds=40.0),
    Target("vongher-quantum", 800,
           lambda *args: _balls(randi.QUANTUM_SOURCE, *args), (
               ("vongher-quantum-bell", Bound("+-", 0.91, 0.05)),
               ("vongher-quantum-chsh", Bound("+-", 0.99, 0.03))), seconds=40.0),
    Target("bellgame", 100_000, _bellgame, (
        ("bellgame-table-max", Bound("+-", [1, 3])),
        ("bellgame-script", Bound("+-", 4)),
        ("bellgame-random", Bound("+-", 2.0, 0.02)),
        ("bellgame-quantum", Bound("+-", 2.0 + math.sqrt(2.0), 0.02)))),
    Target("contextual", 250_000, _contextual, (
        ("contextual-chsh", Bound("+-", CONTEXTUAL_S, 0.02), Bound(">=", 2.2)),
        ("contextual-coincidence", Bound("+-", 0.25, 0.02))), seconds=120.0),
    Target("chebyshev", None, _chebyshev, (
        ("chebyshev-2sem", Bound("+-", 0.75)),
        ("chebyshev-45sem", Bound(">=", 0.9995)))),
    Target("breakdown", 100_000, _breakdown, (
        ("breakdown-per-run", Bound(">=", 3)),
        ("breakdown-pooled", Bound("<", 2.0)),
        ("breakdown-homogeneity", Bound("<", 1e-6)))),
)}
