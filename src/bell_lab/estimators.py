"""Finite-sample estimators.

Everything here is an exact function of a count table over (setting_a,
setting_b, a, b), as core.tabulate builds from recorded trials and the
campaigns draw directly: pairwise correlations, the four-term CHSH
combination, equal/unequal counters for the ball protocol, and the
six-count J statistic.  Estimates that have no data behind them come
back as None rather than a fabricated number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MINUS, NO_COUNT, PLUS
from .sources import SETTINGS_A, SETTINGS_B


def _group(table: dict, coincident_only: bool, pair=None):
    """(mean of a*b, count used) over the cells at setting pair `pair`, or
    over every cell; the mean is None when nothing is usable."""
    total = n = 0
    for (x, y, a, b), count in table.items():
        if (pair is None or (x, y) == pair) and (a * b or not coincident_only):
            total += a * b * count
            n += count
    return (total / n if n else None), n


def _check_labels(a_labels, b_labels) -> None:
    """Each side names two different setting labels."""
    for side, (first, second) in zip("AB", (a_labels, b_labels)):
        if first == second:
            raise ValueError(f"side {side} names setting {first!r} twice")


def correlation(table: dict, coincident_only: bool = True) -> float | None:
    """Average product of the two outcomes, normally over coincident trials."""
    return _group(table, coincident_only)[0]


# ---------------------------------------------------------------------------
# CHSH

@dataclass(frozen=True)
class ChshEstimate:
    """Per-group correlations and sizes for the four setting pairs.

    Groups are keyed (unprimed, primed): ab, ab', a'b, a'b'.  s_value is
    e_ab + e_abp + e_apb - e_apbp, or None when any group is empty.
    """

    e_ab: float | None
    e_abp: float | None
    e_apb: float | None
    e_apbp: float | None
    n_ab: int
    n_abp: int
    n_apb: int
    n_apbp: int

    @property
    def s_value(self) -> float | None:
        terms = (self.e_ab, self.e_abp, self.e_apb, self.e_apbp)
        if any(t is None for t in terms):
            return None
        return self.e_ab + self.e_abp + self.e_apb - self.e_apbp

    @property
    def sizes(self) -> tuple:
        return (self.n_ab, self.n_abp, self.n_apb, self.n_apbp)

    def terms(self) -> dict:
        return {"ab": self.e_ab, "abp": self.e_abp,
                "apb": self.e_apb, "apbp": self.e_apbp}


def chsh(table: dict, a_labels=(0, 1), b_labels=(0, 1),
         coincident_only: bool = True) -> ChshEstimate:
    """Group the table by setting pair and assemble the CHSH combination."""
    _check_labels(a_labels, b_labels)
    groups = [_group(table, coincident_only, (x, y))
              for x in a_labels for y in b_labels]
    return ChshEstimate(*(v for v, _ in groups), *(n for _, n in groups))


# ---------------------------------------------------------------------------
# equal/unequal counters for the ball protocol

N_DELTAS = 4


@dataclass(frozen=True)
class CounterSet:
    """Counts of equal and unequal coincident pairs per setting distance d.

    d = |setting_b - setting_a| takes the values 0..3 for the four
    allowed setting pairs.  No-count trials touch neither counter.
    """

    n_e: tuple
    n_u: tuple

    def __post_init__(self):
        ne = tuple(int(v) for v in self.n_e)
        nu = tuple(int(v) for v in self.n_u)
        if len(ne) != N_DELTAS or len(nu) != N_DELTAS:
            raise ValueError("counters are indexed by d = 0..3")
        if any(v < 0 for v in ne + nu):
            raise ValueError("counters are non-negative")
        object.__setattr__(self, "n_e", ne)
        object.__setattr__(self, "n_u", nu)

    def totals(self) -> tuple:
        return tuple(e + u for e, u in zip(self.n_e, self.n_u))


def vongher_counters(table: dict) -> CounterSet:
    """Tally equal/unequal coincident pairs by setting distance."""
    n_e, n_u = [0] * N_DELTAS, [0] * N_DELTAS
    for (x, y, a, b), count in table.items():
        if x not in SETTINGS_A or y not in SETTINGS_B:
            raise ValueError(f"side A settings must be in {SETTINGS_A} "
                             f"and side B settings in {SETTINGS_B}")
        if a * b:
            (n_e if a == b else n_u)[abs(y - x)] += count
    return CounterSet(tuple(n_e), tuple(n_u))


@dataclass(frozen=True)
class BellCounterResult:
    """Counter form of the d-based inequality: lhs <= rhs for instruction sets."""

    lhs: int
    rhs: int

    @property
    def violated(self) -> bool:
        return self.lhs > self.rhs


def bell_counter_test(counters: CounterSet) -> BellCounterResult:
    """N_1(unequal) against N_2(equal) + N_3(unequal)."""
    return BellCounterResult(counters.n_u[1], counters.n_e[2] + counters.n_u[3])


@dataclass(frozen=True)
class CounterChsh:
    """CHSH built from disagreement fractions per setting distance.

    e_tilde[d] = (N_d(unequal) - N_d(equal)) / N_d, and s_value is
    e0 + e1 + e2 - e3.  Any empty distance leaves both undefined.
    """

    e_tilde: tuple
    s_value: float | None


def chsh_from_counters(counters: CounterSet) -> CounterChsh:
    totals = counters.totals()
    if any(t == 0 for t in totals):
        return CounterChsh((None,) * N_DELTAS, None)
    e = tuple((u - eq) / t for eq, u, t in
              zip(counters.n_e, counters.n_u, totals))
    return CounterChsh(e, e[0] + e[1] + e[2] - e[3])


# ---------------------------------------------------------------------------
# six-count J statistic

@dataclass(frozen=True)
class EberhardCounts:
    """The six coincidence counts entering J.

    o and e are the +1 and -1 analyzer exits, u is no count; the two
    digits name the (side A, side B) setting choice, first or second.
    """

    n_oo_11: int
    n_oe_12: int
    n_ou_12: int
    n_eo_21: int
    n_uo_21: int
    n_oo_22: int

    def __post_init__(self):
        if any(v < 0 for v in vars(self).values()):
            raise ValueError("counts are non-negative")


def eberhard_j(counts: EberhardCounts) -> int:
    """n_oe_12 + n_ou_12 + n_eo_21 + n_uo_21 + n_oo_22 - n_oo_11."""
    return (counts.n_oe_12 + counts.n_ou_12 + counts.n_eo_21
            + counts.n_uo_21 + counts.n_oo_22 - counts.n_oo_11)


def eberhard_counts(table: dict,
                    a_labels=(0, 1), b_labels=(0, 1)) -> EberhardCounts:
    """Extract the six counts from a count table.

    a_labels and b_labels give the (first, second) setting label on each
    side.  Table cells at other labels are an error.
    """
    _check_labels(a_labels, b_labels)
    a1, a2 = a_labels
    b1, b2 = b_labels
    if any(x not in a_labels or y not in b_labels for x, y, _, _ in table):
        raise ValueError("trial settings outside the declared labels")
    return EberhardCounts(*(table.get(cell, 0) for cell in (
        (a1, b1, PLUS, PLUS), (a1, b2, PLUS, MINUS), (a1, b2, PLUS, NO_COUNT),
        (a2, b1, MINUS, PLUS), (a2, b1, NO_COUNT, PLUS), (a2, b2, PLUS, PLUS))))


def eberhard_counterfactual(a1, a2, b1, b2) -> EberhardCounts:
    """Counts when every row carries outcomes for both settings on both sides.

    Each row contributes to every cell it matches, which is what makes
    the J >= 0 bound a row-by-row identity.
    """
    a1 = np.asarray(a1)
    a2 = np.asarray(a2)
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    return EberhardCounts(
        n_oo_11=int(np.sum((a1 == PLUS) & (b1 == PLUS))),
        n_oe_12=int(np.sum((a1 == PLUS) & (b2 == MINUS))),
        n_ou_12=int(np.sum((a1 == PLUS) & (b2 == NO_COUNT))),
        n_eo_21=int(np.sum((a2 == MINUS) & (b1 == PLUS))),
        n_uo_21=int(np.sum((a2 == NO_COUNT) & (b1 == PLUS))),
        n_oo_22=int(np.sum((a2 == PLUS) & (b2 == PLUS))),
    )
