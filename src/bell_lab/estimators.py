"""Finite-sample estimators.

Everything here is an exact function of a core.CountTable, as
core.tabulate builds from recorded trials and the campaigns draw
directly: pairwise correlations, the four-term CHSH combination,
equal/unequal counters for the ball protocol, and the six-count J
statistic.  Estimates that have no data behind them come back as None
rather than a fabricated number.  A table over runs gives one array per
value, over runs, with NaN for None.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import MINUS, NO_COUNT, OUTCOMES, PLUS, CountTable, Trials, tabulate
from .sources import SETTINGS_A, SETTINGS_B

# a * b at each (a, b) outcome cell of a CountTable
_PRODUCT = np.outer(OUTCOMES, OUTCOMES)


def plain(value):
    """A value of one table as a Python number, NaN (undefined) as None; a
    value over runs stays an array."""
    if np.ndim(value):
        return value
    value = value.item()
    return None if value != value else value


def _group(cells: np.ndarray, coincident_only: bool):
    """(mean of a*b, count used) over (..., 3, 3) outcome cells; the mean
    is NaN where nothing is usable."""
    used = cells * (_PRODUCT != 0) if coincident_only else cells
    n = used.sum(axis=(-2, -1))
    total = (used * _PRODUCT).sum(axis=(-2, -1))
    return np.divide(total, n, out=np.full(n.shape, np.nan), where=n > 0), n


def _check_labels(a_labels, b_labels) -> None:
    """Each side names two different setting labels."""
    for side, (first, second) in zip("AB", (a_labels, b_labels)):
        if first == second:
            raise ValueError(f"side {side} names setting {first!r} twice")


def _check_inside(table: CountTable, a_labels, b_labels) -> None:
    """The table labels side A only with a_labels and side B only with b_labels."""
    if not {*table.labels_a} <= {*a_labels} or not {*table.labels_b} <= {*b_labels}:
        raise ValueError(f"side A settings must be in {tuple(a_labels)} "
                         f"and side B settings in {tuple(b_labels)}")


def correlation(table: CountTable, coincident_only: bool = True) -> float | None:
    """Average product of the two outcomes, normally over coincident trials."""
    return plain(_group(table.counts.sum(axis=(-4, -3)), coincident_only)[0])


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


def chsh(table: CountTable, a_labels=(0, 1), b_labels=(0, 1),
         coincident_only: bool = True) -> ChshEstimate:
    """Group the table by setting pair and assemble the CHSH combination."""
    _check_labels(a_labels, b_labels)
    groups = [_group(table.at(x, y), coincident_only)
              for x in a_labels for y in b_labels]
    return ChshEstimate(*(plain(v) for v, _ in groups),
                        *(plain(n) for _, n in groups))


# ---------------------------------------------------------------------------
# equal/unequal counters for the ball protocol

N_DELTAS = 4


@dataclass(frozen=True)
class CounterSet:
    """Counts of equal and unequal coincident pairs per setting distance d.

    d = |setting_b - setting_a| takes the values 0..3 for the four
    allowed setting pairs.  No-count trials touch neither counter.  Each
    counter is a tuple over d; for a table over runs, of arrays over runs.
    """

    n_e: tuple
    n_u: tuple

    def __post_init__(self):
        ne, nu = tuple(self.n_e), tuple(self.n_u)
        if len(ne) != N_DELTAS or len(nu) != N_DELTAS:
            raise ValueError("counters are indexed by d = 0..3")
        if min(np.min(v) for v in ne + nu) < 0:
            raise ValueError("counters are non-negative")
        object.__setattr__(self, "n_e", ne)
        object.__setattr__(self, "n_u", nu)

    def totals(self) -> tuple:
        return tuple(e + u for e, u in zip(self.n_e, self.n_u))


# the setting pair (x, y) at each distance d = |y - x| = 0..3
_AT_DISTANCE = sorted(itertools.product(SETTINGS_A, SETTINGS_B),
                      key=lambda pair: abs(pair[1] - pair[0]))


def vongher_counters(table: CountTable) -> CounterSet:
    """Tally equal/unequal coincident pairs by setting distance."""
    _check_inside(table, SETTINGS_A, SETTINGS_B)
    cells = [table.at(x, y) for x, y in _AT_DISTANCE]
    return CounterSet(*([plain((c * (_PRODUCT == p)).sum(axis=(-2, -1)))
                         for c in cells] for p in (1, -1)))


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
    totals = np.array(counters.totals())
    e = np.divide(np.subtract(counters.n_u, counters.n_e), totals,
                  out=np.full(totals.shape, np.nan), where=(totals > 0).all(axis=0))
    return CounterChsh(tuple(map(plain, e)), plain(e[0] + e[1] + e[2] - e[3]))


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
        if min(np.min(v) for v in vars(self).values()) < 0:
            raise ValueError("counts are non-negative")


def eberhard_j(counts: EberhardCounts) -> int:
    """n_oe_12 + n_ou_12 + n_eo_21 + n_uo_21 + n_oo_22 - n_oo_11."""
    return (counts.n_oe_12 + counts.n_ou_12 + counts.n_eo_21
            + counts.n_uo_21 + counts.n_oo_22 - counts.n_oo_11)


def eberhard_counts(table: CountTable,
                    a_labels=(0, 1), b_labels=(0, 1)) -> EberhardCounts:
    """Extract the six counts from a count table.

    a_labels and b_labels give the (first, second) setting label on each
    side.  Table labels outside them are an error.
    """
    _check_labels(a_labels, b_labels)
    _check_inside(table, a_labels, b_labels)
    (a1, a2), (b1, b2) = a_labels, b_labels
    o, e, u = (OUTCOMES.index(v) for v in (PLUS, MINUS, NO_COUNT))
    return EberhardCounts(*(plain(table.at(x, y)[..., i, j]) for x, y, i, j in (
        (a1, b1, o, o), (a1, b2, o, e), (a1, b2, o, u),
        (a2, b1, e, o), (a2, b1, u, o), (a2, b2, o, o))))


def eberhard_counterfactual(a1, a2, b1, b2) -> EberhardCounts:
    """Counts when every row carries outcomes for both settings on both sides.

    Each row is one trial at each of the four setting pairs, which is what
    makes the J >= 0 bound a row-by-row identity.
    """
    x, y = np.repeat([[0, 0, 1, 1], [0, 1, 0, 1]], len(a1), axis=1)
    trials = Trials(x, y, np.concatenate([a1, a1, a2, a2]),
                    np.concatenate([b1, b2, b1, b2]))
    return eberhard_counts(tabulate(trials, (0, 1), (0, 1)))
