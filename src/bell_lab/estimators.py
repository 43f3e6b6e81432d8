"""Finite-sample estimators.

Everything here is an exact function of a core.CountTable, as
core.tabulate builds from recorded trials and the campaigns draw
directly: pairwise correlations, the four-term CHSH combination,
equal/unequal counters for the ball protocol, and the six-count J
statistic.  Each returns the number, or the dict of numbers, that
`bell-lab estimate` writes to summary.json.  Estimates that have no
data behind them come back as None rather than a fabricated number.  A
table over runs gives one array per value, over runs, with NaN for None.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (MINUS, NO_COUNT, OUTCOMES, PLUS, CountTable, Trials, plain,
                   tabulate)
from .sources import SETTINGS_A, SETTINGS_B

# a * b at each (a, b) outcome cell of a CountTable
_PRODUCT = np.outer(OUTCOMES, OUTCOMES)


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

# the four CHSH groups, keyed (unprimed, primed): ab, ab', a'b, a'b'
CHSH_TERMS = ("ab", "abp", "apb", "apbp")


def chsh(table: CountTable, a_labels=(0, 1), b_labels=(0, 1),
         coincident_only: bool = True) -> dict:
    """Group the table by setting pair and assemble the CHSH combination.

    Returns {"s_value", "terms", "sizes"}: terms holds each group's
    correlation under its CHSH_TERMS key, sizes the group counts in that
    order, and s_value is e_ab + e_abp + e_apb - e_apbp, None when any
    group is empty.
    """
    _check_labels(a_labels, b_labels)
    e, n = zip(*(_group(table.at(x, y), coincident_only)
                 for x in a_labels for y in b_labels))
    return {"s_value": plain(e[0] + e[1] + e[2] - e[3]),
            "terms": dict(zip(CHSH_TERMS, map(plain, e))),
            "sizes": list(map(plain, n))}


# ---------------------------------------------------------------------------
# equal/unequal counters for the ball protocol

# the setting pair (x, y) at each distance d = |y - x| = 0..3
_AT_DISTANCE = sorted(itertools.product(SETTINGS_A, SETTINGS_B),
                      key=lambda pair: abs(pair[1] - pair[0]))


def vongher_counters(table: CountTable) -> dict:
    """Tally equal/unequal coincident pairs by setting distance.

    Returns {"n_e": [...], "n_u": [...]}, each indexed by
    d = |setting_b - setting_a|, which takes the values 0..3 for the four
    allowed setting pairs.  No-count trials touch neither counter.
    """
    _check_inside(table, SETTINGS_A, SETTINGS_B)
    cells = [table.at(x, y) for x, y in _AT_DISTANCE]
    return {key: [plain((c * (_PRODUCT == p)).sum(axis=(-2, -1))) for c in cells]
            for key, p in (("n_e", 1), ("n_u", -1))}


def bell_counter_test(counters: dict) -> dict:
    """Counter form of the d-based inequality, lhs <= rhs for instruction
    sets: N_1(unequal) against N_2(equal) + N_3(unequal).

    Returns {"lhs", "rhs", "violated"}.
    """
    lhs = counters["n_u"][1]
    rhs = counters["n_e"][2] + counters["n_u"][3]
    return {"lhs": lhs, "rhs": rhs, "violated": lhs > rhs}


def chsh_from_counters(counters: dict) -> dict:
    """CHSH built from disagreement fractions per setting distance.

    Returns {"s_value", "e_tilde"}: e_tilde[d] = (N_d(unequal) -
    N_d(equal)) / N_d, and s_value is e0 + e1 + e2 - e3.  Any empty
    distance leaves both undefined.
    """
    n_e, n_u = counters["n_e"], counters["n_u"]
    totals = np.add(n_e, n_u)
    e = np.divide(np.subtract(n_u, n_e), totals,
                  out=np.full(totals.shape, np.nan), where=(totals > 0).all(axis=0))
    return {"s_value": plain(e[0] + e[1] + e[2] - e[3]),
            "e_tilde": list(map(plain, e))}


# ---------------------------------------------------------------------------
# six-count J statistic

# the six coincidence counts entering J: o and e are the +1 and -1
# analyzer exits, u is no count; the two digits name the (side A, side B)
# setting choice, first or second
EBERHARD_COUNTS = ("n_oo_11", "n_oe_12", "n_ou_12", "n_eo_21", "n_uo_21",
                   "n_oo_22")


def eberhard_j(counts: dict) -> int:
    """n_oe_12 + n_ou_12 + n_eo_21 + n_uo_21 + n_oo_22 - n_oo_11."""
    n_oo_11, *added = (counts[k] for k in EBERHARD_COUNTS)
    return sum(added) - n_oo_11


def eberhard_counts(table: CountTable, a_labels=(0, 1), b_labels=(0, 1)) -> dict:
    """The six counts of a count table, keyed by EBERHARD_COUNTS.

    a_labels and b_labels give the (first, second) setting label on each
    side.  Table labels outside them are an error.
    """
    _check_labels(a_labels, b_labels)
    _check_inside(table, a_labels, b_labels)
    (a1, a2), (b1, b2) = a_labels, b_labels
    o, e, u = (OUTCOMES.index(v) for v in (PLUS, MINUS, NO_COUNT))
    return {key: plain(table.at(x, y)[..., i, j]) for key, (x, y, i, j) in zip(
        EBERHARD_COUNTS, ((a1, b1, o, o), (a1, b2, o, e), (a1, b2, o, u),
                          (a2, b1, e, o), (a2, b1, u, o), (a2, b2, o, o)))}


def eberhard_counterfactual(a1, a2, b1, b2) -> dict:
    """Counts when every row carries outcomes for both settings on both sides.

    Each row is one trial at each of the four setting pairs, which is what
    makes the J >= 0 bound a row-by-row identity.
    """
    x, y = np.repeat([[0, 0, 1, 1], [0, 1, 0, 1]], len(a1), axis=1)
    trials = Trials(x, y, np.concatenate([a1, a1, a2, a2]),
                    np.concatenate([b1, b2, b1, b2]))
    return eberhard_counts(tabulate(trials, (0, 1), (0, 1)))
