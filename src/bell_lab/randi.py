"""The two computer-challenge protocols.

Both ask the same question: can a program that commits its outputs
before learning the settings produce violation statistics run after run?

* Coin-subsample protocol: a submitted spreadsheet of predetermined
  (A, A', B, B') rows is split into four disjoint subsamples by two fair
  coins per row, and the CHSH combination of the subsample correlations
  is scored against 2.
* Ball protocol: prepared answer-bit pairs are measured at randomly
  chosen settings, and the equal/unequal counters are scored against the
  d-based inequality and its CHSH form.

A campaign run draws its count table directly, with the same law as
the per-record samplers (generate_cfd_spreadsheet with gill_subsample,
vongher_trials), which stay as the oracle.  Run i draws from
stream.child(i), whose generator RngStream.child_generators seeds with
every other run's in one hash pass, so a campaign depends on
(seed, stream) alone; the runs' tables are then stacked into one
CountTable over runs and scored by one estimator call.  A campaign
returns the results dict that `bell-lab qrc-gill` / `qrc-vongher` write
to summary.json, and its per_run.csv rows.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (NO_COUNT, OUTCOMES, CountTable, RngStream, Trials,
                   plain_list, tabulate)
from .estimators import (bell_counter_test, chsh, chsh_from_counters,
                         vongher_counters)
from .sources import (ATOMS, SETTINGS_A, SETTINGS_B, BallTable, BallVariant,
                      InstructionDist, Spreadsheet4, generate_tennis_balls,
                      singlet_pairs)

CHSH_BOUND = 2.0

# analyzer angle per setting label, in units of pi/8, for the quantum ball run
VONGHER_ANGLE_UNIT = math.pi / 8


def gill_subsample(sheet: Spreadsheet4, rng: np.random.Generator) -> dict:
    """Score a spreadsheet by random disjoint subsamples.

    Per row, two fair coins choose which A column and which B column get
    read, so each row lands in exactly one of the four groups.  Draw
    order: all side-A coins, then all side-B coins.
    """
    n = len(sheet)
    pick_a = rng.integers(0, 2, size=n)  # 0 reads A, 1 reads A'
    pick_b = rng.integers(0, 2, size=n)
    row = np.arange(n)
    return chsh(tabulate(Trials(pick_a, pick_b, sheet.rows[row, pick_a],
                                sheet.rows[row, 2 + pick_b])))


# position in OUTCOMES of the +1, -1 and no-count outcomes
_PLUS, _MINUS, _NONE = (OUTCOMES.index(v) for v in (1, -1, 0))
# coin group g = 2*pick_a + pick_b reads column pick_a of side A and pick_b
# of side B; _GILL_CELL[k, g] is the flat CountTable cell that instruction
# k (A, A', B, B') lands in under coin group g
_PICK_A, _PICK_B = np.divmod(np.arange(4), 2)
_GILL_CELL = np.ravel_multi_index((_PICK_A, _PICK_B, *(
    np.where(np.array(ATOMS)[:, pick] == 1, _PLUS, _MINUS)
    for pick in (_PICK_A, 2 + _PICK_B))), (2, 2, 3, 3))


def gill_table(dist: InstructionDist, n_rows: int,
               rng: np.random.Generator) -> CountTable:
    """Count table of one coin-subsample run, with the law of gill_subsample
    on generate_cfd_spreadsheet(n_rows, dist).  Draw order: the count of
    each instruction, then the coin groups of each instruction's rows."""
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    per_atom = rng.multinomial(n_rows, dist.probs)
    groups = rng.multinomial(per_atom, [0.25] * 4)
    counts = np.bincount(_GILL_CELL.ravel(), weights=groups.ravel(), minlength=36)
    return CountTable((0, 1), (0, 1), counts.astype(np.int64).reshape(2, 2, 3, 3))


# the per_run.csv header of each campaign; its rows follow it
GILL_FIELDS = ("run", "s_value", "violated", "n_ab", "n_abp", "n_apb", "n_apbp")
VONGHER_FIELDS = ("run", "bell_lhs", "bell_rhs", "bell_violated", "s_value",
                  "chsh_violated", "n_e0", "n_e1", "n_e2", "n_e3",
                  "n_u0", "n_u1", "n_u2", "n_u3")


def _summary(runs: int, chsh_violations: int, bell_violations: int | None = None,
             qrc_bound: float | None = None) -> dict:
    """A campaign's results: violation counts over runs and their exact
    rates.  qrc_bound is set by the coin-subsample campaign: the challenge
    is won when the violation rate clears 0.5 by three binomial standard
    errors."""
    rate = chsh_violations / runs
    return {"runs": runs, "chsh_violations": chsh_violations,
            "chsh_violation_rate": rate, "bell_violations": bell_violations,
            "bell_violation_rate": (None if bell_violations is None
                                    else bell_violations / runs),
            "qrc_bound": qrc_bound,
            "qrc_won": None if qrc_bound is None else rate > qrc_bound}


def qrc_win_bound(runs: int) -> float:
    """Half plus three binomial standard errors at p = 1/2."""
    return 0.5 + 3.0 * math.sqrt(0.25 / runs)


def gill_campaign(dist: InstructionDist, n_rows: int, runs: int,
                  stream: RngStream) -> tuple:
    """Run i scores the CHSH of gill_table(dist, n_rows) on stream.child(i);
    all runs are scored at once.  Returns (results, per_run.csv rows)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    est = chsh(CountTable((0, 1), (0, 1), np.stack(
        [gill_table(dist, n_rows, rng).counts
         for rng in stream.child_generators(runs)])))
    violated = est["s_value"] > CHSH_BOUND
    rows = zip(range(runs), plain_list(est["s_value"]),
               violated.astype(int).tolist(), *(n.tolist() for n in est["sizes"]))
    return (_summary(runs, int(violated.sum()), qrc_bound=qrc_win_bound(runs)),
            list(rows))


# ---------------------------------------------------------------------------
# ball protocol

QUANTUM_SOURCE = "quantum"


def draw_vongher_settings(n: int, rng: np.random.Generator):
    """Fair independent setting choices: side A then side B."""
    sa = np.asarray(SETTINGS_A, dtype=np.int64)[rng.integers(0, 2, size=n)]
    sb = np.asarray(SETTINGS_B, dtype=np.int64)[rng.integers(0, 2, size=n)]
    return sa, sb


def measure_balls(table: BallTable, setting_a, setting_b):
    """Read each ball pair at the chosen settings; returns (a, b) int8 arrays.

    Answer bit 1 maps to +1 and bit 0 to -1; unprepared pairs register
    no count on either side.
    """
    setting_a = np.asarray(setting_a)
    setting_b = np.asarray(setting_b)
    bit_a = np.where(setting_a == SETTINGS_A[0], table.a0, table.a3)
    bit_b = np.where(setting_b == SETTINGS_B[0], table.b0, table.b2)
    a = np.where(table.prepared, 2 * bit_a - 1, NO_COUNT).astype(np.int8)
    b = np.where(table.prepared, 2 * bit_b - 1, NO_COUNT).astype(np.int8)
    return a, b


def vongher_trials(source, n_pairs: int, rng: np.random.Generator) -> Trials:
    """Draw one run of the ball protocol as trials.

    source is a BallVariant, or the string "quantum" for a singlet
    source measured at the protocol angles (label times pi/8).  Draw
    order: settings for both sides, then the source's own draws.
    """
    sa, sb = draw_vongher_settings(n_pairs, rng)
    if source == QUANTUM_SOURCE:
        a, b = singlet_pairs(sa * VONGHER_ANGLE_UNIT, sb * VONGHER_ANGLE_UNIT,
                             n_pairs, rng)
    elif isinstance(source, BallVariant):
        table = generate_tennis_balls(n_pairs, source, rng)
        a, b = measure_balls(table, sa, sb)
    else:
        raise ValueError(f"source must be a BallVariant or {QUANTUM_SOURCE!r}")
    return Trials(sa, sb, a, b)


def vongher_cell_probs(source) -> np.ndarray:
    """Law of one vongher_trials trial over the cells of a CountTable on
    SETTINGS_A and SETTINGS_B, shape (2, 2, 3, 3).

    Settings are fair and independent; given them, the two outcomes have
    uniform marginals and differ with probability p_unequal.  For a
    singlet that is (1 + cos(d pi / 8)) / 2 at setting distance d; for
    balls, the chance that the two bits read differ, each being B0 flipped
    independently (A0 with q, A3 with p_a3_flip, B2 with p_b2_flip).
    """
    sa = np.array(SETTINGS_A)[:, None]
    sb = np.array(SETTINGS_B)[None, :]
    if source == QUANTUM_SOURCE:
        p_unequal = (1.0 + np.cos((sa - sb) * VONGHER_ANGLE_UNIT)) / 2.0
        kept = 1.0
    elif isinstance(source, BallVariant):
        flip_a = np.array([source.q, source.p_a3_flip])[:, None]
        flip_b = np.array([0.0, source.p_b2_flip])[None, :]
        p_unequal = flip_a * (1.0 - flip_b) + (1.0 - flip_a) * flip_b
        kept = 1.0 - source.p_drop
    else:
        raise ValueError(f"source must be a BallVariant or {QUANTUM_SOURCE!r}")
    probs = np.zeros((2, 2, 3, 3))
    probs[:, :, _PLUS, _PLUS] = probs[:, :, _MINUS, _MINUS] = kept * (1 - p_unequal) / 8
    probs[:, :, _PLUS, _MINUS] = probs[:, :, _MINUS, _PLUS] = kept * p_unequal / 8
    probs[:, :, _NONE, _NONE] = (1.0 - kept) / 4
    return probs


def vongher_table(source, n_pairs: int, rng: np.random.Generator) -> CountTable:
    """Count table of one ball-protocol run: one multinomial draw of
    n_pairs trials from vongher_cell_probs(source), the law of vongher_trials."""
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    probs = vongher_cell_probs(source)
    return CountTable(SETTINGS_A, SETTINGS_B,
                      rng.multinomial(n_pairs, probs.ravel()).reshape(probs.shape))


def vongher_campaign(source, runs: int, n_pairs: int, stream: RngStream) -> tuple:
    """Run i scores the counters of vongher_table(source, n_pairs) on
    stream.child(i) by both verdicts; all runs are scored at once.
    Returns (results, per_run.csv rows)."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    probs = vongher_cell_probs(source).ravel()
    counts = np.stack([rng.multinomial(n_pairs, probs)
                       for rng in stream.child_generators(runs)])
    counters = vongher_counters(CountTable(SETTINGS_A, SETTINGS_B,
                                           counts.reshape(runs, 2, 2, 3, 3)))
    bell = bell_counter_test(counters)
    s = chsh_from_counters(counters)["s_value"]
    violated = s > CHSH_BOUND
    rows = zip(range(runs), bell["lhs"].tolist(), bell["rhs"].tolist(),
               bell["violated"].astype(int).tolist(), plain_list(s),
               violated.astype(int).tolist(),
               *(n.tolist() for n in counters["n_e"] + counters["n_u"]))
    return (_summary(runs, int(violated.sum()), int(bell["violated"].sum())),
            list(rows))
