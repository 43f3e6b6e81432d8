import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from bell_lab.core import RngStream
from bell_lab.sources import (ATOMS, AngleJitter, BallVariant, ContextualParams,
                              InstructionDist, Spreadsheet4, contextual_batch,
                              generate_cfd_spreadsheet, generate_tennis_balls,
                              missing_pairs, partial_anticorr, row_combination,
                              singlet_pairs, singlet_prob, smeared_pairs,
                              strict)

# value of -(sin(w)/w)^2 at w = pi/8: the aligned-analyzer correlation
# under uniform orientation jitter of half-width w on both sides,
# frozen from the double quadrature below
SMEARED_E_ALIGNED = -0.9496412035517837


def rng(seed=0):
    return RngStream(seed).generator()


# ---------------------------------------------------------------------------
# ideal singlet source

def test_singlet_prob_aligned():
    assert singlet_prob(1, 1, 0.0) == 0.0
    assert singlet_prob(1, -1, 0.0) == 0.5
    assert singlet_prob(-1, 1, 0.0) == 0.5
    assert singlet_prob(-1, -1, 0.0) == 0.0


def test_singlet_prob_orthogonal():
    for a in (1, -1):
        for b in (1, -1):
            assert singlet_prob(a, b, math.pi / 2) == pytest.approx(0.25)


def test_singlet_prob_rejects_no_count():
    with pytest.raises(ValueError):
        singlet_prob(0, 1, 0.0)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_singlet_prob_is_a_law_with_fair_marginals(delta):
    total = sum(singlet_prob(a, b, delta) for a in (1, -1) for b in (1, -1))
    assert total == pytest.approx(1.0)
    for a in (1, -1):
        marg = singlet_prob(a, 1, delta) + singlet_prob(a, -1, delta)
        assert marg == pytest.approx(0.5)
    corr = sum(a * b * singlet_prob(a, b, delta)
               for a in (1, -1) for b in (1, -1))
    assert corr == pytest.approx(-math.cos(delta))


def test_singlet_pairs_exact_at_degenerate_angles():
    a, b = singlet_pairs(0.0, 0.0, 500, rng())
    assert np.array_equal(b, -a)  # p_anti = 1
    a, b = singlet_pairs(0.0, math.pi, 500, rng())
    assert np.array_equal(b, a)  # p_anti = 0


def test_singlet_pairs_matches_law():
    n = 40_000
    tol = 4.0 / math.sqrt(n)
    for k, delta in enumerate((math.pi / 4, math.pi / 2, 2.0)):
        a, b = singlet_pairs(0.3, 0.3 + delta, n, rng(k))
        assert abs(np.mean(a * b) + math.cos(delta)) < tol
        assert abs(np.mean(a)) < tol
        assert abs(np.mean(b)) < tol


def test_singlet_pairs_per_pair_angles_match_scalar_angles():
    a0, b0 = singlet_pairs(0.0, 1.0, 300, rng(5))
    a1, b1 = singlet_pairs(np.zeros(300), np.ones(300), 300, rng(5))
    assert np.array_equal(a0, a1) and np.array_equal(b0, b1)
    assert set(a1.tolist()) <= {1, -1} and set(b1.tolist()) <= {1, -1}
    # anti-correlated where the angles agree, correlated where they differ by pi
    a, b = singlet_pairs(0.0, np.resize([0.0, math.pi], 400), 400, rng(6))
    assert np.array_equal(b[::2], -a[::2]) and np.array_equal(b[1::2], a[1::2])


# ---------------------------------------------------------------------------
# smeared analyzers

def smeared_corr_quadrature(delta: float, w: float) -> float:
    # independent oracle: average -cos(delta + ja - jb) over the two
    # uniform jitter draws
    val, _ = integrate.dblquad(
        lambda jb, ja: -math.cos(delta + ja - jb), -w, w, -w, w)
    return val / (2 * w) ** 2


def test_smeared_frozen_value_matches_quadrature():
    w = math.pi / 8
    assert smeared_corr_quadrature(0.0, w) == pytest.approx(
        SMEARED_E_ALIGNED, abs=1e-12)
    # and the closed form, for good measure
    assert SMEARED_E_ALIGNED == pytest.approx(-(math.sin(w) / w) ** 2,
                                              abs=1e-12)


def test_smeared_pairs_match_quadrature():
    w = math.pi / 8
    n = 40_000
    tol = 4.0 / math.sqrt(n)
    for k, delta in enumerate((0.0, math.pi / 4)):
        ja = AngleJitter(0.0, w)
        jb = AngleJitter(delta, w)
        a, b = smeared_pairs(ja, jb, n, rng(10 + k))
        assert abs(np.mean(a * b) - smeared_corr_quadrature(-delta, w)) < tol


def test_smeared_zero_width_is_bitwise_singlet():
    a0, b0 = singlet_pairs(0.1, 0.7, 300, rng(3))
    a1, b1 = smeared_pairs(AngleJitter(0.1), AngleJitter(0.7), 300, rng(3))
    assert np.array_equal(a0, a1) and np.array_equal(b0, b1)


def test_jitter_draws_respect_bounds():
    for weight in ("uniform", "truncated_gaussian"):
        j = AngleJitter(1.0, 0.25, weight=weight)
        draws = j.draw(2000, rng(4))
        assert np.all(np.abs(draws - 1.0) <= 0.25)
    assert np.array_equal(AngleJitter(2.0).draw(5, rng()), np.full(5, 2.0))


def test_jitter_validation():
    with pytest.raises(ValueError):
        AngleJitter(0.0, -1.0)
    with pytest.raises(ValueError):
        AngleJitter(0.0, 1.0, weight="triangular")


# ---------------------------------------------------------------------------
# counterfactual spreadsheets

def test_atoms_enumerate_all_sign_patterns():
    assert len(ATOMS) == 16
    assert len(set(ATOMS)) == 16
    assert all(len(a) == 4 and set(a) <= {1, -1} for a in ATOMS)


def test_row_combination_is_plus_minus_two_on_every_atom():
    combos = {row_combination(*atom) for atom in ATOMS}
    assert combos == {2, -2}
    assert sum(1 for a in ATOMS if row_combination(*a) == 2) == 8


def test_instruction_dist_validation():
    with pytest.raises(ValueError):
        InstructionDist((0.5, 0.5))
    with pytest.raises(ValueError):
        InstructionDist((1.0 / 15,) * 15 + (0.5,))
    u = InstructionDist.uniform()
    assert sum(u.probs) == pytest.approx(1.0)


def test_point_mass_and_mapping():
    atom = (1, 1, 1, -1)
    d = InstructionDist.point_mass(atom)
    assert d.probs[ATOMS.index(atom)] == 1.0
    assert sum(d.probs) == 1.0
    with pytest.raises(ValueError):
        InstructionDist.point_mass((1, 1, 1, 0))
    m = InstructionDist.from_mapping({(1, 1, 1, 1): 0.5, (-1, -1, -1, -1): 0.5})
    assert m.probs[ATOMS.index((1, 1, 1, 1))] == 0.5


def test_positive_boundary_concentrates_on_plus_two():
    d = InstructionDist.positive_boundary()
    for atom, p in zip(ATOMS, d.probs):
        if p > 0:
            assert row_combination(*atom) == 2
            assert p == pytest.approx(1.0 / 8)
    assert sum(1 for p in d.probs if p > 0) == 8


def test_spreadsheet_validation_and_combos():
    with pytest.raises(ValueError):
        Spreadsheet4(np.zeros((3, 3), dtype=np.int8))
    with pytest.raises(ValueError):
        Spreadsheet4(np.array([[1, 1, 1, 0]]))
    sheet = Spreadsheet4(np.array([[1, 1, 1, 1], [1, -1, 1, -1]]))
    assert sheet.row_combinations().tolist() == [2, -2]


def test_generate_spreadsheet_point_mass_and_determinism():
    atom = (-1, 1, -1, 1)
    sheet = generate_cfd_spreadsheet(40, InstructionDist.point_mass(atom), rng(6))
    assert np.array_equal(sheet.rows, np.tile(atom, (40, 1)))
    s1 = generate_cfd_spreadsheet(40, InstructionDist.uniform(), rng(7))
    s2 = generate_cfd_spreadsheet(40, InstructionDist.uniform(), rng(7))
    assert np.array_equal(s1.rows, s2.rows)


# ---------------------------------------------------------------------------
# tennis balls

def test_variant_constructors_and_validation():
    assert strict() == BallVariant(1.0, 0.5, 0.5, 0.0)
    assert missing_pairs().p_drop == 0.1
    assert partial_anticorr(0.87).q == 0.87
    assert partial_anticorr(0.87).p_a3_flip == 0.0075
    assert partial_anticorr(0.87).p_b2_flip == 1.0
    with pytest.raises(ValueError):
        BallVariant(q=1.5)


def test_strict_balls_perfectly_anticorrelated_at_d0():
    table = generate_tennis_balls(400, strict(), rng(8))
    assert np.array_equal(table.a0, 1 - table.b0)
    assert table.prepared.all()


def test_same_parameters_same_bits_regardless_of_kind():
    # a variant is its (q, flips, drop): two constructors that agree on
    # them give the same variant and the same bits
    twin = partial_anticorr(1.0, p_a3_flip=0.5, p_b2_flip=0.5)
    assert twin == strict()
    t1 = generate_tennis_balls(300, strict(), rng(9))
    t2 = generate_tennis_balls(300, twin, rng(9))
    for col in ("a0", "a3", "b0", "b2", "prepared"):
        assert np.array_equal(getattr(t1, col), getattr(t2, col))


def test_missing_pairs_drop_rate():
    table = generate_tennis_balls(20_000, missing_pairs(0.1), rng(10))
    assert abs(np.mean(~table.prepared) - 0.1) < 0.01
    # A3 copies B0 under this variant
    assert np.array_equal(table.a3, table.b0)


# ---------------------------------------------------------------------------
# contextual detection-threshold model

def test_contextual_defaults():
    p = ContextualParams()
    assert p.gamma == 0.5
    assert p.tau0 == 1.0
    assert p.angles_a == (0.0, math.pi / 4)
    assert p.angles_b == (-3 * math.pi / 8, 3 * math.pi / 8)


def test_contextual_validation():
    with pytest.raises(ValueError):
        ContextualParams(gamma=0.0)
    with pytest.raises(ValueError):
        ContextualParams(tau0=-0.1)


def test_contextual_outcomes_are_ternary():
    a, b = contextual_batch(0, 0, 2000, ContextualParams(), rng(12))
    assert set(np.unique(a)) <= {-1, 0, 1}
    assert set(np.unique(b)) <= {-1, 0, 1}
    assert (a == 0).any() and (a != 0).any()


def test_contextual_detection_probability_is_half():
    # P(fire) = E[cos^2] = 1/2 when tau0 = 1, gamma = 1/2
    n = 100_000
    a, _ = contextual_batch(0, 0, n, ContextualParams(), rng(13))
    assert abs(np.mean(a != 0) - 0.5) < 4.0 * 0.5 / math.sqrt(n)


def test_contextual_side_a_ignores_remote_setting():
    # replaying the stream with the other side's setting changed must
    # reproduce the local record bit for bit
    p = ContextualParams()
    a0, _ = contextual_batch(0, 0, 5000, p, rng(14))
    a1, _ = contextual_batch(0, 1, 5000, p, rng(14))
    assert np.array_equal(a0, a1)
    _, b0 = contextual_batch(0, 1, 5000, p, rng(15))
    _, b1 = contextual_batch(1, 1, 5000, p, rng(15))
    assert np.array_equal(b0, b1)


def test_contextual_aligned_analyzers_anticorrelate_exactly():
    p = ContextualParams(angles_a=(0.5, 1.0), angles_b=(0.5, 1.0))
    a, b = contextual_batch(0, 0, 5000, p, rng(16))
    both = (a != 0) & (b != 0)
    assert both.any()
    assert np.all(a[both] * b[both] == -1)

