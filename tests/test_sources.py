import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from bell_lab.core import RngStream
from bell_lab.sources import (ATOMS, AngleJitter, BallVariant, ContextualParams,
                              InstructionDist, Spreadsheet4, cfd_sheet_sums,
                              contextual_batch, generate_cfd_spreadsheet,
                              generate_tennis_balls, missing_pairs,
                              partial_anticorr, row_combination, singlet_pairs,
                              singlet_prob, smeared_pairs, strict)
from peak_memory import peak_bytes_per_item

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


def jitter_draw_whole(jitter, n, rng):
    """AngleJitter.draw built from whole-column temporaries: the oracle of
    its in-place uniform draw."""
    if jitter.half_width == 0.0:
        return np.full(n, jitter.center)
    if jitter.weight == "uniform":
        return jitter.center + jitter.half_width * (2.0 * rng.random(n) - 1.0)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        cand = rng.normal(0.0, jitter.half_width / 2.0, todo.size)
        ok = np.abs(cand) <= jitter.half_width
        out[todo[ok]] = jitter.center + cand[ok]
        todo = todo[~ok]
    return out


def smeared_pairs_whole(jitter_a, jitter_b, n, rng):
    """smeared_pairs through whole-column temporaries: the oracle of its
    in-place flip probability."""
    delta = np.subtract(jitter_draw_whole(jitter_a, n, rng),
                        jitter_draw_whole(jitter_b, n, rng))
    p_anti = (1.0 + np.cos(delta)) / 2.0
    a = rng.choice(np.array([1, -1], dtype=np.int8), size=n)
    flip = rng.random(n) < p_anti
    return a, np.where(flip, -a, a).astype(np.int8)


JITTERS = st.builds(AngleJitter, st.floats(-10.0, 10.0),
                    st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
                    st.sampled_from(("uniform", "truncated_gaussian")))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), jitter_a=JITTERS, jitter_b=JITTERS,
       n=st.one_of(st.integers(0, 3), st.just(50_000)))
def test_smeared_pairs_are_bitwise_the_whole_column_ones(seed, jitter_a,
                                                         jitter_b, n):
    r_got, r_want = rng(seed), rng(seed)
    assert (jitter_a.draw(n, r_got).tobytes()
            == jitter_draw_whole(jitter_a, n, r_want).tobytes())
    got = smeared_pairs(jitter_a, jitter_b, n, r_got)
    want = smeared_pairs_whole(jitter_a, jitter_b, n, r_want)
    for g, w in zip(got, want):
        assert g.dtype == np.int8 and g.tobytes() == w.tobytes()
    assert r_got.bit_generator.state == r_want.bit_generator.state


def test_singlet_pairs_leave_the_callers_angles_alone():
    theta_a, theta_b = rng(1).random(100), rng(2).random(100)
    kept = theta_a.copy(), theta_b.copy()
    singlet_pairs(theta_a, theta_b, 100, rng())
    assert np.array_equal(theta_a, kept[0]) and np.array_equal(theta_b, kept[1])


def test_smeared_pairs_peak_memory_per_pair():
    # the two int8 outcome columns and one float64 angle column a pair,
    # plus one float64 draw while it is consumed: 18 bytes; a new column
    # for each arithmetic step takes 42
    n = 200_000
    jitter = AngleJitter(0.0, math.pi / 8)
    assert peak_bytes_per_item(
        lambda: smeared_pairs(jitter, jitter, n, rng(5)), n) <= 28


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_instruction_dist_refuses_non_finite_probabilities(bad):
    with pytest.raises(ValueError, match="finite"):
        InstructionDist((0.5, bad) + (0.5 / 14,) * 14)
    with pytest.raises(ValueError, match="finite"):
        InstructionDist.from_mapping({(1, 1, 1, 1): bad})


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


@pytest.mark.parametrize("dist", [InstructionDist.uniform(),
                                  InstructionDist.positive_boundary(),
                                  InstructionDist.point_mass((1, -1, -1, 1))])
def test_a_sheet_sum_is_its_instruction_counts_times_the_combinations(dist):
    sheet = generate_cfd_spreadsheet(500, dist, rng(8))
    atoms = np.array(ATOMS)
    per_atom = (sheet.rows[:, None, :] == atoms).all(axis=2).sum(axis=0)
    assert per_atom.sum() == 500
    assert sheet.row_combinations().sum() == per_atom @ row_combination(*atoms.T)


@pytest.mark.parametrize("dist", [
    InstructionDist.uniform(),
    InstructionDist(tuple(np.random.default_rng(22).dirichlet([1] * 16)))])
def test_counted_sheet_sums_have_the_law_of_per_record_sheets(dist):
    oracle = np.array([generate_cfd_spreadsheet(1000, dist, g)
                       .row_combinations().sum()
                       for g in RngStream(9).child_generators(400)], float)
    drawn = cfd_sheet_sums(1000, dist, 4000, rng(10)).astype(float)
    assert drawn.shape == (4000,)
    # means within 4 SE, and SDs within 4 SE of a normal sample's SD
    se_mean = math.sqrt(drawn.var(ddof=1) / len(drawn)
                        + oracle.var(ddof=1) / len(oracle))
    assert abs(drawn.mean() - oracle.mean()) <= 4 * se_mean
    se_sd = math.sqrt(drawn.var(ddof=1) / (2 * len(drawn) - 2)
                      + oracle.var(ddof=1) / (2 * len(oracle) - 2))
    assert abs(drawn.std(ddof=1) - oracle.std(ddof=1)) <= 4 * se_sd


def test_counted_sheet_sums_at_the_edges():
    boundary = InstructionDist.positive_boundary()
    assert cfd_sheet_sums(300, boundary, 5, rng(11)).tolist() == [600] * 5
    assert cfd_sheet_sums(0, InstructionDist.uniform(), 3, rng(11)).tolist() == [0] * 3
    with pytest.raises(ValueError, match="n_rows must be >= 0"):
        cfd_sheet_sums(-1, boundary, 5, rng(11))


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_contextual_params_refuse_non_finite_angles(bad):
    with pytest.raises(ValueError, match="angles_a must be finite"):
        ContextualParams(angles_a=(bad, 0.0))
    with pytest.raises(ValueError, match="angles_b must be finite"):
        ContextualParams(angles_b=(0.0, bad))


@pytest.mark.parametrize("x, y, n", [(0.5, 0, 10), (0, 1.0, 10), (0, 0, 10.0),
                                     (0, 0, "10"), (None, 0, 10)])
def test_contextual_batch_refuses_non_integer_arguments(x, y, n):
    with pytest.raises(ValueError, match="must be integers"):
        contextual_batch(x, y, n, ContextualParams(), rng())


def test_contextual_batch_refuses_out_of_range_labels_and_negative_n():
    with pytest.raises(ValueError, match="no analyzer angle"):
        contextual_batch(2, 0, 10, ContextualParams(), rng())
    with pytest.raises(ValueError, match="n must be >= 0"):
        contextual_batch(0, 0, -1, ContextualParams(), rng())
    a, b = contextual_batch(np.int64(1), np.int8(0), np.int32(3),
                            ContextualParams(), rng())
    assert a.shape == b.shape == (3,)


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


def contextual_batch_float64(x, y, n, params, rng):
    """contextual_batch deciding every trial from its float64 cosine: the
    oracle of the float32 screen."""
    phi = rng.random(n) * 2.0
    phi *= np.pi
    out = []
    for theta in (params.angles_a[x], params.angles_b[y]):
        lam = rng.random(n)
        lam **= params.gamma
        lam *= params.tau0
        c = phi - theta
        np.cos(np.multiply(c, 2.0, out=c), out=c)
        sign = np.sign(c, out=np.empty(n, np.int8), casting="unsafe")
        sign *= np.abs(c, out=c) >= lam
        out.append(sign)
    out[1] *= -1
    return tuple(out)


def boundary_tau0(seed, n, params, x, trial, nudge):
    """A tau0 that puts side A's threshold on trial's |cos c|, moved by
    nudge float64 steps: the screen's hardest case."""
    r = rng(seed)
    phi = r.random(n) * 2.0
    phi *= np.pi
    c = phi[trial] - params.angles_a[x]
    c *= 2.0
    tau0 = abs(np.cos(c)) / r.random(n)[trial] ** params.gamma
    for _ in range(abs(nudge)):
        tau0 = np.nextafter(tau0, math.copysign(math.inf, nudge))
    return float(tau0) if math.isfinite(tau0) else 1.0


CHUNK = 32768
ANGLES = st.one_of(st.floats(-10.0, 10.0),
                   st.sampled_from([0.0, math.pi / 4, 3 * math.pi / 8, 1e6,
                                    -1e6, 1e12, -1e12, 5e7, 1e300]))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32), x=st.integers(0, 1), y=st.integers(0, 1),
       n=st.one_of(st.sampled_from([0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1]),
                   st.integers(0, 3 * CHUNK)),
       gamma=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 50.0)),
       tau0=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 3.0)),
       angles=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES),
       boundary=st.booleans(), nudge=st.integers(-2, 2), trial=st.integers(0))
def test_screened_contextual_batch_is_bitwise_the_float64_one(
        seed, x, y, n, gamma, tau0, angles, boundary, nudge, trial):
    params = ContextualParams(gamma, tau0, angles[:2], angles[2:])
    if boundary and n:
        params = ContextualParams(gamma, boundary_tau0(
            seed, n, params, x, trial % n, nudge), angles[:2], angles[2:])
    r_got, r_want = rng(seed), rng(seed)
    got = contextual_batch(x, y, n, params, r_got)
    want = contextual_batch_float64(x, y, n, params, r_want)
    for g, w in zip(got, want):
        assert g.dtype == np.int8 and np.array_equal(g, w)
    assert r_got.bit_generator.state == r_want.bit_generator.state


def test_threshold_on_the_reading_itself_decides_as_float64():
    # tau0 set so that trial 0's threshold is its own |cos c|, and a few
    # float64 steps either side: only the float64 cosine tells these apart
    fired = set()
    for nudge in range(-3, 4):
        q = ContextualParams(tau0=boundary_tau0(3, 100, ContextualParams(),
                                                0, 0, nudge))
        got = contextual_batch(0, 0, 100, q, rng(3))
        want = contextual_batch_float64(0, 0, 100, q, rng(3))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        fired.add(bool(got[0][0]))
    assert fired == {True, False}


def test_contextual_batch_peak_memory_per_trial():
    # the float64 phases and two int8 outcome columns a trial, plus one
    # screening chunk: 15 bytes; holding a side's whole noise takes 25
    n = 250_000
    params = ContextualParams()
    assert peak_bytes_per_item(
        lambda: contextual_batch(0, 1, n, params, rng(5)), n) <= 20


@pytest.mark.parametrize("scale", [1.0, 10.0, 1e3, 1e5, 1e6, 8e6])
def test_float32_cos_error_is_inside_the_screen_bound(scale):
    # the screen assumes numpy's float32 cos is within 1e-7 of the true
    # cosine of its float32 argument; its tol allows 1e-4
    c = (rng(int(scale)).random(200_000) * 2.0 - 1.0) * scale
    c32 = c.astype(np.float32)
    err = np.abs(np.cos(c32).astype(np.float64) - np.cos(c32.astype(np.float64)))
    assert err.max() < 1e-7
