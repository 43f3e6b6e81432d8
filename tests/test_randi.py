import itertools
import math

import numpy as np
import pytest

from bell_lab.core import OUTCOMES, RngStream, tabulate
from bell_lab.estimators import (bell_counter_test, chsh, chsh_from_counters,
                                 vongher_counters)
from bell_lab.randi import (CHSH_BOUND, GILL_FIELDS,
                            VONGHER_ANGLE_UNIT, VONGHER_FIELDS, draw_vongher_settings,
                            gill_campaign, gill_subsample, gill_table,
                            measure_balls, QUANTUM_SOURCE, qrc_win_bound,
                            vongher_campaign, vongher_cell_probs,
                            vongher_table, vongher_trials)
from bell_lab.sources import (SETTINGS_A, SETTINGS_B, BallTable, BallVariant,
                              InstructionDist, generate_cfd_spreadsheet,
                              generate_tennis_balls, missing_pairs,
                              partial_anticorr, strict)


def rng(seed=0):
    return RngStream(seed).generator()


# ---------------------------------------------------------------------------
# coin-subsample protocol

def test_subsample_groups_are_disjoint_and_exhaustive():
    sheet = generate_cfd_spreadsheet(500, InstructionDist.uniform(), rng(1))
    est = gill_subsample(sheet, rng(2))
    assert sum(est["sizes"]) == 500


def test_subsample_point_mass_all_plus():
    # constant rows make every group correlation exactly +1, so the
    # subsampled s sits exactly on the bound
    sheet = generate_cfd_spreadsheet(
        200, InstructionDist.point_mass((1, 1, 1, 1)), rng(3))
    est = gill_subsample(sheet, rng(4))
    assert est["s_value"] == CHSH_BOUND


def test_subsample_deterministic():
    sheet = generate_cfd_spreadsheet(300, InstructionDist.uniform(), rng(5))
    s1 = gill_subsample(sheet, rng(6))["s_value"]
    s2 = gill_subsample(sheet, rng(6))["s_value"]
    assert s1 == s2


def test_qrc_win_bound_value():
    assert qrc_win_bound(1000) == pytest.approx(0.5 + 3 * math.sqrt(0.25 / 1000))
    assert qrc_win_bound(4) == pytest.approx(1.25)  # unreachable by design


SUMMARY_KEYS = ["runs", "chsh_violations", "chsh_violation_rate",
                "bell_violations", "bell_violation_rate", "qrc_bound", "qrc_won"]


def test_gill_campaign_report_shape():
    results, rows = gill_campaign(InstructionDist.uniform(), n_rows=400,
                                  runs=40, stream=RngStream(7))
    assert list(results) == SUMMARY_KEYS
    assert results["runs"] == 40
    assert len(rows) == 40
    assert all(len(row) == len(GILL_FIELDS) for row in rows)
    assert results["chsh_violation_rate"] == results["chsh_violations"] / 40
    assert results["qrc_bound"] == pytest.approx(qrc_win_bound(40))
    assert results["qrc_won"] is (results["chsh_violation_rate"]
                                  > results["qrc_bound"])


def test_gill_campaign_rows_score_their_tables():
    # row i is the CHSH of gill_table on stream.child(i): this pins the
    # draw order of the campaign
    dist = InstructionDist.uniform()
    stream = RngStream(8)
    results, rows = gill_campaign(dist, n_rows=300, runs=6, stream=stream)
    for i, row in enumerate(rows):
        est = chsh(gill_table(dist, 300, stream.child(i).generator()))
        s = est["s_value"]
        violated = s is not None and s > CHSH_BOUND
        assert row == (i, s, int(violated), *est["sizes"])
    assert results["chsh_violations"] == sum(row[2] for row in rows)


def test_tiny_gill_campaign_rows_hold_none_where_chsh_is_undefined():
    # at 6 rows a run often leaves a coin group empty, and its S undefined
    dist = InstructionDist.uniform()
    stream = RngStream(10)
    _, rows = gill_campaign(dist, n_rows=6, runs=60, stream=stream)
    per_run = [chsh(gill_table(dist, 6, stream.child(i).generator()))["s_value"]
               for i in range(60)]
    assert [row[1] is None for row in rows] == [s is None for s in per_run]
    assert 0 < per_run.count(None) < 60


def test_campaign_report_optional_fields():
    # the coin campaign gives no Bell verdict, the ball campaign no win bound
    gill, _ = gill_campaign(InstructionDist.uniform(), n_rows=100, runs=10,
                            stream=RngStream(9))
    assert gill["bell_violations"] is None
    assert gill["bell_violation_rate"] is None
    balls, _ = vongher_campaign(strict(), runs=10, n_pairs=100,
                                stream=RngStream(9))
    assert list(balls) == SUMMARY_KEYS
    assert balls["bell_violation_rate"] == balls["bell_violations"] / 10
    assert balls["qrc_bound"] is None
    assert balls["qrc_won"] is None


def test_a_negative_run_size_is_refused():
    with pytest.raises(ValueError, match="n_rows must be >= 0"):
        gill_table(InstructionDist.uniform(), -1, rng())
    with pytest.raises(ValueError, match="n_pairs must be >= 0"):
        vongher_table(strict(), -1, rng())
    with pytest.raises(ValueError, match="n_pairs must be >= 0"):
        vongher_campaign(strict(), 1, -1, RngStream(0))


# ---------------------------------------------------------------------------
# ball protocol

def test_setting_draws_use_protocol_labels():
    sa, sb = draw_vongher_settings(4000, rng(9))
    assert set(np.unique(sa)) == {0, 3}
    assert set(np.unique(sb)) == {0, 2}
    assert abs(np.mean(sa == 0) - 0.5) < 0.05
    assert abs(np.mean(sb == 0) - 0.5) < 0.05


def test_measure_balls_bit_mapping():
    table = BallTable(a0=np.array([1, 0, 1], dtype=np.int8),
                      a3=np.array([0, 1, 1], dtype=np.int8),
                      b0=np.array([0, 1, 0], dtype=np.int8),
                      b2=np.array([1, 0, 0], dtype=np.int8),
                      prepared=np.array([True, True, False]))
    a, b = measure_balls(table, np.array([0, 3, 0]), np.array([2, 0, 0]))
    assert a.tolist() == [1, 1, 0]   # a0=1 -> +1, a3=1 -> +1, unprepared -> 0
    assert b.tolist() == [1, 1, 0]   # b2=1 -> +1, b0=1 -> +1, unprepared -> 0


def test_quantum_outcomes_anticorrelated_at_equal_settings():
    n = 2000
    t = vongher_trials(QUANTUM_SOURCE, n, rng(10))
    same = t.setting_a == t.setting_b
    assert same.any() and np.array_equal(t.b[same], -t.a[same])


def test_quantum_outcomes_follow_protocol_angles():
    t = vongher_trials(QUANTUM_SOURCE, 160_000, rng(11))
    for x in (0, 3):
        for y in (0, 2):
            cell = (t.setting_a == x) & (t.setting_b == y)
            tol = 4.0 / math.sqrt(cell.sum())
            e = np.mean(t.a[cell] * t.b[cell])
            assert abs(e + math.cos((x - y) * math.pi / 8)) < tol


def test_strict_run_never_equal_at_d0():
    counters = vongher_counters(vongher_table(strict(), 2000, rng(12)))
    assert counters["n_e"][0] == 0
    assert counters["n_u"][0] > 0
    assert sum(counters["n_e"] + counters["n_u"]) == 2000


def test_quantum_run_counters_near_expectations():
    # per distance the unequal fraction is cos^2(d * pi / 16), so at
    # n pairs each distance holds ~n/4 counts split accordingly
    n = 20_000
    counters = vongher_counters(vongher_table(QUANTUM_SOURCE, n, rng(13)))
    per_d = n / 4
    for d, (ne, nu) in enumerate(zip(counters["n_e"], counters["n_u"])):
        p_u = math.cos(d * math.pi / 16) ** 2
        assert abs(nu - per_d * p_u) < 5 * math.sqrt(per_d)
        assert abs(ne - per_d * (1 - p_u)) < 5 * math.sqrt(per_d)
    assert bell_counter_test(counters)["violated"]
    # counter CHSH concentrates on 1 + cos(pi/8) + cos(pi/4) - cos(3pi/8)
    want = 1 + math.cos(math.pi / 8) + math.cos(math.pi / 4) - math.cos(3 * math.pi / 8)
    s = chsh_from_counters(counters)["s_value"]
    assert s == pytest.approx(want, abs=0.1)
    assert s > CHSH_BOUND


def test_vongher_run_rejects_unknown_source():
    with pytest.raises(ValueError):
        vongher_table("classical", 10, rng(14))
    with pytest.raises(ValueError):
        vongher_campaign("classical", 1, 10, RngStream(14))


def test_vongher_run_scores_its_table():
    # row i holds the counters of vongher_table on stream.child(i) and
    # both verdicts on them: this pins the draw order of the campaign
    stream = RngStream(15)
    for source in (QUANTUM_SOURCE, missing_pairs(0.1)):
        results, rows = vongher_campaign(source, runs=8, n_pairs=500,
                                         stream=stream)
        assert results["runs"] == len(rows) == 8
        for i, row in enumerate(rows):
            table = vongher_table(source, 500, stream.child(i).generator())
            assert table.counts.sum() == 500
            counters = vongher_counters(table)
            bell = bell_counter_test(counters)
            s = chsh_from_counters(counters)["s_value"]
            violated = s is not None and s > CHSH_BOUND
            assert len(row) == len(VONGHER_FIELDS)
            assert row == (i, bell["lhs"], bell["rhs"], int(bell["violated"]), s,
                           int(violated), *counters["n_e"], *counters["n_u"])
        assert results["chsh_violations"] == sum(row[5] for row in rows)
        assert results["bell_violations"] == sum(row[3] for row in rows)


def test_strict_campaign_never_violates():
    results, _ = vongher_campaign(strict(), runs=30, n_pairs=400,
                                  stream=RngStream(16))
    assert results["bell_violations"] == 0
    assert results["chsh_violations"] == 0


def test_boundary_campaign_hovers_near_half():
    results, _ = vongher_campaign(missing_pairs(0.1), runs=60, n_pairs=800,
                                  stream=RngStream(17))
    assert 0.2 < results["bell_violation_rate"] < 0.8


def test_partial_anticorr_campaign_violates_often():
    results, _ = vongher_campaign(partial_anticorr(0.87), runs=60, n_pairs=800,
                                  stream=RngStream(18))
    assert results["bell_violation_rate"] > 0.7


def test_partial_anticorr_disagreement_rate():
    table = generate_tennis_balls(20_000, partial_anticorr(0.87), rng(19))
    assert abs(np.mean(table.a0 != table.b0) - 0.87) < 0.01


# ---------------------------------------------------------------------------
# count tables drawn directly against the per-record samplers

SLOT = {v: k for k, v in enumerate(OUTCOMES)}
BALL_VARIANTS = (strict(), missing_pairs(0.1), partial_anticorr(0.87),
                 BallVariant(q=0.3, p_a3_flip=0.2, p_b2_flip=0.7, p_drop=0.25))


def ball_law(variant):
    """Cell law from generate_tennis_balls' bits: B0 uniform, then the
    A0, A3 and B2 flips against B0 and the drop, read by measure_balls."""
    law = np.zeros((2, 2, 3, 3))
    chances = (0.5, variant.q, variant.p_a3_flip, variant.p_b2_flip,
               variant.p_drop)
    for bits in itertools.product((0, 1), repeat=5):
        p = math.prod(c if bit else 1.0 - c for c, bit in zip(chances, bits))
        b0, fa0, fa3, fb2, drop = bits
        balls = BallTable(*(np.array([v], dtype=np.int8)
                            for v in (b0 ^ fa0, b0 ^ fa3, b0, b0 ^ fb2)),
                          prepared=np.array([not drop]))
        for (ix, x), (iy, y) in itertools.product(enumerate(SETTINGS_A),
                                                  enumerate(SETTINGS_B)):
            a, b = measure_balls(balls, [x], [y])
            law[ix, iy, SLOT[int(a[0])], SLOT[int(b[0])]] += p / 4
    return law


def singlet_law():
    """Cell law from singlet_pairs at label x pi/8: side A a fair sign,
    side B its negation with probability (1 + cos(theta_a - theta_b)) / 2."""
    law = np.zeros((2, 2, 3, 3))
    for (ix, x), (iy, y) in itertools.product(enumerate(SETTINGS_A),
                                              enumerate(SETTINGS_B)):
        p_anti = (1.0 + math.cos((x - y) * VONGHER_ANGLE_UNIT)) / 2.0
        for a, anti in itertools.product((1, -1), (True, False)):
            b = -a if anti else a
            law[ix, iy, SLOT[a], SLOT[b]] += (p_anti if anti else 1 - p_anti) / 8
    return law


@pytest.mark.parametrize("variant", BALL_VARIANTS, ids=lambda v: repr(v))
def test_ball_cell_probs_equal_the_bit_law(variant):
    np.testing.assert_allclose(vongher_cell_probs(variant), ball_law(variant),
                               rtol=0, atol=1e-15)


def test_quantum_cell_probs_equal_the_singlet_law():
    np.testing.assert_allclose(vongher_cell_probs(QUANTUM_SOURCE),
                               singlet_law(), rtol=0, atol=1e-15)


def test_cell_probs_reject_unknown_source():
    with pytest.raises(ValueError):
        vongher_cell_probs("classical")


def assert_means_agree(drawn, oracle):
    """Per-cell mean counts of two samples of runs agree within 4 SE."""
    drawn, oracle = np.asarray(drawn, float), np.asarray(oracle, float)
    se = np.sqrt(drawn.var(axis=0, ddof=1) / len(drawn)
                 + oracle.var(axis=0, ddof=1) / len(oracle))
    gap = np.abs(drawn.mean(axis=0) - oracle.mean(axis=0))
    assert np.all(gap <= 4 * se), (gap, se)


def group_counts(est):
    """Equal and unequal counts per setting group of an all-coincident
    chsh estimate: n (1 + e) / 2 and n (1 - e) / 2."""
    return [round(n * (1 + s * e) / 2) for e, n in
            zip(est["terms"].values(), est["sizes"]) for s in (1, -1)]


def test_gill_tables_match_per_record_oracle():
    dist = InstructionDist(tuple(np.random.default_rng(21).dirichlet([1] * 16)))
    drawn, oracle = [], []
    for i in range(400):
        table = gill_table(dist, 200, RngStream(22, (0, i)).generator())
        assert table.counts.sum() == 200 and table.counts.shape == (2, 2, 3, 3)
        assert (table.labels_a, table.labels_b) == ((0, 1), (0, 1))
        drawn.append(group_counts(chsh(table)))
        r = RngStream(22, (1, i)).generator()
        oracle.append(group_counts(gill_subsample(
            generate_cfd_spreadsheet(200, dist, r), r)))
    assert_means_agree(drawn, oracle)


@pytest.mark.parametrize("source", BALL_VARIANTS + (QUANTUM_SOURCE,),
                         ids=lambda v: repr(v))
def test_ball_tables_match_per_record_oracle(source):
    drawn, oracle = [], []
    for i in range(400):
        table = vongher_table(source, 200, RngStream(23, (0, i)).generator())
        assert (table.labels_a, table.labels_b) == (SETTINGS_A, SETTINGS_B)
        drawn.append(table.counts.ravel())
        trials = vongher_trials(source, 200, RngStream(23, (1, i)).generator())
        table = tabulate(trials, SETTINGS_A, SETTINGS_B)
        assert (table.labels_a, table.labels_b) == (SETTINGS_A, SETTINGS_B)
        oracle.append(table.counts.ravel())
    assert_means_agree(drawn, oracle)
