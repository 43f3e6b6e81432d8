import math

import numpy as np
import pytest

from bell_lab.core import RngStream
from bell_lab.estimators import vongher_counters
from bell_lab.randi import (CHSH_BOUND, CampaignReport, draw_vongher_settings,
                            gill_campaign, gill_subsample, measure_balls,
                            QUANTUM_SOURCE, qrc_win_bound, vongher_campaign,
                            vongher_run, vongher_trials)
from bell_lab.sources import (BallTable, InstructionDist, generate_cfd_spreadsheet,
                              generate_tennis_balls, missing_pairs,
                              partial_anticorr, strict)


def rng(seed=0):
    return RngStream(seed).generator()


# ---------------------------------------------------------------------------
# coin-subsample protocol

def test_subsample_groups_are_disjoint_and_exhaustive():
    sheet = generate_cfd_spreadsheet(500, InstructionDist.uniform(), rng(1))
    est = gill_subsample(sheet, rng(2))
    assert sum(est.sizes) == 500


def test_subsample_point_mass_all_plus():
    # constant rows make every group correlation exactly +1, so the
    # subsampled s sits exactly on the bound
    sheet = generate_cfd_spreadsheet(
        200, InstructionDist.point_mass((1, 1, 1, 1)), rng(3))
    est = gill_subsample(sheet, rng(4))
    assert est.s_value == CHSH_BOUND


def test_subsample_deterministic():
    sheet = generate_cfd_spreadsheet(300, InstructionDist.uniform(), rng(5))
    s1 = gill_subsample(sheet, rng(6)).s_value
    s2 = gill_subsample(sheet, rng(6)).s_value
    assert s1 == s2


def test_qrc_win_bound_value():
    assert qrc_win_bound(1000) == pytest.approx(0.5 + 3 * math.sqrt(0.25 / 1000))
    assert qrc_win_bound(4) == pytest.approx(1.25)  # unreachable by design


def test_gill_campaign_report_shape():
    rep = gill_campaign(InstructionDist.uniform(), n_rows=400, runs=40,
                        stream=RngStream(7))
    assert rep.runs == 40
    assert len(rep.per_run) == 40
    assert rep.qrc_bound == pytest.approx(qrc_win_bound(40))
    assert rep.chsh_violations == sum(1 for r in rep.per_run if r["violated"])
    assert isinstance(rep.qrc_won, bool)
    d = rep.to_dict()
    assert d["runs"] == 40 and len(d["per_run"]) == 40


def test_gill_campaign_thread_invariant():
    kw = dict(dist=InstructionDist.uniform(), n_rows=200, runs=16,
              stream=RngStream(8))
    serial = gill_campaign(threads=1, **kw)
    pooled = gill_campaign(threads=4, **kw)
    assert [r["s_value"] for r in serial.per_run] == \
        [r["s_value"] for r in pooled.per_run]


def test_campaign_report_optional_fields():
    rep = CampaignReport(runs=10, chsh_violations=5, per_run=())
    assert rep.chsh_violation_rate == 0.5
    assert rep.bell_violation_rate is None
    assert rep.qrc_won is None


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
    run = vongher_run(strict(), 2000, rng(12))
    assert run.counters.n_e[0] == 0
    assert run.counters.n_u[0] > 0
    assert sum(run.counters.totals()) == 2000


def test_quantum_run_counters_near_expectations():
    # per distance the unequal fraction is cos^2(d * pi / 16), so at
    # n pairs each distance holds ~n/4 counts split accordingly
    n = 20_000
    run = vongher_run("quantum", n, rng(13))
    per_d = n / 4
    for d, (ne, nu) in enumerate(zip(run.counters.n_e, run.counters.n_u)):
        p_u = math.cos(d * math.pi / 16) ** 2
        assert abs(nu - per_d * p_u) < 5 * math.sqrt(per_d)
        assert abs(ne - per_d * (1 - p_u)) < 5 * math.sqrt(per_d)
    assert run.bell_violated
    # counter CHSH concentrates on 1 + cos(pi/8) + cos(pi/4) - cos(3pi/8)
    want = 1 + math.cos(math.pi / 8) + math.cos(math.pi / 4) - math.cos(3 * math.pi / 8)
    assert run.chsh.s_value == pytest.approx(want, abs=0.1)
    assert run.chsh_violated


def test_vongher_run_rejects_unknown_source():
    with pytest.raises(ValueError):
        vongher_run("classical", 10, rng(14))


def test_vongher_trials_match_run_counters():
    trials = vongher_trials(strict(), 500, rng(15))
    run = vongher_run(strict(), 500, rng(15))
    assert vongher_counters(trials) == run.counters


def test_strict_campaign_never_violates():
    rep = vongher_campaign(strict(), runs=30, n_pairs=400, stream=RngStream(16))
    assert rep.bell_violations == 0
    assert rep.chsh_violations == 0
    assert rep.qrc_bound is None


def test_boundary_campaign_hovers_near_half():
    rep = vongher_campaign(missing_pairs(0.1), runs=60, n_pairs=800,
                           stream=RngStream(17))
    assert 0.2 < rep.bell_violation_rate < 0.8


def test_partial_anticorr_campaign_violates_often():
    rep = vongher_campaign(partial_anticorr(0.87), runs=60, n_pairs=800,
                           stream=RngStream(18))
    assert rep.bell_violation_rate > 0.7


def test_partial_anticorr_disagreement_rate():
    table = generate_tennis_balls(20_000, partial_anticorr(0.87), rng(19))
    assert abs(np.mean(table.a0 != table.b0) - 0.87) < 0.01
