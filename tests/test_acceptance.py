"""End-to-end acceptance gate.

test_claim runs every target of the claims table, the one behind
`bell-lab reproduce`, at the gate's own seed: its bounds are the table's
and its streams differ from reproduce's default, so each claim holds on
two independent seeds.  The other tests cover what the table does not:
oracles and deterministic bounds.  Each prints its lines, then asserts.
Seeds are frozen so the whole gate is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from bell_lab import bellgame, claims, estimators, randi, sources, stats
from bell_lab.core import RngStream

SEED = 108


def stream(c: int) -> RngStream:
    return RngStream(SEED, (c,))


def report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


@pytest.mark.parametrize("name", list(claims.TARGETS))
def test_claim(capsys, name):
    t0 = time.time()
    with capsys.disabled():
        print()
        checks = claims.run(name, SEED)
    elapsed = time.time() - t0
    limit = claims.TARGETS[name].seconds
    assert all(c["passed"] for c in checks), name
    assert limit is None or elapsed < limit, f"{name} took {elapsed:.1f}s"


def test_criterion_2_smeared_law(capsys):
    # independent oracle for the smeared claim's target: average the
    # singlet correlation over both uniform jitter draws by double quadrature
    w = claims.SMEAR_WIDTH
    quad, _ = integrate.dblquad(lambda jb, ja: -math.cos(ja - jb),
                                -w, w, -w, w)
    oracle = quad / (2 * w) ** 2
    closed = claims.TARGETS["smeared"].checks[0][1].target
    report(capsys, 2, abs(oracle - closed) < 1e-12,
           f"smeared law: quadrature oracle {oracle:.12f} equals the "
           f"closed form {closed:.12f} to 1e-12")


def test_criterion_4_deterministic_bounds(capsys):
    n = 10_000
    rng = stream(4).generator()

    # every spreadsheet row combination is +-2
    sheet = sources.generate_cfd_spreadsheet(
        n, sources.InstructionDist.uniform(), rng)
    combos = sheet.row_combinations()
    bad_rows = int(np.sum(~np.isin(combos, (2, -2))))

    # full-table CHSH of any instruction mix stays within the bound
    bad_tables = 0
    for _ in range(n):
        p = rng.dirichlet(np.ones(16))
        small = sources.generate_cfd_spreadsheet(
            16, sources.InstructionDist(tuple(p)), rng)
        if abs(float(small.row_combinations().mean())) > 2.0:
            bad_tables += 1

    # counter inequality, counterfactually: with perfect d=0
    # anti-correlation, a3 disagreeing with b2 forces agreement at d=2
    # or disagreement at d=3, pair by pair
    table = sources.generate_tennis_balls(n, sources.strict(), rng)
    u1 = (table.a3 != table.b2).astype(int)
    e2 = (table.a0 == table.b2).astype(int)
    u3 = (table.a3 != table.b0).astype(int)
    bad_pairs = int(np.sum(u1 > e2 + u3))
    for a0 in (0, 1):  # exhaustive over the strict bit patterns too
        for a3 in (0, 1):
            for b2 in (0, 1):
                b0 = 1 - a0
                if (a3 != b2) > (a0 == b2) + (a3 != b0):
                    bad_pairs += 1
    agg_ok = u1.sum() <= e2.sum() + u3.sum()

    # counterfactual J is non-negative row by row and in total
    cols = [rng.choice(np.array([1, -1, 0]), size=n) for _ in range(4)]
    a1, a2, b1, b2 = cols
    j_rows = (((a1 == 1) & (b2 == -1)).astype(int)
              + ((a1 == 1) & (b2 == 0)) + ((a2 == -1) & (b1 == 1))
              + ((a2 == 0) & (b1 == 1)) + ((a2 == 1) & (b2 == 1))
              - ((a1 == 1) & (b1 == 1)))
    bad_j = int(np.sum(j_rows < 0))
    total = estimators.eberhard_j(estimators.eberhard_counterfactual(*cols))
    j_consistent = total == int(j_rows.sum()) and total >= 0

    ok = (bad_rows == 0 and bad_tables == 0 and bad_pairs == 0 and agg_ok
          and bad_j == 0 and j_consistent)
    report(capsys, 4, ok,
           f"deterministic bounds over {n} instances each: "
           f"rows off +-2: {bad_rows}, full-table |S|>2: {bad_tables}, "
           f"counter-inequality violations: {bad_pairs}, J<0 rows: {bad_j}")


def _marginal_gap(v0: np.ndarray, v1: np.ndarray):
    gap = abs(float(v0.mean()) - float(v1.mean()))
    sd = math.sqrt(v0.var() / v0.size + v1.var() / v1.size)
    return gap / sd if sd > 0 else 0.0


def test_criterion_8_no_signaling(capsys):
    n = 100_000
    zs = {}

    k = iter(range(100))

    def batch_singlet(ta, tb):
        return sources.singlet_pairs(ta, tb, n, stream(8).child(next(k)).generator())

    a0, _ = batch_singlet(0.0, math.pi / 4)
    a1, _ = batch_singlet(0.0, 3 * math.pi / 4)
    zs["singlet a|B"] = _marginal_gap(a0, a1)
    _, b0 = batch_singlet(0.0, math.pi / 4)
    _, b1 = batch_singlet(math.pi / 2, math.pi / 4)
    zs["singlet b|A"] = _marginal_gap(b0, b1)

    w = math.pi / 8

    def batch_smeared(ta, tb):
        return sources.smeared_pairs(sources.AngleJitter(ta, w),
                                     sources.AngleJitter(tb, w), n,
                                     stream(8).child(next(k)).generator())

    a0, _ = batch_smeared(0.0, math.pi / 4)
    a1, _ = batch_smeared(0.0, 3 * math.pi / 4)
    zs["smeared a|B"] = _marginal_gap(a0, a1)
    _, b0 = batch_smeared(0.0, math.pi / 4)
    _, b1 = batch_smeared(math.pi / 2, math.pi / 4)
    zs["smeared b|A"] = _marginal_gap(b0, b1)

    params = sources.ContextualParams()

    def batch_ctx(x, y):
        return sources.contextual_batch(x, y, n, params,
                                        stream(8).child(next(k)).generator())

    a0, _ = batch_ctx(0, 0)
    a1, _ = batch_ctx(0, 1)
    zs["contextual a|B"] = _marginal_gap(a0, a1)
    zs["contextual fire a|B"] = _marginal_gap((a0 != 0).astype(float),
                                              (a1 != 0).astype(float))
    _, b0 = batch_ctx(0, 1)
    _, b1 = batch_ctx(1, 1)
    zs["contextual b|A"] = _marginal_gap(b0, b1)

    for name, variant in (("strict", sources.strict()),
                          ("missing", sources.missing_pairs()),
                          ("partial", sources.partial_anticorr(0.87))):
        rng = stream(8).child(next(k)).generator()
        sa, sb = randi.draw_vongher_settings(n, rng)
        table = sources.generate_tennis_balls(n, variant, rng)
        a, b = randi.measure_balls(table, sa, sb)
        zs[f"balls-{name} a|B"] = _marginal_gap(a[sb == 0], a[sb == 2])
        zs[f"balls-{name} b|A"] = _marginal_gap(b[sa == 0], b[sa == 3])

    rng = stream(8).child(next(k)).generator()
    sa, sb = randi.draw_vongher_settings(n, rng)
    a, b = sources.singlet_pairs(sa * randi.VONGHER_ANGLE_UNIT,
                                 sb * randi.VONGHER_ANGLE_UNIT, n, rng)
    zs["quantum-balls a|B"] = _marginal_gap(a[sb == 0], a[sb == 2])
    zs["quantum-balls b|A"] = _marginal_gap(b[sa == 0], b[sa == 3])

    res = bellgame.play_game(bellgame.QuantumStrategy(), n,
                             stream(8).child(next(k)).generator())
    zs["game a|y"] = _marginal_gap(res.a[res.y == 0], res.a[res.y == 1])
    zs["game b|x"] = _marginal_gap(res.b[res.x == 0], res.b[res.x == 1])

    worst_name = max(zs, key=zs.get)
    worst = zs[worst_name]
    report(capsys, 8, worst <= 4.0,
           f"no-signaling: worst marginal gap {worst:.2f} sigma "
           f"({worst_name}) across {len(zs)} checks at N={n}, limit 4")


def test_criterion_9_contextual_model(capsys):
    t0 = time.time()
    params = sources.ContextualParams()

    # flipping the far setting on a fixed stream never changes the near record
    a0, _ = sources.contextual_batch(0, 0, 200_000, params,
                                     stream(90).generator())
    a1, _ = sources.contextual_batch(0, 1, 200_000, params,
                                     stream(90).generator())
    _, b0 = sources.contextual_batch(0, 1, 200_000, params,
                                     stream(91).generator())
    _, b1 = sources.contextual_batch(1, 1, 200_000, params,
                                     stream(91).generator())
    replay = np.array_equal(a0, a1) and np.array_equal(b0, b1)

    # post-selected CHSH against the quadrature oracle of the model law
    def e_ps(theta_x, theta_y):
        def weight(phi):
            cx = math.cos(2 * (phi - theta_x))
            cy = math.cos(2 * (phi - theta_y))
            return (abs(cx) * abs(cy)) ** (1.0 / params.gamma)

        def signed(phi):
            cx = math.cos(2 * (phi - theta_x))
            cy = math.cos(2 * (phi - theta_y))
            return math.copysign(1, cx) * -math.copysign(1, cy) * \
                (abs(cx) * abs(cy)) ** (1.0 / params.gamma)

        num, _ = integrate.quad(signed, 0, 2 * math.pi, limit=200)
        den, _ = integrate.quad(weight, 0, 2 * math.pi, limit=200)
        return num / den

    oracle = sum(sign * e_ps(params.angles_a[x], params.angles_b[y])
                 for (x, y), sign in (((0, 0), 1), ((0, 1), 1),
                                      ((1, 0), 1), ((1, 1), -1)))
    elapsed = time.time() - t0
    ok = replay and abs(oracle - claims.CONTEXTUAL_S) < 1e-9 and elapsed < 120.0
    report(capsys, 9, ok,
           f"contextual: replay exact {replay}; quadrature oracle of the "
           f"post-selected S {oracle:.10f} equals the claims table's "
           f"{claims.CONTEXTUAL_S:.10f} to 1e-9 ({elapsed:.1f}s)")


def test_criterion_10_stats_machinery(capsys):
    # p-value calibration under an i.i.d. null: empirical CDF at every
    # decile within 10 points of the decile itself
    reps = 1000
    worst_dev = 0.0
    for method, maker in (("ks", lambda r: r.normal(size=400)),
                          ("runs", lambda r: r.normal(size=400)),
                          ("chi_square", lambda r: r.integers(0, 6, size=600))):
        ps = np.array([stats.homogeneity_test(
            maker(RngStream(1234, (i,)).generator()), method)["p_value"]
            for i in range(reps)])
        for d in np.arange(0.1, 1.0, 0.1):
            worst_dev = max(worst_dev, abs(float(np.mean(ps <= d)) - d))
    report(capsys, 10, worst_dev <= 0.10,
           f"stats: calibration worst decile dev {worst_dev:.3f} <= 0.10 "
           f"({reps} reps)")
