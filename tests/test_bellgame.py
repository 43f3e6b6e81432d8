import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bell_lab.bellgame import (INPUT_PAIRS, PERFECT_SCRIPT, PROGRAM_IDS,
                               QUANTUM_POINT_PROB, ContextualProgramStrategy,
                               FixedProgramStrategy, GameResult,
                               QuantumStrategy, RandomProgramStrategy,
                               ScriptedStrategy, counterfactual_table,
                               is_point, play_game, program_output)
from bell_lab import bellgame
from bell_lab.cli import main
from bell_lab.core import RngStream
from peak_memory import peak_bytes_per_item


def rng(seed=0):
    return RngStream(seed).generator()


# ---------------------------------------------------------------------------
# programs and the counterfactual table

def test_program_outputs():
    assert [program_output(1, x) for x in (0, 1)] == [0, 0]
    assert [program_output(2, x) for x in (0, 1)] == [1, 1]
    assert [program_output(3, x) for x in (0, 1)] == [0, 1]
    assert [program_output(4, x) for x in (0, 1)] == [1, 0]
    with pytest.raises(ValueError):
        program_output(5, 0)
    with pytest.raises(ValueError):
        program_output(1, 2)


def test_is_point_rule():
    assert is_point(0, 0, 0, 0)       # sum even, product 0
    assert not is_point(0, 0, 0, 1)
    assert is_point(1, 1, 0, 1)       # sum odd, product 1
    assert not is_point(1, 1, 1, 1)


def test_counterfactual_table_scores():
    table = counterfactual_table()
    assert {k: v.shape for k, v in table.items()} == {
        "i": (16,), "j": (16,), "a": (16, 4), "b": (16, 4), "score": (16,)}
    assert set(zip(table["i"].tolist(), table["j"].tolist())) == {
        (i, j) for i in PROGRAM_IDS for j in PROGRAM_IDS}
    scores = table["score"].tolist()
    # no committed program pair wins all four input pairs
    assert max(scores) == 3
    assert set(scores) == {1, 3}
    assert scores.count(3) == 8
    assert sum(scores) == 32
    for i, j, a, b, score in zip(*(table[k].tolist() for k in table)):
        assert a == [program_output(i, x) for x, _ in INPUT_PAIRS]
        assert b == [program_output(j, y) for _, y in INPUT_PAIRS]
        assert score == sum(is_point(x, y, program_output(i, x),
                                     program_output(j, y))
                            for x, y in INPUT_PAIRS)


def test_perfect_script_rows_win_their_own_round():
    table = counterfactual_table()
    row = {ij: k for k, ij in enumerate(zip(table["i"].tolist(),
                                            table["j"].tolist()))}
    assert {(x, y) for _, _, x, y in PERFECT_SCRIPT} == set(INPUT_PAIRS)
    for i, j, x, y in PERFECT_SCRIPT:
        k, col = row[(i, j)], INPUT_PAIRS.index((x, y))
        assert is_point(x, y, table["a"][k, col], table["b"][k, col])
        # it still loses one of its counterfactual rounds
        assert table["score"][k] == 3


# ---------------------------------------------------------------------------
# strategies

# the four input pairs as two columns
XS, YS = (np.array(c) for c in zip(*INPUT_PAIRS))


def test_fixed_strategy_replays_the_table():
    table = counterfactual_table()
    for k, (ti, tj) in enumerate(zip(table["i"].tolist(), table["j"].tolist())):
        i, j, a, b = FixedProgramStrategy(ti, tj).answers(XS, YS, rng())
        assert i.tolist() == [ti] * 4 and j.tolist() == [tj] * 4
        assert a.tolist() == table["a"][k].tolist()
        assert b.tolist() == table["b"][k].tolist()
    with pytest.raises(ValueError):
        FixedProgramStrategy(0, 1)


def test_program_strategies_answer_with_their_programs():
    # whatever programs a strategy picks, its answers are theirs
    for strat in (RandomProgramStrategy(), ContextualProgramStrategy(0.25),
                  ScriptedStrategy(PERFECT_SCRIPT)):
        res = play_game(strat, 400, rng(9))
        assert set(res.i.tolist()) <= set(PROGRAM_IDS)
        assert res.a.tolist() == [program_output(i, x) for i, x in
                                  zip(res.i.tolist(), res.x.tolist())]
        assert res.b.tolist() == [program_output(j, y) for j, y in
                                  zip(res.j.tolist(), res.y.tolist())]


def test_fixed_strategy_average_tracks_its_score():
    res = play_game(FixedProgramStrategy(1, 1), 4000, rng(1))
    assert res.avg_score == pytest.approx(3.0, abs=0.15)


def test_scripted_strategy_cycles_and_scores_perfectly():
    res = play_game(ScriptedStrategy(PERFECT_SCRIPT), 8, rng(2))
    assert res.points == 8
    assert res.avg_score == 4.0
    script = np.array(PERFECT_SCRIPT * 2)
    assert res.x.tolist() == script[:, 2].tolist()
    assert res.y.tolist() == script[:, 3].tolist()
    assert res.i.tolist() == script[:, 0].tolist()
    assert res.j.tolist() == script[:, 1].tolist()


@pytest.mark.parametrize("script", [(), ((5, 1, 0, 0),), ((1, 1, 2, 0),),
                                    ((1, 1, 0),)])
def test_scripted_strategy_rejects_bad_rows(script):
    with pytest.raises(ValueError):
        ScriptedStrategy(script)


def test_random_strategy_averages_two():
    res = play_game(RandomProgramStrategy(), 20_000, rng(3))
    assert res.avg_score == pytest.approx(2.0, abs=0.06)


def test_contextual_strategy_wobble():
    with pytest.raises(ValueError):
        ContextualProgramStrategy(wobble=1.5)
    # zero wobble: both sides decode the same program
    res = play_game(ContextualProgramStrategy(wobble=0.0), 500, rng(4))
    assert np.array_equal(res.i, res.j)
    res = play_game(ContextualProgramStrategy(0.25), 5000, rng(5))
    assert res.avg_score <= 3.0 + 0.15  # shared randomness cannot beat programs


def test_quantum_strategy_point_rate():
    res = play_game(QuantumStrategy(), 20_000, rng(6))
    assert res.i is None and res.j is None  # it runs no programs
    assert res.avg_score == pytest.approx(4 * QUANTUM_POINT_PROB, abs=0.05)
    assert res.avg_score == pytest.approx(2 + math.sqrt(2), abs=0.05)
    # answers stay uniform on side A
    assert res.a.mean() == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# game bookkeeping

def test_game_result_bookkeeping():
    res = play_game(RandomProgramStrategy(), 200, rng(7))
    assert res.rounds_played == 200
    assert all(len(c) == 200 for c in (res.x, res.y, res.i, res.j, res.a,
                                       res.b, res.point))
    assert res.point.tolist() == [is_point(*r) for r in zip(
        res.x.tolist(), res.y.tolist(), res.a.tolist(), res.b.tolist())]
    assert res.points == sum(res.point.tolist())
    assert set(res.x.tolist()) == set(res.y.tolist()) == {0, 1}
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError):
        GameResult(empty, empty, None, None, empty, empty).avg_score
    with pytest.raises(ValueError):
        play_game(RandomProgramStrategy(), -1, rng())


def test_game_deterministic_under_stream():
    for strat in (RandomProgramStrategy(), ContextualProgramStrategy(0.25),
                  QuantumStrategy()):
        r1 = play_game(strat, 500, rng(8))
        r2 = play_game(strat, 500, rng(8))
        for name in ("x", "y", "i", "j", "a", "b"):
            c1, c2 = getattr(r1, name), getattr(r2, name)
            assert (c1 is c2 is None) or np.array_equal(c1, c2), name


# ---------------------------------------------------------------------------
# int8 columns against the int64 bodies

OUTPUTS_INT64 = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=np.int64)


def run_int64(i, j, x, y):
    return i, j, OUTPUTS_INT64[i - 1, x], OUTPUTS_INT64[j - 1, y]


def answers_int64(strategy, x, y, rng):
    """Each strategy's answers through int64 columns: the oracle of the
    int8 ones."""
    if isinstance(strategy, FixedProgramStrategy):
        return run_int64(np.full(len(x), strategy.i),
                         np.full(len(y), strategy.j), x, y)
    if isinstance(strategy, RandomProgramStrategy):
        return run_int64(rng.integers(1, 5, size=len(x)),
                         rng.integers(1, 5, size=len(y)), x, y)
    if isinstance(strategy, ScriptedStrategy):
        i, j = (np.resize(c, len(x))
                for c in strategy.script.astype(np.int64)[:, :2].T)
        return run_int64(i, j, x, y)
    if isinstance(strategy, ContextualProgramStrategy):
        u = rng.random(len(x))
        na = rng.random(len(x))
        nb = rng.random(len(x))
        i, j = (1 + (4.0 * ((u + strategy.wobble * n) % 1.0)).astype(np.int64) % 4
                for n in (na, nb))
        return run_int64(i, j, x, y)
    a = rng.integers(0, 2, size=len(x))
    lose = rng.random(len(x)) >= QUANTUM_POINT_PROB
    return None, None, a, (x * y - a + lose) % 2


def play_game_int64(strategy, rounds, rng):
    """play_game with int64 columns throughout."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if isinstance(strategy, ScriptedStrategy):
        x, y = (np.resize(c, rounds)
                for c in strategy.script.astype(np.int64)[:, 2:].T)
    else:
        x = rng.integers(0, 2, size=rounds)
        y = rng.integers(0, 2, size=rounds)
    return GameResult(x, y, *answers_int64(strategy, x, y, rng))


SCRIPT_ROWS = st.tuples(st.sampled_from(PROGRAM_IDS), st.sampled_from(PROGRAM_IDS),
                        st.integers(0, 1), st.integers(0, 1))
STRATEGIES = st.one_of(
    st.builds(FixedProgramStrategy, st.sampled_from(PROGRAM_IDS),
              st.sampled_from(PROGRAM_IDS)),
    st.builds(RandomProgramStrategy),
    st.builds(ScriptedStrategy, st.lists(SCRIPT_ROWS, min_size=1, max_size=6)),
    st.builds(ContextualProgramStrategy, st.floats(0.0, 1.0)),
    st.builds(QuantumStrategy))


@settings(max_examples=150, deadline=None)
@given(strategy=STRATEGIES, seed=st.integers(0, 2**32),
       rounds=st.one_of(st.integers(0, 9), st.just(20_000)))
def test_int8_games_equal_the_int64_ones(strategy, seed, rounds):
    r_got, r_want = rng(seed), rng(seed)
    got = play_game(strategy, rounds, r_got)
    want = play_game_int64(strategy, rounds, r_want)
    for name in ("x", "y", "i", "j", "a", "b"):
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None, name
        else:
            assert g.dtype == np.int8 and g.tolist() == w.tolist(), name
    assert got.point.tolist() == want.point.tolist()
    assert got.points == want.points
    if rounds:
        assert got.avg_score == want.avg_score
    assert r_got.bit_generator.state == r_want.bit_generator.state


@pytest.mark.parametrize("argv", [
    ["--strategy", "fixed", "--i", "3", "--j", "4"], ["--strategy", "random"],
    ["--strategy", "scripted"], ["--strategy", "contextual", "--wobble", "0.4"],
    ["--strategy", "quantum"]])
def test_rounds_csv_bytes_equal_the_int64_ones(capsys, tmp_path, argv):
    argv = ["bellgame", *argv, "--rounds", "3001", "--seed", "9"]
    assert main([*argv, "--out", str(tmp_path / "int8")]) == 0
    with mock.patch.object(bellgame, "play_game", play_game_int64):
        assert main([*argv, "--out", str(tmp_path / "int64")]) == 0
    capsys.readouterr()
    for name in ("rounds.csv", "summary.json"):
        assert ((tmp_path / "int8" / name).read_bytes()
                == (tmp_path / "int64" / name).read_bytes())


@pytest.mark.parametrize("strategy", [RandomProgramStrategy(), QuantumStrategy()])
def test_game_peak_memory_per_round(strategy):
    # six int8 columns and int8 or bool temporaries a round, plus one
    # int64 or float64 draw while it is cast: 12 bytes; int64 columns
    # take 56 (random) and 41 (quantum)
    n = 200_000
    assert peak_bytes_per_item(lambda: play_game(strategy, n, rng(5)), n) <= 24
