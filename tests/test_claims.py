import pytest

from bell_lab import claims
from bell_lab.claims import Bound, Target
from bell_lab.cli import main

CHECK_NAMES = [
    "singlet-law", "singlet-marginal", "smeared-law", "pairing-offsets",
    "pairing-random", "spreadsheet-bound", "gill-uniform", "gill-boundary",
    "vongher-strict", "vongher-boundary", "vongher-partial",
    "vongher-quantum-bell", "vongher-quantum-chsh", "bellgame-table-max",
    "bellgame-script", "bellgame-random", "bellgame-quantum",
    "contextual-chsh", "contextual-coincidence", "chebyshev-2sem",
    "chebyshev-45sem", "breakdown-per-run", "breakdown-pooled",
    "breakdown-homogeneity",
]


def test_table_holds_every_target_and_check_in_order():
    assert list(claims.TARGETS) == [
        "singlet", "smeared", "pairing", "spreadsheet", "gill-uniform",
        "gill-boundary", "vongher-strict", "vongher-boundary",
        "vongher-partial", "vongher-quantum", "bellgame", "contextual",
        "chebyshev", "breakdown"]
    names = [c[0] for t in claims.TARGETS.values() for c in t.checks]
    assert names == CHECK_NAMES
    for t in claims.TARGETS.values():
        for _, *bounds in t.checks:
            assert bounds and all(isinstance(b, Bound) for b in bounds)


def test_two_sided_bound_is_inclusive_and_elementwise():
    assert Bound("+-", 0.5, 0.25).holds(0.75)
    assert not Bound("+-", 0.5, 0.25).holds(0.7500001)
    assert Bound("+-", [1, 3]).holds([1, 3])
    assert not Bound("+-", [1, 3]).holds([1, 2])
    assert not Bound("+-", [1, 3]).holds([1, 3, 3])  # shape must match
    assert not Bound("+-", (0.0, 0.0)).holds(0.0)


def test_one_sided_limits_keep_their_strictness():
    assert not Bound("<", 2.0).holds(2.0) and Bound("<", 2.0).holds(1.99)
    assert Bound("<=", 2.0).holds(2.0) and not Bound("<=", 2.0).holds(2.01)
    assert Bound(">=", 3).holds(3) and not Bound(">=", 3).holds(2)
    assert str(Bound("<", 1e-6)) == "<1e-06"
    assert str(Bound("+-", 0.5, 0.1)) == "0.5+-0.1"


def draw(n, stream):
    return (float(stream.generator().random()),)


FAKE = {name: Target(name, 1, draw, ((f"{name}-draw", Bound("+-", 0.5, 0.5)),))
        for name in ("first", "second", "third")}


def test_a_target_line_is_the_same_alone_or_in_all(capsys, monkeypatch):
    monkeypatch.setattr(claims, "TARGETS", FAKE)
    assert main(["reproduce", "--seed", "4"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("[")]
    # three targets, three streams: no two measure the same draw
    assert len({ln.split("measured=")[1] for ln in lines}) == 3
    for name, line in zip(FAKE, lines):
        assert main(["reproduce", "--seed", "4", "--target", name]) == 0
        alone = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("[")]
        assert alone == [line]


def test_a_failed_check_prints_fail_and_exits_1(capsys, monkeypatch):
    failing = Target("first", 1, draw, (("first-draw", Bound("<", 0.0)),))
    monkeypatch.setattr(claims, "TARGETS", {"first": failing})
    assert main(["reproduce"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] first-draw:" in out and '"passed": 0' in out


def test_a_check_record_carries_its_bounds_and_n():
    rec = claims.check("x", 0.3, (Bound("+-", 0.25, 0.1), Bound(">=", 0.0)), 7)
    assert rec == {"name": "x", "measured": 0.3, "n": 7, "passed": True,
                   "bounds": [{"op": "+-", "target": 0.25, "tol": 0.1},
                              {"op": ">=", "target": 0.0, "tol": 0.0}]}


def test_measure_must_return_one_value_per_check(monkeypatch):
    two = Target("first", 1, lambda n, s: (1.0, 2.0),
                 (("only", Bound("+-", 1.0)),))
    monkeypatch.setattr(claims, "TARGETS", {"first": two})
    with pytest.raises(ValueError):
        claims.run("first", 0)
