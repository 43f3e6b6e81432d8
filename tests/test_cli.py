import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import bell_lab
from bell_lab import sources
from bell_lab.cli import build_parser, main
import numpy as np

from bell_lab.core import Events, Trials, write_events, write_trials


def trials_of(*rows):
    """Trials from (setting_a, setting_b, a, b) rows."""
    return Trials(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    start = out.index("{")
    return code, json.loads(out[start:]), out[:start]


# ---------------------------------------------------------------------------
# parser-level behavior

def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "bell-lab" in capsys.readouterr().out


def test_unknown_choice_is_a_usage_error(capsys):
    assert main(["simulate", "--model", "everything"]) == 2


# ---------------------------------------------------------------------------
# simulate

def test_simulate_summary_shape(capsys, tmp_path):
    code, payload, _ = run(capsys, "simulate", "--model", "singlet",
                           "--n", "500", "--angles", "0,0",
                           "--out", str(tmp_path))
    assert code == 0
    assert payload["command"] == "simulate"
    assert payload["seed"] == 0 and payload["stream"] == 0
    assert payload["config"]["model"] == "singlet"
    assert payload["sizes"] == {"n": 500}
    assert payload["results"]["correlation"] == -1.0  # aligned analyzers
    for name in ("summary.json", "events_a.csv", "events_b.csv", "trials.csv"):
        assert (tmp_path / name).exists()
    assert json.loads((tmp_path / "summary.json").read_text()) == payload


def test_simulate_is_byte_reproducible(capsys, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run(capsys, "simulate", "--model", "contextual",
                         "--n", "400", "--x", "1", "--y", "0",
                         "--seed", "5", "--out", str(d))
        assert code == 0
    for name in ("events_a.csv", "events_b.csv", "trials.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_simulate_rejects_bad_sizes(capsys):
    assert main(["simulate", "--model", "singlet", "--n", "0"]) == 2
    assert main(["simulate", "--model", "singlet", "--angles", "1"]) == 2
    assert main(["simulate", "--model", "nonsense"]) == 2


# ---------------------------------------------------------------------------
# pair and estimate pipeline

def simulate_into(capsys, d, *extra):
    code, payload, _ = run(capsys, "simulate", "--model", "singlet",
                           "--n", "600", "--angles", "0,0",
                           "--out", str(d), *extra)
    assert code == 0
    return payload


def test_pipeline_pair_then_estimate(capsys, tmp_path):
    sim = simulate_into(capsys, tmp_path)
    code, paired, _ = run(capsys, "pair",
                          "--events-a", str(tmp_path / "events_a.csv"),
                          "--events-b", str(tmp_path / "events_b.csv"),
                          "--pairing", "systematic:1",
                          "--out", str(tmp_path / "paired"))
    assert code == 0
    assert paired["results"]["n_trials"] == 600
    code, est, _ = run(capsys, "estimate",
                       "--input", str(tmp_path / "paired" / "trials.csv"),
                       "--stat", "correlation")
    assert code == 0
    assert est["results"]["correlation"] == sim["results"]["correlation"]


def test_pair_window_and_random(capsys, tmp_path):
    simulate_into(capsys, tmp_path)
    for spec in ("window:0.5", "random:200"):
        code, payload, _ = run(capsys, "pair",
                               "--events-a", str(tmp_path / "events_a.csv"),
                               "--events-b", str(tmp_path / "events_b.csv"),
                               "--pairing", spec)
        assert code == 0
        assert payload["results"]["n_trials"] > 0


def test_pair_bad_spec(capsys, tmp_path):
    simulate_into(capsys, tmp_path)
    ea = str(tmp_path / "events_a.csv")
    eb = str(tmp_path / "events_b.csv")
    assert main(["pair", "--events-a", ea, "--events-b", eb,
                 "--pairing", "nearest:1"]) == 2
    assert main(["pair", "--events-a", ea, "--events-b", eb,
                 "--pairing", "systematic"]) == 2
    assert main(["pair", "--events-a", "/no/such/file", "--events-b", eb,
                 "--pairing", "systematic:1"]) == 2


def test_estimate_strict_exit_on_undefined(capsys, tmp_path):
    path = tmp_path / "trials.csv"
    write_trials(path, trials_of((0, 0, 1, -1), (0, 0, -1, 1)))
    # three of the four CHSH groups are empty
    code, payload, _ = run(capsys, "estimate", "--input", str(path),
                           "--stat", "chsh")
    assert code == 0
    assert payload["results"]["s_value"] is None
    code, payload, _ = run(capsys, "estimate", "--input", str(path),
                           "--stat", "chsh", "--strict")
    assert code == 3
    assert payload["results"]["s_value"] is None  # summary still emitted


def test_estimate_covariance_undefined(capsys, tmp_path):
    path = tmp_path / "trials.csv"
    write_trials(path, trials_of((0, 0, 0, 1), (0, 0, 0, -1)))
    code, payload, _ = run(capsys, "estimate", "--input", str(path),
                           "--stat", "covariance")
    assert code == 0 and payload["results"]["covariance"] is None
    assert main(["estimate", "--input", str(path), "--stat", "covariance",
                 "--strict"]) == 3


def test_estimate_counter_stats(capsys, tmp_path):
    path = tmp_path / "trials.csv"
    write_trials(path, trials_of((0, 0, 1, -1), (0, 2, 1, 1),
                                 (3, 2, 1, -1), (3, 0, -1, -1)))
    code, payload, _ = run(capsys, "estimate", "--input", str(path),
                           "--stat", "bell-counter")
    assert code == 0
    assert payload["results"]["lhs"] == 1
    code, payload, _ = run(capsys, "estimate", "--input", str(path),
                           "--stat", "counter-chsh")
    assert code == 0
    assert payload["results"]["s_value"] == pytest.approx(1.0 + 1.0 - 1.0 - (-1.0))


@pytest.mark.parametrize("stat", ["chsh", "eberhard"])
def test_estimate_rejects_a_repeated_setting_label(capsys, tmp_path, stat):
    path = tmp_path / "trials.csv"
    write_trials(path, trials_of((0, 1, 1, -1), (0, 1, -1, 1), (0, 1, 1, 1)))
    assert_one_line_error(capsys, ["estimate", "--input", str(path),
                                   "--stat", stat, "--a-labels", "0,0",
                                   "--b-labels", "1,1"],
                          "side A names setting 0 twice")


def test_estimate_missing_file(capsys):
    assert main(["estimate", "--input", "/no/such/file.csv",
                 "--stat", "correlation"]) == 2


# ---------------------------------------------------------------------------
# config files

def test_config_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 50\nangles = '0,0'  # aligned\nhalf-width-a = 0.0\n")
    code, payload, _ = run(capsys, "simulate", "--model", "singlet",
                           "--config", str(cfg))
    assert code == 0 and payload["sizes"]["n"] == 50
    code, payload, _ = run(capsys, "simulate", "--model", "singlet",
                           "--config", str(cfg), "--n", "20")
    assert code == 0 and payload["sizes"]["n"] == 20


def test_config_unknown_key_fails_fast(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("rows = 5\n")
    assert main(["simulate", "--model", "singlet", "--config", str(cfg)]) == 2
    assert "rows" in capsys.readouterr().err


def test_config_values_go_through_the_flag_converters(capsys, tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text('runs = 3\npairs = 20\nvariant = "quantum"\n')
    code, payload, _ = run(capsys, "qrc-vongher", "--config", str(cfg))
    assert code == 0 and payload["config"]["variant"] == "quantum"
    assert payload["results"]["runs"] == 3
    cfg.write_text("angles = 0,0.785\nn = 10\n")
    code, payload, _ = run(capsys, "simulate", "--model", "singlet",
                           "--config", str(cfg))
    assert code == 0 and payload["sizes"]["n"] == 10
    for command, line in (("qrc-gill", "runs = 1.5"),
                          ("qrc-vongher", "variant = bogus"),
                          ("simulate", "jitter-weight = 'flat'")):
        cfg.write_text(line + "\n")
        argv = [command, "--config", str(cfg)]
        if command == "simulate":
            argv += ["--model", "smeared"]
        assert_one_line_error(capsys, argv, line.split()[0].replace("-", "_"))


def test_config_syntax_and_missing_file(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert main(["simulate", "--model", "singlet", "--config", str(cfg)]) == 2
    assert main(["simulate", "--model", "singlet",
                 "--config", str(tmp_path / "absent.cfg")]) == 2


# ---------------------------------------------------------------------------
# campaigns and the game

def test_qrc_gill_point_mass_sits_on_bound(capsys, tmp_path):
    code, payload, _ = run(capsys, "qrc-gill", "--generator",
                           "point-mass:1,1,1,1", "--rows", "100",
                           "--runs", "5", "--out", str(tmp_path))
    assert code == 0
    r = payload["results"]
    assert r["chsh_violation_rate"] == 0.0
    assert r["qrc_won"] is False
    per_run = (tmp_path / "per_run.csv").read_text().strip().splitlines()
    assert per_run[0].startswith("run,s_value,violated")
    assert len(per_run) == 6


def test_qrc_gill_bad_generator(capsys):
    assert main(["qrc-gill", "--generator", "adversarial"]) == 2
    assert main(["qrc-gill", "--generator", "point-mass:1,1,1"]) == 2


def test_qrc_vongher_strict_never_violates(capsys):
    code, payload, _ = run(capsys, "qrc-vongher", "--variant", "strict",
                           "--runs", "3", "--pairs", "200")
    assert code == 0
    assert payload["results"]["bell_violations"] == 0
    assert payload["results"]["chsh_violations"] == 0


@pytest.mark.parametrize("argv, columns", [
    (["qrc-gill", "--generator", "positive-boundary", "--rows", "200",
      "--runs", "20", "--seed", "1"], {"violated": "chsh_violations"}),
    (["qrc-vongher", "--variant", "quantum", "--pairs", "300", "--runs", "12",
      "--seed", "1"], {"chsh_violated": "chsh_violations",
                       "bell_violated": "bell_violations"})],
    ids=("qrc-gill", "qrc-vongher"))
def test_per_run_violations_sum_to_summary(capsys, tmp_path, argv, columns):
    code, payload, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    r = payload["results"]
    with open(tmp_path / "per_run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["run"]) for row in rows] == list(range(r["runs"]))
    sums = {key: sum(int(row[column]) for row in rows)
            for column, key in columns.items()}
    assert sums == {key: r[key] for key in columns.values()}
    # some verdict splits the runs, so an all-0 or all-1 column would show
    assert any(0 < total < r["runs"] for total in sums.values())


def test_bellgame_scripted_is_perfect(capsys, tmp_path):
    code, payload, _ = run(capsys, "bellgame", "--strategy", "scripted",
                           "--rounds", "8", "--out", str(tmp_path))
    assert code == 0
    assert payload["results"]["points"] == 8
    assert payload["results"]["avg_score"] == 4.0
    lines = (tmp_path / "rounds.csv").read_text().strip().splitlines()
    assert lines[0] == "minute,i,j,x,y,a,b,point"
    assert len(lines) == 9
    assert lines[1].split(",")[0] == "1"  # minutes count from one


def test_bellgame_quantum_average(capsys):
    code, payload, _ = run(capsys, "bellgame", "--strategy", "quantum",
                           "--rounds", "20000", "--seed", "3")
    assert code == 0
    assert payload["results"]["avg_score"] == pytest.approx(
        2 + math.sqrt(2), abs=0.05)


def test_bellgame_bad_program(capsys):
    assert main(["bellgame", "--strategy", "fixed", "--i", "7"]) == 2
    assert main(["bellgame", "--strategy", "random", "--rounds", "0"]) == 2


# ---------------------------------------------------------------------------
# homogeneity and breakdown

def test_homogeneity_on_simulated_events(capsys, tmp_path):
    simulate_into(capsys, tmp_path)
    path = str(tmp_path / "events_a.csv")
    code, payload, _ = run(capsys, "homogeneity", "--input", path)
    assert code == 0
    assert set(payload["results"]) == {"chi_square", "ks", "runs"}
    for res in payload["results"].values():
        assert res["p_value"] > 1e-6  # one steady law
    code, payload, _ = run(capsys, "homogeneity", "--input", path,
                           "--method", "chi_square", "--parts", "3")
    assert code == 0
    assert payload["results"]["chi_square"]["details"]["parts"] == 3


def test_homogeneity_per_setting_reads_the_chosen_column(capsys, tmp_path):
    # per setting the outcomes vary; the setting_label column would hold
    # one value per setting, so that combination is refused
    rng = np.random.default_rng(4)
    n = 400
    events = Events(np.arange(n), rng.integers(0, 2, size=n),
                    rng.choice([1, -1], size=n))
    path = tmp_path / "events.csv"
    write_events(path, events)
    argv = ["homogeneity", "--input", str(path), "--per-setting",
            "--method", "chi_square", "--bins", "0", "--parts", "3"]
    code, by_outcome, _ = run(capsys, *argv, "--column", "outcome")
    assert code == 0 and set(by_outcome["results"]) == {"0", "1"}
    for res in by_outcome["results"].values():
        assert res["chi_square"]["statistic"] > 0.0
    assert_one_line_error(capsys, argv + ["--column", "setting_label"],
                          "--per-setting with --column setting_label")


def test_homogeneity_input_errors(capsys, tmp_path):
    assert main(["homogeneity", "--input", "/no/file.csv"]) == 2
    simulate_into(capsys, tmp_path)
    assert main(["homogeneity", "--input", str(tmp_path / "events_a.csv"),
                 "--method", "ks", "--bins", "100000"]) == 2
    for parts in ("0", "1"):
        assert main(["homogeneity", "--input", str(tmp_path / "events_a.csv"),
                     "--bins", "0", "--parts", parts]) == 2


def test_breakdown_with_spec_file(capsys, tmp_path):
    spec = tmp_path / "device.cfg"
    spec.write_text(
        "values = 0,2\n"
        "regimes = 0:2:0.9,0.1;2:4:0.1,0.9\n")
    code, payload, _ = run(capsys, "breakdown", "--spec", str(spec),
                           "--runs", "4", "--run-len", "4000")
    assert code == 0
    assert payload["results"]["runs"] == 4
    assert abs(payload["results"]["pooled"]["z"]) < 6
    assert payload["results"]["homogeneity"]["chi_square"]["p_value"] < 1e-6


def test_breakdown_run_without_spread_has_undefined_z(capsys, tmp_path):
    # every run emits one certain symbol, so each sem is 0
    spec = tmp_path / "dev.cfg"
    spec.write_text("values = 0,2\nregimes = 0:2:1,0;2:4:1,0\n")
    code, payload, _ = run(capsys, "breakdown", "--spec", str(spec),
                           "--runs", "4", "--run-len", "100")
    assert code == 0
    res = payload["results"]
    assert [r["z"] for r in res["per_run"]] == [None] * 4
    assert res["pooled"]["z"] is None and res["n_rejecting_100_sem"] == 0


def test_breakdown_spec_mismatch(capsys):
    assert main(["breakdown", "--runs", "20", "--run-len", "100"]) == 2


# ---------------------------------------------------------------------------
# reproduce

def test_reproduce_chebyshev_target(capsys):
    code = main(["reproduce", "--target", "chebyshev"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[ok] chebyshev-2sem" in out
    assert "[ok] chebyshev-45sem" in out


def test_reproduce_pairing_target(capsys):
    code, payload, checks = run(capsys, "reproduce", "--target", "pairing")
    assert code == 0
    assert payload["results"]["passed"] == payload["results"]["total"]
    assert "[ok] pairing-offsets" in checks


def test_reproduce_rejects_an_unknown_target(capsys, tmp_path):
    assert_one_line_error(capsys, ["reproduce", "--target", "bogus"], "bogus")
    cfg = tmp_path / "target.cfg"
    cfg.write_text("target = bogus\n")
    assert_one_line_error(capsys, ["reproduce", "--config", str(cfg)], "bogus")


def test_jitter_weight_choices_are_the_library_weights():
    simulate = build_parser()[1].choices["simulate"]
    weight = next(a for a in simulate._actions if a.dest == "jitter_weight")
    assert weight.choices == sources.JITTER_WEIGHTS


# ---------------------------------------------------------------------------
# malformed input and out-of-domain parameters exit 2 with one line

EVENT_HEADER = "window_index,setting_label,outcome\r\n"
EVENT_CSV = {
    "outcome-2": EVENT_HEADER + "0,0,1\r\n1,0,2\r\n",
    "missing-column": "window_index,setting_label\r\n0,0\r\n1,1\r\n",
    "empty-file": "",
    "wrong-header-no-rows": "foo,bar\r\n",
    "non-integer": EVENT_HEADER + "0,0,1\r\n1,x,-1\r\n",
    "float": EVENT_HEADER + "0,0,1\r\n1.5,0,-1\r\n",
    "empty-cell": EVENT_HEADER + "0,0,1\r\n1,,-1\r\n",
    "comment": EVENT_HEADER + "0,0,1 # c\r\n",
    "overflow": EVENT_HEADER + "99999999999999999999,0,1\r\n",
    "short-row-only": EVENT_HEADER + "0,0\r\n",
    "short-row-later": EVENT_HEADER + "0,0,1\r\n1,0\r\n",
    "header-only": EVENT_HEADER,
}
TRIAL_HEADER = "setting_a,setting_b,a,b\r\n"
TRIAL_CSV = {
    "outcome-2": TRIAL_HEADER + "0,0,1,-1\r\n0,1,2,1\r\n",
    "missing-column": "setting_a,setting_b,a\r\n0,0,1\r\n",
    "empty-file": "",
    "wrong-header-no-rows": "foo,bar\r\n",
    "non-integer": TRIAL_HEADER + "0,0,1,-1\r\n0,1,1.5,1\r\n",
    "empty-cell": TRIAL_HEADER + "0,0,1,-1\r\n0,,1,1\r\n",
    "comment": TRIAL_HEADER + "0,0,1,-1 # c\r\n",
    "overflow": TRIAL_HEADER + "0,99999999999999999999,1,-1\r\n",
    "short-row-only": TRIAL_HEADER + "0,0,1\r\n",
    "short-row-later": TRIAL_HEADER + "0,0,1,-1\r\n0,1,1\r\n",
}
# a file without the needed columns is refused even when it has no rows
NO_COLUMNS = {"missing-column", "empty-file", "wrong-header-no-rows"}
GOOD_EVENTS = "window_index,setting_label,outcome\r\n0,0,1\r\n1,1,-1\r\n"


def assert_one_line_error(capsys, argv, needle="error:"):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert needle in err


@pytest.mark.parametrize("case", sorted(EVENT_CSV))
def test_pair_rejects_malformed_events(capsys, tmp_path, case):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_text(EVENT_CSV[case], newline="")
    good.write_text(GOOD_EVENTS, newline="")
    # random pairing needs events on both sides, so header-only fails too
    needle = "reading events: missing column" if case in NO_COLUMNS else "error:"
    assert_one_line_error(capsys, ["pair", "--events-a", str(bad),
                                   "--events-b", str(good),
                                   "--pairing", "random:10"], needle)


@pytest.mark.parametrize("case", sorted(EVENT_CSV))
def test_homogeneity_rejects_malformed_events(capsys, tmp_path, case):
    bad = tmp_path / "bad.csv"
    bad.write_text(EVENT_CSV[case], newline="")
    needle = ("no events in input" if case == "header-only" else
              "reading events: missing column" if case in NO_COLUMNS else "error:")
    assert_one_line_error(capsys, ["homogeneity", "--input", str(bad)], needle)


@pytest.mark.parametrize("case", sorted(TRIAL_CSV))
def test_estimate_rejects_malformed_trials(capsys, tmp_path, case):
    bad = tmp_path / "bad.csv"
    bad.write_text(TRIAL_CSV[case], newline="")
    needle = "reading trials: missing column" if case in NO_COLUMNS else "error:"
    assert_one_line_error(capsys, ["estimate", "--input", str(bad),
                                   "--stat", "chsh"], needle)


def test_estimate_refuses_a_repeated_needed_column(capsys, tmp_path):
    # the first a column gives S = 4.0 and the last S = -2.0
    bad = tmp_path / "trials.csv"
    bad.write_text("setting_a,setting_b,a,b,a\n0,0,1,1,-1\n0,1,1,1,-1\n"
                   "1,0,1,1,-1\n1,1,1,-1,1\n")
    assert_one_line_error(capsys, ["estimate", "--input", str(bad), "--stat",
                                   "chsh"], "reading trials: repeated column 'a'")


def test_homogeneity_error_names_the_file_line(capsys, tmp_path):
    bad = tmp_path / "events.csv"
    bad.write_text(EVENT_HEADER + "0,0,1\r\n\r\n1,0,1\r\n2,x,1\r\n", newline="")
    assert_one_line_error(capsys, ["homogeneity", "--input", str(bad)],
                          "'x' to int64 at line 5, column 2.")


def test_homogeneity_reads_a_bom_header(capsys, tmp_path):
    events = tmp_path / "events.csv"
    events.write_bytes(b"\xef\xbb\xbf" + GOOD_EVENTS.encode())
    code, payload, _ = run(capsys, "homogeneity", "--input", str(events),
                           "--bins", "0", "--method", "chi_square")
    assert code == 0 and payload["sizes"]["n_values"] == 2


SCRIPT_CSV = {  # case -> (file, words the error names)
    "short-row": ("i,j,x,y\n1,1,0\n", "reading script"),
    "missing-column": ("i,j,x\n1,1,0\n", "reading script"),
    "non-integer": ("i,j,x,y\n1,1,0,z\n", "reading script"),
    # each row is checked when the script is built, not when it is played
    "program-id": ("i,j,x,y\n1,1,0,0\n5,1,0,0\n", "program id"),
    "input": ("i,j,x,y\n1,1,0,0\n1,1,2,0\n", "input must be a bit"),
}


@pytest.mark.parametrize("case", sorted(SCRIPT_CSV))
def test_bellgame_rejects_malformed_script(capsys, tmp_path, case):
    bad = tmp_path / "script.csv"
    text, needle = SCRIPT_CSV[case]
    bad.write_text(text)
    assert_one_line_error(capsys, ["bellgame", "--strategy", "scripted",
                                   "--script", str(bad), "--rounds", "1"],
                          needle)


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "contextual", "--x", "-1", "--n", "10"],
    ["simulate", "--model", "contextual", "--y", "2", "--n", "10"],
    ["simulate", "--model", "smeared", "--half-width-a", "-1", "--n", "10"],
    ["simulate", "--model", "smeared", "--half-width-a", "nan", "--n", "10"],
    ["simulate", "--model", "smeared", "--half-width-b", "inf", "--n", "10"],
    ["simulate", "--model", "singlet", "--angles", "nan,0", "--n", "10"],
    ["simulate", "--model", "contextual", "--gamma", "nan", "--n", "10"],
    ["simulate", "--model", "contextual", "--tau0", "inf", "--n", "10"],
    ["qrc-vongher", "--variant", "partial-anticorr", "--q", "nan"],
    ["qrc-gill", "--runs", "0"],
    ["qrc-vongher", "--runs", "0"],
    ["breakdown", "--run-len", "1"],
])
def test_out_of_domain_parameters_exit_2(capsys, argv):
    assert_one_line_error(capsys, argv)


@pytest.mark.parametrize("width", ["nan", "inf", "-inf"])
def test_pair_rejects_non_finite_window(capsys, tmp_path, width):
    events = tmp_path / "events.csv"
    events.write_text(GOOD_EVENTS, newline="")
    assert_one_line_error(capsys, ["pair", "--events-a", str(events),
                                   "--events-b", str(events),
                                   "--pairing", f"window:{width}"], "width")


def test_breakdown_needs_two_runs(capsys, tmp_path):
    # the chi-square compares the two halves of the runs
    spec = tmp_path / "one.cfg"
    spec.write_text("values = 0,1\nregimes = 0:1:0.5,0.5\n")
    assert_one_line_error(capsys, ["breakdown", "--spec", str(spec),
                                   "--runs", "1", "--run-len", "100"], "runs")


@pytest.mark.parametrize("command", ["qrc-gill", "qrc-vongher", "breakdown",
                                     "reproduce"])
def test_threads_is_no_flag(capsys, command):
    assert main([command, "--threads", "2"]) == 2


# ---------------------------------------------------------------------------
# cold start: the CLI loads a library module only when a command runs it

def loaded_after(code: str) -> set:
    """Modules outside the standard library that code loads when it runs
    in a new interpreter."""
    src = str(Path(bell_lab.__file__).resolve().parents[1])
    prog = (f"import sys; sys.path.insert(0, {src!r}); old = set(sys.modules)"
            f"\n{code}\nprint(*(m for m in set(sys.modules) - old"
            " if m.split('.')[0] not in sys.stdlib_module_names))")
    out = subprocess.run([sys.executable, "-c", prog], capture_output=True,
                         text=True, check=True).stdout
    return set(out.splitlines()[-1].split())


def test_cli_import_loads_only_the_standard_library():
    assert loaded_after("import bell_lab.cli") == {"bell_lab", "bell_lab.cli"}


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["simulate", "--model", "bogus"]])
def test_help_version_and_usage_errors_leave_numpy_unloaded(argv):
    code = f"from bell_lab.cli import main; assert main({argv!r}) in (0, 2)"
    assert "numpy" not in loaded_after(code)


def test_a_command_loads_only_the_modules_it_runs():
    loaded = loaded_after("from bell_lab.cli import main; assert main("
                          "['qrc-gill', '--runs', '2', '--rows', '40']) == 0")
    assert {"numpy", "bell_lab.randi"} <= loaded
    assert not loaded & {"bell_lab.stats", "bell_lab.bellgame",
                         "bell_lab.claims", "scipy.stats"}


# ---------------------------------------------------------------------------
# argv fuzz: any argv ends in a defined exit code, never a traceback

EDGE = ("-1", "0", "1", "2", "1.5", "abc", "", "nan", "inf", "-inf")


def edge():
    return st.sampled_from(EDGE)


def opt(name, values, always=False):
    """argv fragment for one option; values None marks a switch."""
    flag = "--" + name.replace("_", "-")
    if values is None:
        return st.sampled_from(([], [flag]))
    present = values.map(lambda v: [flag, v])
    return present if always else st.one_of(st.just([]), present)


def command(name, always=(), **options):
    """argv for one subcommand.  Options named in always are always given:
    every size is, so that no default size runs a long campaign."""
    options.update(seed=edge(), stream=edge())
    parts = [opt(k, v, k in always) for k, v in options.items()]
    return st.tuples(*parts).map(
        lambda ps: [name] + [tok for p in ps for tok in p])


FILES = st.sampled_from(("events.csv", "trials.csv", "script.csv",
                         "short.csv", "absent.csv"))
FUZZ_ARGV = st.one_of(
    command("simulate", ("model", "n"), n=edge(),
            model=st.sampled_from(("singlet", "smeared", "contextual", "x")),
            angles=st.sampled_from(("0,1", "1", "a,b", "", "0,1,2", "nan,0",
                                    "0,inf")),
            half_width_a=edge(), half_width_b=edge(), x=edge(), y=edge(),
            gamma=edge(), tau0=edge(), label_a=edge()),
    command("pair", ("events_a", "events_b", "pairing"),
            events_a=FILES, events_b=FILES,
            pairing=st.sampled_from(("systematic:1", "random:2", "window:1",
                                     "window:-1", "random:-1", "window", "x:1",
                                     "window:nan", "window:inf"))),
    command("estimate", ("input", "stat"), input=FILES,
            stat=st.sampled_from(("correlation", "covariance", "chsh",
                                  "counter-chsh", "bell-counter", "eberhard")),
            a_labels=st.sampled_from(("0,1", "1", "a,b")),
            include_no_counts=None, strict=None),
    command("qrc-gill", ("rows", "runs"), rows=edge(), runs=edge(),
            generator=st.sampled_from(("uniform", "positive-boundary",
                                       "point-mass:1,1", "x"))),
    command("qrc-vongher", ("pairs", "runs"), pairs=edge(), runs=edge(),
            variant=st.sampled_from(("strict", "missing-pairs",
                                     "partial-anticorr", "quantum")),
            q=edge(), p_a3_flip=edge(), p_drop=edge()),
    command("bellgame", ("strategy", "rounds"), rounds=edge(),
            strategy=st.sampled_from(("fixed", "random", "scripted",
                                      "contextual", "quantum")),
            i=edge(), j=edge(), wobble=edge(), script=FILES),
    command("homogeneity", ("input",), input=FILES,
            column=st.sampled_from(("outcome", "setting_label")),
            method=st.sampled_from(("chi_square", "ks", "runs", "all")),
            parts=edge(), bins=edge(), per_setting=None),
    command("breakdown", ("runs", "run_len"), runs=edge(),
            run_len=edge(), spec=st.sampled_from(("spec.cfg", "absent.cfg"))),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "events.csv").write_text(
        "window_index,setting_label,outcome\n0,0,1\n1,1,-1\n2,0,0\n3,1,1\n")
    (d / "trials.csv").write_text(
        "setting_a,setting_b,a,b\n0,0,1,-1\n0,1,1,1\n1,0,-1,0\n1,1,1,1\n")
    (d / "script.csv").write_text("i,j,x,y\n1,1,0,0\n2,2,0,1\n")
    (d / "short.csv").write_text("i,j,x,y\n1,1,0\n")
    (d / "spec.cfg").write_text("values = 0,2\nregimes = 0:1:1,0;1:2:0.5,0.5\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        yield d


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=FUZZ_ARGV)
def test_argv_fuzz_exits_cleanly(fuzz_dir, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
