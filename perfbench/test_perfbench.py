"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from bell_lab import cli  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def manifest_names(kind: str) -> list:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


# ---------------------------------------------------------------------------
# output checks

def drop_one_coincidence(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines[1:], 1):
        sa, sb, a, b = (int(v) for v in line.split(","))
        if a != 0 and b != 0:
            del lines[i]
            break
    path.write_text("".join(lines))


@pytest.fixture
def pipeline(tmp_path):
    wl = workloads.Pipeline(tmp_path, seed=5, size="tiny")
    wl.prepare()
    return wl


def test_exact_chsh_rejects_a_dropped_coincidence(pipeline):
    pair, chsh = pipeline.warmup()
    assert pipeline.check(pair, run.call_main(cli, pair.argv)) == []
    drop_one_coincidence(pipeline.work / "exact" / "trials.csv")
    problems = pipeline.check(chsh, run.call_main(cli, chsh.argv))
    assert problems and "exact chsh" in problems[0]


def test_window_trials_must_repeat_byte_for_byte(pipeline):
    w1 = next(s for s in pipeline.steps() if s.label == "w1")
    out = run.call_main(cli, w1.argv)
    assert pipeline.check(w1, out) == []
    drop_one_coincidence(pipeline.work / "w1" / "trials.csv")
    assert any("differs from the first pass" in p for p in pipeline.check(w1, out))


def test_exact_pairing_recovers_the_shared_emissions(pipeline):
    pair, chsh = pipeline.warmup()
    for step in (pair, chsh):
        assert pipeline.check(step, run.call_main(cli, step.argv)) == []
    summary = run.call_main(cli, pair.argv).summary()
    assert summary["results"]["n_coincident"] == pipeline.inputs["n_shared"]


def test_a_failing_exit_code_is_a_failure(pipeline):
    step = workloads.Step("bad", ["pair", "--events-a", "missing.csv",
                                  "--events-b", "missing.csv",
                                  "--pairing", "window:1"])
    assert pipeline.check(step, run.call_main(cli, step.argv)) == ["bad: exit code 2"]


def test_campaign_targets_match_reproduce_at_its_own_size():
    # reproduce checks 0.91 +- 0.05 and 0.99 +- 0.03 at 800 pairs
    assert abs(workloads.quantum_bell_rate(800) - 0.91) < 0.01
    assert abs(workloads.quantum_counter_chsh_rate(800) - 0.99) < 0.01
    assert workloads.quantum_bell_rate(200_000) > 0.999


# ---------------------------------------------------------------------------
# tracer

def module_bindings() -> dict:
    bound = {}
    for name, mod in list(sys.modules.items()):
        if name == "bell_lab" or name.startswith("bell_lab."):
            for key, value in vars(mod).items():
                if callable(value):
                    bound[(name, key)] = value
    for key, value in vars(sys.modules["bell_lab.core"].RngStream).items():
        bound[("RngStream", key)] = value
    return bound


def test_tracer_restores_every_wrapped_function(tmp_path):
    from bell_lab import core, randi
    before = module_bindings()
    wl = workloads.Campaigns(tmp_path, seed=2, size="tiny")
    wl.prepare()
    tr = tracing.Tracer()
    tr.install()
    try:
        # names imported into callers are wrapped, not only the definitions
        assert cli.read_events is not before[("bell_lab.core", "read_events")]
        assert randi.run_indexed is not before[("bell_lab.core", "run_indexed")]
        assert core.RngStream.generator is not before[("RngStream", "generator")]
        steps = wl.steps()
        outputs = tr.call(tracing.ROOT,
                          lambda: [run.call_main(cli, s.argv) for s in steps])
    finally:
        tr.uninstall()
    after = module_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for step, out in zip(steps, outputs):
        assert wl.check(step, out) == []
    tr.finish()
    metrics = tr.metrics()
    assert metrics["core.run_indexed.tasks"] > 0
    assert metrics["randi.vongher_run.calls"] == 2 * workloads.CAMPAIGN_SIZES["tiny"]["ball_runs"]
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.root_s"], rel=1e-9)


def test_worker_spans_hang_under_their_dispatcher():
    from bell_lab import core

    def worker(i):
        return core.RngStream(1, (i,)).generator()

    tr = tracing.Tracer(targets=("core.run_indexed", "core.RngStream.generator"))
    tr.install()
    try:
        tr.call(tracing.ROOT, lambda: core.run_indexed(worker, 8, threads=2))
    finally:
        tr.uninstall()
    names = {sid: name for sid, _, name, _, _ in tr.spans}
    parents = {name: set() for name in names.values()}
    for _, parent, name, _, _ in tr.spans:
        parents[name].add(names.get(parent))
    assert parents["core.run_indexed"] == {tracing.ROOT}
    task = tracing.task_name(worker)
    assert task == "test_perfbench.test_worker_spans_hang_under_their_dispatcher.task"
    assert parents[task] == {"core.run_indexed"}
    assert parents["core.RngStream.generator"] == {task}
    tr.finish()
    metrics = tr.metrics()
    assert metrics["core.run_indexed.tasks"] == 8
    assert 1 <= metrics["core.run_indexed.workers"] <= 2


def test_self_time_splits_overlap_and_sums_to_the_root():
    tr = tracing.Tracer(targets=())
    # root 0..100; a dispatcher 10..90 with two tasks on two threads:
    # 20..60 and 40..80, which overlap during 40..60
    tr.spans = [(1, None, "root", 0, 100), (2, 1, "dispatch", 10, 90),
                (3, 2, "task", 20, 60), (4, 2, "task", 40, 80)]
    own = tr.self_times()
    assert own[1] == 20            # 0..10 and 90..100
    assert own[2] == 20            # 10..20 and 80..90: no task running
    assert own[3] == 20 + 10       # alone 20..40, half of 40..60
    assert own[4] == 10 + 20       # half of 40..60, alone 60..80
    assert sum(own.values()) == 100


# ---------------------------------------------------------------------------
# the command end to end

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_has_no_failures(workload):
    timed = result_of(bench("--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", "0", "--size", "tiny"))
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] > 0
    assert list(timed["metrics"]) == manifest_names("end_to_end")
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    traced = result_of(bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "1", "--size", "tiny"))
    assert traced["correct"] and traced["metrics"]["failed_ratio"]["value"] == 0
    assert list(traced["metrics"]) == manifest_names("per_layer")


def test_pairing_counts_repeat_exactly():
    runs = [result_of(bench("--workload", "pipeline", "--seed", "4",
                            "--seconds", "1", "--trace", "1", "--size", "tiny"))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.startswith("pairing.") and not k.endswith("self_s")}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["pairing.pair_time_window.unmatched_a"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pipeline", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
