"""bell-lab benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

It imports ``bell_lab`` from ``src/`` and drives ``bell_lab.cli.main(argv)``
in this process: an untimed warm-up, then passes over the workload's
command list until the passes add up to ``--seconds`` (and at least three
passes).  Before the warm-up and before each pass it times set-up in a
fresh interpreter.  Every call's exit code and output are checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones, from one untimed and one traced pass
(see tracer.py).  The line before the result holds the details: the
machine and versions, input sizes, seed, sample counts and the
problems found.  The last line of stdout is the result.

Scratch files go to ``.perfbench_work/`` in the checkout and are
removed at exit; a traced run leaves its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # fewer leaves the median at the mercy of one slow pass
IMPORT_CLI = "import sys; sys.path.insert(0, 'src'); import bell_lab.cli"
IMPORT_TIMED = ("bell_lab", "bell_lab.stats", "scipy.stats", "numpy")
CHILD_TIMEOUT_S = 120


def fresh_import(*flags: str) -> tuple:
    """Seconds from starting a new interpreter to bell_lab.cli imported."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *flags, "-c", IMPORT_CLI], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import bell_lab.cli failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def import_breakdown() -> dict:
    """Cumulative import time of a few modules, from python -X importtime.

    A module imported through importlib (scipy loads scipy.stats lazily
    that way) gets no line of its own; its time is then the sum of its
    outermost submodules' lines.
    """
    _, log = fresh_import("-X", "importtime")
    entries = []  # (depth, name, cumulative s), children before parents
    for line in log.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1)) / 1e6))
    values = {}
    for module in IMPORT_TIMED:
        whole = [cum for _, name, cum in entries if name == module]
        if whole:
            values[f"setup.import.{module}_s"] = whole[0]
            continue
        total, ancestors = 0.0, []
        for depth, name, cum in reversed(entries):  # parents before children
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = name.startswith(module + ".")
            if inside and not any(a[1].startswith(module + ".") for a in ancestors):
                total += cum
            ancestors.append((depth, name))
        values[f"setup.import.{module}_s"] = total
    return values


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def call_main(cli, argv) -> workloads.Output:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - a crash is a failed operation, not the end
        return workloads.Output(None, buf.getvalue(), traceback.format_exc())
    return workloads.Output(code, buf.getvalue())


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, steps, outputs) -> None:
        for step, out in zip(steps, outputs):
            problems = self.workload.check(step, out)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(problems)
                for p in problems:
                    print(f"check failed: {p}", file=sys.stderr)


def run_pass(cli, steps) -> tuple:
    """Run the steps once; return (wall s, cpu s, outputs).  Checks come after."""
    gc.collect()  # each pass starts from the same heap, not the last one's garbage
    c0, t0 = cpu_seconds(), time.perf_counter()
    outputs = [call_main(cli, step.argv) for step in steps]
    return time.perf_counter() - t0, cpu_seconds() - c0, outputs


def warm_up(cli, wl, tally) -> None:
    steps = wl.warmup()
    _, _, outputs = run_pass(cli, steps)
    tally.record(steps, outputs)


def tail_percentile(samples) -> dict | None:
    """The highest of a few percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            rank = min(n - 1, int(n * p / 100))
            return {"percentile": p, "value": ordered[rank]}
    return None


def describe(samples) -> dict:
    return {"median": statistics.median(samples), "samples": len(samples),
            "tail": tail_percentile(samples), "all": samples}


def timed_run(cli, wl, tally, seconds: float) -> tuple:
    setup = [fresh_import()[0]]
    warm_up(cli, wl, tally)
    walls, cpus = [], []
    while sum(walls) < seconds or len(walls) < MIN_PASSES:
        # one set-up sample per pass spreads them over the run, so a slow
        # spell of the machine reaches few of them
        setup.append(fresh_import()[0])
        steps = wl.steps()
        wall, cpu, outputs = run_pass(cli, steps)
        tally.record(steps, outputs)
        walls.append(wall)
        cpus.append(cpu)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(walls),
        "pass_cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"setup_s": describe(setup), "pass_s": describe(walls),
              "pass_cpu_s": describe(cpus)}
    return values, detail


def traced_run(cli, wl, tally, spans_path: Path) -> tuple:
    values = import_breakdown()
    warm_up(cli, wl, tally)
    steps = wl.steps()
    plain_wall, _, outputs = run_pass(cli, steps)
    tally.record(steps, outputs)

    tr = tracing.Tracer()
    steps = wl.steps()
    tr.install()
    try:
        traced_wall, _, outputs = tr.call(tracing.ROOT, run_pass, (cli, steps))
    finally:
        tr.uninstall()
    tr.finish()
    tally.record(steps, outputs)
    tr.write(spans_path)

    values.update(tr.metrics())
    values["cli.output.bytes"] = sum(len(o.stdout.encode()) for o in outputs)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    gap = abs(values["trace.self_sum_s"] - values["trace.root_s"])
    if gap > 1e-6 * values["trace.root_s"] + 1e-6:
        raise RuntimeError(f"self times sum to {values['trace.self_sum_s']} s, "
                           f"root span lasted {values['trace.root_s']} s")
    detail = {"plain_pass_s": plain_wall, "traced_pass_s": traced_wall,
              "absent_targets": tr.absent, "spans": str(spans_path)}
    return values, detail


def machine_record() -> dict:
    import numpy
    import scipy
    from bell_lab import core
    thread_count = getattr(core, "thread_count", None)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "default_workers": thread_count() if thread_count else None,
            "BELL_LAB_THREADS": os.environ.get("BELL_LAB_THREADS"),
            "platform": platform.platform()}


def load_metric_specs(trace: bool) -> list:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return manifest["per_layer" if trace else "end_to_end"]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep running passes until they add up to this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="input size; tiny is for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bell_lab" / "cli.py").is_file():
        print(f"error: no bell_lab sources under {SRC}", file=sys.stderr)
        return 2
    specs = load_metric_specs(bool(args.trace))
    sys.path.insert(0, str(SRC))
    from bell_lab import cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: imported bell_lab from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # fixed-width pid: paths echoed in the CLI's output keep one length
    run_id = f"{args.workload}-{args.seed}-{os.getpid():07d}"
    work = ROOT / ".perfbench_work" / run_id
    wl = workloads.WORKLOADS[args.workload](work, args.seed, args.size)
    tally = Tally(wl)
    try:
        sizes = wl.prepare()
        if args.trace:
            values, detail = traced_run(cli, wl, tally,
                                        work.parent / f"spans-{run_id}.jsonl")
        else:
            values, detail = timed_run(cli, wl, tally, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    values["failed_ratio"] = tally.failed / tally.attempted
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "size": args.size, "trace": args.trace,
                      "machine": machine_record(), "inputs": sizes,
                      "failed_ratio": values["failed_ratio"],
                      "problems": tally.problems[:20], **detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
