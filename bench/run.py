"""Closed-loop benchmark of levicool: point, map and search workloads.

Usage, from the repository root:

    python3 bench/run.py --workload point|map|search --seed N --seconds S --trace 0|1

With ``--trace 0`` one client runs the workload's jobs back to back for S
seconds with tracing off and reports the end-to-end metrics listed in
BENCHMARK.json. With ``--trace 1`` it runs every workload, S/6 seconds
untraced and S/6 traced each, and reports the per-layer metrics: self time
per layer from the traced pass, the tracing overhead from the pair, and the
cold-CLI probe. Every job's output is checked; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Job times are scaled to a nominal machine: a fixed reference loop is timed
between jobs (see `reference_unit`) and each job's time is multiplied by the
machine's speed, relative to nominal, over the half second of job time around
it. The cold-CLI probe times are not scaled.

All workloads, end-to-end metrics only:

    for w in point map search; do python3 bench/run.py --workload $w --seed 0 --seconds 30; done

A run record (machine, seed, src/ line count, metrics) is written to
``.bench_out/``, as are the spans of a traced run. Job inputs live in
``.bench_work/`` while the run lasts. The smoke test is bench/test_smoke.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

#: set-ups per run; one in this process, the rest in fresh interpreters
SETUPS = 5
#: times are scaled to a nominal machine that runs this many reference units a second
REFERENCE_RATE = 300.0
#: reference work interleaved with the jobs, as a share of job time
CALIBRATION_SHARE = 0.1
#: job time, in seconds, over which one machine-speed figure is measured
SPEED_WINDOW = 0.5
#: rounds of the cold-CLI probe, each one run of every probe command
COLD_ROUNDS = 10
SUBPROCESS_TIMEOUT = 60


def reference_unit() -> str:
    """A fixed slice of interpreter work: float math, small dicts, formatting.

    On a shared 2-core Xeon host the machine's speed drifted by tens of percent
    over seconds to minutes, and the drift was common to this loop and the
    jobs. Timing it between jobs and dividing its speed out makes runs taken at
    different moments comparable: over eight ten-second map runs the spread
    (quartile distance over median) of cells per second fell from 10% to 3.5%.
    """
    acc, parts = 0.0, []
    for i in range(6000):
        cell = {"x": math.sqrt(i + 1.5), "n": i}
        acc += cell["x"] / (1.0 + cell["n"])
        if i % 8 == 0:
            parts.append(format(acc, ".12g"))
    return ",".join(parts)


def setup_workload(name: str, seed: int, workdir: Path):
    """Import the program, generate the first inputs and warm up; timed as setup_s.

    The warm-up jobs are the same for every seed, so set-up time is too.
    """
    import workloads
    workloads.BY_NAME[name](workloads.DEFAULT_SEED, workdir, workloads.WARM_UP).warm_up()
    return workloads.BY_NAME[name](seed, workdir)


def setup_in_fresh_interpreter(name: str, seed: int, workdir: Path) -> float:
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import time, run; t0 = time.perf_counter()\n"
        "run.setup_workload(sys.argv[3], int(sys.argv[4]), sys.argv[5])\n"
        "print(time.perf_counter() - t0)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(SRC), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, check=True)
    return float(done.stdout.split()[-1])


class Window:
    """Job time and reference units timed in one stretch of a pass."""

    def __init__(self):
        self.job_time = 0.0
        self.reference_units = 0
        self.reference_time = 0.0

    def calibrate(self) -> None:
        while (self.reference_units == 0
               or self.reference_time < CALIBRATION_SHARE * self.job_time):
            start = time.perf_counter()
            reference_unit()
            self.reference_time += time.perf_counter() - start
            self.reference_units += 1

    @property
    def speed(self) -> float:
        """Machine speed in this window, relative to the nominal machine."""
        return self.reference_units / self.reference_time / REFERENCE_RATE


class Pass:
    """Job times, design points and failures of one closed-loop pass.

    Each job time is scaled by the machine speed measured in its window.
    """

    def __init__(self):
        self.times: list[float] = []
        self.cells = 0
        self.failed = 0
        self._windows = [Window()]
        self._window_of: list[int] = []
        self._windows[0].calibrate()

    def add(self, elapsed: float) -> None:
        window = self._windows[-1]
        self.times.append(elapsed)
        self._window_of.append(len(self._windows) - 1)
        window.job_time += elapsed
        window.calibrate()
        if window.job_time >= SPEED_WINDOW:
            self._windows.append(Window())
            self._windows[-1].calibrate()

    def scaled_times(self) -> list[float]:
        speeds = [w.speed for w in self._windows]
        return [t * speeds[w] for t, w in zip(self.times, self._window_of)]

    @property
    def speed(self) -> float:
        """Machine speed over the whole pass, relative to the nominal machine."""
        return sum(self.scaled_times()) / sum(self.times)


def run_pass(workload, seconds: float, golden: list[str], tracer=None) -> Pass:
    result = Pass()
    deadline = time.perf_counter() + seconds
    while True:
        job = workload.next_job()
        if tracer is not None:
            tracer.job_id, tracer.active = job.index, True
        start = time.perf_counter()
        try:
            out = workload.run(job)
            failure = None
        except Exception:
            failure = traceback.format_exc()
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        if failure is None:
            try:
                cells, job_digest = workload.check(job, out)
                result.cells += cells
                if job.index < len(golden) and job_digest != golden[job.index]:
                    failure = f"output digest {job_digest} != recorded {golden[job.index]}"
            except Exception:
                failure = traceback.format_exc()
        if failure is not None:
            result.failed += 1
            if result.failed <= 3:
                print(f"job {workload.name}#{job.index} failed: {failure}", file=sys.stderr)
        result.add(end - start)
        if end >= deadline:
            return result


def end_to_end(p: Pass, setup_s: float) -> dict[str, float]:
    """End-to-end metrics, times scaled to the nominal machine."""
    ms = sorted(t * 1e3 for t in p.scaled_times())
    busy = sum(ms) / 1e3
    return {
        "jobs_per_s": len(ms) / busy,
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "cells_per_s": p.cells / busy,
        "setup_s": setup_s * p.speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def cold_cli(workdir: Path) -> tuple[dict[str, float], int]:
    """Medians of interleaved, sequential cold runs of the interpreter and CLI."""
    import numpy
    import workloads
    config = workdir / "cold.cfg"
    config.write_text(workloads.config_text(workloads.draw_design(
        numpy.random.default_rng(0))), encoding="utf-8")
    probes = {
        "cli.cold_interpreter_ms": ["-c", "pass"],
        "cli.cold_import_ms": ["-c", "import levicool.cli"],
        "cli.cold_report_ms": ["-m", "levicool.cli", "report", "--config", str(config)],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    samples = {name: [] for name in probes}
    failed = 0
    for round_ in range(COLD_ROUNDS + 1):      # round 0 fills the bytecode caches
        for name, args in probes.items():
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *args], env=env, cwd=workdir,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                  timeout=SUBPROCESS_TIMEOUT)
            elapsed = time.perf_counter() - start
            failed += done.returncode != 0
            if round_:
                samples[name].append(elapsed * 1e3)
    return {name: statistics.median(v) for name, v in samples.items()}, failed


def machine_record(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "src_lines": src_lines}


def measure(args, workdir: Path, setup_start: float) -> tuple[dict, dict, int, int]:
    """Run the passes; returns metrics, notes printed beside them, attempted, failed."""
    import workloads
    golden_path = BENCH / f"golden_seed{workloads.DEFAULT_SEED}.json"
    golden = (json.loads(golden_path.read_text(encoding="utf-8"))
              if args.seed == workloads.DEFAULT_SEED else {})

    if not args.trace:
        workload = setup_workload(args.workload, args.seed, workdir)
        setups = [time.perf_counter() - setup_start]
        p = run_pass(workload, args.seconds, golden.get(args.workload, []))
        for k in range(1, SETUPS):
            setups.append(setup_in_fresh_interpreter(args.workload, args.seed,
                                                     workdir / f"setup{k}"))
        jobs = f"{len(p.times)} jobs"
        notes = {"jobs_per_s": jobs, "job_p50_ms": jobs, "cells_per_s": jobs,
                 "job_p90_ms": f"{len(p.times)} jobs, {len(p.times) // 10} beyond p90",
                 "setup_s": f"median of {len(setups)} set-ups",
                 "machine_speed": f"{p.speed:.4f}"}
        return end_to_end(p, statistics.median(setups)), notes, len(p.times), p.failed

    from tracing import Tracer, layer_metrics
    metrics, notes, attempted, failed = {}, {}, 0, 0
    for name in workloads.BY_NAME:
        plain = run_pass(setup_workload(name, args.seed, workdir), args.seconds / 6,
                         golden.get(name, []))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workloads.BY_NAME[name](args.seed, workdir), args.seconds / 6,
                              golden.get(name, []), tracer)
        finally:
            tracer.uninstall()
        tracer.save(OUT / f"spans-{name}-seed{args.seed}.npz")
        layers = layer_metrics(tracer, len(traced.times), traced.speed)
        layers["trace.overhead_frac"] = (
            statistics.fmean(traced.scaled_times()) / statistics.fmean(plain.scaled_times()) - 1.0)
        metrics.update({f"{name}.{key}": value for key, value in layers.items()})
        notes[f"{name}.trace.overhead_frac"] = (
            f"{len(traced.times)} traced vs {len(plain.times)} untraced jobs")
        notes[f"{name}.machine_speed"] = f"{traced.speed:.4f}"
        attempted += len(plain.times) + len(traced.times)
        failed += plain.failed + traced.failed
    cold, cold_failed = cold_cli(workdir)
    metrics.update(cold)
    notes.update({name: f"median of {COLD_ROUNDS} runs" for name in cold})
    return metrics, notes, attempted + COLD_ROUNDS * len(cold), failed + cold_failed


def main(argv=None) -> int:
    setup_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("point", "map", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "levicool" / "__init__.py").is_file():
        print(f"error: no levicool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import levicool
    if Path(levicool.__file__).resolve().parent != SRC / "levicool":
        print(f"error: imported levicool from {levicool.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        values, notes, attempted, failed = measure(args, workdir, setup_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record = machine_record(args.seed)
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  attempted=attempted, failed=failed, metrics=metrics, notes=notes)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("machine: " + ", ".join(f"{k} = {record[k]}" for k in
                                   ("nproc", "cpu", "python", "numpy", "seed", "src_lines")))
    print("machine speed vs nominal: " + ", ".join(
        f"{k} = {v}" for k, v in notes.items() if k.endswith("machine_speed")))
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
