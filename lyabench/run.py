"""Benchmark of the lya command line.

Run from the root of a lya checkout:

    python3 lyabench/run.py --workload suite --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the benchmark is a closed loop with one client: it runs one
``python -m lya.cli ...`` process at a time, each paying for its own start,
import, load and axiom check as a user does, and checks every answer.  With
``--trace 1`` it runs the same jobs in-process under the span tracer and
reports the per-layer metrics instead.  The last line of stdout is one JSON
object; the lines before it are for people.  Inputs are written under
``.lyabench/`` in the checkout and removed at exit; a traced run leaves its
span dump there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import stats
from workloads import WORKLOADS, Job, expected_answers, jobs, write_inputs

SETUPS = 8
# Each job's fastest time is taken over at least this many passes.
MIN_PASSES = 3
JOB_TIMEOUT_S = 60.0
# About 20 ms on a 2 GHz Xeon: short next to a job, long next to timer noise.
CALIBRATION_STEPS = 600


class Checker:
    """Applies each job's oracle and requires identical stdout on every pass."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.digests: dict[str, str] = {}

    def record(self, job: Job, code: int | None, stdout: bytes, detail: str = "") -> None:
        self.attempted += 1
        reason = self._reason(job, code, stdout) or None
        if reason:
            self.failures.append((job.id, reason))
            print(f"FAIL {job.id}: {reason}{detail}", flush=True)

    def _reason(self, job: Job, code: int | None, stdout: bytes) -> str | None:
        if code is None:
            return f"timed out after {JOB_TIMEOUT_S:.0f} s"
        digest = hashlib.sha256(stdout).hexdigest()
        first = self.digests.setdefault(job.id, digest)
        if digest != first:
            return "stdout differs from the first pass"
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON (exit code {code})"
        return job.check(code, report)


def spawn(argv: list[str], env: dict, cwd: Path, stdout_path: Path, stderr_path: Path):
    """Run one child to exit: (wall s, cpu s, exit code or None on timeout)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # round every sample; a blocking wait and a kill timer do not.
        timer = threading.Timer(JOB_TIMEOUT_S, lambda: (timed_out.set(), proc.kill()))
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    if timed_out.is_set():
        code = None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, code


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python Fraction vector arithmetic,
    the kind of work lya does, as a gauge of the host's current speed."""
    n = 6
    rows = [tuple(Fraction(i * j + 1, j + 2) for j in range(n)) for i in range(n)]
    acc = (Fraction(0),) * n
    t0 = perf_counter()
    for r in range(CALIBRATION_STEPS):
        s = Fraction(r % 5 - 2, r % 3 + 1)
        acc = tuple(x + s * y - z for x, y, z in zip(acc, rows[r % n], rows[r * 7 % n]))
    return perf_counter() - t0


class Run:
    """One benchmark run: seeded inputs in a private directory, then jobs."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        self.env = {**os.environ, "PYTHONPATH": str(self.src)}
        self.work = root / ".lyabench" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.setup_times: list[float] = []
        self.setup_cals: list[float] = []
        self.answers = expected_answers(workload)

    def setup(self, import_lya: bool = True) -> list[Job]:
        """Generate and write the inputs, then import lya once in a fresh
        interpreter; returns the job list over the new files."""
        t0 = perf_counter()
        files = write_inputs(self.workload, self.work / f"in{len(self.setup_times)}", self.seed)
        if import_lya:
            _, _, code = spawn([sys.executable, "-c", "import lya.cli"], self.env, self.root,
                               self.work / "import.out", self.work / "import.err")
            if code != 0:
                raise RuntimeError("importing lya failed: "
                                   + (self.work / "import.err").read_text(errors="replace"))
        self.setup_times.append(perf_counter() - t0)
        return jobs(self.workload, files, self.answers)

    def closed_loop(self, seconds: float) -> dict:
        # The benchmark and its children share one CPU, so that the
        # calibration before and after a job measures the speed the job saw.
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            return self._closed_loop(seconds)
        finally:
            os.sched_setaffinity(0, allowed)

    def _calibrated_setup(self) -> list[Job]:
        before = calibrate()
        job_list = self.setup()
        self.setup_cals.append((before + calibrate()) / 2)
        return job_list

    def _closed_loop(self, seconds: float) -> dict:
        job_list = self._calibrated_setup()
        checker = Checker()
        walls: dict[str, list[float]] = {job.id: [] for job in job_list}
        cpus: dict[str, list[float]] = {job.id: [] for job in job_list}
        cals: dict[str, list[float]] = {job.id: [] for job in job_list}
        pass_walls: list[float] = []
        out_path, err_path = self.work / "job.out", self.work / "job.err"
        start = perf_counter()
        deadline = start + seconds
        done = 0
        pass_wall = 0.0
        cal_before = calibrate()
        while True:
            job = job_list[done % len(job_list)]
            wall, cpu, code = spawn([sys.executable, "-m", "lya.cli", *job.argv],
                                    self.env, self.root, out_path, err_path)
            cal_after = calibrate()
            walls[job.id].append(wall)
            cpus[job.id].append(cpu)
            cals[job.id].append((cal_before + cal_after) / 2)
            cal_before = cal_after
            pass_wall += wall
            stderr = err_path.read_bytes().decode(errors="replace").strip()
            checker.record(job, code, out_path.read_bytes(),
                           f"\n{stderr[-2000:]}" if stderr else "")
            done += 1
            # Set-ups are spread evenly over the run, so that one slow
            # stretch of the host does not cover every sample.
            due = start + len(self.setup_times) * seconds / SETUPS
            if len(self.setup_times) < SETUPS and perf_counter() >= due:
                self._calibrated_setup()
            if done % len(job_list) == 0:
                pass_walls.append(pass_wall)
                pass_wall = 0.0
                if perf_counter() >= deadline and len(pass_walls) >= MIN_PASSES:
                    break
        while len(self.setup_times) < SETUPS:
            self._calibrated_setup()
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        def per_job(samples: dict[str, list[float]]) -> dict[str, float]:
            """Median over passes of each job's samples in calibration units."""
            return {jid: statistics.median(x / c for x, c in zip(v, cals[jid]))
                    for jid, v in samples.items()}

        wall_cal, cpu_cal = per_job(walls), per_job(cpus)
        # setup_s must be in seconds: the median calibrated set-up, at the
        # fastest calibration of the run, i.e. the host's full speed.
        all_cals = [c for v in cals.values() for c in v] + self.setup_cals
        full_speed = min(all_cals)
        setup_s = full_speed * statistics.median(
            t / c for t, c in zip(self.setup_times, self.setup_cals))
        metrics = {
            "pass_cal": (sum(wall_cal.values()), "cal"),
            "job_p50_cal": (statistics.median(wall_cal.values()), "cal"),
            "cpu_cal": (sum(cpu_cal.values()), "cal"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        all_walls = [w for v in walls.values() for w in v]
        q1, med, q3 = stats.quartiles(pass_walls)
        k1, kmed, k3 = stats.quartiles(all_cals)
        s1, smed, s3 = stats.quartiles(self.setup_times)
        tail = stats.tail_percentile(all_walls)
        lines = [
            f"pass_s {med:.4f} s: median wall time of {len(pass_walls)} passes over "
            f"{len(job_list)} jobs (q1 {q1:.4f}, q3 {q3:.4f})",
            f"job_p50_s {statistics.median(all_walls):.4f} s: median of "
            f"{len(all_walls)} job wall times",
            ("job_tail_s " + (f"{tail[1]:.4f} s: p{tail[0]} of {len(all_walls)} job wall "
                              f"times, 10 beyond it" if tail else
                              f"n/a: {len(all_walls)} job wall times, need 11")),
            f"cpu_s {sum(map(sum, cpus.values())) / len(pass_walls):.4f} s: child "
            f"user+sys CPU per pass",
            f"calibration {kmed * 1000:.2f} ms median (q1 {k1 * 1000:.2f}, q3 "
            f"{k3 * 1000:.2f}), fastest {full_speed * 1000:.2f} ms, over {len(all_cals)} "
            f"measurements",
            f"pass_cal {metrics['pass_cal'][0]:.2f} cal: sum over the jobs of each job's "
            f"median wall time in calibration units",
            f"job_p50_cal {metrics['job_p50_cal'][0]:.2f} cal: median job's median wall time "
            f"in calibration units",
            f"cpu_cal {metrics['cpu_cal'][0]:.2f} cal: sum over the jobs of each job's "
            f"median child CPU in calibration units",
            f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB: largest child ru_maxrss",
            f"setup_s {setup_s:.4f} s: median of {len(self.setup_times)} set-ups at the "
            f"run's fastest calibration; as measured, median {smed:.4f} s "
            f"(q1 {s1:.4f}, q3 {s3:.4f})",
        ]
        return {"checker": checker, "metrics": metrics, "lines": lines}

    def traced(self, seconds: float) -> dict:
        """Alternate untraced and traced in-process passes."""
        job_list = self.setup(import_lya=False)
        sys.path.insert(0, str(self.src))
        t0 = perf_counter()
        cli = importlib.import_module("lya.cli")
        import_s = perf_counter() - t0
        lyalg = importlib.import_module("lya.lyalg")
        if Path(cli.__file__).resolve().parent != (self.src / "lya").resolve():
            raise RuntimeError(f"imported lya from {cli.__file__}, not from {self.src}")
        tracer = spans.Tracer()
        checker = Checker()
        deadline = perf_counter() + seconds
        plain_s: list[float] = []
        traced_s: list[float] = []
        per_pass: list[dict] = []

        def one_pass(traced: bool) -> int:
            out_bytes = 0
            for job in job_list:
                lyalg.catalog.cache_clear()
                buf = io.StringIO()
                span = tracer.begin_job(job.id) if traced else None
                try:
                    code = cli.main(list(job.argv), out=buf)
                except Exception:
                    code = -1
                    print(traceback.format_exc(), file=sys.stderr)
                finally:
                    if span is not None:
                        tracer.end_job(span)
                stdout = buf.getvalue().encode("utf-8")
                out_bytes += len(stdout)
                checker.record(job, code, stdout)
            return out_bytes

        def plain_pass() -> None:
            t = perf_counter()
            one_pass(False)
            plain_s.append(perf_counter() - t)

        def traced_pass() -> None:
            since = tracer.mark()
            tracer.install()
            try:
                t = perf_counter()
                out_bytes = one_pass(True)
                traced_s.append(perf_counter() - t)
            finally:
                tracer.uninstall()
            per_pass.append(tracer.metrics(since, out_bytes))

        # Alternate which side of a pair runs first, so neither always gets
        # the cold start.
        while not per_pass or perf_counter() < deadline:
            pair = (plain_pass, traced_pass)
            for step in pair if len(per_pass) % 2 == 0 else reversed(pair):
                step()

        layer, unstable = spans.combine(per_pass)
        for name in unstable:
            checker.failures.append(("trace", f"{name} differs between traced passes"))
            print(f"FAIL trace: count {name} differs between traced passes", flush=True)
        layer["cli.import_s"] = import_s
        layer["trace.overhead"] = min(traced_s) / min(plain_s)
        dump = self.root / ".lyabench" / f"spans-{self.workload}-seed{self.seed}.tsv.gz"
        tracer.dump(dump)
        metrics = {name: (layer[name], unit) for name, unit in spans.METRICS.items()}
        lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"{len(traced_s)} traced and {len(plain_s)} untraced passes; "
                     f"{len(tracer.start)} spans written to {dump.relative_to(self.root)}")
        return {"checker": checker, "metrics": metrics, "lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lya" / "cli.py").is_file():
        print("lyabench: src/lya/cli.py not found; run from the root of a lya checkout",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    try:
        result = run.traced(args.seconds) if args.trace else run.closed_loop(args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    checker = result["checker"]
    failed = min(len(checker.failures), checker.attempted)
    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload]}")
    print(f"fail_ratio {failed / max(checker.attempted, 1):.4f}: {failed} wrong of "
          f"{checker.attempted} jobs attempted")
    for line in result["lines"]:
        print(line)
    print(json.dumps({
        "correct": not checker.failures and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
