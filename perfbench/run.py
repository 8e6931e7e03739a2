"""Benchmark of whole `cip decode` jobs.

Usage (from the repository root):

    python3 perfbench/run.py --workload pr-short --seed 1 --seconds 22 --trace 0

The run generates the workload's input files from ``--seed``, times the
set-up in fresh interpreters, then runs `cip decode` jobs back to back
through ``cip.cli.main`` in this process (a closed loop with one client)
until ``--seconds`` have passed.  Every job's output is checked.  A
yardstick round (yardstick.py) is timed before the first job and after each
job and set-up probe; reported times are rescaled to the reference host's
speed by the rounds nearest them.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` jobs alternate
between untraced and traced, and it carries the per-layer metrics.
See NOTES.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported, here and in the probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 20
# Seconds one yardstick round takes on the reference host (a 2-vCPU Xeon VM,
# see NOTES.md).  Only a scale: it turns yardstick units back into seconds.
REFERENCE_S = 0.3


@dataclass
class Job:
    wall: float
    traced: bool
    norm: float = 0.0  # wall at the reference host's speed
    problems: list[str] = field(default_factory=list)
    check: object = None  # checks.JobCheck
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for each group of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def at_reference_speed(walls: list[float], rounds: list[float]) -> list[float]:
    """Each of ``walls`` rescaled to the reference host's speed.

    ``rounds[i]`` and ``rounds[i + 1]`` are the yardstick rounds timed just
    before and just after ``walls[i]``.  The host's speed is judged by the
    median of the two rounds before and the two after, so that one round
    caught in a burst of contention does not skew a job.
    """
    return [
        wall * REFERENCE_S / statistics.median(rounds[max(i - 1, 0):i + 3])
        for i, wall in enumerate(walls)
    ]


def time_setup(inputs, probes: int) -> tuple[list[float], list[float]]:
    """Wall seconds of ``probes`` set-up probes, each a fresh interpreter,
    and the yardstick rounds around them."""
    import yardstick

    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
            str(inputs.conllu), str(inputs.scores), str(inputs.constraints_path)]
    times, rounds = [], [yardstick.measure()]
    for _ in range(probes):
        start = time.perf_counter()
        probe = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        # Popen.wait(timeout=...) polls in steps of up to 50 ms, which would
        # quantize the timing; a blocking wait with a kill timer does not.
        watchdog = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        rounds.append(yardstick.measure())
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    return times, rounds


def run_job(workload, inputs, work: Path, tracer) -> Job:
    import checks
    from cip import cli
    from workloads import decode_argv

    out, report = work / "out.conllu", work / "report.json"
    for stale in (out, report):
        stale.unlink(missing_ok=True)
    argv = decode_argv(workload, inputs, out, report)
    stderr = io.StringIO()
    crash = None
    gc.collect()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        code, crash = 1, repr(exc)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()

    check = checks.check_job(workload, inputs, code, out, report)
    job = Job(wall=wall, traced=tracer is not None, problems=check.problems, check=check)
    if crash:
        job.problems.append(f"cip decode raised {crash}")
    if code != 0 and stderr.getvalue():
        job.problems.append(f"stderr: {stderr.getvalue().strip()[-300:]}")
    if job.ok:
        job.digest = hashlib.sha256(out.read_bytes()).hexdigest()
    return job


def run(workload, seed: int, seconds: float, trace: bool,
        probes: int = SETUP_PROBES, work_root: Path = WORK) -> dict:
    """One benchmark run; returns the result object (see module docstring)."""
    import yardstick
    from spans import Tracer, layer_metrics
    from workloads import write_inputs

    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = write_inputs(workload, seed, work / "inputs")
    setup, setup_rounds = time_setup(inputs, probes)
    setup_norm = at_reference_speed(setup, setup_rounds)

    tracer = Tracer() if trace else None
    min_jobs = 2 if trace else 1
    jobs: list[Job] = []
    # Closed loop: the next job starts when the previous one has been checked,
    # unless it would end more than half a typical job past the deadline.
    laps: list[float] = []
    yard = [yardstick.measure()]
    loop_start = time.perf_counter()
    while len(jobs) < min_jobs or (
        time.perf_counter() - loop_start + statistics.median(laps) / 2 < seconds
    ):
        traced = trace and len(jobs) % 2 == 1
        if traced:
            tracer.job = len(jobs)
        lap_start = time.perf_counter()
        job = run_job(workload, inputs, work, tracer if traced else None)
        first_ok = next((j for j in jobs if j.ok), job)
        if job.ok and job.digest != first_ok.digest:
            job.problems.append("output differs from the first job's on the same input")
        yard.append(yardstick.measure())
        jobs.append(job)
        laps.append(time.perf_counter() - lap_start)
    loop_s = time.perf_counter() - loop_start
    for job, norm in zip(jobs, at_reference_speed([j.wall for j in jobs], yard)):
        job.norm = norm

    ok = [j for j in jobs if j.ok]
    untraced = [j.norm for j in ok if not j.traced]
    first = ok[0].check if ok else None
    values = {
        "band_violation": first.band_violation if first else 0.0,
        "failed_frac": (len(jobs) - len(ok)) / len(jobs),
    }
    if trace:
        traced_walls = [j.wall for j in jobs if j.traced]
        values.update(layer_metrics(tracer.spans, len(traced_walls), inputs.scores_mb))
        values["trace.overhead_s"] = _median([j.norm for j in ok if j.traced]) - _median(untraced)
        values["host.yardstick_s"] = statistics.median(yard)
        values["host.job_wall_s"] = _median([j.wall for j in ok if not j.traced])
        tracer.write(work / "spans.jsonl")
    else:
        values.update({
            "tokens_per_s": inputs.tokens / _median(untraced) if untraced else 0.0,
            "job_s": _median(untraced),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "uas": first.uas if first else 0.0,
        })

    group = "per_layer" if trace else "end_to_end"
    units = declared_metrics()[group]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics declared but not computed: {sorted(missing)}")
    result = {
        "correct": bool(jobs) and len(ok) == len(jobs),
        "attempted": len(jobs),
        "failed": len(jobs) - len(ok),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload.name, "seed": seed, "trace": trace, "loop_s": loop_s,
        "inputs": inputs.describe(), "setup_wall_s": setup, "setup_s_samples": setup_norm,
        "setup_yardstick_s": setup_rounds, "yardstick_s": yard,
        "job_wall_s": [j.wall for j in jobs], "job_s_samples": [j.norm for j in jobs],
        "traced": [j.traced for j in jobs],
        "problems": {k: j.problems for k, j in enumerate(jobs) if j.problems},
        "ratios": first.ratios if first else None, "all_values": values,
    }
    with open(work / "result.json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, "details": details}, handle, indent=1)
    return {"result": result, "details": details}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def print_summary(out: dict) -> None:
    d, result = out["details"], out["result"]
    walls = d["job_s_samples"]
    print(f"perfbench {d['workload']} seed={d['seed']} trace={int(d['trace'])}: "
          f"{result['attempted']} jobs in {d['loop_s']:.2f} s, {result['failed']} failed")
    print("inputs: " + " ".join(f"{k}={v}" for k, v in d["inputs"].items()))
    print("setup_s samples (wall): " + " ".join(
        f"{t:.4f} ({w:.4f})" for t, w in zip(d["setup_s_samples"], d["setup_wall_s"])))
    print(f"job_s samples (wall) ({len(walls)}): " + " ".join(
        f"{t:.4f}{'T' if tr else ''} ({w:.4f})"
        for t, w, tr in zip(walls, d["job_wall_s"], d["traced"])))
    print("yardstick_s: " + " ".join(f"{t:.4f}" for t in d["yardstick_s"]))
    for k, problems in d["problems"].items():
        print(f"job {k} FAILED: " + "; ".join(problems))
    print(f"  {'failed_frac':34s} {d['all_values']['failed_frac']:.6g} fraction")
    print(f"  {'band_violation':34s} {d['all_values']['band_violation']:.6g} ratio")
    for name, metric in result["metrics"].items():
        if name not in ("failed_frac", "band_violation"):
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cip" / "__init__.py").is_file():
        print(f"perfbench: no cip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # One vCPU for the jobs, the yardstick and the set-up probes (which
    # inherit it): the vCPUs of a shared host run at different speeds, and a
    # job that migrates would be judged by another vCPU's yardstick.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_summary(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
