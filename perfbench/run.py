"""Benchmark of anisointerp: the dilation study and the pattern DFT (and, when
named, the 3-D Strang-Fix check), each measured end to end and, in a
separate traced run, per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload study --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Every repetition is a fresh process (``child.py``) on inputs generated from
the seed.  With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics from
one traced repetition, plus untraced repetitions for the tracing overhead.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# runnable by name but not part of "all" or BENCHMARK.json: too noisy on a
# shared host for the benchmark's bounds (see README.md)
EXTRA_WORKLOADS = ["sfcheck-3d"]

SETUP_ONLY_RUNS = 10  # extra fresh processes that only set up, for setup_s
RUN_DEADLINE_S = 165  # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("ANISO_THREADS", None)  # the program runs with its default pool
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(manifest: Path, flags: list[str], deadline: float):
    """One fresh process; returns (result or None, error text)."""
    out = manifest.with_name("child.json")
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(manifest), str(out), *flags],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0 or not out.exists():
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(out.read_text()), ""


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "aniso_threads_cleared": True,
        "aniso_threads_inherited": os.environ.get("ANISO_THREADS"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the inputs, run the repetitions, check and aggregate."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        man = inputs.generate(workload, seed, work)
        manifest = work / "manifest.json"
        ops_per_unit = len(man["ops"]) if "ops" in man else 1
        setups, errors = [], []
        if not trace:
            for _ in range(SETUP_ONLY_RUNS):
                res, err = _run_child(manifest, ["--setup-only"], deadline)
                if res:
                    setups.append(res["setup_s"])
                else:
                    errors.append(err)
        reps, traced = [], None
        start = time.monotonic()
        while True:
            t_rep = time.monotonic()
            want_trace = trace and traced is None
            res, err = _run_child(manifest, ["--trace"] if want_trace else [], deadline)
            if want_trace:
                traced = res or {}
            else:
                reps.append(res)
            if err:
                errors.append(err)
            now = time.monotonic()
            last = now - t_rep
            if reps and (now - start + last > seconds or now + last > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    done = [r for r in reps + [traced] if r]
    attempted = ops_per_unit * len(reps + ([traced] if trace else []))
    failures = [f for r in done for f in r["op_failures"] if f]
    failed = len(failures) + ops_per_unit * (len(reps) + bool(trace) - len(done))
    selftest = [m for r in done for m in r["selftest"]]
    ok = [r for r in reps if r]
    if not ok:
        raise RuntimeError(f"{workload}: no repetition finished: {errors[:3]}")

    if trace:
        metrics = _per_layer(traced, statistics.median(r["wall_s"] for r in ok))
    else:
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in ok]),
            "wall_s": statistics.median(r["wall_s"] for r in ok),
            "op_p50_s": statistics.median(t for r in ok for t in r["op_latencies"]),
            # the study's peak depends on which scales its pool overlaps, so
            # the highest peak of any repetition is steadier than the median
            "peak_rss_mb": max(r["peak_rss_mb"] for r in ok),
        }
    return {
        "correct": failed == 0 and not selftest and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "detail": {"repetitions": [[round(r["wall_s"], 4), round(r["peak_rss_mb"], 1)]
                                   for r in ok],
                   "failures": failures[:5],
                   "selftest": selftest, "errors": errors[:3]},
    }


def _per_layer(traced: dict, untraced_wall: float) -> dict:
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        span, stat = name.rsplit(".", 1)
        if not traced:
            out[name] = 0.0
        elif name == "trace.overhead_s":
            out[name] = traced["wall_s"] - untraced_wall
        elif span == "cache":
            out[name] = traced["cache"][stat]
        elif stat == "overlap":
            out[name] = traced["overlap"].get(span, 0.0)
        else:
            out[name] = traced["spans"].get(span, {}).get(stat, 0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "anisointerp" / "__init__.py").is_file():
        print(f"error: the program is missing: no src/anisointerp under {ROOT}",
              file=sys.stderr)
        return 1
    broken = spans.selftest()
    if broken:
        print(f"error: tracer self-test failed: {broken}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    results = {}
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            res = measure(workload, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        detail = res.pop("detail")
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_frac={res['failed'] / res['attempted']:.4g} "
              f"detail={json.dumps(detail)}")
        for name, m in res["metrics"].items():
            print(f"  {workload:<11} {name:<48} {m['value']:.6g} {m['unit']}")
        results[workload] = res
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
