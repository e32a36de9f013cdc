"""Benchmark of three fixed cohh CLI jobs, each run in a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cohh-ext2-f2 --seed 1 \
        --seconds 36 --trace 0

One client runs jobs in a closed loop: the next job starts when the
previous one has exited, and no state is carried between jobs.  Each job
runs `perfbench/job.py` against the checkout's `src/`, with the
environment variables that select cohh's code paths removed.  Every
job's output must pass its workload's gate (see workloads.py).

--trace 0 reports the end-to-end metrics: median solve time over the
jobs, median set-up time over several set-up-only probes, and median
peak resident set.  Set-up times, and the solve times of the workloads
that name a reference loop, are scaled to a fixed host speed: the
parent times a reference loop (reference.py) before and after each
child and divides the child's time by how much slower than nominal the
loop ran around it.  --trace 1 alternates untraced and traced jobs and
reports the per-layer metrics of layers.py.  Either way the last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the line before it names the environment.  Spans and
per-job rows are written to perfbench/out/.
"""

import argparse
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from layers import METRICS, layer_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Environment variables that pick cohh's kernel backend or thread count,
# and one that would make every child compile cohh from source again.
DROPPED_ENV = ("COHH_BACKEND", "COHH_NO_NUMBA", "COHH_THREADS",
               "NUMBA_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
SETUP_PROBES = 8
# At least one untraced and one traced job in a traced run.
MIN_JOBS = 2
# Every child is stopped by this many seconds after the run starts, and
# no job starts that is expected to end later, so a run ends well within
# three minutes.
DEADLINE_S = 165.0

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(request: dict, env: dict, root: Path, timeout: float) -> dict:
    """Run job.py once; return its report plus setup_s, wall_s and problems."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), json.dumps(request)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"problems": [f"timed out after {timeout:.0f} s"],
                "wall_s": time.monotonic() - start}
    wall = time.monotonic() - start
    try:
        report = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        tail = err.decode().strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"exit {proc.returncode}: {tail[0]}"],
                "wall_s": wall}
    report["setup_s"] = report["ready"] - start
    report["wall_s"] = wall
    report["problems"] = ([] if proc.returncode == report["status"]
                          else [f"exit code {proc.returncode}"])
    return report


def next_mode(trace: bool, jobs: list) -> str:
    if not trace:
        return "plain"
    return "traced" if len(jobs) % 2 else "plain"


def measure(job, spec: dict, seconds: float, trace: bool, root: Path):
    """Run the set-up probes and the jobs; return both lists."""
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    last = {}

    def child(mode, run, kinds=()):
        """One child, with the slowdown of the loops `kinds` around it."""
        nonlocal last
        if set(last) != set(kinds):
            last = reference.slowdown(kinds)
        report = run_child({"spec": spec, "mode": mode, "run": run},
                           env, root, max(deadline - time.monotonic(), 1.0))
        now = reference.slowdown(kinds)
        report["slowdown"] = reference.between(last, now)
        last = now
        if mode != "setup" and not report["problems"]:
            report["problems"] = job.check(report["status"],
                                           report["output"])
        report["mode"], report["run"] = mode, run
        return report

    child("setup", "warm-up")  # compiles bytecode; not counted
    probes = [child("setup", f"probe{i}", ["start"])
              for i in range(SETUP_PROBES)]
    kinds = [job.reference] if job.reference else []
    jobs = []
    start = time.monotonic()
    while True:
        mode = next_mode(trace, jobs)
        same = [j["wall_s"] for j in jobs if j["mode"] == mode]
        expected = same[-1] if same else (jobs[-1]["wall_s"] if jobs else 0)
        now = time.monotonic()
        if jobs and (now + expected > deadline or (
                len(jobs) >= MIN_JOBS and now - start + expected > seconds)):
            break
        jobs.append(child(mode, f"job{len(jobs)}", kinds))
    return probes, jobs


def environment(reports: list) -> dict:
    env = next((r["env"] for r in reports if "env" in r), {})
    return {**env,
            "numba_present": importlib.util.find_spec("numba") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "pythonhashseed": "0"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(job, probes, jobs):
    """Median scaled solve time, median scaled set-up time, median RSS."""
    ok = [j for j in jobs if not j["problems"]]
    setups = [p["setup_s"] / p["slowdown"]["start"]
              for p in probes if "setup_s" in p]
    if not ok or not setups:
        return {}
    values = {
        "solve_s": statistics.median(
            j["solve_s"] / j["slowdown"].get(job.reference, 1.0)
            for j in ok),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(
            j["peak_rss_kib"] / 1024 for j in ok),
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(job, jobs):
    plain = [j["solve_s"] for j in jobs
             if j["mode"] == "plain" and not j["problems"]]
    traced = [j for j in jobs if j["mode"] == "traced" and not j["problems"]]
    if not plain or not traced:
        return {}
    rows = [layer_values(j["trace"], job, statistics.median(plain))
            for j in traced]
    return {name: metric(statistics.median(r[name] for r in rows), unit)
            for name, unit in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cohh" / "cli.py").is_file():
        print(f"error: no cohh sources under {root / 'src'}; run from the "
              "root of a cohh checkout", file=sys.stderr)
        return 2

    job = WORKLOADS[args.workload]
    spec = job.spec(random.Random(args.seed))
    probes, jobs = measure(job, spec, args.seconds, bool(args.trace), root)
    children = probes + jobs
    failed = [r for r in children if r["problems"]]
    metrics = (per_layer(job, jobs) if args.trace
               else end_to_end(job, probes, jobs))
    env = environment(children)
    job_fail_frac = sum(1 for j in jobs if j["problems"]) / len(jobs)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [row for j in jobs if "trace" in j for row in j["trace"]["spans"]]
    if spans:
        counts = {j["run"]: j["trace"]["counts"]
                  for j in jobs if "trace" in j}
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps({"spans": spans, "counts": counts}))
    rows = [{k: r.get(k) for k in ("mode", "setup_s", "solve_s", "wall_s",
                                   "slowdown", "peak_rss_kib", "status",
                                   "problems")}
            for r in children]
    (out_dir / f"result-{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "env": env,
         "spec": spec, "children": rows, "fail_frac": job_fail_frac,
         "metrics": metrics}, indent=1))

    for r in failed:
        print(f"FAIL {r.get('mode', '?')}: {'; '.join(r['problems'])}")
    shown = " ".join(f"{k}={m['value']:.4g}{m['unit']}"
                     for k, m in metrics.items() if k in dict(END_TO_END))
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"{len(probes)} set-up probes, fail_frac={job_fail_frac:.3g} "
          f"{shown} env={json.dumps(env, sort_keys=True)}")
    print(json.dumps({"correct": not failed and bool(metrics),
                      "attempted": len(children), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
