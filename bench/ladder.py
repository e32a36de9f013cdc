"""The CLI ladder: fixed cohh jobs, each run in a fresh process, timed, and
checked against the SHA-256 prefix of its pinned JSON output.

    python bench/ladder.py [--label L] [--repeat N] [--slow] [--against TREE]

Each row runs `python -m cohh.cli <job> --format json` with
PYTHONHASHSEED=0 and the tree's `src` as PYTHONPATH.  A run records
its wall time, its peak RSS (os.wait4 on the child), its exit status and
the SHA-256 of its stdout; a row fails when any run exits nonzero or
prints output whose digest does not start with the pin.  --slow adds the
two long audits.  --against runs every row on a second checkout too,
alternating which tree goes first, so the two time columns compare
directly.  --label writes BENCH_<label>.json at the repository root.
The exit status is 1 when a row fails.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (job arguments, SHA-256 prefix of its --format json stdout)
ROWS = [
    ("cohh --degrees 3 --field 2", "5cddd4849ee2696b"),
    ("cohh --degrees 3 --field 2 --max-s 10 --max-t 60", "7d3fe3ee5ebfd79d"),
    ("cohh --degrees 3,5 --field 2 --max-s 4 --max-t 24", "bc0a622d76ba502f"),
    ("cohh --degrees 3,5 --field 0 --max-s 4 --max-t 24", "6d91a202dbbefdf6"),
    ("cohh --degrees 3,5 --field 2", "99359cd54b5304c2"),
    ("cohh --degrees 3,5 --field 0", "010d29b0478a2dfe"),
    ("cohh --degrees 3,5,7 --field 2", "da0cdb1a37982e4b"),
    ("cohh --degrees 3,5,7 --field 0", "c7fcade677c78fe7"),
    ("cohh --kind polynomial --degrees 2 --field 3 --max-s 4 --max-t 16",
     "ec54dd08176a0431"),
    ("cohh --kind polynomial --degrees 2 --field 3 --max-s 6 --max-t 30",
     "6176336e3c7d6b6a"),
    ("cohh --kind polynomial --degrees 2 --field 3", "b9dbad6c3e7d669f"),
    ("cotor --degrees 3,5,7 --field 2", "870acd0c462049a7"),
    ("cotor --degrees 3,5,7 --field 0", "23ca155c9a5502a5"),
    ("e2 --degrees 3,5 --field 3", "288284968df4cc09"),
    ("e2 --degrees 3,5 --field 0", "3f3d479e3f2617ff"),
    ("e2 --degrees 3,5,7 --field 2", "f13eab5ddc808d8f"),
    ("audit --degrees 3 --field 2 --max-s 5 --max-t 18", "290e4d9c150182b0"),
    ("audit --degrees 3,5 --field 3 --max-s 4 --max-t 20", "9b890253d78add0c"),
    ("audit --degrees 3,5 --field 2", "8df0faae7543b8d8"),
    ("audit --degrees 3,5 --field 0", "8343a03198e15d70"),
    ("audit --degrees 3,5,7 --field 2 --max-s 4 --max-t 30",
     "95061fda16c12350"),
    ("audit --degrees 3 --max-s 2000 --max-t 5", "95e5a5fc36f9f921"),
]
SLOW = [
    ("audit --degrees 3,5 --field 2 --max-s 8 --max-t 50", "592831a9d7e59891"),
    ("audit --degrees 3,5,7 --field 2", "27c18b0de2b9543f"),
]


def run_job(tree: Path, job: str) -> dict:
    """One fresh `python -m cohh.cli` process on tree's sources: wall
    time, peak RSS, exit status, the SHA-256 of stdout and the end of
    stderr."""
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(Path(tree) / "src")}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "cohh.cli", *job.split(), "--format",
             "json"], stdout=subprocess.PIPE, stderr=err, env=env, cwd=tree)
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.stdout.close()
        # wait4 reaped the child, so Popen must not wait for it again
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace").strip()
    return {"wall_s": round(wall, 3),
            "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
            "exit": child.returncode,
            "sha256": hashlib.sha256(out).hexdigest(),
            **({"stderr": message[-400:]} if message else {})}


def ladder(rows, trees: dict, repeat: int) -> list:
    """Every row, repeat times on each of trees (name -> checkout), the
    trees' order alternating from one repeat to the next."""
    report = []
    names = list(trees)
    for job, pin in rows:
        runs = []
        for k in range(repeat):
            for name in (names if k % 2 == 0 else names[::-1]):
                runs.append({"tree": name, **run_job(trees[name], job)})
        report.append({"job": job, "pin": pin, "runs": runs,
                       "ok": all(r["exit"] == 0 and r["sha256"].startswith(pin)
                                 for r in runs)})
    return report


def environment() -> dict:
    return {"python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "numba_present": importlib.util.find_spec("numba") is not None,
            "pythonhashseed": "0"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="write BENCH_<label>.json at the "
                                        "repository root")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of each row on each tree")
    parser.add_argument("--slow", action="store_true",
                        help="add the two long audits")
    parser.add_argument("--against", type=Path,
                        help="another checkout to alternate every row with")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    trees = {"head": ROOT}
    if args.against:
        if not (args.against / "src" / "cohh" / "cli.py").is_file():
            parser.error(f"no cohh sources under {args.against / 'src'}")
        trees["against"] = args.against.resolve()
    env = environment()
    print(json.dumps(env))
    rows = ROWS + (SLOW if args.slow else [])
    report = ladder(rows, trees, args.repeat)
    for row in report:
        cells = "  ".join(f"{r['tree']} {r['wall_s']:.2f} s "
                          f"{r['peak_rss_mib']:.0f} MiB" for r in row["runs"])
        print(f"{'ok  ' if row['ok'] else 'FAIL'} {row['job']}: {cells}")
    if args.label:
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps({"label": args.label, "environment": env,
                                    "rows": report}, indent=1) + "\n")
        print(f"wrote {path}")
    return 0 if all(row["ok"] for row in report) else 1


if __name__ == "__main__":
    sys.exit(main())
