"""Fixed reference loops that measure how fast the host runs right now.

The shared host this benchmark runs on changes speed every few seconds,
and its slow states slow pure-Python work (dicts, tuples, small ints,
Fractions) by 1.4-2x while numpy's large-array kernels hardly notice.
Starting a process drifts on its own.  So the benchmark times, next to
every child whose time it scales, a loop that does the same kind of
work, and divides the child's time by how much slower than nominal the
loop ran.

The loops are fixed here, so that a change to cohh never changes them:

- `python`: sums of sparse vectors over F_3 keyed by tuples of words,
  the object-heavy interpreter work that the induced operators,
  `graded.compose` and the dense Fraction elimination all are;
- `start`: a fresh interpreter that imports numpy and exits, the bulk
  of a job's set-up.

NOMINAL_S is, in round figures, each loop's time on a 2-vCPU Xeon VM
(Python 3.11, numpy 2.4) in a fast spell, so scaled times read roughly
as seconds on that VM.
"""

import random
import statistics
import subprocess
import sys
import time


def python_loop(p=3):
    rng = random.Random(11)
    n = 160
    words = [tuple(sorted(rng.sample(range(40), 4))) for _ in range(n)]
    cols = []
    for i in range(n):
        col = {}
        for k in range(6):
            word = words[(i * 7 + k * 13) % n]
            for j in range(3):
                face = word[:j] + word[j + 1:]
                col[face] = (col.get(face, 0) + (j + 1) * (k + 1)) % p
        cols.append({w: c for w, c in col.items() if c})
    out = {}
    for a in cols:
        for b in cols[:140]:
            for w, c in a.items():
                if w in b:
                    key = w + (len(out) % 5,)
                    out[key] = (out.get(key, 0) + c * b[w]) % p
    return len(out)


def start_loop():
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return 1


LOOPS = {"python": python_loop, "start": start_loop}
NOMINAL_S = {"python": 0.019, "start": 0.2}
# A sample is the median of this many runs; a process start is long
# enough to time once.
REPEATS = {"python": 3, "start": 1}


def slowdown(kinds, clock=time.perf_counter):
    """{kind: median loop time over REPEATS runs / its nominal time}."""
    out = {}
    for kind in kinds:
        times = []
        for _ in range(REPEATS[kind]):
            start = clock()
            LOOPS[kind]()
            times.append(clock() - start)
        out[kind] = statistics.median(times) / NOMINAL_S[kind]
    return out


def between(before, after):
    """Slowdown of the interval between two samples: their mean."""
    return {k: (before[k] + after[k]) / 2 for k in before}
