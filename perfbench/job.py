"""Run one cohh CLI job in this (fresh) process and report one JSON line.

Usage: python3 job.py '<request>'

The request is a JSON object with keys "spec" (a cohh job file),
"mode" ("setup", "plain" or "traced") and "run" (a run id for spans).
The process imports cohh, parses the job and builds its coalgebra once
(set-up), then calls `cohh.cli.run` for the rendered output (solve).
The set-up build is a probe of its own: `cli.main` does not make it,
and `cli.run` builds the coalgebra again inside the solve.  The report
holds the monotonic clock reading when set-up finished, the solve time,
the exit status, the rendered output and the peak resident set; a
traced run adds its spans.  The process exits with the job's own exit
status.
"""

import json
import platform
import resource
import sys
import time


def peak_rss_kib():
    """Peak resident set of this process since it started, in KiB.

    ru_maxrss would not do: on Linux it keeps the parent's resident set
    at fork, so it reports the benchmark's own size when that is larger.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    request = json.loads(argv[1])
    mode = request["mode"]
    import numpy
    from cohh import _kernels, cli
    tracer = None
    if mode == "traced":
        import importlib

        from tracer import TARGETS, Tracer
        for mod in sorted({t[0] for t in TARGETS}):
            importlib.import_module("cohh." + mod)
        tracer = Tracer(request["run"])
        tracer.install()
    job = cli.parse_spec(json.dumps(request["spec"]))
    cli.build_coalgebra(job.coalgebra, job.field, job.t_max)
    ready = time.monotonic()
    report = {"ready": ready, "status": 0,
              "env": {"backend": _kernels.backend_name(),
                      "python": platform.python_version(),
                      "numpy": numpy.__version__}}
    if mode != "setup":
        if tracer is None:
            status, text = cli.run(job)
        else:
            status, text = tracer.span("job.solve", cli.run, job)
        report.update(solve_s=time.monotonic() - ready, status=status,
                      output=text)
    report["peak_rss_kib"] = peak_rss_kib()
    if tracer is not None:
        tracer.restore()
        report["trace"] = tracer.export()
    sys.stdout.write(json.dumps(report) + "\n")
    return report["status"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
