"""Run one batch of a workload in this fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED BATCH TRACE

Set-up is everything before the first job: interpreter start, `import
imj.cli` and generating the batch.  The worker prints `ready` when set-up
ends, runs the jobs one after another (closed loop, one client), checks
each against its closed form outside the timed region, and prints one JSON
line with the per-job records.  Before the first job and after each job
it times the host-speed reference kernel (see hostspeed.py).  With TRACE=1
the public functions of every `imj` module are wrapped first, and the
spans are written to `.perfbench_out/`.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import imj.cli  # noqa: E402
import imj.towers  # noqa: E402

import workloads  # noqa: E402
from hostspeed import REF_NOMINAL_S, reference_seconds  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"


def run_job(job):
    """Execute one job; return (exit code, output, seconds).  A job that
    raises is recorded with the exception in place of the exit code."""
    stdout = io.StringIO()
    t0 = perf_counter()
    try:
        if job.call is not None:
            out, rc = imj.towers.ssq_stage(*job.call), 0
        else:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = imj.cli.main(job.argv)
            out = stdout.getvalue()
    except SystemExit as exc:  # argparse usage errors
        rc, out = exc.code, stdout.getvalue()
    except Exception as exc:  # the batch goes on; the job counts as failed
        rc, out = f"raised {type(exc).__name__}: {exc}", None
    return rc, out, perf_counter() - t0


def main(argv):
    workload, seed, batch, trace = argv[0], int(argv[1]), int(argv[2]), argv[3]
    jobs = workloads.batch_jobs(workload, seed, batch)
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)

    records = []
    before = reference_seconds()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(i)
        rc, out, secs = run_job(job)
        after = reference_seconds()
        if tracer is not None:
            tracer.end_job(REF_NOMINAL_S / ((before + after) / 2))
        reason = job.check(rc, out)
        known = (reason is not None and job.known_defect is not None
                 and rc == workloads.EXIT_OK)
        records.append({"kind": job.kind, "secs": secs,
                        "reading": (before + after) / 2, "reason": reason,
                        "known_defect": job.known_defect if known else None,
                        "argv": job.argv or [job.kind, *job.call]})
        before = after

    result = {
        "records": records,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}-{batch}.csv.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
