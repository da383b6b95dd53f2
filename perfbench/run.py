"""Benchmark driver for `imj`: one workload, one seed, one run.

    python3 perfbench/run.py --workload mahler --seed 1 --seconds 24

A run is a closed loop with one client.  It runs a seeded list of jobs in
batches, each batch in a fresh interpreter (so module caches start cold),
and checks every output against a closed form.  --seconds sizes the list:
a run has round(BATCHES_PER_24_S * --seconds / 24) batches, about --seconds
of work at reference speed.  Job times are rescaled to reference speed by the
kernel readings taken around each job (hostspeed.py), and set-up time by
the run's median reading; memory is reported as measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs batch 0 twice, plain
and with every public `imj` function wrapped, and prints the per-layer
metrics and the tracing overhead.  The last stdout line is the result JSON;
the line before it holds the run metadata.  Exits 2 without a result when
the `imj` sources are missing or a worker crashes.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REF_NOMINAL_S, at_reference  # noqa: E402
from tracing import TRACED  # noqa: E402
from workloads import BATCHES_PER_24_S, WORKLOADS  # noqa: E402

MIN_BATCHES = 2
# a worker still running this long after the run started is killed, so the
# run ends within the three minutes a run may take
RUN_LIMIT_S = 170
_START = perf_counter()


class BenchError(RuntimeError):
    pass


def run_batch(workload: str, seed: int, batch: int, trace: int) -> dict:
    """Spawn a worker for one batch; return its result plus `setup_s`, the
    time from spawn to its `ready` line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         str(batch), str(trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    killer = threading.Timer(max(1.0, RUN_LIMIT_S - (t0 - _START)), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, err = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {workload}/{seed}/{batch} exited "
                         f"{proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def tail(latencies: list) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten jobs beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_run(workload: str, seed: int, seconds: float):
    """The seeded job list sized for --seconds: every run of a (seed,
    --seconds) pair measures the same jobs, whatever the program's speed.
    A run stops early, after at least two batches, once it has taken four
    times --seconds (capped at two minutes)."""
    planned = max(MIN_BATCHES,
                  round(BATCHES_PER_24_S[workload] * seconds / 24))
    cap = min(4 * seconds, 120)
    batches = []
    start = perf_counter()
    while len(batches) < planned:
        batches.append(run_batch(workload, seed, len(batches), 0))
        if len(batches) >= MIN_BATCHES and perf_counter() - start > cap:
            break
    records = [r for b in batches for r in b["records"]]
    raw = [r["secs"] for r in records]
    lat = [at_reference(r["secs"], r["reading"]) for r in records]
    attempted = len(records)
    failed = sum(1 for r in records if r["reason"])
    tail_s, tail_pct = tail(lat)
    setup_s = statistics.median(b["setup_s"] for b in batches)
    reading = statistics.median(r["reading"] for r in records)
    metrics = {
        # one spawn's set-up does not follow the readings around it, but a
        # run's median set-up follows the run's median reading
        "setup_s": (at_reference(setup_s, reading), "s"),
        "jobs_per_s": ((attempted - failed) / sum(lat), "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail_s, "s"),
        "ok_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (max(b["max_rss_kb"] for b in batches) / 1024, "MB"),
    }
    detail = {
        "batches": len(batches),
        "wall_s": perf_counter() - start,
        "job_tail_percentile": tail_pct,
        "job_tail_samples": attempted,
        "failed_share": failed / attempted,
        "failures": [{"kind": r["kind"], "reason": r["reason"],
                      "known_defect": r["known_defect"], "argv": r["argv"]}
                     for r in records if r["reason"]],
        # the same figures before rescaling to reference speed
        "measured": {
            "setup_s": setup_s,
            "jobs_per_s": (attempted - failed) / sum(raw),
            "job_p50_s": statistics.median(raw),
            "job_tail_s": tail(raw)[0],
        },
        "host_slowdown": reading / REF_NOMINAL_S,
    }
    return metrics, records, detail


def traced_run(workload: str, seed: int):
    """Batch 0 plain, then traced; per-layer metrics from the traced one."""
    plain = run_batch(workload, seed, 0, 0)
    traced = run_batch(workload, seed, 0, 1)
    layers = traced["layers"]
    metrics = {}
    for mod, path in TRACED:
        name = f"{mod}.{path}"
        metrics[f"{name}.calls"] = (layers[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (layers[f"{name}.self_s"], "s")
        if f"{name}.cells" in layers:
            metrics[f"{name}.cells"] = (layers[f"{name}.cells"], "count")
            metrics[f"{name}.max_cells"] = (layers[f"{name}.max_cells"],
                                            "count")
    pieces = layers["ssq.FilteredComplexSS.piece.calls"]
    metrics["ssq.FilteredComplexSS.piece.hit_ratio"] = (
        (pieces - layers["piece_distinct"]) / pieces if pieces else 0.0,
        "share")
    cobars = layers["cobar.cobar_ext.calls"]
    metrics["cobar.cobar_ext.cold_share"] = (
        layers["cobar_cold"] / cobars if cobars else 0.0, "share")
    plain_s = sum(at_reference(r["secs"], r["reading"])
                  for r in plain["records"])
    traced_s = sum(at_reference(r["secs"], r["reading"])
                   for r in traced["records"])
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s,
                                       "share")
    detail = {"batches": 1, "plain_job_s": plain_s, "traced_job_s": traced_s,
              "spans": f".perfbench_out/spans-{workload}-0.csv.gz"}
    return metrics, traced["records"], detail


def git_sha() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # run the finally blocks that stop a worker when the run is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "imj" / "cli.py").is_file():
        print(f"perfbench: no imj sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, records, detail = traced_run(args.workload, args.seed)
        else:
            metrics, records, detail = timed_run(args.workload, args.seed,
                                                 args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = len(records)
    failed = sum(1 for r in records if r["reason"])
    unexpected = [r for r in records if r["reason"] and not r["known_defect"]]
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "src_lines": src_lines(), "attempted": attempted, "failed": failed,
        "unexpected_failures": len(unexpected), **detail,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
