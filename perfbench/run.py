"""Benchmark of rauzykit: run one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload draw --seed 1 --seconds 32 --trace 0

Run it from the root of a rauzykit checkout; it imports the package from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with two, a 10^6-point
# rauzy_cloud took 0.55-0.80 s of CPU time for 0.49-0.60 s of wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("draw", "classify", "bpa")
PROBES = 5  # fresh processes timed for setup_s; their median is reported
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter


def pin_malloc() -> None:
    """Fix glibc's mmap threshold at its 128 KiB default.  Left dynamic, it
    rises after a large free, so where later buffers land depends on the
    allocation history: the same bpa run peaked at 117, 125 or 139 MB; with
    the threshold fixed it peaked at 117.0-117.1 MB."""
    ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def probe(src: str, manifest: str) -> tuple[float, float]:
    """Seconds from starting a fresh process until it has imported rauzykit and
    loaded the inputs, and the part of that spent importing."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), src, manifest],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.read()
    proc.wait()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start, float(line.split()[1])


def run_round(jobs, tracer=None):
    """Each job once: per-job seconds, summaries, and the number of jobs that
    raised."""
    times, summaries, failed = [], [], 0
    for job in jobs:
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = job.run()
            else:
                with tracer.span("job"):
                    raw = job.run()
        except Exception:  # a failing operation is counted, and the run goes on
            times.append(time.perf_counter() - start)
            summaries.append({"error": traceback.format_exc()})
            failed += 1
            continue
        times.append(time.perf_counter() - start)
        summaries.append(job.summarize(raw))
        del raw
    return times, summaries, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "rauzykit", "__init__.py")):
        print(f"error: no rauzykit sources under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    pin_malloc()

    out = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", out],
        check=True,
    )
    manifest_path = os.path.join(out, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)

    setups = [probe(src, manifest_path) for _ in range(PROBES)]

    sys.path.insert(0, src)
    import rauzykit
    import rauzykit.cli  # noqa: F401

    if not os.path.abspath(rauzykit.__file__).startswith(src + os.sep):
        print(f"error: imported rauzykit from {rauzykit.__file__}, not {src}", file=sys.stderr)
        return 2
    import jobs as jobs_module

    subs = {name: rauzykit.load_substitution(path) for name, path in
            zip(manifest["subs"], manifest["files"])}
    jobs = jobs_module.build(manifest, subs, out)

    rounds = []
    tracer = None
    if args.trace:
        import tracing

        # untraced, traced, untraced: the overhead is measured against the mean
        # of the two untraced rounds, which cancels a steady drift in speed
        tracer = tracing.Tracer()
        rounds.append(run_round(jobs))
        tracer.install()
        try:
            rounds.append(run_round(jobs, tracer))
        finally:
            tracer.uninstall()
        rounds.append(run_round(jobs))
    else:
        # whole rounds while another fits in --seconds; at least one
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            rounds.append(run_round(jobs))
            now = time.perf_counter()
            if len(rounds) == 1:
                # read after the first pass, so that it does not depend on
                # how many rounds fit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if now - start + (now - began) > args.seconds:
                break

    # checks: after every timed job, outside every metric
    checked_from = time.perf_counter()
    problems = []
    first = rounds[0][1]
    for job, summary in zip(jobs, first):
        if "error" in summary:
            print(f"{job.name}: raised\n{summary['error']}", file=sys.stderr)
            continue
        try:
            found = jobs_module.check(job.spec, summary, manifest["subs"], out)
        except Exception:  # a check that cannot run is a failed check
            found = [traceback.format_exc()]
        problems += [f"{job.name}: {what}" for what in found]
    for _, summaries, _ in rounds[1:]:
        for job, a, b in zip(jobs, first, summaries):
            if a != b:
                problems.append(f"{job.name}: output differs between rounds")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(
        f"rounds of {', '.join(f'{sum(r[0]):.2f}' for r in rounds)} s; "
        f"checks took {time.perf_counter() - checked_from:.1f} s",
        file=sys.stderr,
    )

    per_job = [statistics.median(r[0][i] for r in rounds) for i in range(len(jobs))]
    for job, seconds in zip(jobs, per_job):
        print(f"{job.name:32s} {seconds:10.4f} s")
    metrics = {}
    if tracer is None:
        metrics["setup_s"] = {"value": statistics.median(s for s, _ in setups), "unit": "s"}
        metrics["wall_s"] = {"value": sum(per_job), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        metrics["cli.import_s"] = {"value": statistics.median(i for _, i in setups), "unit": "s"}
        for name, (value, unit) in tracer.metrics().items():
            metrics[name] = {"value": value, "unit": unit}
        untraced = (sum(rounds[0][0]) + sum(rounds[2][0])) / 2
        metrics["trace.overhead_s"] = {"value": sum(rounds[1][0]) - untraced, "unit": "s"}
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
    shutil.rmtree(out, ignore_errors=True)

    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs) * len(rounds),
        "failed": sum(r[2] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
