#!/usr/bin/env python3
"""dialbench runner: build, prepare, run one workload, print its metrics.

Run from anywhere inside a checkout (Python standard library only):

    python3 bench/dialbench/run.py --workload serve_match --seed 1 \
        --seconds 10 --trace 0 [--out DIR]

It builds dialbench and dial_serve from source into .bench_build/dialbench,
prepares the inputs once per pair of binaries (smoke-scale TPLM pretraining
and the dial_serve bundle, under .bench_build/prepared/<sha256>), then runs
the workload in a fresh dialbench process. It prints every metric as
`workload metric value unit` and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 the per-layer metrics, and
writes trace_<workload>.json (Chrome trace-event format) to the output
directory. --out DIR also appends the full result record, with provenance,
to DIR/results.jsonl for compare.py. `--workload all` (or a comma list)
with --runs N runs each workload N times and needs --out.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not run (for instance outside a full source tree).
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK = Path(".bench_build")  # relative to ROOT, the working directory
WORKLOADS = ["al_smoke", "serve_match", "serve_topk_churn", "ibc_flat", "ibc_ivfpq"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"dialbench: {message}", file=sys.stderr)
    sys.exit(2)


def sh(cmd, **kwargs):
    """Runs a build step, its output on stderr so stdout stays the result."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True, **kwargs)


def build(build_dir):
    if not (ROOT / build_dir / "CMakeCache.txt").is_file():
        sh(["cmake", "-S", "bench/dialbench", "-B", str(build_dir),
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    sh(["cmake", "--build", str(build_dir), "-j", jobs,
        "--target", "dialbench", "dial_serve_bin"])
    return build_dir / "dialbench", build_dir / "dial" / "dial_serve"


def sha256_of(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update((ROOT / path).read_bytes())
    return digest.hexdigest()


def prepare(dialbench, binaries_sha):
    """Builds the prepared inputs once per binary pair; returns (dir, wall s)."""
    prepared = WORK / "prepared" / binaries_sha[:16]
    marker = ROOT / prepared / "prepare.json"
    if not marker.is_file():
        staging = ROOT / WORK / "prepared" / (binaries_sha[:16] + ".tmp")
        subprocess.run(["rm", "-rf", str(staging)], check=True)
        staging.mkdir(parents=True)
        start = time.monotonic()
        sh([str(dialbench), "--prepare", f"--prepared={staging.relative_to(ROOT)}"])
        seconds = time.monotonic() - start
        print(f"dialbench: prepare took {seconds:.1f} s", file=sys.stderr)
        (staging / "prepare.json").write_text(json.dumps({"prepare_s": seconds}))
        staging.rename(ROOT / prepared)
    return prepared, json.loads(marker.read_text())["prepare_s"]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_dialbench(cmd):
    """Runs one workload process; kills its process group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[1]} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"dialbench exited with status {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("dialbench printed no result")
    return json.loads(lines[-1])


def run_one(args, bench, workload, seed, binaries, prepared, prep_s, sha):
    dialbench, serve = binaries
    trace = args.trace == 1
    out_dir = Path(args.out) if args.out else WORK / "dialbench-out"
    (ROOT / out_dir).mkdir(parents=True, exist_ok=True)
    (ROOT / WORK / "sock").mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"trace_{workload}.json"
    result = run_dialbench([
        str(dialbench), f"--workload={workload}", f"--seed={seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--prepared={prepared}", f"--serve_bin={serve}",
        f"--trace_out={trace_file}", f"--socket_dir={WORK / 'sock'}"])

    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    correct = bool(result["correct"])
    for metric in declared:
        name = metric["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
        elif trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            print(f"dialbench: {workload} did not report {name}", file=sys.stderr)
            correct = False
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{workload} {name} {value!r} {metric['unit']}")
    for name, value in sorted(result["counts"].items()):
        print(f"{workload} {name} {value:g} count")

    summary = {"correct": correct, "attempted": int(result["attempted"]),
               "failed": int(result["failed"]), "metrics": metrics}
    if args.out:
        provenance = dict(result["provenance"])
        provenance.update({
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "binaries_sha256": sha, "seed": seed,
            "prepare_s": prep_s, "seconds": args.seconds})
        record = dict(summary, workload=workload, trace=args.trace,
                      counts=result["counts"], samples=result["samples"],
                      problems=result["problems"],
                      spans=result["spans"], provenance=provenance)
        with open(ROOT / out_dir / "results.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")
    return summary


def main():
    bench_file = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of %s, a comma list, or all (default)" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (seeds seed, seed+1, ...)")
    parser.add_argument("--out", default=None, help="result directory")
    parser.add_argument("--build", default=str(WORK / "dialbench"),
                        help="build directory, relative to the checkout root")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no source tree to build (CMakeLists.txt and src/)")
    if not bench_file.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    bench = json.loads(bench_file.read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        fail(f"unknown workload {unknown[0]}")
    if (len(workloads) > 1 or args.runs > 1) and not args.out:
        fail("several runs need --out")

    (ROOT / WORK).mkdir(exist_ok=True)
    with open(ROOT / WORK / "dialbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build/prepare at a time
        try:
            binaries = build(Path(args.build))
        except subprocess.CalledProcessError as e:
            fail(f"build failed: {e}")
        sha = sha256_of(binaries)
        prepared, prep_s = prepare(binaries[0], sha)

    summaries = []
    for run in range(args.runs):
        for workload in workloads:
            summaries.append(run_one(args, bench, workload, args.seed + run,
                                     binaries, prepared, prep_s, sha))
    if len(summaries) == 1:
        final = summaries[0]
    else:
        final = {"correct": all(s["correct"] for s in summaries),
                 "attempted": sum(s["attempted"] for s in summaries),
                 "failed": sum(s["failed"] for s in summaries), "metrics": {}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
