#!/usr/bin/env python3
"""Benchmark of the LLM-CER pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload cora-cer-noblock --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark (perfbench/build.py), then runs them
in one JVM on a local Spark session with one thread per available core.
One operation is one end-to-end resolution of the workload's generated
dataset. With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it also makes one traced resolution and a
counting pass, and reports the per-layer metrics.

Output: one line per metric, `workload name value unit`, then the result
as one JSON object on the last line. The full run, with its environment,
samples and (traced) spans, is written to perfbench/out/runs/. The exit
code is 0 only when the run finished and every correctness check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

import build

JVM_TIMEOUT_S = 170
HEAP = "4g"
JVM_FLAGS = [
    "-XX:+UseG1GC", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def run_jvm(cmd, env, log_path):
    """Run the JVM with a deadline; return its stdout, or None on failure."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"benchmark JVM killed after {JVM_TIMEOUT_S} s", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode not in (0, 1):
        return None
    return out


def main():
    # Turn SIGTERM into an exit, so that run_jvm stops the JVM on the way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        classes, digest = build.build()
    except build.BuildError as e:
        print(e, file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    master = f"local[{nproc}]"
    out_dir = build.OUT
    for d in ("runs", "logs", "spark-local", "tmp"):
        os.makedirs(os.path.join(out_dir, d), exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1000)}"
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}"] + JVM_FLAGS + [
        f"-Dspark.local.dir={os.path.join(out_dir, 'spark-local')}",
        f"-Djava.io.tmpdir={os.path.join(out_dir, 'tmp')}",
        f"-Dlog4j2.configurationFile={os.path.join(build.BENCH_DIR, 'log4j2.properties')}",
        "-cp", os.pathsep.join([classes] + build.spark_jars()),
        "repro.perfbench.Bench",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    # Spark prefers these to spark.local.dir; the run keeps its files in out/.
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_LOCAL_DIRS", "SPARK_EXECUTOR_DIRS", "LOCAL_DIRS")}
    env["SPARK_MASTER"] = master
    log_path = os.path.join(out_dir, "logs", run_id + ".log")

    t0 = time.monotonic()
    stdout = run_jvm(cmd, env, log_path)
    jvm_s = time.monotonic() - t0
    lines = [l for l in (stdout or "").splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if not lines:
        with open(log_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"no result; JVM log in {log_path}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1][len("PERFBENCH_RESULT "):])
    result["phases_s"]["jvm"] = jvm_s
    result["env"].update({
        "nproc": nproc, "jvm_xmx": HEAP, "git_commit": git_commit(),
        "source_sha256": digest, "seed": args.seed, "input_records": result["records"],
    })
    with open(os.path.join(out_dir, "runs", run_id + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)

    for f in result["failures"]:
        print(f"{args.workload} check-failed {f}", file=sys.stderr)
    print(f"{args.workload} resolutions {result['samples']['resolutions']} count")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
