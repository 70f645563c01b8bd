#!/usr/bin/env python3
"""Roster benchmark for the k-means toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Builds the benchmark (perfbench/build.sbt, which compiles the repository's
own `root` project) when its sources changed, then runs one workload in a
fresh JVM for S seconds of timed roster passes. Human-readable lines go to
standard output; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Exits non-zero, without that line, if
the build or the run fails. `--workload all` runs every workload untraced
and traced, then prints one JSON line whose metric names are prefixed with
the workload.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")
JVM_OPTS = ["-XX:+UseParallelGC", "-Xms2g", "-Xmx2g", "-XX:-UsePerfData"]
# Extra JVM flags per workload. Spark's code base takes many fits to warm up;
# lower compile thresholds bring its timed passes to a steady speed sooner.
WORKLOADS = {
    "local-bigcross-k100": [],
    "local-nyc-k1000": [],
    "spark-bigcross-k100": ["-XX:CompileThresholdScaling=0.2"],
}
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file whose content decides what the benchmark builds."""
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")):
        for dirpath, dirnames, names in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    return files


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_group(cmd, cwd, timeout, env=None, stdout=None):
    """Runs cmd in its own process group and returns its exit code, or None on
    timeout. The group is killed and reaped on timeout and on any exit of
    this script, SIGTERM included."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.STDOUT
                            if stdout is not None else None, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(stamp):
    """Compiles with sbt unless the launch file for this exact source stamp exists."""
    launch = os.path.join(TARGET, "launch.txt")
    stamp_file = os.path.join(TARGET, "launch.stamp")
    if os.path.exists(launch) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return launch
    os.makedirs(TARGET, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    log_path = os.path.join(TARGET, "build.log")
    with open(log_path, "w") as log:
        code = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
                          f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData", "writeLaunch"],
                         HERE, BUILD_TIMEOUT_S, env=env, stdout=log)
    if code != 0:
        with open(log_path) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        fail("build failed" if code is not None else "build timed out", 3)
    with open(stamp_file, "w") as fh:
        fh.write(stamp + "\n")
    return launch


def run_workload(workload, seed, seconds, trace, launch, stamp):
    """Runs one workload in a fresh JVM; returns its result line, or None."""
    with open(launch) as fh:
        lines = fh.read().splitlines()
    classpath, java_opts = lines[0], [l for l in lines[1:] if l]
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    result = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(result):
        os.remove(result)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *JVM_OPTS, *WORKLOADS[workload], f"-Djava.io.tmpdir={tmp}", *java_opts, "-cp", classpath,
           "perfbench.Main", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--result", result, "--out", OUT, "--stamp", stamp]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-local"))
    sys.stdout.flush()
    code = run_group(cmd, ROOT, RUN_TIMEOUT_S, env=env)
    if code is None:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    if code != 0 or not os.path.exists(result):
        print(f"perfbench: {workload} failed with exit code {code}", file=sys.stderr)
        return None
    with open(result) as fh:
        return json.loads(fh.read())


def main():
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    scale = os.environ.get("REPRO_SCALE")
    if scale is not None and scale.strip() not in ("1", "1.0"):
        fail(f"refusing to run with REPRO_SCALE={scale}: it resizes every workload")
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        fail("no program sources next to the benchmark (need build.sbt and src/main/scala/repro)")

    stamp = source_stamp()
    launch = build(stamp)
    os.makedirs(OUT, exist_ok=True)
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    results = []
    for workload, trace in runs:
        res = run_workload(workload, args.seed, args.seconds, trace, launch, stamp)
        if res is None:
            sys.exit(4)
        results.append((workload, res))
    if len(results) == 1:
        print(json.dumps(results[0][1]), flush=True)
        return
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}/{k}": v for w, r in results for k, v in r["metrics"].items()},
    }), flush=True)


if __name__ == "__main__":
    main()
