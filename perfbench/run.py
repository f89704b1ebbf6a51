"""Explain-query benchmark of the TSExplain reproduction.

Builds the program from source (see build.py), then runs one workload in a
fresh JVM and prints its result as the last line of standard output:

    python3 perfbench/run.py --workload synthetic --seed 11 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
`--workload all` runs every workload, each in its own JVM and in a fixed
order, and prints a table of all metrics; `--selftest` runs the benchmark's
self-tests. Run from the root of a checkout; everything the benchmark writes
goes under `.bench_build/`.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["liquor", "synthetic", "covid-relation"]
# One heap and collector for every workload and every commit. The serial
# collector keeps per-query times steady: under G1 the same liquor query
# drifted between 0.95 and 1.6 s within one JVM.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:+UseSerialGC", "-XX:-UsePerfData", "-Xss8m"]
# What spark-submit opens on Java 17+.
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def jvm(root: pathlib.Path, classes: pathlib.Path, main: str, args: list) -> list:
    """Runs `main` in a fresh JVM; returns its standard output lines, or
    exits when it fails or overruns."""
    work = root / build.BUILD_DIR
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    here = pathlib.Path(__file__).resolve().parent
    cmd = [build.java(), *JVM_FLAGS, *ADD_OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={here / 'log4j2.properties'}",
           "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.sql.warehouse.dir={work / 'warehouse'}",
           f"-Dperfbench.spawnEpochNs={time.time_ns()}",
           "-cp", f"{classes}:{build.spark_jars()}/*", main, *args]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(work / "spark"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{main} {' '.join(args)}: no result within {RUN_TIMEOUT_S} s")
    finally:
        # Also on a timeout or a signal: leave no JVM behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit(f"{main} {' '.join(args)}: exited with {proc.returncode}")
    return lines


def run_workload(root, classes, name, seed, seconds, trace) -> tuple:
    args = ["--workload", name, "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    lines = jvm(root, classes, "perfbench.Main", args)
    try:
        result = json.loads(lines[-1])
        assert set(result) == RESULT_KEYS
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write("\n".join(lines) + "\n")
        sys.exit(f"{name}: the last output line is not a result")
    return lines[:-1], result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload or --selftest is required")

    root = pathlib.Path.cwd()
    try:
        classes = build.build(root)
    except build.BuildError as e:
        sys.exit(f"build failed: {e}")

    if args.selftest:
        for line in jvm(root, classes, "perfbench.SelfTest", []):
            print(line)
        return

    if args.workload != "all":
        notes, result = run_workload(root, classes, args.workload, args.seed, args.seconds, args.trace)
        for line in notes:
            print(line)
        print(json.dumps(result))
        return

    rows = []
    for name in WORKLOADS:
        notes, result = run_workload(root, classes, name, args.seed, args.seconds, args.trace)
        for line in notes:
            print(line)
        frac = result["failed"] / result["attempted"]
        rows.append((name, "failed_frac", frac, "ratio"))
        rows += [(name, m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:15} {metric:28} {value:>14.4f} {unit}")
    print(json.dumps({"correct": all(r[2] == 0 for r in rows if r[1] == "failed_frac")}))


if __name__ == "__main__":
    # A SIGTERM unwinds like Ctrl-C, so the JVM is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    main()
