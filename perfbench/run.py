#!/usr/bin/env python3
"""Run one benchmark workload from the root of a repository checkout.

    python3 perfbench/run.py --workload count-migrate --seed 1 --seconds 15 --trace 0

Builds the benchmark (perfbench/build.sbt, which compiles the checkout's
src/main/scala together with perfbench/src) with sbt when the sources
changed since the last build, then runs it on the JVM. Build outputs, the
build log, the cached classpath and every temporary file (sbt's, Spark's,
JFR's) live under .bench_build/ in the checkout. The last line of standard
output is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("count-migrate", "nexmark", "spark-microbatch")
BUILD_DIR = ".bench_build"
MAIN = "repro.perfbench.Main"

# Spark on JDK 17 needs these module opens.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]
JVM_OPTS = [
    "-Xms3g", "-Xmx3g", "-XX:+UseG1GC", "-XX:+PerfDisableSharedMem",
    "-XX:FlightRecorderOptions=stackdepth=256",
    "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
    "-XX:+IgnoreUnrecognizedVMOptions",
] + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]


def temp_dir(root):
    """Temporary directory inside the checkout, for every JVM started."""
    path = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(path, exist_ok=True)
    return path


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp(root):
    """Hash of every build input's path, size and modification time."""
    h = hashlib.sha256()
    inputs = [os.path.join(root, "perfbench", "build.sbt"),
              os.path.join(root, "perfbench", "project", "build.properties")]
    for top in ("src/main/scala", "perfbench/src"):
        for d, _, files in os.walk(os.path.join(root, top)):
            inputs += [os.path.join(d, f) for f in files]
    for p in sorted(inputs):
        st = os.stat(p)
        h.update(f"{os.path.relpath(p, root)} {st.st_size} {st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def build(root):
    """Compile with sbt if needed; return the runtime classpath."""
    out = os.path.join(root, BUILD_DIR)
    cp_file = os.path.join(out, "classpath.txt")
    stamp_file = os.path.join(out, "stamp.txt")
    stamp = source_stamp(root)
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as f:
                    return f.read()
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    env["SBT_OPTS"] = " ".join([
        env.get("SBT_OPTS", ""), "-Dsbt.offline=true", "-Dsbt.server.autostart=false",
        f"-Dsbt.global.base={os.path.join(out, 'sbt-global')}",
    ]).strip()
    # Also reaches the JVMs the sbt launcher starts before sbt itself.
    env["JAVA_TOOL_OPTIONS"] = f"-XX:+PerfDisableSharedMem -Djava.io.tmpdir={temp_dir(root)}"
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
            cwd=os.path.join(root, "perfbench"), env=env, stdout=subprocess.PIPE,
            stderr=log, text=True, timeout=840)
        log.write(proc.stdout)
    cp = [l for l in proc.stdout.splitlines() if "scala-2.13" in l and os.pathsep in l]
    if proc.returncode != 0 or not cp:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"build failed (exit {proc.returncode}); see {log_path}")
    with open(cp_file, "w") as f:
        f.write(cp[-1].strip())
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        fail("run from the root of a repository checkout: src/main/scala/repro is missing")
    if not os.path.isfile(os.path.join(root, "perfbench", "build.sbt")):
        fail("perfbench/build.sbt is missing")

    cp = build(root)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java] + JVM_OPTS + [f"-Djava.io.tmpdir={temp_dir(root)}", "-cp", cp, MAIN,
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run exceeded 170 s")
    sys.exit(code)


if __name__ == "__main__":
    main()
