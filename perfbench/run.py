#!/usr/bin/env python3
"""Koios query benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --references <name>

Builds the repository's main sources together with the benchmark (sbt, offline)
when any source changed since the last build, then runs the benchmark on a JVM
with a fixed heap. The last line of standard output is the JSON result; the
exit code is that of the benchmark (non-zero unless every answer was exact).
See perfbench/README.md for workloads and metrics.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
STAMP = os.path.join(BENCH, "target", "perfbench-classpath.txt")
# Fixed, pre-touched heap, so that no heap page is first touched while timing;
# no perf-data file outside the checkout.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseG1GC", "-XX:-UsePerfData"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Everything whose change requires a rebuild.
SOURCES = ["build.sbt", "project/build.properties", "src/main",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Xmx2g", "-XX:-UsePerfData"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", "")] + opts).strip()
    return env


def classpath():
    digest = source_digest()
    if os.path.isfile(STAMP):
        with open(STAMP) as fh:
            lines = fh.read().splitlines()
        if len(lines) == 2 and lines[0] == digest:
            return lines[1]
    print("perfbench: building", file=sys.stderr, flush=True)
    try:
        out = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
            cwd=BENCH, env=sbt_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out.stdout)
        fail("build failed")
    cp = lines[-1].strip()
    os.makedirs(os.path.dirname(STAMP), exist_ok=True)
    with open(STAMP, "w") as fh:
        fh.write(f"{digest}\n{cp}\n")
    return cp


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    for rel in ("build.sbt", "src/main/scala", "perfbench/build.sbt"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from the root of a Koios checkout")
    cp = classpath()
    cmd = (["java"] + JVM_FLAGS + [f"-Dperfbench.gitSha={git_sha()}", "-cp", cp,
           "repro.perfbench.Main"] + sys.argv[1:] + ["--dir", BENCH])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        # Filling a whole reference pool takes minutes; a run must not.
        code = proc.wait(timeout=None if "--references" in sys.argv else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
