#!/usr/bin/env python3
"""Benchmark of the Coconut reproduction: builds the harness and runs one workload.

    python3 perfbench/run.py --workload <bulk|query|update> --seed N --seconds S --trace 0|1

Run it from the repository root. The first run builds the harness
(perfbench/src) with sbt against the program's own sbt project (the root
build.sbt, which compiles src/main/scala into target/). The harness and its
classpath go to $CARGO_TARGET_DIR (default .bench_build); later runs reuse
that build while the sources and build files are unchanged. Each workload
then runs in a fresh JVM with a pinned heap and one named collector. The
last line of standard output is the JSON result; records and spans go to
<build dir>/results.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk", "query", "update")
HEAP = {"bulk": "3g", "query": "1g", "update": "1g"}
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """The program's and the harness's sources and both builds' definitions."""
    roots = [ROOT / "src" / "main" / "scala", HERE / "src"]
    files = [p for r in roots for p in r.rglob("*") if p.is_file()]
    for build in (ROOT, HERE):
        files.append(build / "build.sbt")
        files += [p for p in (build / "project").glob("*") if p.is_file()]
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def sbt_env(target):
    env = dict(os.environ)
    env["PERFBENCH_TARGET"] = str(target)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in opts:
        repos = Path.home() / ".sbt" / "repositories"
        if repos.is_file():
            opts += f" -Dsbt.override.build.repos=true -Dsbt.repository.config={repos}"
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts.strip()
    return env


def build(build_dir, stamp):
    """Compile with sbt unless the classpath was written for these sources."""
    target = build_dir / "perfbench"
    cp_file, stamp_file = target / "classpath.txt", target / "stamp"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    target.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false", "writeClasspath"]
    try:
        res = subprocess.run(cmd, cwd=HERE, env=sbt_env(target), stdout=sys.stderr,
                             stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if res.returncode != 0 or not cp_file.is_file():
        die(f"build failed (sbt exit {res.returncode})")
    stamp_file.write_text(stamp)
    return cp_file.read_text().strip()


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        die(f"program build or sources not found under {ROOT}; run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    files = source_files()
    stamp = digest(files)
    cp = build(build_dir, stamp)

    heap = HEAP[args.workload]
    nproc = os.cpu_count() or 1
    cmd = ["java", f"-Xms{heap}", f"-Xmx{heap}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-XX:ParallelGCThreads={nproc}", "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(build_dir / "results"),
           "--commit", f"{commit()} sources-sha256:{stamp[:16]}"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
