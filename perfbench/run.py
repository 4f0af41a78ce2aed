#!/usr/bin/env python3
"""Builds and runs the MalNet benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload study-paper --seed 22 --seconds 36 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds a
Release tree under $CARGO_TARGET_DIR (default .bench_build); later runs
only check it is up to date. The last line of standard output is the JSON
result of the run; build output goes to standard error.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("study-paper", "study-sharded", "serve-mixed")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over every file under src/ and perfbench/, in path order."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(root):
    """The git commit when the checkout is a repository, plus a digest of
    the sources either way (a checkout without .git has only the latter)."""
    digest = "src-" + source_digest(root)
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return digest
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return digest
    return (out.stdout.strip() + "/" + digest) if out.returncode == 0 else digest


def build(root, build_dir, targets):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=22)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found; run from the root of a full checkout")
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench-release")

    if args.selftest:
        build(root, build_dir, ["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode)

    build(root, build_dir, ["perfbench"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(out_dir, "work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--commit", commit_id(root)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results_dir, tag + ".trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    with open(os.path.join(results_dir, tag + ".txt"), "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"run failed with exit code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("run printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed JSON result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
