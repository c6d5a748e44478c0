#!/usr/bin/env python3
"""Build and run the SAGDFN repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-openloop --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
library from ../src) into .bench_build/; later calls rebuild
incrementally. The workload runs in its own process so its peak RSS is
its own. The last line of stdout is the JSON result; the exit code is
non-zero when the build, a correctness check or the run fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-openloop", "stream-10k", "train-metrla")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    # CARGO_TARGET_DIR, when set, names the checkout's build-output
    # directory; use it when it lies inside the checkout.
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.abspath(os.path.join(root, target))
    if not path.startswith(root + os.sep):
        path = os.path.join(root, ".bench_build")
    return path


def source_id(root):
    """Git commit when the checkout is a git work tree (read from .git
    without running git), plus a digest of the compiled sources."""
    sha = "not-a-git-checkout"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    sha = f.read().strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{sha}+src.{digest.hexdigest()[:12]}"


def build(root, out_dir):
    bench_dir = os.path.join(root, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(bench_dir):
            log(f"build tree {out_dir} belongs to {home[0]}; starting over")
            shutil.rmtree(out_dir)
            os.makedirs(out_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", bench_dir, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(out_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the open-loop timing self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no SAGDFN sources under {root}/src; nothing to benchmark")
        return 2
    out_dir = build_dir(root)
    # One build at a time per checkout.
    with open(os.path.join(out_dir + ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            binary = build(root, out_dir)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return 3
    if binary is None:
        return 3

    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = source_id(root)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(out_dir, "work")]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write((e.stdout or b"").decode(errors="replace"))
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with code {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
