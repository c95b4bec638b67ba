#!/usr/bin/env python3
"""Build the benchmark driver against the dl2f library and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload online-8x8 --seed 1 --seconds 10 --trace 0

The first call configures and builds `.bench_build/` (Release, -j4); later
calls only re-check the build. Build output goes to stderr, so the last
line of stdout is the driver's JSON result. Exits non-zero when the build
or the run fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, and always a hash
    of the sources the driver is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        digest.update(f.read())
    ident = "tree-sha256:" + digest.hexdigest()[:16]
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
        ident = "commit:" + commit + " " + ident
    except (OSError, subprocess.CalledProcessError):
        pass
    return ident


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    cmd = [binary] + sys.argv[1:] + ["--source-id", source_id()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
