#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build (or
$CARGO_TARGET_DIR when set); the first run configures and compiles, later
runs only check that the build is current. The benchmark's last stdout line is
the result JSON. Exits non-zero, printing no result, when the build or the
run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "--parallel", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bin", "perfbench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Compiler and benchmark temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir, "run")
    args = sys.argv[1:]
    if not any(a == "--workdir" or a.startswith("--workdir=") for a in args):
        args += ["--workdir", workdir]
    # The benchmark stops every server it starts and removes its per-run
    # directories; run it to completion and pass its exit code through.
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
