#!/usr/bin/env python3
"""Build cosabench from source, then run one workload.

    python3 cosabench/run.py --workload {cold-solve,warm-hits,mixed-tiers} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The first call configures and builds
cosa_core, cosad and the cosabench binary (Release) under .bench_build/;
later calls rebuild only what changed. All other arguments go to the
binary unchanged; its last line of standard output is the result
JSON. `--selftest` builds and runs the binary's unit tests instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cosabench")


def clean_env():
    """The caller's environment without any COSA* variable."""
    return {k: v for k, v in os.environ.items() if not k.startswith("COSA")}


def build():
    """Configure (once) and build; returns an error message or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return "no CoSA source tree next to cosabench/ (nothing to build)"
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "cosabench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return "build failed (log: %s)" % log_path
    return None


def main(argv):
    error = build()
    if error:
        sys.stderr.write("cosabench: %s\n" % error)
        return 2
    if argv == ["--selftest"]:
        command = [os.path.join(BUILD, "cosabench_selftest")]
    else:
        command = [os.path.join(BUILD, "cosabench"),
                   "--work-dir", os.path.join(BUILD_ROOT, "cosabench-work")]
        command += argv
    return subprocess.run(command, env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
