#!/usr/bin/env python3
"""Build the perfbench package from source and run one benchmark run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); a traced run writes its spans to
<build>/trace/<workload>-seed<N>.json. The last stdout line is the run's
result JSON (see perfbench/src/main.cpp). Exit codes: 0 ok, 1 build or run
failure, 2 usage error.
"""
import argparse
import os
import re
import subprocess
import sys

WORKLOADS = ("wan1k_boot", "ebone_faults")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class StrictParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"run.py: {message}\n")
        sys.exit(2)


def whole_number(text):
    if not re.fullmatch(r"[0-9]{1,19}", text):
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    return int(text)


def parse_args(argv):
    p = StrictParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=whole_number)
    p.add_argument("--seconds", required=True, type=whole_number)
    p.add_argument("--trace", required=True, type=whole_number, choices=(0, 1))
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be in 1..120")
    return args


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("run.py: no library sources (src/) next to perfbench/\n")
        return None
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if _have("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg + gen, stdout=log, stderr=log).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def _have(tool):
    return any(
        os.access(os.path.join(d, tool), os.X_OK)
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if d
    )


def main(argv):
    args = parse_args(argv)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(os.getcwd(), target, "perfbench"))
    exe = build(build_dir)
    if exe is None:
        sys.stderr.write("run.py: build failed\n")
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
