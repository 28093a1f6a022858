#!/usr/bin/env python3
"""Builds the AirIndex end-to-end benchmark from source and runs it.

Usage (from the root of an AirIndex checkout):

    python3 perfbench/run.py --workload NAME --seed N [--seconds S]
                             [--trace 0|1] [--jobs N]

The first run configures and builds perfbench/ (Release) into
$CARGO_TARGET_DIR/perfbench, defaulting to .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr. The benchmark
binary then prints its run record, its metrics and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. The exit code is the binary's: non-zero when an output check
failed or an argument was rejected.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FLAGS_WITH_VALUES = ("--workload", "--seed", "--seconds", "--trace", "--jobs")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_flags(argv):
    """Checks flag names only; the binary validates every value."""
    if len(argv) % 2 != 0:
        fail("every flag needs exactly one value")
    flags = {}
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag not in FLAGS_WITH_VALUES:
            fail(f"unknown argument '{flag}'")
        if flag in flags:
            fail(f"repeated flag {flag}")
        flags[flag] = value
    for required in ("--workload", "--seed"):
        if required not in flags:
            fail(f"{required} is required")
    return flags


def source_id():
    """The git commit when there is one, else a hash of the measured tree."""
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False)
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "tools" / "bench_compare_lib.cc",
             ROOT / "tools" / "bench_compare_lib.h"]
    for tree in (ROOT / "src", BENCH_DIR):
        files.extend(p for p in tree.rglob("*") if p.is_file())
    for path in sorted(files):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no AirIndex sources under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode:
            print("perfbench: build failed", file=sys.stderr)
            sys.exit(1)


def main(argv):
    flags = parse_flags(argv)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build(build_dir)

    command = [str(build_dir / "perfbench"), *argv,
               "--commit", source_id()]
    if flags.get("--trace") == "1":
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        name = f"{flags['--workload']}-seed{flags['--seed']}.json"
        command += ["--trace-file", str(traces / name)]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
