#!/usr/bin/env python3
"""Build tokbench from the checkout's sources and run one workload.

    python3 tokbench/run.py --workload node_hot --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads in turn, each printing its lines.

Run from the root of a checkout. The first run configures and builds an
optimised, assertion-free copy of src/ plus the benchmark into
$CARGO_TARGET_DIR/tokbench (default .bench_build/tokbench); later runs
reuse it. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the run's provenance and noise indicators, also kept under
.bench_build/results/ together with the traced run's span file.

Exit codes: 0 = ran and every correctness check passed; 3 = a correctness
check failed (the result is still printed); 2 = nothing to run (no sources,
bad arguments, build failure or a refused unoptimised build).
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("node_hot", "node_cold_batch", "cluster3_repl")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"tokbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The commit id when the checkout is a git repository, else a digest
    of the source tree (the benchmarked program is exactly src/)."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    """Configures (once) and builds the Release benchmark binary."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = [cmake, "-S", str(root / "tokbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cache = (build_dir / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        fail(f"{build_dir} is not a Release build; refusing to benchmark it")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = [cmake, "--build", str(build_dir), "--target", "tokbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "service" / "server.hpp").is_file():
        fail(f"no toka sources under {root / 'src'}; nothing to benchmark")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "tokbench"
    out_dir = target / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    build(root, build_dir)

    sha = source_id(root)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [str(build_dir / "tokbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir),
               "--git-sha", sha]
        try:
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
        if run.returncode not in (0, 3):
            fail(f"{workload}: tokbench exited with {run.returncode}")
        lines = [l for l in run.stdout.splitlines() if l.strip()]
        if not lines or not lines[-1].startswith('{"correct"'):
            fail(f"{workload}: tokbench printed no result")
        print("\n".join(lines), flush=True)
        status = max(status, run.returncode)
    sys.exit(status)


if __name__ == "__main__":
    main()
