#!/usr/bin/env python3
"""fastcast repository benchmark.

    python3 perfbench/run.py --workload bcast-expander --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and builds
the library, the scenario_serve daemon and the benchmark client from source
into $CARGO_TARGET_DIR (default .bench_build) with CMake; later runs reuse
that build. The client then measures the workload for --seconds seconds and
checks every output. The report lines name each metric with its unit and
sample count; the last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1 (whose spans are written to
<build dir>/traces/). Exit status 0 means every check passed.

See perfbench/README.md for the workloads, the metrics and the map from
layer metrics to end-to-end metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bcast-expander", "bcast-bottleneck", "serve-mixed")
BUILD_TYPE = "Release"
CLIENT_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once and build the two programs the benchmark runs. A lock
    file keeps concurrent runs in one checkout from building at once."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "perfbench_client", "scenario_serve"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(step))


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over every file the benchmark builds from."""
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "examples" / "scenario_serve.cpp"]
    files += sorted(p for p in HERE.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_client(cmd):
    """Run the client in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"client exceeded {CLIENT_TIMEOUT_S} s", 1)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    if not (ROOT / "src").is_dir() or \
            not (ROOT / "examples" / "scenario_serve.cpp").is_file():
        die(f"no fastcast sources next to {HERE.name}/; run from a full "
            "source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    build(build_dir)

    work_dir = build_root / "run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cmd = [str(build_dir / "perfbench_client"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve-bin={build_dir / 'scenario_serve'}",
           f"--work-dir={work_dir}"]
    if args.trace:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={traces / f'{args.workload}-seed{args.seed}.json'}")
    try:
        code, out = run_client(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        die("client printed no result", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("client's last line is not JSON", 1)

    # The metrics must be exactly the ones BENCHMARK.json declares.
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        die("metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(got))}, extra "
            f"{sorted(set(got) - set(declared))}, units "
            f"{sorted(n for n in got if n in declared and got[n] != declared[n])}",
            1)

    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
             "git_commit": git_commit(), "source_sha256": source_digest()}
    for line in lines[:-1]:
        print(line)
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
