#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark binary is built from the checkout's sources into
.bench_build/ (the repository's CMake project, with the benchmark targets
added through perfbench/project_hook.cmake). The last line of stdout is the
run's JSON result; it is printed only when the binary exits cleanly and its
metric names and units match BENCHMARK.json.
"""
import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench_work")
BIN = os.path.join(BUILD, "ppg_perfbench")
SERVE = os.path.join(BUILD, "src", "serve", "ppg_serve")
WRAPPER = os.path.join(ROOT, "perfbench", "serve_wrapper.sh")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170
# Variables that would change what the program does or where it writes.
SCRUBBED_ENV = ("PPG_TRACE", "PPG_METRICS", "PPG_FAILPOINTS", "PPG_NN_BACKEND",
                "PPG_PERFBENCH_TRACE_DIR", "PPG_PERFBENCH_PID_DIR",
                "PPG_PERFBENCH_SERVE")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler and runtime temporaries stay in the checkout
    return env


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources at {ROOT}", 2)
    os.makedirs(BUILD, exist_ok=True)
    env = child_env()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", BUILD,
               "-DCMAKE_PROJECT_INCLUDE=" +
               os.path.join(ROOT, "perfbench", "project_hook.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "ppg_perfbench",
           "ppg_serve_bin", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def run_binary(args):
    """Runs ppg_perfbench; returns (exit code, stdout lines)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BIN, "--work-dir", WORK, "--serve-bin", SERVE, "--wrapper", WRAPPER]
    cmd += args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True, start_new_session=True)

    def interrupted(signum, _frame):
        sys.exit(128 + signum)  # unwinds through the cleanup below

    previous = {s: signal.signal(s, interrupted)
                for s in (signal.SIGTERM, signal.SIGINT)}
    out = ""
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        # The binary stops its fleet itself; this reaps anything left behind
        # by a crash, a timeout or a signal (workers share the binary's
        # session).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for s, handler in previous.items():
            signal.signal(s, handler)
    return (proc.returncode if out else 1), out.splitlines()


def validate(lines, spec, trace):
    """The result object, or None with a message on stderr."""
    if not lines:
        print("perfbench: no output", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: result keys differ from the contract", file=sys.stderr)
        return None
    table = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"perfbench: metrics differ from BENCHMARK.json "
              f"(missing {missing}, extra {extra}, or units differ)",
              file=sys.stderr)
        return None
    bad = [k for k in got if not NAME_RE.match(k)]
    if bad:
        print(f"perfbench: malformed metric names {bad}", file=sys.stderr)
        return None
    return result


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {names})", 2)
    build()
    code, lines = run_binary(["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)])
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with code {code}")
    if validate(lines, spec, args.trace) is None:
        print("\n".join(lines), file=sys.stderr)
        fail("result rejected")
    print("\n".join(lines), flush=True)


# The checks a corrupted output of each workload must trip (see the
# --corrupt hook): D&C-GEN repeats must also differ from the reference
# digest; ordered output is corrupted into duplicates.
CORRUPT_CAUGHT_BY = {
    "dcgen_bulk": ("nonconforming", "digest_mismatch"),
    "fleet_mix": ("nonconforming",),
    "ordered_trained": ("duplicate", "digest_mismatch"),
}


def self_test():
    """Checks the checks: metric names against BENCHMARK.json, the stated
    fleet_mix rate, and that a corrupted output trips each check meant to
    catch it."""
    spec = load_spec()
    for table in ("end_to_end", "per_layer"):
        for m in spec[table]:
            if not NAME_RE.match(m["name"]):
                fail(f"self-test: bad metric name {m['name']!r}")
    build()
    problems = []
    for workload, checks in CORRUPT_CAUGHT_BY.items():
        for trace in (0, 1):
            code, lines = run_binary(["--workload", workload, "--seed", "1",
                                      "--seconds", "2", "--trace", str(trace)])
            result = validate(lines, spec, trace) if code == 0 else None
            if result is None or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: clean run not "
                                "accepted or not correct")
            if workload == "fleet_mix" and trace == 0:
                rate = re.search(r"sent at (\d+)/s", "\n".join(lines))
                why = next(w["why"] for w in spec["workloads"]
                           if w["name"] == "fleet_mix")
                if not rate or f"{rate.group(1)} req/s" not in why:
                    problems.append("fleet_mix rate differs from "
                                    "BENCHMARK.json's why")
        code, lines = run_binary(["--workload", workload, "--seed", "1",
                                  "--seconds", "2", "--trace", "0",
                                  "--corrupt", "1"])
        result = validate(lines, spec, 0) if code == 0 else None
        if (result is None or result["failed"] < 1 or result["correct"]
                or result["metrics"]["ok_frac"]["value"] >= 1):
            problems.append(f"{workload}: a corrupted output went unnoticed")
        for check in checks:
            if f"# failed {check} " not in "\n".join(lines):
                problems.append(f"{workload}: the {check} check did not "
                                "catch the corrupted output")
    for p in problems:
        print(f"perfbench: self-test: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("perfbench: self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    start = time.monotonic()
    if args.self_test:
        self_test()
    elif args.workload:
        run(args)
    else:
        parser.error("--workload or --self-test is required")
    print(f"perfbench: done in {time.monotonic() - start:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
