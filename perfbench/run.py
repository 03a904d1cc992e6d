#!/usr/bin/env python3
"""Time-to-verdict benchmark: builds perfbench/verdict_bench from source,
runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload suite_schedule --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-goldens

With --trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics (and a Chrome trace under .bench_build/perfbench/out/).
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "verdict_bench")
ANSWERS = os.path.join("perfbench", "known_answers.txt")
WORKLOADS = ("suite_schedule", "suite_rf", "sharded")
# Start-ups timed per untraced run; setup_s is their median.
SETUP_SAMPLES = 21
TAIL_PCT = 75
# Longest a run may take beyond its measured seconds: one pass of the
# slowest workload plus the traced run's probes, with a wide margin.
GRACE_SECONDS = 90


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def check_layout():
    for path in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                 "bench/bench_shapes.h", ANSWERS):
        if not os.path.isfile(path):
            fail("%s not found; run from the root of a full checkout" % path, 2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    os.makedirs(OUT_DIR, exist_ok=True)


def time_setup(args):
    """Seconds from spawning the binary to its 'ready' line (first check)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([BINARY] + args + ["--setup-only"],
                         stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    t1 = time.perf_counter()
    p.stdout.read()
    if p.wait() != 0 or line.strip() != "ready":
        fail("set-up failed for: " + " ".join(args))
    return t1 - t0


def run_binary(args, seconds):
    """Runs one measured invocation; returns (setup seconds, report dict)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        p.kill()
        p.wait()
        fail("benchmark did not start: " + line.strip())
    try:
        rest, _ = p.communicate(timeout=seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail("benchmark overran its time limit")
    if p.returncode != 0:
        fail("benchmark exited with code %d" % p.returncode)
    lines = rest.strip().splitlines()
    if not lines:
        fail("benchmark printed no report")
    return setup, json.loads(lines[-1])


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


def end_to_end(report, memory_report, setup_samples):
    walls = [p["wall_s"] for p in report["passes"]]
    cpus = [p["user_s"] + p["sys_s"] for p in report["passes"]]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_s.p50": (statistics.median(walls), "s"),
        "pass_s.tail": (percentile(walls, TAIL_PCT), "s"),
        "cpu_s.p50": (statistics.median(cpus), "s"),
        "peak_rss_mb": (memory_report["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(report, units):
    traced = [p for p in report["passes"] if p["traced"]]
    plain = [p for p in report["passes"] if not p["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = (statistics.median(p["layers"][name] for p in traced),
                     units[name])
    out["fiber.round_trip_ns"] = (report["fiber"]["round_trip_ns"], "ns")
    out["fiber.reset_ns"] = (report["fiber"]["reset_ns"], "ns")
    user = sum(p["user_s"] for p in plain)
    sys_s = sum(p["sys_s"] for p in plain)
    out["proc.sys_share"] = (sys_s / (user + sys_s) if user + sys_s else 0.0,
                             "ratio")
    out["trace.overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0, "ratio")
    return out


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def measure(workload, seed, seconds, trace, answers):
    """Runs one workload; prints the human block and returns the result."""
    spec = load_spec()
    base = ["--workload", workload, "--seed", str(seed), "--answers", answers]
    start = time.perf_counter()
    setup_samples = []
    extra = []
    if trace:
        trace_file = os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
        extra = ["--trace-out", trace_file]
    else:
        # Peak memory comes from one pass in registry order in a fresh
        # process: the library keeps some memory after each run, so a
        # long run's peak would depend on the seeded order and on how many
        # passes fit, i.e. on speed.
        mem_setup, memory_report = run_binary(
            base + ["--seconds", "0.001", "--fixed-order"], seconds)
        setup_samples = [mem_setup] + [
            time_setup(base) for _ in range(SETUP_SAMPLES - 2)]
    remaining = max(1.0, seconds - (time.perf_counter() - start))
    setup, report = run_binary(
        base + ["--seconds", repr(remaining)] + extra, remaining)
    setup_samples.append(setup)
    if not trace:
        report["attempted"] += memory_report["attempted"]
        report["failed"] += memory_report["failed"]
        report["mismatches"] += memory_report["mismatches"]

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(report, units)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(report, memory_report, setup_samples)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        fail("metrics not produced: " + ", ".join(missing))
    metrics = {n: metrics[n] for n in wanted}

    st = report["stamp"]
    passes = report["passes"]
    attempted, failed = report["attempted"], report["failed"]
    print("perfbench %s seed=%d trace=%d passes=%d (%d traced)" % (
        workload, seed, trace, len(passes),
        sum(1 for p in passes if p["traced"])))
    print("host nproc=%d cpu=%r compiler=%r build=%s optimized=%s jobs=%d "
          "comparable=%s%s" % (
              st["nproc"], st["cpu_model"], st["compiler"], st["build_type"],
              st["optimized"], st["jobs"], st["comparable"],
              "" if st["comparable"] else " (" + st["not_comparable_because"]
              + ")"))
    for name, (value, unit) in metrics.items():
        print("  %-28s %.6g %s" % (name, value, unit))
    print("  %-28s %.6g ratio (%d of %d checks differ from the known answer)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    if trace and metrics["spec.check_s"][0] > 0:
        print("  spec layer cap: the SpecChecker takes %.2f%% of explore time, "
              "so a spec-only speedup can save at most that share of pass_s"
              % (100 * metrics["spec.share"][0]))
    elif trace:
        print("  spec layer: the callbacks run inside forked workers, which "
              "the benchmark cannot wrap; spec.check_s is not measured here")
    else:
        walls = sorted(p["wall_s"] for p in passes)
        beyond = sum(1 for w in walls if w > metrics["pass_s.tail"][0])
        print("  pass_s.tail is p%d of %d passes (%d beyond it); "
              "setup_s is the median of %d start-ups; "
              "peak_rss_mb is one registry-order pass in a fresh process "
              "(%.1f MB after all passes); proc.sys_share %.3f" % (
                  TAIL_PCT, len(walls), beyond, len(setup_samples),
                  report["peak_rss_kb"] / 1024.0,
                  sum(p["sys_s"] for p in passes)
                  / sum(p["user_s"] + p["sys_s"] for p in passes)))
    for m in report["mismatches"][:5]:
        print("  MISMATCH %s (pass %d): expected %r, got %r" % (
            m["check"], m["pass"], m["expected"], m["got"]))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as f:
        json.dump({"result": result, "report": report,
                   "setup_samples": setup_samples}, f, indent=1)
    return result


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def check_trace_nesting(path):
    """Every span lies inside its parent; spec callbacks sit under an
    exploration under a check, shards directly under a check."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    events = [e for e in events if e["ph"] == "X"]
    by_id = {e["args"]["id"]: e for e in events}
    kinds = set()
    for e in events:
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        p = by_id[parent]
        if e["ts"] + 1.0 < p["ts"] or e["ts"] + e["dur"] > p["ts"] + p["dur"] + 1.0:
            return "span %r escapes its parent %r" % (e["name"], p["name"])
        chain = [e["name"].split(" ")[0], p["name"].split(" ")[0]]
        if chain[0].startswith("spec."):
            grand = by_id[p["args"]["parent"]]["name"].split(" ")[0]
            chain.append(grand)
            if chain[1:] != ["explore", "check"]:
                return "spec span not under explore/check: %r" % chain
        elif chain[0] == "explore" and chain[1] != "check":
            return "explore span not under a check"
        elif " shard " in e["name"] and chain[1] != "check":
            return "shard span not under a check"
        kinds.add("shard" if " shard " in e["name"] else chain[0])
    return kinds


def run_self(args):
    cmd = [sys.executable, os.path.abspath(__file__)] + args
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        fail("self-test run failed: %s\n%s" % (" ".join(args), r.stderr))
    return r.stdout, r.stderr, json.loads(r.stdout.strip().splitlines()[-1])


def selftest():
    spec = load_spec()
    problems = []
    kinds = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            group = spec["per_layer" if trace else "end_to_end"]
            out, _, res = run_self(["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace)])
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: wrong answers on HEAD" % workload)
            got = res["metrics"]
            if sorted(got) != sorted(m["name"] for m in group):
                problems.append("%s trace=%d: metric names differ" % (
                    workload, trace))
            for m in group:
                g = got.get(m["name"], {})
                if g.get("unit") != m["unit"] or not isinstance(
                        g.get("value"), (int, float)) or not math.isfinite(
                        g["value"]):
                    problems.append("%s trace=%d: %s lacks value or unit %s"
                                    % (workload, trace, m["name"], m["unit"]))
                if not re.search(r"^ +%s +\S+ %s$" % (
                        re.escape(m["name"]), re.escape(m["unit"])), out,
                        re.MULTILINE):
                    problems.append("%s trace=%d: %s not printed" % (
                        workload, trace, m["name"]))
            if trace:
                nest = check_trace_nesting(os.path.join(
                    OUT_DIR, "trace-%s-seed1.json" % workload))
                if isinstance(nest, str):
                    problems.append("%s: %s" % (workload, nest))
                else:
                    kinds |= nest
    for k in ("check", "explore", "spec.begin", "spec.complete", "shard"):
        if k not in kinds:
            problems.append("no %s spans in any trace" % k)

    # One deliberately wrong expected answer must raise fail_ratio above 0
    # and name the check.
    wrong = os.path.join(BUILD_DIR, "selftest_answers.txt")
    with open(ANSWERS) as f:
        text = f.read()
    mutated = text.replace("ms-queue                   verified-exhaustive",
                           "ms-queue                   falsified/assertion")
    if mutated == text:
        problems.append("could not plant a wrong answer for ms-queue")
    with open(wrong, "w") as f:
        f.write(mutated)
    out, err, res = run_self(["--workload", "suite_schedule", "--seed", "1",
                              "--seconds", "1", "--trace", "0",
                              "--answers", wrong])
    if res["correct"] or res["failed"] == 0 or "check ms-queue" not in err:
        problems.append("a wrong known answer did not raise fail_ratio")
    elif "fail_ratio" not in out:
        problems.append("fail_ratio not printed")

    for p in problems:
        log("selftest: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--answers", default=ANSWERS,
                    help="known-answer file (the self-test plants a wrong one)")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-goldens", action="store_true")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    check_layout()
    build()
    if a.selftest:
        return selftest()
    if a.record_goldens:
        return subprocess.run(
            [BINARY, "--record-goldens", os.path.join("perfbench", "golden")]
        ).returncode
    if a.workload is None:
        fail("--workload is required", 2)
    result = measure(a.workload, a.seed, a.seconds, a.trace, a.answers)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
