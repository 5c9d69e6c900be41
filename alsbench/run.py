#!/usr/bin/env python3
"""End-to-end, layered CP-ALS benchmark on the host-parallel backend.

Run from the root of a checkout:

    python3 alsbench/run.py --workload patents-tns --seed 1 --seconds 15 --trace 0

Steps, in order:
  1. build: configure and build alsbench/ (libamped + the alsbench driver)
     into .bench_build/alsbench (or $CARGO_TARGET_DIR/alsbench);
  2. generate: `alsbench gen` writes the workload's input files from
     --seed into a fresh input directory (untimed), then every file is
     read once so the page cache is warm;
  3. measure:
       --trace 0  one `alsbench run` process per repetition (file in ->
                  model file out), repeated until --seconds have passed
                  (at least MIN_REPS); each end-to-end metric is the median
                  over repetitions. The first repetition also runs the
                  correctness gate, outside its timed region, and every
                  repetition's model files must equal the first's byte for
                  byte.
       --trace 1  one verified untraced repetition, then `alsbench trace`
                  processes (the per-layer split, spans written as Chrome
                  JSON) until --seconds have passed; each per-layer metric
                  is the median over them, and every traced run's model
                  files must equal the untraced repetition's.
  4. print provenance and, last, one JSON line:
       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--selftest` runs every workload at a tiny size through both modes,
asserts each metric named in BENCHMARK.json is printed with its unit, and
asserts the correctness gate rejects a deliberately perturbed factor.

Exit status is 0 only when a result was printed.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("patents-tns", "twitch-snapshot", "batch-spill")
MIN_REPS = 3
# A run must end within three minutes of its build; children are killed
# (and count as failed) at this deadline.
RUN_BUDGET_S = 170
_deadline = time.monotonic() + RUN_BUDGET_S

END_TO_END_UNITS = {
    "setup_s": "s",
    "als_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "io.load_s": "s",
    "io.load_mb_per_s": "MB/s",
    "io.stream.readahead_hit_frac": "frac",
    "io.stream.inline_loads": "count",
    "core.build_s": "s",
    "core.build_mb": "MB",
    "core.mttkrp_s": "s",
    "core.mttkrp_call_s.p50": "s",
    "core.mttkrp_call_s.p90": "s",
    "core.mttkrp_calls": "count",
    "core.mttkrp_nnz_per_s": "nnz/s",
    "exec.h2d_s": "s",
    "exec.kernel_s": "s",
    "exec.sync_s": "s",
    "exec.lane_busy_frac": "frac",
    "exec.lane_imbalance": "frac",
    "exec.lane_scaling": "x",
    "exec.batch_overlap": "frac",
    "exec.graph_dispatches": "count",
    "core.als_update_s": "s",
    "core.als_update_frac": "frac",
    "core.als_mttkrp_frac": "frac",
    "core.als_fit_s": "s",
    "core.kernel_cache.hit_frac": "frac",
    "core.checkpoints_written": "count",
    "tensor.model_io_s": "s",
    "core.fit_abs_err": "fit",
    "trace.overhead_frac": "frac",
}

# The split each workload was chosen to show: (workload, claim, share of
# the named end-to-end time, from the traced metrics). A share above one
# half holds the claim; anything else is printed as contradicted.
PREDICTIONS = (
    ("patents-tns", "core.mttkrp_s is most of als_s",
     lambda m: m["core.als_mttkrp_frac"]),
    ("patents-tns", "text parsing (io.load_s) is most of setup",
     lambda m: m["io.load_s"] / (m["io.load_s"] + m["core.build_s"])),
    ("twitch-snapshot", "core.als_update_s is most of als_s",
     lambda m: m["core.als_update_frac"]),
    ("twitch-snapshot", "the 5-copy build (core.build_s) is most of setup",
     lambda m: m["core.build_s"] / (m["io.load_s"] + m["core.build_s"])),
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(root)


def build():
    """Configures (once) and builds the driver; returns its path."""
    bdir = os.path.join(build_root(), "alsbench")
    os.makedirs(bdir, exist_ok=True)
    logfile = os.path.join(build_root(), "alsbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "alsbench",
                  "-j", jobs])
    with open(logfile, "a") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                timeout=840).returncode
            if rc != 0:
                # A failed configure must not leave a cache behind that
                # makes the next attempt skip configuration.
                if cmd[1] == "-S":
                    shutil.rmtree(bdir, ignore_errors=True)
                raise BenchError("build step failed (%s); see %s"
                                 % (" ".join(cmd[:2]), logfile))
    return os.path.join(bdir, "alsbench")


def time_left():
    return max(1.0, _deadline - time.monotonic())


def child(cmd):
    """Runs one driver process; returns its last stdout line as JSON, or
    None when it failed."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=time_left())
    except subprocess.TimeoutExpired:
        log("timed out: %s" % " ".join(cmd))
        return None
    if proc.returncode != 0:
        log("failed (%d): %s\n%s" % (proc.returncode, " ".join(cmd),
                                     proc.stderr[-2000:]))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no JSON result from: %s" % " ".join(cmd))
        return None


def warm(paths):
    """Reads each input once so the page cache holds it, and flushes it so
    no writeback of the fresh files overlaps a measurement."""
    for p in paths:
        with open(p, "rb") as f:
            while f.read(1 << 24):
                pass
            os.fsync(f.fileno())


def generate(exe, workload, seed, shrink, in_dir):
    shutil.rmtree(in_dir, ignore_errors=True)
    cmd = [exe, "gen", "--workload", workload, "--seed", str(seed),
           "--out", in_dir, "--shrink", repr(shrink)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=time_left())
    if proc.returncode != 0:
        raise BenchError("input generation failed: %s" % proc.stderr[-2000:])
    with open(os.path.join(in_dir, "inputs.json")) as f:
        prov = json.load(f)
    warm(os.path.join(in_dir, i["file"]) for i in prov["inputs"])
    return prov


def model_files(out_dir):
    if not os.path.isdir(out_dir):
        return []
    return sorted(f for f in os.listdir(out_dir) if f.endswith(".ampfac"))


def same_models(a_dir, b_dir):
    a, b = model_files(a_dir), model_files(b_dir)
    return bool(a) and a == b and all(
        filecmp.cmp(os.path.join(a_dir, f), os.path.join(b_dir, f),
                    shallow=False) for f in a)


def gate_ok(res):
    if res is None:
        return False
    if not res["gate"]["ok"]:
        log("correctness gate failed: %s" % "; ".join(res["gate"]["errors"]))
        return False
    return True


def run_rep(exe, workload, in_dir, out_dir, verify, perturb=False):
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [exe, "run", "--workload", workload, "--inputs", in_dir,
           "--out", out_dir]
    if verify:
        cmd.append("--verify")
    if perturb:
        cmd.append("--perturb")
    return child(cmd)


def measure_untraced(exe, workload, in_dir, work, seconds):
    """Repeats the end-to-end pass; returns (metrics, attempted, failed).

    Repetition 0 is the verified warm-up: it runs the correctness gate,
    its model files are the reference every later repetition must equal
    byte for byte, and its times stay out of the medians."""
    first = os.path.join(work, "rep0")
    rep_dir = os.path.join(work, "rep")
    start = time.monotonic()
    ref_ok = gate_ok(run_rep(exe, workload, in_dir, first, verify=True))
    attempted, failed = 1, 0 if ref_ok else 1
    timed, passed = [], []
    while time.monotonic() < _deadline and (
            attempted <= MIN_REPS or time.monotonic() - start < seconds):
        res = run_rep(exe, workload, in_dir, rep_dir, verify=False)
        attempted += 1
        ok = gate_ok(res) and ref_ok
        if ok and not same_models(first, rep_dir):
            log("repetition %d wrote other model bytes than the verified "
                "warm-up" % attempted)
            ok = False
        if res is not None:
            timed.append(res)
        if ok:
            passed.append(res)
        else:
            failed += 1
    # Medians over the passing repetitions; a run with none still reports
    # what it timed, marked incorrect through `failed`.
    reps = passed or timed
    if not reps:
        raise BenchError("no repetition produced a measurement")
    metrics = {name: {"value": statistics.median(r[name] for r in reps),
                      "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    log("%d repetitions in %.1f s; per-rep total_s: %s" % (
        attempted, time.monotonic() - start,
        " ".join("%.3f" % r["total_s"] for r in reps)))
    return metrics, attempted, failed


def measure_traced(exe, workload, in_dir, work, seconds):
    """One verified untraced pass (also the warm-up), then traced runs
    until --seconds have passed (at least one). Every traced run's model
    files must equal the untraced ones; each per-layer metric is the
    median over the traced runs."""
    untraced_dir = os.path.join(work, "rep0")
    traced_dir = os.path.join(work, "traced")
    start = time.monotonic()
    untraced_ok = gate_ok(run_rep(exe, workload, in_dir, untraced_dir,
                                  verify=True))
    attempted, failed = 1, 0 if untraced_ok else 1
    runs = []
    while time.monotonic() < _deadline and (
            not runs or time.monotonic() - start < seconds):
        shutil.rmtree(traced_dir, ignore_errors=True)
        res = child([exe, "trace", "--workload", workload, "--inputs",
                     in_dir, "--out", traced_dir])
        attempted += 1
        if not gate_ok(res):
            failed += 1
        elif untraced_ok and not same_models(traced_dir, untraced_dir):
            log("traced model files differ from the untraced run's")
            failed += 1
        if res is None:
            break
        runs.append(res)
        # The latest span dump outlives the run's scratch directory.
        spans = os.path.join(build_root(), "traces",
                             "%s.spans.json" % workload)
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        shutil.copyfile(os.path.join(traced_dir, "spans.json"), spans)
    if not runs:
        raise BenchError("no traced run produced a measurement")
    values = {name: statistics.median(r["metrics"][name] for r in runs)
              for name in PER_LAYER_UNITS}
    print("spans (Chrome JSON): %s" % os.path.relpath(spans))
    print("self time by layer (s), last traced run: " + ", ".join(
        "%s %.4f" % kv for kv in sorted(runs[-1]["self_s"].items(),
                                         key=lambda kv: -kv[1])))
    for wl, claim, share in PREDICTIONS:
        if wl == workload:
            v = share(values)
            print("prediction on %s: %s: share %.3f -> %s" % (
                wl, claim, v, "holds" if v > 0.5 else "CONTRADICTED"))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER_UNITS.items()}
    return metrics, attempted, failed


def host_facts(exe):
    return child([exe, "host"]) or {}


def working_set_bytes(prov):
    """COO bytes of the workload's N per-mode copies (what the MTTKRP
    sweeps stream), for comparison with the last-level cache."""
    total = 0
    for i in prov["inputs"]:
        total += i["coo_bytes"] * len(i["dims"])
    return total


def bench(workload, seed, seconds, trace, shrink=1.0, exe=None):
    global _deadline
    exe = exe or build()
    _deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(build_root(), "runs", "%s-s%d" % (workload, seed))
    in_dir = os.path.join(work, "inputs")
    try:
        prov = generate(exe, workload, seed, shrink, in_dir)
        facts = host_facts(exe)
        facts["working_set_bytes"] = working_set_bytes(prov)
        if facts.get("llc_bytes", 0) > 0:
            facts["working_set_over_llc"] = (facts["working_set_bytes"]
                                             / facts["llc_bytes"])
        print("provenance: " + json.dumps({"inputs": prov, "host": facts},
                                          sort_keys=True))
        if trace:
            metrics, attempted, failed = measure_traced(
                exe, workload, in_dir, work, seconds)
        else:
            metrics, attempted, failed = measure_untraced(
                exe, workload, in_dir, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def selftest():
    exe = build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for wl in WORKLOADS:
            res = bench(wl, 1, 0, trace, shrink=50.0, exe=exe)
            if not res["correct"] or res["failed"]:
                problems.append("%s trace=%d: run not correct" % (wl, trace))
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s trace=%d: %s missing or wrong unit"
                                    % (wl, trace, m["name"]))
                elif not isinstance(got["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (wl, m["name"]))
    # The gate must reject a perturbed factor on every workload.
    for wl in WORKLOADS:
        work = os.path.join(build_root(), "runs", "selftest-" + wl)
        in_dir = os.path.join(work, "inputs")
        try:
            generate(exe, wl, 1, 50.0, in_dir)
            res = run_rep(exe, wl, in_dir, os.path.join(work, "out"),
                          verify=True, perturb=True)
            if res is None or res["gate"]["ok"]:
                problems.append("%s: gate accepted a perturbed factor" % wl)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        log("selftest: " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("alsbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
