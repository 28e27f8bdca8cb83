#!/usr/bin/env python3
"""End-to-end benchmark of CoolCMP.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 \\
        --seconds 30 --trace 0

The first run builds the library, the fleet worker and the benchmark
runner from source into $CARGO_TARGET_DIR (default .bench_build) and
primes the warm workloads' trace caches there; later runs reuse both.
--trace 0 repeats the workload for --seconds and reports the
end-to-end metrics of BENCHMARK.json (medians over the repetitions,
scaled by the median time of a fixed reference work timed between
the repetitions, so a shared host that runs slower for a while does
not read as a slower program);
--trace 1 runs it once with a span around every call into a layer and
reports the per-layer metrics, writing the spans as Chrome trace JSON
next to the build. Every job's output is checked against
perfbench/goldens.json. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --write-goldens   # re-record the goldens
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

WORKLOADS = ("cold_quickstart", "paper_sweep", "fleet_sweep",
             "mesh16_sweep")
GOLDENS = os.path.join(HERE, "goldens.json")
RUN_TIMEOUT_S = 170.0
OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")

# Spans that re-measure a layer outside the workload's own calls (the
# discretization timed alone, the sequential thermal probe, the journal
# replay): excluded when the traced wall is compared with the untraced.
EXTRA_SPANS = ("chip.disc", "probe.sequential", "journal.record")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def run_logged(cmd, log, timeout):
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(os.path.dirname(log), "tmp")
    os.makedirs(tmp, exist_ok=True)
    with open(log, "a") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, env=dict(os.environ,
                                                        TMPDIR=tmp))
    if proc.returncode != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("command failed: " + " ".join(cmd))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("CoolCMP sources not found under " + ROOT)
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 600)
    with open(cache) as f:
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    build_type = match.group(1) if match else ""
    if build_type not in OPTIMIZED:
        fail("refusing to time a %r build; use one of %s"
             % (build_type, ", ".join(OPTIMIZED)))
    run_logged(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
               log, 850)


def prime(out, bench):
    work = os.path.join(out, "work")
    marker = os.path.join(work, "primed")
    if not os.path.isfile(marker):
        os.makedirs(work, exist_ok=True)
        run_logged([bench, "--prime", "--work", work],
                   os.path.join(out, "prime.log"), 850)
        open(marker, "w").close()
    return work


def run_bench(out, bench, work, args, deadline):
    """Run coolcmp_bench in its own process group, so a timeout also
    stops the fleet workers it forked."""
    result = os.path.join(work, "result-%s.json" % args.workload)
    if os.path.exists(result):
        os.remove(result)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--worker", os.path.join(out, "coolcmp-worker"),
           "--out", result]
    with open(os.path.join(out, "bench.log"), "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("workload %s timed out" % args.workload)
        # Reap anything left in the group (workers of a failed sweep).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        fail("coolcmp_bench exited with %d (see %s)"
             % (code, os.path.join(out, "bench.log")))
    with open(result) as f:
        return json.load(f)


def load_goldens():
    with open(GOLDENS) as f:
        return json.load(f)


def check_outputs(result, golden, workload):
    """Golden and claim checks; returns (failed jobs per repetition,
    messages)."""
    failed, messages = benchlib.check_jobs(result["bodies"],
                                           golden.get("jobs", {}))
    if workload == "cold_quickstart" and "trace_files" in result:
        files = {os.path.basename(p): benchlib.file_digest(p)
                 for p in result["trace_files"]}
        want = golden.get("trace_files", {})
        if files != want:
            failed += 1
            messages.append("trace files differ from golden: %s"
                            % sorted(set(files.items()) ^
                                     set(want.items())))
    if workload == "paper_sweep" and "claims" in result:
        claim_messages = benchlib.check_paper_claims(result["claims"],
                                                     golden["claims"])
        failed += len(claim_messages)
        messages += claim_messages
    return failed, messages


def end_to_end(result, failed, attempted):
    """Medians over the repetitions, scaled to the reference host speed
    (benchlib.scaled_median)."""
    def scaled(key, ref):
        return benchlib.scaled_median(result[key], result[ref])
    return {
        "setup_s": scaled("setup_s", "ref_wall_s"),
        "wall_s": scaled("wall_s", "ref_wall_s"),
        "cpu_s": scaled("cpu_s", "ref_cpu_s"),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(result):
    values = dict(result["layers"])
    spans = benchlib.load_spans(result["trace_path"])
    selfs = benchlib.self_times(spans)
    traced = values.pop("traced_s")
    untraced = values.pop("untraced_s")
    extra = sum(s["dur"] for s in spans
                if s["name"] in EXTRA_SPANS and not s["parent"])
    values["trace.gen_concurrency"] = benchlib.concurrency(spans,
                                                           "trace.gen")
    values["trace.gen_share"] = selfs.get("trace.gen", 0.0) / traced
    values["trace_overhead_pct"] = \
        ((traced - extra) / untraced - 1.0) * 100.0
    values["traced_wall_s"] = traced
    for name, seconds in selfs.items():
        values["self_s." + name] = seconds
    values["self_s.unattributed"] = traced - benchlib.root_time(spans)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    build(out)
    bench = os.path.join(out, "coolcmp_bench")
    work = prime(out, bench)
    if args.write_goldens:
        return write_goldens(out, bench, work, args)
    if not args.workload:
        parser.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    result = run_bench(out, bench, work, args, deadline)
    golden = load_goldens().get(args.workload, {})
    bad_jobs, messages = check_outputs(result, golden, args.workload)
    attempted = result["attempted"]
    reps = max(1, len(result.get("wall_s", [1])))
    failed = min(attempted, result["failed"] + bad_jobs * reps)
    for message in messages[:20]:
        print("check failed: " + message, file=sys.stderr)
    print("host: " + json.dumps(result["host"], sort_keys=True))
    if not args.trace:
        print("host seconds, not scaled (medians): " + json.dumps(
            {k: benchlib.median(result[k])
             for k in ("setup_s", "wall_s", "cpu_s", "ref_wall_s",
                       "ref_cpu_s")},
            sort_keys=True))

    if args.trace:
        values = per_layer(result)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(result, failed, attempted)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-28s %.6g %s" % (m["name"], value, m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_goldens(out, bench, work, args):
    """Re-record every workload's job digests (one repetition each);
    refuses any body that fails the physical sanity check."""
    goldens = load_goldens()
    for workload in WORKLOADS:
        args.workload, args.trace, args.seconds = workload, 0, 0
        result = run_bench(out, bench, work, args,
                           time.monotonic() + RUN_TIMEOUT_S)
        insane = {k: benchlib.body_problems(b)
                  for k, b in result["bodies"].items()
                  if benchlib.body_problems(b)}
        if insane:
            print("%s: not recorded, %d implausible bodies, e.g. %s"
                  % (workload, len(insane), next(iter(insane.items()))),
                  file=sys.stderr)
            goldens.pop(workload, None)
            continue
        entry = goldens.setdefault(workload, {})
        entry["jobs"] = {k: benchlib.digest(b)
                         for k, b in sorted(result["bodies"].items())}
        if "trace_files" in result:
            entry["trace_files"] = {
                os.path.basename(p): benchlib.file_digest(p)
                for p in result["trace_files"]}
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
