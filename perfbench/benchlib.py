"""Statistics, digests, output checks and span self-time accounting for
the CoolCMP end-to-end benchmark (perfbench/run.py).

Kept free of I/O beyond reading the files it is handed, so
perfbench/selftest.py can check every function on synthetic inputs.
"""

import hashlib
import json
import math
import statistics


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)
    gives them; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


# The reference work's median time (perfbench/coolcmp_bench.cc,
# referenceWork) on the idle 4-vCPU Intel Xeon host the benchmark was
# defined on: scaled seconds read as seconds there.
REF_NOMINAL_S = 0.0138


def scaled_median(values, ref):
    """Median of a run's samples, scaled to the reference host speed:
    median(values) * REF_NOMINAL_S / median(ref).

    `ref` holds the timings of a fixed piece of work made between the
    repetitions of the same run. On a shared host whose cores run
    slower for minutes at a time (busy neighbours), both medians grow,
    and their ratio keeps most of the program's cost and drops most of
    the host's."""
    if not values or not ref:
        raise ValueError("%d samples, %d reference timings"
                         % (len(values), len(ref)))
    return median(values) * REF_NOMINAL_S / median(ref)


def digest(data):
    """SHA-256 hex of a str (UTF-8) or bytes."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_digest(path):
    with open(path, "rb") as f:
        return digest(f.read())


def body_problems(body):
    """Physical sanity of one RunMetrics body (writeRunMetricsBody
    text): every number finite, positive duration and instructions,
    duty cycle in (0, 1], peak temperature above ambient and below the
    package's melting-point territory. Returns a list of complaints."""
    problems = []
    tokens = body.split()
    try:
        numbers = [float(t) for t in tokens]
    except ValueError:
        return ["unparsable body"]
    if any(not math.isfinite(x) for x in numbers):
        problems.append("non-finite value")
    if len(numbers) < 10:
        return problems + ["short body"]
    duration, instructions, duty, peak = numbers[:4]
    if not duration > 0:
        problems.append("duration %r" % duration)
    if not instructions > 0:
        problems.append("instructions %r" % instructions)
    if not 0 < duty <= 1:
        problems.append("duty cycle %r" % duty)
    if not 45.0 < peak < 120.0:
        problems.append("peak temperature %r C" % peak)
    return problems


def check_jobs(bodies, golden):
    """Compare job bodies (key -> text) with golden digests (key ->
    sha256). Returns (failed job count, messages). A job is failed if
    its body is implausible, differs from its golden, or is missing;
    a golden key no job produced counts once too."""
    failed, messages = 0, []
    for key, body in sorted(bodies.items()):
        problems = body_problems(body)
        want = golden.get(key)
        if want is None:
            problems.append("no golden digest")
        elif digest(body) != want:
            problems.append("digest differs from golden")
        if problems:
            failed += 1
            messages.append("%s: %s" % (key, "; ".join(problems)))
    for key in sorted(set(golden) - set(bodies)):
        failed += 1
        messages.append("%s: job missing from output" % key)
    return failed, messages


def check_paper_claims(claims, bands):
    """Paper-claim bands over the Table-4 grid. Returns messages for
    every band the claims miss (empty when all hold)."""
    messages = []
    ratio = round(claims["dvfs_over_stopgo"], bands["ratio_digits"])
    if ratio != bands["dvfs_over_stopgo"]:
        messages.append("dist. DVFS / dist. stop-go = %r, paper %r"
                        % (claims["dvfs_over_stopgo"],
                           bands["dvfs_over_stopgo"]))
    if claims["runs"] != bands["runs"]:
        messages.append("%d runs, expected %d"
                        % (claims["runs"], bands["runs"]))
    if claims["emergencies"] != 0:
        messages.append("%d thermal emergencies" % claims["emergencies"])
    if not claims["peak_temp_c"] < bands["peak_below_c"]:
        messages.append("peak %.4f C not below %.1f C"
                        % (claims["peak_temp_c"], bands["peak_below_c"]))
    if claims["sensor_ge_counter_cells"] != claims["dvfs_cells"]:
        messages.append("sensor-based migration beats counter-based in "
                        "only %d of %d DVFS cells"
                        % (claims["sensor_ge_counter_cells"],
                           claims["dvfs_cells"]))
    return messages


def load_spans(path):
    """Spans of a Chrome trace written by obs::writeChromeTraceSpans:
    list of dicts with name, start and dur (seconds), id, parent."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        spans.append({
            "name": e["name"],
            "start": e["ts"] * 1e-6,
            "dur": e["dur"] * 1e-6,
            "id": int(args["span_id"], 16),
            "parent": int(args["parent_id"], 16),
            "job": args.get("job", -1),
        })
    return spans


def self_times(spans):
    """Self time per span name: a span's duration minus the time its
    direct children take (children of one span never overlap: the
    traced run is one thread, and summed per-call timings are laid
    back to back). Returns {name: seconds}."""
    child_time = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + \
                s["dur"]
    out = {}
    for s in spans:
        own = max(0.0, s["dur"] - child_time.get(s["id"], 0.0))
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def root_time(spans):
    """Summed duration of the top-level spans (what self times add up
    to)."""
    return sum(s["dur"] for s in spans if not s["parent"])


def concurrency(spans, name):
    """Summed busy time of the spans called `name` over the window
    from the first one's start to the last one's end; 0 without any."""
    chosen = [s for s in spans if s["name"] == name]
    if not chosen:
        return 0.0
    window = max(s["start"] + s["dur"] for s in chosen) - \
        min(s["start"] for s in chosen)
    busy = sum(s["dur"] for s in chosen)
    return busy / window if window > 0 else 1.0
