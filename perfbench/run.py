#!/usr/bin/env python3
"""End-to-end benchmark of the NetCache simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulation library and the benchmark binary from this checkout
(CMake, into .bench_build/perfbench), runs one workload for S seconds of
wall clock and prints, as the last line of standard output, one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured on the library's own Rack/Fabric. With --trace 1 they are the
per-layer metrics, measured on the benchmark's timed copy of the wiring
(timed_topology.cc) and checked to reproduce the untraced simulation
exactly. The lines before it are a readable report: the run's fingerprint
and every metric with its unit, marked host (wall clock of this machine) or
sim (simulated, exact for a fixed seed).

Correctness, checked on every run: conservation of queries, switch reads and
link packets; every repetition reproduces the first one's simulated results;
for the default seed, the simulated results equal perfbench/expected.json.
A failed check prints "correct": false, counts every query as failed and
exits 1. A checkout that cannot be built exits 2 without a result.

Other entry points: --report prints both reports of every workload (the
layer ladder: per-module shares of run-phase wall time, net as the
remainder); --update-expected rewrites expected.json from the default seed;
--compare-default compares any seed against the default seed's stored
values (the self-test plants a divergence that way).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "netcache_perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["rack_read_hot", "rack_write_churn", "fabric_leafspine"]
DEFAULT_SEED = 1

# name -> (unit, kind, description). Kind "host" is wall-clock of this
# machine; "sim" is simulated and repeats exactly for a fixed seed.
END_TO_END = {
    "queries_per_host_s": ("queries/s", "host",
                           "simulated queries completed / wall time of the run phase"),
    "setup_s": ("s", "host", "Rack/Fabric construction + Populate + cache warm + controller start"),
    "peak_rss_mb": ("MB", "host", "peak resident memory of the workload process"),
    "sim_hit_ratio": ("ratio", "sim", "switch-served reads / reads"),
    "sim_goodput_qps": ("queries/s", "sim", "completed queries / simulated send time"),
    "sim_p50_latency_us": ("us", "sim", "median query latency"),
    "sim_p999_latency_us": ("us", "sim", "99.9th percentile query latency"),
    "sim_failed_share": ("ratio", "sim", "(timed out + shed) / sent"),
}

# name -> (unit, kind, moves: end-to-end metric -> workload). The moves
# column records which end-to-end metric each layer metric should move, on
# which workload, before any optimisation is measured against it.
PER_LAYER = {
    "net.self_ns_per_query": ("ns", "host", "queries_per_host_s -> fabric_leafspine"),
    "net.events_per_query": ("count", "sim", "queries_per_host_s -> fabric_leafspine"),
    "net.ns_per_event": ("ns", "host", "queries_per_host_s -> fabric_leafspine"),
    "net.packets_per_delivery": ("ratio", "sim",
                                 "queries_per_host_s, peak_rss_mb -> fabric_leafspine"),
    "net.event_queue_peak": ("count", "sim",
                             "queries_per_host_s, peak_rss_mb -> fabric_leafspine"),
    "net.egress_flush_ns_per_packet": (
        "ns", "host", "queries_per_host_s -> fabric_leafspine (little on rack_read_hot)"),
    "net.egress_packets_per_flush": (
        "ratio", "sim", "queries_per_host_s -> fabric_leafspine (little on rack_read_hot)"),
    "net.link_drops": ("count", "sim", "sim_failed_share -> all"),
    "dataplane.ns_per_packet": ("ns", "host",
                                "queries_per_host_s -> rack_read_hot (little on rack_write_churn)"),
    "dataplane.packets_per_call": (
        "ratio", "sim", "queries_per_host_s -> rack_read_hot (little on rack_write_churn)"),
    "dataplane.burst_path_share": ("ratio", "sim",
                                   "queries_per_host_s -> fabric_leafspine vs rack_read_hot"),
    "dataplane.digest_ns_per_packet": ("ns", "host", "queries_per_host_s -> rack_read_hot"),
    "dataplane.match_peek_ns_per_packet": ("ns", "host", "queries_per_host_s -> rack_read_hot"),
    "dataplane.value_serve_ns_per_packet": ("ns", "host", "queries_per_host_s -> rack_read_hot"),
    "dataplane.stage_coverage": ("ratio", "host", "queries_per_host_s -> rack_read_hot"),
    "dataplane.invalidations": ("count", "sim",
                                "sim_hit_ratio, sim_p999_latency_us -> rack_write_churn"),
    "dataplane.cache_updates": ("count", "sim",
                                "sim_hit_ratio, sim_p999_latency_us -> rack_write_churn"),
    "dataplane.update_rejects": ("count", "sim",
                                 "sim_hit_ratio, sim_p999_latency_us -> rack_write_churn"),
    "dataplane.cache_hits": ("count", "sim", "sim_hit_ratio -> all"),
    "sketch.hot_reports": ("count", "sim", "sim_hit_ratio -> rack_write_churn"),
    "sketch.sampled": ("count", "sim", "sim_hit_ratio -> rack_write_churn"),
    "server.ns_per_packet": ("ns", "host",
                             "queries_per_host_s -> rack_write_churn (little on rack_read_hot)"),
    "server.lookup_ns_per_op": ("ns", "host",
                                "queries_per_host_s -> rack_write_churn (little on rack_read_hot)"),
    "server.reply_ns_per_op": ("ns", "host",
                               "queries_per_host_s -> rack_write_churn (little on rack_read_hot)"),
    "server.max_load_ratio": ("ratio", "sim",
                              "sim_goodput_qps, sim_p999_latency_us -> rack_write_churn"),
    "server.shed": ("count", "sim", "sim_failed_share, sim_p999_latency_us -> rack_write_churn"),
    "server.deferred_writes": ("count", "sim",
                               "sim_failed_share, sim_p999_latency_us -> rack_write_churn"),
    "server.cache_update_retries": ("count", "sim",
                                    "sim_failed_share, sim_p999_latency_us -> rack_write_churn"),
    "kvstore.gets": ("count", "sim", "queries_per_host_s -> rack_write_churn"),
    "kvstore.puts": ("count", "sim", "queries_per_host_s -> rack_write_churn"),
    "kvstore.populate_ns_per_key": ("ns", "host", "setup_s -> rack_read_hot"),
    "client.ns_per_reply": ("ns", "host", "queries_per_host_s, sim_failed_share -> all"),
    "client.timeouts": ("count", "sim", "queries_per_host_s, sim_failed_share -> all"),
    "workload.ns_per_query": ("ns", "host", "queries_per_host_s -> rack_read_hot"),
    "controller.reports_received": ("count", "sim", "sim_hit_ratio -> rack_write_churn"),
    "controller.insertions": ("count", "sim", "sim_hit_ratio -> rack_write_churn"),
    "controller.evictions": ("count", "sim", "sim_hit_ratio -> rack_write_churn"),
    "controller.useful_report_ratio": ("ratio", "sim", "sim_hit_ratio -> rack_write_churn"),
    "core.build_s": ("s", "host", "setup_s -> all"),
    "core.populate_s": ("s", "host", "setup_s -> all"),
    "core.warm_s": ("s", "host", "setup_s -> all"),
    "share.switch": ("ratio", "host", "queries_per_host_s -> rack_read_hot"),
    "share.server": ("ratio", "host", "queries_per_host_s -> rack_write_churn"),
    "share.client": ("ratio", "host", "queries_per_host_s -> all"),
    "share.workload": ("ratio", "host", "queries_per_host_s -> rack_read_hot"),
    "share.net": ("ratio", "host", "queries_per_host_s -> fabric_leafspine"),
    "trace_overhead": ("ratio", "host", "the cost of the traced run itself"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on any failure."""
    cmake_lists = os.path.join(HERE, "CMakeLists.txt")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src" % ROOT)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.dirname(cmake_lists), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "netcache_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_binary(workload, seed, seconds, traced, min_reps=3):
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--min-reps=%d" % min_reps]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    out = {"fingerprint": lines[0], "reps": [], "done": None}
    for line in lines[1:]:
        if line["type"] == "rep":
            out["reps"].append(line)
        elif line["type"] == "done":
            out["done"] = line
    if out["done"] is None or not out["reps"]:
        raise RuntimeError("incomplete output from %s" % " ".join(cmd))
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(raw, seed):
    fp = raw["fingerprint"]
    cfg = raw["reps"][0].get("config", {})
    return {
        "workload": fp["workload"],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": fp["compiler"],
        "build_type": fp["build_type"],
        "simd_level": fp["simd_level"],
        "burst_coalescing": bool(cfg.get("burst_coalescing")),
        "egress_batching": bool(cfg.get("egress_batching")),
        "dispatcher": "windowed" if cfg.get("partitioned") else "serial",
        "sim_threads_effective": int(cfg.get("sim_threads_effective", 0)),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def per_rep_layer(rep):
    """Derives the per-layer metrics of one traced repetition."""
    c = rep["clocks"]
    layer = dict(rep["layer"])
    cats = {}
    for lane in rep["profile"]["netcache"]["lanes"]:
        for name, agg in lane["cats"].items():
            total = cats.setdefault(name, {"ns": 0, "count": 0, "arg": 0})
            for k in total:
                total[k] += agg[k]

    def ratio(a, b):
        return a / b if b else 0.0

    run_ns = rep["run_s"] * 1e9
    queries = rep["queries"]
    service_ns = cats["server_lookup"]["ns"] + cats["server_reply"]["ns"]
    module_ns = {
        "switch": c["switch.ns"],
        "server": c["server.ns"] + service_ns,
        "client": c["client.ns"],
        "workload": c["workload.ns"],
    }
    net_ns = run_ns - sum(module_ns.values())
    module_ns["net"] = net_ns
    for name, ns in module_ns.items():
        layer["share." + name] = ratio(ns, run_ns)
    layer["net.self_ns_per_query"] = ratio(net_ns, queries)
    layer["net.ns_per_event"] = ratio(run_ns, rep["engine"]["events_processed"])
    flush = cats["egress_flush"]
    layer["net.egress_flush_ns_per_packet"] = ratio(flush["ns"], flush["arg"])
    layer["net.egress_packets_per_flush"] = ratio(flush["arg"], flush["count"])
    layer["dataplane.ns_per_packet"] = ratio(c["switch.ns"], c["switch.packets"])
    layer["dataplane.packets_per_call"] = ratio(c["switch.packets"], c["switch.calls"])
    layer["dataplane.burst_path_share"] = ratio(c["switch.burst_packets"], c["switch.packets"])
    stage_ns = 0
    for stage in ("digest", "match_peek", "value_serve"):
        agg = cats["switch_" + stage]
        layer["dataplane.%s_ns_per_packet" % stage] = ratio(agg["ns"], agg["arg"])
        stage_ns += agg["ns"]
    layer["dataplane.stage_coverage"] = ratio(stage_ns, c["switch.ns"])
    layer["server.ns_per_packet"] = ratio(c["server.ns"], c["server.packets"])
    layer["server.lookup_ns_per_op"] = ratio(cats["server_lookup"]["ns"],
                                             cats["server_lookup"]["arg"])
    layer["server.reply_ns_per_op"] = ratio(cats["server_reply"]["ns"],
                                            cats["server_reply"]["arg"])
    layer["client.ns_per_reply"] = ratio(c["client.ns"], c["client.packets"])
    layer["workload.ns_per_query"] = ratio(c["workload.ns"], c["workload.calls"])
    return layer


def load_expected():
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def compare_expected(workload, rep, problems):
    expected = load_expected()
    if expected is None or workload not in expected.get("workloads", {}):
        problems.append("no stored expected values for %s" % workload)
        return
    want = expected["workloads"][workload]
    for section in ("sim", "model"):
        got = rep[section]
        for name, value in sorted(want[section].items()):
            if got.get(name) != value:
                problems.append("expected %s %s = %r, got %r" % (section, name, value,
                                                                 got.get(name)))
                if len(problems) > 20:
                    return


def evaluate(workload, seed, raw, traced, compare_default):
    """Returns (correct, attempted, failed, metrics, problems, report lines)."""
    reps = raw["reps"]
    first = reps[0]
    problems = []
    for rep in reps:
        problems += ["rep %d (%s): %s" % (rep["index"], rep["kind"], p)
                     for p in rep["problems"] + rep["diff"]]
    if seed == DEFAULT_SEED or compare_default:
        compare_expected(workload, first, problems)
    if traced and not any(r["kind"] == "checked" for r in reps):
        problems.append("traced run has no invariant-checked repetition")

    attempted = int(sum(r["sim"]["sim_queries_sent"] for r in reps))
    failed = int(sum(r["sim"]["sim_failed"] for r in reps))
    correct = not problems
    if not correct:
        failed = attempted

    untraced = [r for r in reps if r["kind"] == "untraced"]
    qps = median([r["queries"] / r["run_s"] for r in untraced])
    e2e = {
        "queries_per_host_s": qps,
        "setup_s": median([r["setup_s"] for r in untraced]),
        "peak_rss_mb": raw["done"]["peak_rss_kb"] / 1024.0,
    }
    for name in END_TO_END:
        if name.startswith("sim_"):
            e2e[name] = first["sim"][name]

    lines = ["fingerprint " + json.dumps(fingerprint(raw, seed), sort_keys=True)]
    if not traced:
        lines.append("end-to-end metrics of %s (medians over %d repetitions):" %
                     (workload, len(untraced)))
        for name, (unit, kind, desc) in END_TO_END.items():
            extra = ""
            if name.startswith("sim_p"):
                extra = "  (%d samples)" % first["sim"]["sim_latency_samples"]
            lines.append("  %-22s %16.6g %-10s %-4s %s%s" % (name, e2e[name], unit, kind,
                                                            desc, extra))
        metrics = {name: e2e[name] for name in benchmark_units("end_to_end")}
    else:
        traced_reps = [r for r in reps if r["kind"] == "traced"]
        layers = [per_rep_layer(r) for r in traced_reps]
        layer = {name: median([l[name] for l in layers]) for name in PER_LAYER
                 if name != "trace_overhead"}
        traced_qps = median([r["queries"] / r["run_s"] for r in traced_reps])
        layer["trace_overhead"] = traced_qps / qps if qps else 0.0
        lines.append("per-layer metrics of %s (medians over %d traced repetitions):" %
                     (workload, len(traced_reps)))
        for name, (unit, kind, moves) in PER_LAYER.items():
            lines.append("  %-36s %14.6g %-6s %-4s moves %s" % (name, layer[name], unit, kind,
                                                               moves))
        lines.append("run-phase wall time by module: " + "  ".join(
            "%s %.1f%%" % (m, 100 * layer["share." + m])
            for m in ("switch", "server", "client", "workload", "net")))
        metrics = {name: layer[name] for name in benchmark_units("per_layer")}
    return correct, attempted, failed, metrics, problems, lines


def benchmark_units(section):
    """name -> unit of one metric section of BENCHMARK.json, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def update_expected():
    out = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        raw = run_binary(workload, DEFAULT_SEED, 0, False, min_reps=1)
        rep = raw["reps"][0]
        if rep["problems"]:
            raise RuntimeError("%s: %s" % (workload, rep["problems"]))
        out["workloads"][workload] = {"sim": rep["sim"], "model": rep["model"]}
    with open(EXPECTED, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s" % EXPECTED)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare-default", action="store_true",
                        help="compare against the default seed's stored values")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected.json from the default seed")
    parser.add_argument("--report", action="store_true",
                        help="print the untraced and traced report of every workload")
    args = parser.parse_args()

    if not build():
        return 2
    if args.update_expected:
        update_expected()
        return 0
    if args.report:
        ok = True
        for workload in WORKLOADS:
            for traced in (False, True):
                raw = run_binary(workload, args.seed, args.seconds, traced)
                correct, _, _, _, problems, lines = evaluate(workload, args.seed, raw, traced,
                                                             False)
                for line in lines + ["CHECK FAILED: " + p for p in problems]:
                    print(line)
                ok = ok and correct
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")

    raw = run_binary(args.workload, args.seed, args.seconds, args.trace == 1)
    correct, attempted, failed, metrics, problems, lines = evaluate(
        args.workload, args.seed, raw, args.trace == 1, args.compare_default)
    for line in lines:
        print(line)
    for p in problems:
        print("CHECK FAILED: " + p)
    unit = benchmark_units("per_layer" if args.trace == 1 else "end_to_end")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
