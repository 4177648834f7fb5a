#!/usr/bin/env python3
"""Compare two bench-harness JSON files and fail on metric regressions.

Every bench under bench/ accepts --json=PATH and writes
    {"bench": ..., "seed": ..., "config": {...}, "host": {...},
     "trials": [{"label", "config", "metrics", "wall_ms"?, "events"?,
                 "events_per_sec"?, "queries"?, "queries_per_sec"?,
                 "repetitions"?, "wall_ms_iqr"?, "events_per_sec_iqr"?,
                 "queries_per_sec_iqr"?}, ...]}
(see bench/bench_harness.h). This script diffs a candidate file against a
baseline, matching trials by label and metrics by name:

    python3 scripts/bench_regress.py BENCH_baseline.json new.json
    python3 scripts/bench_regress.py --tolerance 0.05 old.json new.json
    python3 scripts/bench_regress.py --perf --perf-tolerance 0.3 old.json new.json

Model metrics (the "metrics" map) are deterministic for a fixed seed, so the
default tolerance is tight; any |new - old| > tolerance * max(|old|, eps)
is a regression. Wall-clock numbers (wall_ms, events_per_sec,
queries_per_sec) vary with the machine and are only compared when --perf is
given, against the looser --perf-tolerance, and only in the slower direction
(faster is never flagged). A trial the bench repeated (fig10f's DES trials
run 5 times) writes the MEDIAN of its runs in those fields and the
interquartile range beside each as `*_iqr`; the gate compares the medians
and never the IQRs, so one noisy run cannot trip it.

Documents also carry a top-level "host" object ({"build_type", "nproc",
"cpu_model", "compiler"}). With --perf, two documents that both have one and
disagree are refused: a Release and a RelWithDebInfo build, or two machines,
do not time the same thing. Model-metric comparisons ignore "host", so CI can
grade a fresh run against a baseline taken elsewhere.

Both documents may carry a top-level "config" object recording the run setup
({"threads", "serial", "simd_level", "egress_batch"}, written by
bench_harness). When both sides have one and they disagree, the comparison is
refused outright: wall-clock numbers are meaningless across threading setups,
a "scalar" simd_level run exercises a different codepath than an "avx2" one (batched
digests/sketch probes and grouped table scans are bypassed entirely), and an
egress_batch=0 run (--no-egress-batch) ships per-packet delivery records
where the default ships one coalesced record per transmit group — same
results by construction, but a different event-dispatch load, so even perf
deltas would be apples to oranges. Re-run the candidate with the baseline's
flags instead.

Exit status: 0 when everything matches, 1 on any regression, missing trial,
or missing metric. New trials/metrics present only in the candidate are
reported but do not fail (they are additions, not regressions).
"""

import argparse
import difflib
import json
import sys

EPS = 1e-12


def closest(name, pool, n=3):
    """Suggestion suffix listing the closest-matching names, if any.

    Renamed trials are the common cause of a missing-label failure (a bench
    tweak changes a config string baked into the label); pointing at the
    near-miss makes the fix obvious without opening both JSON files.
    """
    matches = difflib.get_close_matches(name, pool, n=n, cutoff=0.4)
    if not matches:
        return ""
    return " (closest in candidate: %s)" % ", ".join(repr(m) for m in matches)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_regress: cannot read {path}: {e}")
    if not isinstance(doc, dict) or "trials" not in doc:
        sys.exit(f"bench_regress: {path} is not a bench-harness JSON file")
    return doc


def trial_map(doc, path):
    trials = {}
    for t in doc["trials"]:
        label = t.get("label", "")
        if label in trials:
            sys.exit(f"bench_regress: duplicate trial label {label!r} in {path}")
        trials[label] = t
    return trials


def rel_delta(old, new):
    return (new - old) / max(abs(old), EPS)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline JSON (e.g. BENCH_baseline.json)")
    ap.add_argument("candidate", help="candidate JSON from a fresh run")
    ap.add_argument(
        "--tolerance", type=float, default=0.01,
        help="relative tolerance for model metrics (default: %(default)s; "
        "deterministic benches should match far tighter than this)")
    ap.add_argument(
        "--perf", action="store_true",
        help="also compare wall_ms / events_per_sec (machine-dependent; "
        "off by default so CI on shared runners stays stable)")
    ap.add_argument(
        "--perf-tolerance", type=float, default=0.5,
        help="allowed relative slowdown for --perf comparisons "
        "(default: %(default)s)")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    base_cfg = base_doc.get("config")
    cand_cfg = cand_doc.get("config")
    if base_cfg is not None and cand_cfg is not None and base_cfg != cand_cfg:
        sys.exit(
            "bench_regress: run configs differ — refusing to compare.\n"
            f"  baseline  {args.baseline}: {json.dumps(base_cfg, sort_keys=True)}\n"
            f"  candidate {args.candidate}: {json.dumps(cand_cfg, sort_keys=True)}\n"
            "  Re-run the candidate with the baseline's --threads/"
            "--serial/--no-simd/--no-egress-batch flags (simd_level and "
            "egress_batch must match: scalar vs AVX2 and per-packet vs "
            "coalesced delivery are different codepaths).")
    base_host = base_doc.get("host")
    cand_host = cand_doc.get("host")
    if (args.perf and base_host is not None and cand_host is not None
            and base_host != cand_host):
        sys.exit(
            "bench_regress: hosts differ — refusing a --perf comparison.\n"
            f"  baseline  {args.baseline}: {json.dumps(base_host, sort_keys=True)}\n"
            f"  candidate {args.candidate}: {json.dumps(cand_host, sort_keys=True)}\n"
            "  Wall-clock numbers only compare on the same build type, "
            "compiler and machine; re-take the baseline there, or drop --perf "
            "to compare model metrics only.")
    if base_doc.get("bench") != cand_doc.get("bench"):
        print(f"note: comparing different benches: {base_doc.get('bench')!r} "
              f"vs {cand_doc.get('bench')!r}")
    base = trial_map(base_doc, args.baseline)
    cand = trial_map(cand_doc, args.candidate)

    failures = []
    compared = 0

    for label, bt in base.items():
        ct = cand.get(label)
        if ct is None:
            failures.append(f"trial {label!r}: missing from candidate"
                            + closest(label, cand))
            continue
        for name, old in bt.get("metrics", {}).items():
            if name not in ct.get("metrics", {}):
                failures.append(f"trial {label!r}: metric {name!r} missing "
                                "from candidate"
                                + closest(name, ct.get("metrics", {})))
                continue
            new = ct["metrics"][name]
            compared += 1
            delta = rel_delta(old, new)
            if abs(delta) > args.tolerance:
                failures.append(
                    f"trial {label!r}: {name} {old:g} -> {new:g} "
                    f"({delta:+.2%}, tolerance ±{args.tolerance:.2%})")
        if args.perf:
            # Slower wall_ms / lower events_per_sec is a regression;
            # the other direction is an improvement and never flagged.
            old_ms, new_ms = bt.get("wall_ms"), ct.get("wall_ms")
            if old_ms and new_ms:
                compared += 1
                delta = rel_delta(old_ms, new_ms)
                if delta > args.perf_tolerance:
                    failures.append(
                        f"trial {label!r}: wall_ms {old_ms:g} -> {new_ms:g} "
                        f"({delta:+.2%} slower, tolerance "
                        f"+{args.perf_tolerance:.2%})")
            for rate in ("events_per_sec", "queries_per_sec"):
                old_rate, new_rate = bt.get(rate), ct.get(rate)
                if old_rate and new_rate:
                    compared += 1
                    delta = rel_delta(old_rate, new_rate)
                    if delta < -args.perf_tolerance:
                        failures.append(
                            f"trial {label!r}: {rate} {old_rate:g} -> "
                            f"{new_rate:g} ({delta:+.2%}, tolerance "
                            f"-{args.perf_tolerance:.2%})")

    additions = [label for label in cand if label not in base]
    if additions:
        print(f"note: {len(additions)} trial(s) only in candidate "
              f"(not compared): {', '.join(repr(a) for a in additions)}")

    if failures:
        print(f"bench_regress: {len(failures)} regression(s) against "
              f"{args.baseline}:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"bench_regress: OK — {compared} value(s) within tolerance "
          f"across {len(base)} trial(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
