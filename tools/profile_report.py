#!/usr/bin/env python3
"""Aggregate a netcache profile (--profile-out JSON) into an attribution report.

The profile is Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)
with an extra top-level "netcache" object carrying exact per-lane aggregates
maintained by the profiler itself.  This tool reads only that summary block,
so the report is exact even when the per-lane span buffers overflowed
(spans_dropped > 0 merely truncates the *timeline*, never the aggregates).

Default mode prints:
  * per-lane wall-clock attribution: what fraction of each recording thread's
    active extent went to the dispatcher's execute spans (one per
    Simulator::RunUntil / RunAll call);
  * the switch-pipeline breakdown (digest / match+peek / value-serve) and the
    server and egress stages, which nest *inside* execute spans and are
    therefore reported as a within-execute breakdown, never added to the
    lane bucket.

Modes:
  --validate         structural validation only (for CI): checks the trace is
                     well-formed and self-consistent, exit 0/1.
  --min-attributed=F fail (exit 1) unless the DES-active lanes' attributed
                     fraction (execute time over lane extents) is at least F
                     (e.g. 0.9).

Usage:
  tools/profile_report.py PROFILE.json
  tools/profile_report.py --validate PROFILE.json
  tools/profile_report.py --min-attributed=0.9 PROFILE.json
"""

import argparse
import json
import signal
import sys

# Die quietly when piped into `head` and friends.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Must match ProfCat / ProfCatName in src/common/profiler.h.
DES_CATS = ("execute",)
SWITCH_CATS = ("switch_digest", "switch_match_peek", "switch_value_serve")
# Server service stages and link egress-flush; nested inside execute like
# the switch stages (service completions and transmit-group flushes dispatch
# from simulator events), so they are a breakdown of execute, never an extra
# bucket.
SERVER_CATS = ("server_lookup", "server_reply", "egress_flush")
ALL_CATS = DES_CATS + SWITCH_CATS + SERVER_CATS


def fail(msg: str) -> "NoReturn":
    print(f"profile_report: error: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        fail(f"cannot read '{path}': {e}")
    except json.JSONDecodeError as e:
        fail(f"'{path}' is not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail(f"'{path}': top level is not an object")
    return doc


def validate(doc: dict) -> list:
    """Returns a list of problem strings (empty = structurally sound)."""
    problems = []

    def check(cond, msg):
        if not cond:
            problems.append(msg)
        return cond

    check(doc.get("displayTimeUnit") == "ms", "displayTimeUnit != 'ms'")
    events = doc.get("traceEvents")
    if check(isinstance(events, list), "traceEvents missing or not a list"):
        n_spans = 0
        for i, ev in enumerate(events):
            if not isinstance(ev, dict) or "ph" not in ev:
                problems.append(f"traceEvents[{i}]: not an event object")
                break
            ph = ev["ph"]
            if ph == "M":
                continue
            if ph != "X":
                problems.append(f"traceEvents[{i}]: unexpected phase '{ph}'")
                break
            n_spans += 1
            if not (isinstance(ev.get("ts"), (int, float)) and ev["ts"] >= 0 and
                    isinstance(ev.get("dur"), (int, float)) and ev["dur"] >= 0 and
                    isinstance(ev.get("tid"), int) and ev.get("name") in ALL_CATS):
                problems.append(f"traceEvents[{i}]: malformed X event: {ev}")
                break

    nc = doc.get("netcache")
    if not check(isinstance(nc, dict), "netcache summary block missing"):
        return problems
    check(nc.get("version") == 2, f"unsupported summary version {nc.get('version')!r}")
    lanes = nc.get("lanes")
    if not check(isinstance(lanes, list) and lanes, "netcache.lanes missing or empty"):
        return problems

    total_spans = 0
    for lane in lanes:
        lid = lane.get("lane")
        total_spans += lane.get("spans", 0)
        cats = lane.get("cats")
        if not check(isinstance(cats, dict), f"lane {lid}: cats missing"):
            continue
        for cat in ALL_CATS:
            c = cats.get(cat)
            if not check(isinstance(c, dict), f"lane {lid}: cat '{cat}' missing"):
                continue
            check(c.get("ns", -1) >= 0 and c.get("count", -1) >= 0,
                  f"lane {lid}: cat '{cat}' has negative aggregates")
            if c.get("count", 0) > 0 and not c.get("ns", 0) >= 0:
                problems.append(f"lane {lid}: cat '{cat}' counted but ns invalid")
        if lane.get("spans", 0) > 0:
            check(lane.get("last_ns", 0) >= lane.get("first_ns", 0),
                  f"lane {lid}: last_ns < first_ns")
            cat_ns = sum(cats.get(c, {}).get("ns", 0) for c in DES_CATS)
            extent = lane.get("last_ns", 0) - lane.get("first_ns", 0)
            # Stage spans nest inside execute, so DES cats alone must fit
            # the extent (tiny slack for the final span's own duration).
            check(cat_ns <= extent + cat_ns * 0.01 + 1_000_000,
                  f"lane {lid}: bucket ns {cat_ns} exceeds extent {extent}")

    # Every span in the timeline must be accounted for by the lane summaries.
    if isinstance(events, list):
        n_x = sum(1 for ev in events if isinstance(ev, dict) and ev.get("ph") == "X")
        check(n_x == total_spans,
              f"timeline has {n_x} spans but lane summaries claim {total_spans}")
    return problems


def ms(ns: float) -> float:
    return ns / 1e6


def pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole > 0 else "    -"


def report(doc: dict, min_attributed: float) -> int:
    nc = doc["netcache"]
    lanes = nc["lanes"]
    dropped = nc.get("spans_dropped", 0)
    if dropped:
        print(f"note: {dropped} timeline spans dropped (buffer full); "
              "aggregates below are still exact\n")

    # A lane participates in DES attribution when it recorded an execute
    # span; a hypothetical stage-only thread would not.
    des_lanes = [l for l in lanes
                 if any(l["cats"][c]["count"] > 0 for c in DES_CATS)]

    print("Per-lane wall-clock attribution (extent = first span start .. last span end)")
    hdr = (f"  {'lane':<6} {'extent_ms':>10} {'execute':>8} {'other':>8} "
           f"{'attributed':>11}")
    print(hdr)
    total_extent = 0
    total_attr = 0
    for lane in lanes:
        extent = lane["last_ns"] - lane["first_ns"]
        cats = lane["cats"]
        bucket_ns = {c: cats[c]["ns"] for c in DES_CATS}
        attr = sum(bucket_ns.values())
        other = max(0, extent - attr)
        in_des = lane in des_lanes
        if in_des:
            total_extent += extent
            total_attr += attr
        print(f"  {lane['lane']:<6} {ms(extent):>10.1f} "
              f"{pct(bucket_ns['execute'], extent):>8} "
              f"{pct(other, extent):>8} "
              f"{pct(attr, extent) if in_des else '  (no DES)':>11}")
    overall = total_attr / total_extent if total_extent else 0.0
    print(f"  overall: {100.0 * overall:.1f}% of DES-lane wall-clock attributed "
          f"to execute ({len(des_lanes)} lane(s))")

    # Switch Get pipeline: one span per stage per Get, nested inside
    # execute and reported as a breakdown of it.
    switch_total = sum(l["cats"][c]["ns"] for l in lanes for c in SWITCH_CATS)
    if switch_total > 0:
        exec_total = sum(l["cats"]["execute"]["ns"] for l in lanes)
        print("\nSwitch Get pipeline, per packet (nested inside execute; not an extra bucket)")
        print(f"  {'stage':<20} {'ms':>9} {'spans':>10} {'gets':>12} {'ns/get':>10}")
        for cat in SWITCH_CATS:
            ns_sum = sum(l["cats"][cat]["ns"] for l in lanes)
            count = sum(l["cats"][cat]["count"] for l in lanes)
            pkts = sum(l["cats"][cat]["arg"] for l in lanes)
            per_pkt = f"{ns_sum / pkts:>10.0f}" if pkts else f"{'-':>10}"
            print(f"  {cat:<20} {ms(ns_sum):>9.2f} {count:>10} {pkts:>12} {per_pkt}")
        print(f"  switch stages cover {pct(switch_total, exec_total).strip()} "
              "of execute time")

    # Server service + egress flush: same nesting as the switch stages.
    server_total = sum(l["cats"][c]["ns"] for l in lanes for c in SERVER_CATS)
    if server_total > 0:
        exec_total = sum(l["cats"]["execute"]["ns"] for l in lanes)
        print("\nServer & egress stages (nested inside execute; not an extra bucket)")
        print(f"  {'stage':<20} {'ms':>9} {'spans':>10} {'packets':>12} {'ns/packet':>10}")
        for cat in SERVER_CATS:
            ns_sum = sum(l["cats"][cat]["ns"] for l in lanes)
            count = sum(l["cats"][cat]["count"] for l in lanes)
            pkts = sum(l["cats"][cat]["arg"] for l in lanes)
            per_pkt = f"{ns_sum / pkts:>10.0f}" if pkts else f"{'-':>10}"
            print(f"  {cat:<20} {ms(ns_sum):>9.2f} {count:>10} {pkts:>12} {per_pkt}")
        print(f"  server/egress stages cover {pct(server_total, exec_total).strip()} "
              "of execute time")

    if min_attributed is not None and overall < min_attributed:
        print(f"\nprofile_report: FAIL: attributed fraction {overall:.3f} "
              f"< required {min_attributed:.3f}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Aggregate a netcache --profile-out trace into an "
                    "attribution report.")
    ap.add_argument("profile", help="Chrome trace-event JSON from --profile-out")
    ap.add_argument("--validate", action="store_true",
                    help="structural validation only; exit 0/1 (for CI)")
    ap.add_argument("--min-attributed", type=float, default=None, metavar="F",
                    help="fail unless DES lanes' attributed fraction >= F")
    args = ap.parse_args()

    doc = load(args.profile)
    problems = validate(doc)
    if problems:
        for p in problems:
            print(f"profile_report: invalid: {p}", file=sys.stderr)
        return 1
    if args.validate:
        nc = doc["netcache"]
        n_spans = sum(l["spans"] for l in nc["lanes"])
        print(f"OK: {n_spans} spans in {len(nc['lanes'])} lane(s), "
              f"{nc.get('spans_dropped', 0)} dropped")
        return 0
    return report(doc, args.min_attributed)


if __name__ == "__main__":
    sys.exit(main())
