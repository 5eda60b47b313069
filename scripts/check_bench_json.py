#!/usr/bin/env python3
"""Validate BENCH_*.json bench artifacts against the schema in OBSERVABILITY.md.

Usage:
    check_bench_json.py FILE [FILE ...]    validate artifact files
    check_bench_json.py --self-test        run the validator's own checks

Exit status 0 when every file (and the self-test) passes, 1 otherwise.
Uses only the Python standard library.
"""

import json
import sys

SCHEMA_VERSION = 1

# Event names emitted by src/obs/timeline.cpp (to_string). Kept in sync by
# the self-referential check in tests/obs_test.cpp.
KNOWN_EVENTS = {
    "conn_created",
    "handshake_merged",
    "divergence",
    "conn_closed",
    "tombstone_created",
    "tombstone_expired",
    "stray_fin_acked",
    "stray_fin_suppressed",
    "takeover_start",
    "takeover_complete",
    "secondary_failed",
    "peer_declared_failed",
    "host_failed",
    "route_advert_sent",
    "takeover.route_converged",
    "client_migrated",
}

HIST_KEYS = {"count", "sum", "min", "max", "mean", "p50", "p99"}

class SchemaError(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _expect_numbers(obj, keys, where):
    """Each of `keys` is in `obj` and is a non-negative number."""
    for key in keys:
        _expect(key in obj, f"{where} missing '{key}'")
        _expect(isinstance(obj[key], (int, float)) and obj[key] >= 0,
                f"{where}.{key} is not a non-negative number")


def _check_table(i, table):
    _expect(isinstance(table, dict), f"tables[{i}] is not an object")
    for key in ("title", "columns", "rows"):
        _expect(key in table, f"tables[{i}] missing '{key}'")
    cols = table["columns"]
    _expect(isinstance(cols, list) and cols, f"tables[{i}].columns empty")
    _expect(all(isinstance(c, str) for c in cols),
            f"tables[{i}].columns has a non-string entry")
    for j, row in enumerate(table["rows"]):
        _expect(isinstance(row, list), f"tables[{i}].rows[{j}] is not a list")
        _expect(len(row) == len(cols),
                f"tables[{i}].rows[{j}] has {len(row)} cells, "
                f"expected {len(cols)}")
        _expect(all(isinstance(c, str) for c in row),
                f"tables[{i}].rows[{j}] has a non-string cell")


def _check_metrics(host, metrics):
    _expect(isinstance(metrics, dict), f"host '{host}': metrics not an object")
    for key in ("counters", "gauges", "histograms"):
        _expect(key in metrics, f"host '{host}': metrics missing '{key}'")
    for name, v in metrics["counters"].items():
        _expect(isinstance(v, int) and v >= 0,
                f"host '{host}': counter '{name}' is not a non-negative int")
    for name, v in metrics["gauges"].items():
        _expect(isinstance(v, dict) and {"value", "max"} <= set(v),
                f"host '{host}': gauge '{name}' missing value/max")
    for name, h in metrics["histograms"].items():
        _expect(isinstance(h, dict) and HIST_KEYS <= set(h),
                f"host '{host}': histogram '{name}' missing {sorted(HIST_KEYS - set(h))}")


def _check_timeline(host, timeline):
    _expect(isinstance(timeline, list), f"host '{host}': timeline not a list")
    prev_t = -1
    for k, ev in enumerate(timeline):
        _expect(isinstance(ev, dict), f"host '{host}': timeline[{k}] not an object")
        for key in ("t_ns", "event"):
            _expect(key in ev, f"host '{host}': timeline[{k}] missing '{key}'")
        _expect(isinstance(ev["t_ns"], int) and ev["t_ns"] >= 0,
                f"host '{host}': timeline[{k}].t_ns invalid")
        _expect(ev["event"] in KNOWN_EVENTS,
                f"host '{host}': timeline[{k}] unknown event '{ev['event']}'")
        _expect(ev["t_ns"] >= prev_t,
                f"host '{host}': timeline[{k}] goes backwards in time")
        prev_t = ev["t_ns"]


def _check_profiles(profiles):
    _expect(isinstance(profiles, list) and profiles,
            "'profiles' must be a non-empty list when present")
    for i, p in enumerate(profiles):
        _expect(isinstance(p, dict), f"profiles[{i}] is not an object")
        for key in ("name", "seed", "params", "oracles"):
            _expect(key in p, f"profiles[{i}] missing '{key}'")
        _expect(isinstance(p["name"], str) and p["name"],
                f"profiles[{i}].name is not a non-empty string")
        _expect(isinstance(p["seed"], int) and p["seed"] >= 0,
                f"profiles[{i}].seed is not a non-negative int")
        _expect(isinstance(p["params"], dict),
                f"profiles[{i}].params is not an object")
        oracles = p["oracles"]
        _expect(isinstance(oracles, dict) and oracles,
                f"profiles[{i}].oracles is not a non-empty object")
        for name, v in oracles.items():
            _expect(isinstance(v, bool),
                    f"profiles[{i}].oracles['{name}'] is not a bool")


# Heap per storm connection at scale (bench_storm's allocator figure,
# client + both replicas + bridge): 2,531 B at 20k connections (2,529 B
# at 10k, 2,638 B at 100k) since tcp::Connection shrank 600 -> 472 B, one
# connection timer serving RTO, keepalive and TIME_WAIT (2,915 B at 20k
# before). The cap keeps the ~10 % headroom the earlier ones (5,600 B
# over 5,043 B, 3,900 B over 3,506 B, 3,400 B over 3,059 B) had. Small
# populations carry fixed overhead (the 1k point measures ~3.0 KB) and
# are not gated.
STORM_BYTES_PER_CONN_MAX = 2900
STORM_BYTES_GATE_MIN_CONNS = 10000
# Where those bytes go (bench_storm's per-table breakdown).
STORM_TABLES = ("tcp_connection", "bridge_conn", "packet_buffers",
                "conn_buffers", "sim_events", "conn_tables")


def _check_storm(storm):
    _expect(isinstance(storm, dict), "'storm' is not an object")
    for key in ("points", "alloc", "min_rto_ns", "rx_processing_ns"):
        _expect(key in storm, f"storm missing '{key}'")
    for key in ("min_rto_ns", "rx_processing_ns"):
        _expect(isinstance(storm[key], (int, float)) and storm[key] > 0,
                f"storm.{key} is not a positive number")
    min_rto = storm["min_rto_ns"]
    points = storm["points"]
    _expect(isinstance(points, list) and points,
            "storm.points must be a non-empty list")
    prev_conns = 0
    for i, p in enumerate(points):
        _expect(isinstance(p, dict), f"storm.points[{i}] is not an object")
        _expect_numbers(p, ("conns", "bytes_per_conn", "takeover_p50_ns",
                            "takeover_p99_ns"), f"storm.points[{i}]")
        _expect(p["conns"] > prev_conns,
                f"storm.points[{i}].conns not strictly increasing")
        prev_conns = p["conns"]
        _expect(p["takeover_p99_ns"] >= p["takeover_p50_ns"],
                f"storm.points[{i}]: p99 below p50")
        if p["conns"] >= STORM_BYTES_GATE_MIN_CONNS:
            _expect(p["bytes_per_conn"] <= STORM_BYTES_PER_CONN_MAX,
                    f"storm.points[{i}]: bytes_per_conn {p['bytes_per_conn']} "
                    f"above the {STORM_BYTES_PER_CONN_MAX} B ceiling")
        tables = p.get("bytes_per_conn_by_table")
        _expect(isinstance(tables, dict),
                f"storm.points[{i}] missing 'bytes_per_conn_by_table'")
        _expect_numbers(tables, STORM_TABLES,
                        f"storm.points[{i}].bytes_per_conn_by_table")
        # Each table is a part of the allocator's total.
        _expect(sum(tables[key] for key in STORM_TABLES) <= p["bytes_per_conn"],
                f"storm.points[{i}]: per-table bytes exceed bytes_per_conn")
        # With the takeover kick the clients do not wait out their RTO, so
        # the tail stays below min_rto -- wherever the secondary can read
        # the whole storm (one probe per connection) within min_rto. Past
        # that (100k) the burst is wire-bound and only p99 >= p50 is
        # checked.
        if p["conns"] * storm["rx_processing_ns"] < min_rto:
            _expect(p["takeover_p99_ns"] < min_rto,
                    f"storm.points[{i}]: takeover p99 {p['takeover_p99_ns']:.0f} ns "
                    f"is not below min_rto ({min_rto:.0f} ns)")
    alloc = storm["alloc"]
    _expect(isinstance(alloc, dict), "storm.alloc is not an object")
    _expect_numbers(alloc, ("cycles", "wheel_allocs"), "storm.alloc")
    _expect(alloc["wheel_allocs"] == 0,
            f"storm.alloc.wheel_allocs {alloc['wheel_allocs']} is not 0")


# Heap allocations per frame on bench_packet_path's three paths, once the
# pools are warm: the host-to-host frame path (ARP hit, medium slot, NIC
# rx ring, pooled buffer), the §3.1 diversion path, whose one
# copy-on-write takes a pooled header and block, and the §3.2 merge path
# (both output queues, the merged segment to the client). The diversion
# gate was 1.00 (the header's make_shared) until packet headers were
# pooled; the merge path made map nodes and timeline records until the
# queues kept their runs in reusable vectors.
PACKET_PATH_MAX_ALLOCS = 0.0
PACKET_PATH_FIELDS = ("frame_allocs_per_frame", "diversion_allocs_per_seg",
                      "merge_allocs_per_seg")


def _check_packet_path(packet_path):
    _expect(isinstance(packet_path, dict), "'packet_path' is not an object")
    _expect_numbers(packet_path, PACKET_PATH_FIELDS, "packet_path")
    for key in PACKET_PATH_FIELDS:
        value = packet_path[key]
        _expect(value <= PACKET_PATH_MAX_ALLOCS,
                f"packet_path.{key} {value} above the "
                f"{PACKET_PATH_MAX_ALLOCS:.2f} allocation gate")


def _check_churn(churn):
    _expect(isinstance(churn, dict), "'churn' is not an object")
    for key in ("requests_per_conn", "points"):
        _expect(key in churn, f"churn missing '{key}'")
    _expect(isinstance(churn["requests_per_conn"], int)
            and churn["requests_per_conn"] >= 1,
            "churn.requests_per_conn must be an int >= 1")
    points = churn["points"]
    _expect(isinstance(points, list) and points,
            "churn.points must be a non-empty list")
    prev_cps = 0
    for i, p in enumerate(points):
        _expect(isinstance(p, dict), f"churn.points[{i}] is not an object")
        _expect_numbers(p, ("offered_cps", "duration_s", "conns_started",
                            "conns_established", "conns_completed", "conns_failed",
                            "requests_sent", "responses_ok", "requests_per_s",
                            "latency_p50_ns", "latency_p99_ns", "setup_p50_ns",
                            "setup_p99_ns", "setup_retried", "setup_p99_first_syn_ns",
                            "listen_overflows", "time_wait_recycled",
                            "embryonic_reaped", "growth_bytes_per_conn"),
                        f"churn.points[{i}]")
        _expect(p["offered_cps"] > prev_cps,
                f"churn.points[{i}].offered_cps not strictly increasing")
        prev_cps = p["offered_cps"]
        _expect(p["latency_p99_ns"] >= p["latency_p50_ns"],
                f"churn.points[{i}]: latency p99 below p50")
        _expect(p["setup_p99_ns"] >= p["setup_p50_ns"],
                f"churn.points[{i}]: setup p99 below p50")
        # The first-SYN p99 leaves out the retried setups, so it can only
        # sit at or below the p99 of all of them.
        _expect(p["setup_p99_first_syn_ns"] <= p["setup_p99_ns"],
                f"churn.points[{i}]: first-SYN setup p99 above the overall p99")
        _expect(p["setup_retried"] <= p["conns_started"],
                f"churn.points[{i}]: more retried setups than starts")
        _expect(p["conns_completed"] <= p["conns_started"],
                f"churn.points[{i}]: more completions than starts")
        _expect(p["responses_ok"] <= p["requests_sent"],
                f"churn.points[{i}]: more responses than requests")
        # Open-loop gate: an unhealthy run still reports the offered rate,
        # so a collapse shows up as failures, not a smaller denominator.
        _expect(p["conns_failed"] <= 0.05 * p["conns_started"],
                f"churn.points[{i}]: more than 5% of connections failed")


def _check_attack(attack):
    _expect(isinstance(attack, dict), "'attack' is not an object")
    _expect_numbers(attack, ("injected_total", "connections_killed", "spoof_dropped",
                             "challenge_acks", "challenge_acks_limited", "icmp_rejected",
                             "hb_auth_failed", "baseline_steady_ms",
                             "baseline_failover_ms", "worst_slowdown"), "attack")
    _expect(attack["injected_total"] > 0,
            "attack.injected_total is zero — the adversary matrix never ran")
    # The headline gate: an off-path adversary must never tear a bridged
    # connection down, however many segments it sprays.
    _expect(attack["connections_killed"] == 0,
            f"attack.connections_killed {attack['connections_killed']} != 0")
    _expect(attack["worst_slowdown"] <= 5,
            f"attack.worst_slowdown {attack['worst_slowdown']} above the "
            f"5x goodput-degradation gate")


# bench_failover_time's one sweep: each point varies one axis of the
# takeover shape around the LAN base point.
TAKEOVER_AXES = {"grid", "chain", "hops"}
TAKEOVER_FIELDS = ("hops", "replicas", "detector_ns", "arp_latency_ns", "seeds",
                   "runs", "detect_ns", "stall_p50_ns", "stall_p99_ns",
                   "complete_ns", "route_converged_ns", "client_resets")
# On the LAN with T = 0 the kick resends at once, so the stall is the
# detection time (8.9-470.6 ms measured, stall - detect within 0.04 ms).
TAKEOVER_STALL_OVER_DETECT_MAX_NS = 1.0e6
# Head promotion runs the same takeover at every depth: the chain-length
# stalls measured 41.0 / 41.5 / 42.2 ms for 2 / 3 / 4 replicas.
TAKEOVER_CHAIN_SPAN_MAX_NS = 2.0e6


def _check_takeover(takeover):
    _expect(isinstance(takeover, dict), "'takeover' is not an object")
    _expect("points" in takeover, "takeover missing 'points'")
    points = takeover["points"]
    _expect(isinstance(points, list) and points,
            "takeover.points must be a non-empty list")
    axes = set()
    kinds = set()
    prev_hops = {}
    chain_stalls = []
    for i, p in enumerate(points):
        where = f"takeover.points[{i}]"
        _expect(isinstance(p, dict), f"{where} is not an object")
        _expect(p.get("axis") in TAKEOVER_AXES,
                f"{where}.axis {p.get('axis')!r} unknown")
        _expect(p.get("announcer") in ("garp", "route"),
                f"{where}.announcer {p.get('announcer')!r} unknown")
        _expect_numbers(p, TAKEOVER_FIELDS, where)
        axes.add(p["axis"])
        _expect(p["runs"] >= 1, f"{where}.runs is zero")
        _expect(p["runs"] == p["seeds"],
                f"{where}: {p['seeds'] - p['runs']} of {p['seeds']} run(s) "
                "did not complete and verify")
        _expect(p["stall_p99_ns"] >= p["stall_p50_ns"], f"{where}: p99 below p50")
        # The headline gate: whatever the shape, the client must never see
        # a reset during takeover.
        _expect(p["client_resets"] == 0,
                f"{where}: {p['client_resets']} client reset(s)")
        if p["announcer"] == "route":
            _expect(p["route_converged_ns"] > 0,
                    f"{where}: route announcer never converged")
        else:
            _expect(p["route_converged_ns"] == 0,
                    f"{where}: garp point reports route convergence")
        if p["axis"] == "hops":
            kinds.add(p["announcer"])
            _expect(p["hops"] > prev_hops.get(p["announcer"], 0),
                    f"{where}.hops not strictly increasing for announcer "
                    f"'{p['announcer']}'")
            prev_hops[p["announcer"]] = p["hops"]
        if p["axis"] == "chain":
            chain_stalls.append(p["stall_p50_ns"])
        if p["hops"] == 0 and p["arp_latency_ns"] == 0:
            over = abs(p["stall_p50_ns"] - p["detect_ns"])
            _expect(over <= TAKEOVER_STALL_OVER_DETECT_MAX_NS,
                    f"{where}: stall {p['stall_p50_ns']:.0f} ns is "
                    f"{over:.0f} ns from detection {p['detect_ns']:.0f} ns at T = 0")
    _expect(axes == TAKEOVER_AXES,
            f"takeover.points covers axes {sorted(axes)}, expected "
            f"{sorted(TAKEOVER_AXES)}")
    _expect(kinds == {"garp", "route"},
            f"takeover hops points cover {sorted(kinds)}, expected both announcers")
    span = max(chain_stalls) - min(chain_stalls)
    _expect(span <= TAKEOVER_CHAIN_SPAN_MAX_NS,
            f"takeover chain-length stalls span {span:.0f} ns, above "
            f"{TAKEOVER_CHAIN_SPAN_MAX_NS:.0f} ns")


# bench_fig6_ftp_wan: Figure 6's FTP rates over the WAN [KB/s], pinned
# exactly as the bench writes them (six significant digits). A change to
# what goes on the wire moves them; re-record them with EXPERIMENTS.md.
FIG6_RATES = ("get_std_kbs", "get_fo_kbs", "put_std_kbs", "put_fo_kbs")
FIG6_PINNED = {
    0.2: (8.94957, 8.89271, 500, 500),
    1.3: (58.1722, 57.8026, 1925.93, 1925.93),
    18.2: (140.989, 140.55, 3714.29, 3714.29),
    144.9: (172.2, 114.445, 293.211, 293.041),
    1738.1: (157.032, 164.607, 165.412, 153.361),
}
# Shape claims (EXPERIMENTS.md, Figure 6). Tiny downloads are RTT-bound, so
# standard and failover agree within this fraction of the standard rate.
FIG6_TINY_GETS_KB = (0.2, 1.3)
FIG6_TINY_GET_MATCH = 0.05
# Buffer-sized uploads report the client's local write, far above the link.
FIG6_SMALL_PUTS_KB = (0.2, 1.3, 18.2)
# The largest file converges to the link rate in all four configurations.
FIG6_LARGE_KB = 1738.1
FIG6_LINK_BAND_KBS = (150.0, 190.0)
FIG6_SMALL_PUT_MIN_KBS = 2 * FIG6_LINK_BAND_KBS[1]


def _check_fig6(fig6):
    _expect(isinstance(fig6, dict), "'fig6' is not an object")
    points = fig6.get("points")
    _expect(isinstance(points, list), "fig6 missing 'points'")
    by_size = {}
    for i, p in enumerate(points):
        where = f"fig6.points[{i}]"
        _expect(isinstance(p, dict), f"{where} is not an object")
        _expect_numbers(p, ("file_kb",) + FIG6_RATES, where)
        _expect(p["file_kb"] not in by_size, f"{where}: file size {p['file_kb']} repeated")
        by_size[p["file_kb"]] = p
    _expect(sorted(by_size) == sorted(FIG6_PINNED),
            f"fig6 file sizes {sorted(by_size)}, expected {sorted(FIG6_PINNED)}")
    for kb in FIG6_TINY_GETS_KB:
        std, fo = by_size[kb]["get_std_kbs"], by_size[kb]["get_fo_kbs"]
        _expect(abs(std - fo) <= FIG6_TINY_GET_MATCH * std,
                f"fig6 {kb} KB get: std {std} and failover {fo} differ by more "
                f"than {FIG6_TINY_GET_MATCH:.0%}")
    for kb in FIG6_SMALL_PUTS_KB:
        for key in ("put_std_kbs", "put_fo_kbs"):
            rate = by_size[kb][key]
            _expect(rate >= FIG6_SMALL_PUT_MIN_KBS,
                    f"fig6 {kb} KB {key} {rate} is not a local-write rate "
                    f"(below {FIG6_SMALL_PUT_MIN_KBS:.0f} KB/s)")
    lo, hi = FIG6_LINK_BAND_KBS
    for key in FIG6_RATES:
        rate = by_size[FIG6_LARGE_KB][key]
        _expect(lo <= rate <= hi,
                f"fig6 {FIG6_LARGE_KB} KB {key} {rate} outside the "
                f"{lo:.0f}-{hi:.0f} KB/s link band")
    # Shapes first, so a drift that breaks a paper claim names the claim.
    for kb, pinned in FIG6_PINNED.items():
        for key, want in zip(FIG6_RATES, pinned):
            got = by_size[kb][key]
            _expect(got == want, f"fig6 {kb} KB {key} {got} != pinned {want}")


def check_document(doc):
    """Raises SchemaError when `doc` violates the bench artifact schema."""
    _expect(isinstance(doc, dict), "top level is not an object")
    for key in ("bench", "schema_version", "tables", "hosts"):
        _expect(key in doc, f"missing top-level key '{key}'")
    _expect(isinstance(doc["bench"], str) and doc["bench"],
            "'bench' is not a non-empty string")
    _expect(doc["schema_version"] == SCHEMA_VERSION,
            f"schema_version {doc['schema_version']!r} != {SCHEMA_VERSION}")
    _expect(isinstance(doc["tables"], list) and doc["tables"],
            "'tables' must be a non-empty list")
    for i, table in enumerate(doc["tables"]):
        _check_table(i, table)
    _expect(isinstance(doc["hosts"], list) and doc["hosts"],
            "'hosts' must be a non-empty list")
    for host_obj in doc["hosts"]:
        _expect(isinstance(host_obj, dict) and "host" in host_obj,
                "hosts[] entry missing 'host'")
        host = host_obj["host"]
        for key in ("t_ns", "metrics", "timeline"):
            _expect(key in host_obj, f"host '{host}' missing '{key}'")
        _check_metrics(host, host_obj["metrics"])
        _check_timeline(host, host_obj["timeline"])
    if "profiles" in doc:
        _check_profiles(doc["profiles"])
    if "storm" in doc:
        _check_storm(doc["storm"])
    if doc["bench"] == "packet_path":
        _expect("packet_path" in doc, "packet_path bench without its gate section")
    if "packet_path" in doc:
        _check_packet_path(doc["packet_path"])
    if "churn" in doc:
        _check_churn(doc["churn"])
    if "attack" in doc:
        _check_attack(doc["attack"])
    if doc["bench"] == "failover_time":
        _expect("takeover" in doc, "failover_time bench without its takeover section")
    if "takeover" in doc:
        _check_takeover(doc["takeover"])
    if doc["bench"] == "fig6":
        _expect("fig6" in doc, "fig6 bench without its fig6 section")
    if "fig6" in doc:
        _check_fig6(doc["fig6"])


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL {path}: {e}")
        return False
    try:
        check_document(doc)
    except SchemaError as e:
        print(f"FAIL {path}: {e}")
        return False
    n_events = sum(len(h["timeline"]) for h in doc["hosts"])
    extra = ""
    if "profiles" in doc:
        n_red = sum(not all(p["oracles"].values()) for p in doc["profiles"])
        extra = (f", {len(doc['profiles'])} profile(s)"
                 + (f" ({n_red} with red oracles)" if n_red else ""))
    print(f"OK   {path}: bench '{doc['bench']}', {len(doc['tables'])} table(s), "
          f"{len(doc['hosts'])} host(s), {n_events} timeline event(s){extra}")
    return True


def _takeover_point(axis, **fields):
    """A passing takeover point: the base shape unless `fields` say otherwise."""
    p = {"axis": axis, "hops": 0, "replicas": 2, "detector_ns": 5.0e7,
         "arp_latency_ns": 0, "announcer": "garp", "seeds": 3, "runs": 3,
         "detect_ns": 4.14e7, "stall_p50_ns": 4.14e7, "complete_ns": 7.88e7,
         "route_converged_ns": 0, "client_resets": 0, **fields}
    p.setdefault("stall_p99_ns", p["stall_p50_ns"])
    return p


def self_test():
    good = {
        "bench": "demo",
        "schema_version": SCHEMA_VERSION,
        "tables": [{"title": "t", "columns": ["a", "b"], "rows": [["1", "2"]]}],
        "hosts": [{
            "host": "primary",
            "t_ns": 5,
            "metrics": {
                "counters": {"bridge.merged_segments": 3},
                "gauges": {"bridge.connections": {"value": 1, "max": 2}},
                "histograms": {"bridge.merged_payload_bytes": {
                    "count": 1, "sum": 8.0, "min": 8.0, "max": 8.0,
                    "mean": 8.0, "p50": 8.0, "p99": 8.0}},
            },
            "timeline": [
                {"t_ns": 1, "host": "primary", "event": "conn_created",
                 "conn": "k", "detail": ""},
                {"t_ns": 4, "host": "primary", "event": "takeover_start",
                 "conn": "", "detail": ""},
            ],
        }],
        "profiles": [{
            "name": "uniform2_steady",
            "seed": 101,
            "params": {"loss": 0.02},
            "oracles": {"stream_intact": True, "conserved": True},
        }],
        "storm": {
            "points": [
                {"conns": 1000, "bytes_per_conn": 3020,
                 "bytes_per_conn_by_table": {
                     "tcp_connection": 1416, "bridge_conn": 336,
                     "packet_buffers": 5, "conn_buffers": 96,
                     "sim_events": 141, "conn_tables": 344},
                 "takeover_p50_ns": 4.8e7, "takeover_p99_ns": 4.9e7},
                {"conns": 100000, "bytes_per_conn": 2638,
                 "bytes_per_conn_by_table": {
                     "tcp_connection": 1416, "bridge_conn": 336,
                     "packet_buffers": 0, "conn_buffers": 96,
                     "sim_events": 72, "conn_tables": 412},
                 "takeover_p50_ns": 6.0e7, "takeover_p99_ns": 3.9e8},
            ],
            "alloc": {"cycles": 200000, "wheel_allocs": 0},
            "min_rto_ns": 2.0e8,
            "rx_processing_ns": 2000,
        },
        "packet_path": {"frame_allocs_per_frame": 0.0,
                        "diversion_allocs_per_seg": 0.0,
                        "merge_allocs_per_seg": 0.0},
        "churn": {
            "requests_per_conn": 2,
            "points": [
                {"offered_cps": 2000.0, "duration_s": 3.0,
                 "conns_started": 5974, "conns_established": 5974,
                 "conns_completed": 5974, "conns_failed": 0,
                 "requests_sent": 11948, "responses_ok": 11948,
                 "requests_per_s": 3983.0,
                 "latency_p50_ns": 2.0e4, "latency_p99_ns": 9.0e4,
                 "setup_p50_ns": 4.0e4, "setup_p99_ns": 1.0e9,
                 "setup_retried": 120, "setup_p99_first_syn_ns": 6.0e4,
                 "listen_overflows": 0, "time_wait_recycled": 0,
                 "embryonic_reaped": 0, "growth_bytes_per_conn": 362.0},
                {"offered_cps": 10000.0, "duration_s": 3.0,
                 "conns_started": 30077, "conns_established": 30077,
                 "conns_completed": 30050, "conns_failed": 27,
                 "requests_sent": 60154, "responses_ok": 60100,
                 "requests_per_s": 20033.0,
                 "latency_p50_ns": 2.0e4, "latency_p99_ns": 1.3e5,
                 "setup_p50_ns": 4.0e4, "setup_p99_ns": 1.0e9,
                 "setup_retried": 300, "setup_p99_first_syn_ns": 3.9e7,
                 "listen_overflows": 9987, "time_wait_recycled": 13693,
                 "embryonic_reaped": 0, "growth_bytes_per_conn": 346.0},
            ],
        },
        "attack": {
            "injected_total": 52000, "connections_killed": 0,
            "spoof_dropped": 1200, "challenge_acks": 310,
            "challenge_acks_limited": 40, "icmp_rejected": 18,
            "hb_auth_failed": 900, "baseline_steady_ms": 810.0,
            "baseline_failover_ms": 1020.0, "worst_slowdown": 1.2,
        },
        "fig6": {"points": [
            {"file_kb": kb, **dict(zip(FIG6_RATES, rates))}
            for kb, rates in FIG6_PINNED.items()
        ]},
        "takeover": {"points": [
            _takeover_point("grid"),
            _takeover_point("grid", arp_latency_ns=1.0e7, stall_p50_ns=2.003e8),
            _takeover_point("chain"),
            _takeover_point("chain", replicas=4, detect_ns=4.26e7, stall_p50_ns=4.26e7),
            _takeover_point("hops", hops=1, stall_p50_ns=5.04e7),
            _takeover_point("hops", hops=2, stall_p50_ns=5.11e7),
            _takeover_point("hops", hops=1, announcer="route", route_converged_ns=4.0e5),
            _takeover_point("hops", hops=2, announcer="route", route_converged_ns=3.9e5),
        ]},
    }
    check_document(good)

    import copy
    bad_cases = [
        ("missing bench", lambda d: d.pop("bench")),
        ("wrong schema_version", lambda d: d.update(schema_version=99)),
        ("ragged table row", lambda d: d["tables"][0]["rows"].append(["only-one"])),
        ("unknown event", lambda d: d["hosts"][0]["timeline"][0].update(
            event="not_a_real_event")),
        ("time going backwards", lambda d: d["hosts"][0]["timeline"][1].update(
            t_ns=0)),
        ("negative counter", lambda d: d["hosts"][0]["metrics"]["counters"].update(
            {"bridge.merged_segments": -1})),
        ("gauge missing max", lambda d: d["hosts"][0]["metrics"]["gauges"].update(
            {"bridge.connections": {"value": 1}})),
        ("empty hosts", lambda d: d.update(hosts=[])),
        ("profiles not a list", lambda d: d.update(profiles={})),
        ("profile missing name", lambda d: d["profiles"][0].pop("name")),
        ("profile negative seed", lambda d: d["profiles"][0].update(seed=-1)),
        ("profile non-bool oracle", lambda d: d["profiles"][0]["oracles"].update(
            {"stream_intact": "yes"})),
        ("storm missing points", lambda d: d["storm"].pop("points")),
        ("storm empty points", lambda d: d["storm"].update(points=[])),
        ("storm point missing p99", lambda d: d["storm"]["points"][0].pop(
            "takeover_p99_ns")),
        ("storm p99 below p50", lambda d: d["storm"]["points"][0].update(
            takeover_p99_ns=1.0)),
        ("storm p99 at min_rto", lambda d: d["storm"]["points"][0].update(
            takeover_p99_ns=2.0e8)),
        ("storm missing min_rto_ns", lambda d: d["storm"].pop("min_rto_ns")),
        ("storm zero rx_processing_ns", lambda d: d["storm"].update(
            rx_processing_ns=0)),
        ("storm conns not increasing", lambda d: d["storm"]["points"][1].update(
            conns=1000)),
        ("storm negative bytes", lambda d: d["storm"]["points"][0].update(
            bytes_per_conn=-1)),
        ("storm bytes_per_conn above ceiling at scale",
         lambda d: d["storm"]["points"][1].update(bytes_per_conn=2915)),
        ("storm missing table breakdown", lambda d: d["storm"]["points"][0].pop(
            "bytes_per_conn_by_table")),
        ("storm table breakdown missing packet_buffers",
         lambda d: d["storm"]["points"][1]["bytes_per_conn_by_table"].pop(
             "packet_buffers")),
        ("storm table breakdown missing sim_events",
         lambda d: d["storm"]["points"][1]["bytes_per_conn_by_table"].pop(
             "sim_events")),
        ("storm table breakdown missing conn_tables",
         lambda d: d["storm"]["points"][1]["bytes_per_conn_by_table"].pop(
             "conn_tables")),
        ("storm tables exceed bytes_per_conn",
         lambda d: d["storm"]["points"][0]["bytes_per_conn_by_table"].update(
             tcp_connection=9000)),
        ("storm alloc missing wheel_allocs", lambda d: d["storm"]["alloc"].pop(
            "wheel_allocs")),
        ("storm wheel allocs nonzero", lambda d: d["storm"]["alloc"].update(
            wheel_allocs=1)),
        ("packet_path frame path allocates", lambda d: d["packet_path"].update(
            frame_allocs_per_frame=0.0002)),
        ("packet_path diversion path allocates", lambda d: d["packet_path"].update(
            diversion_allocs_per_seg=1.0)),
        ("packet_path merge path allocates", lambda d: d["packet_path"].update(
            merge_allocs_per_seg=2.0)),
        ("churn missing points", lambda d: d["churn"].pop("points")),
        ("churn empty points", lambda d: d["churn"].update(points=[])),
        ("churn zero requests_per_conn", lambda d: d["churn"].update(
            requests_per_conn=0)),
        ("churn point missing overflows", lambda d: d["churn"]["points"][0].pop(
            "listen_overflows")),
        ("churn cps not increasing", lambda d: d["churn"]["points"][1].update(
            offered_cps=2000.0)),
        ("churn latency p99 below p50", lambda d: d["churn"]["points"][0].update(
            latency_p99_ns=1.0e4)),
        ("churn setup p99 below p50", lambda d: d["churn"]["points"][0].update(
            setup_p99_ns=1.0e4)),
        ("churn point missing setup_retried", lambda d: d["churn"]["points"][1].pop(
            "setup_retried")),
        ("churn first-SYN setup p99 above the overall p99",
         lambda d: d["churn"]["points"][1].update(setup_p99_first_syn_ns=2.0e9)),
        ("churn completions exceed starts", lambda d: d["churn"]["points"][0].update(
            conns_completed=99999)),
        ("churn responses exceed requests", lambda d: d["churn"]["points"][0].update(
            responses_ok=99999)),
        ("churn failure rate above 5%", lambda d: d["churn"]["points"][1].update(
            conns_failed=5000)),
        ("churn negative growth", lambda d: d["churn"]["points"][0].update(
            growth_bytes_per_conn=-1)),
        ("attack missing killed", lambda d: d["attack"].pop(
            "connections_killed")),
        ("attack connection killed", lambda d: d["attack"].update(
            connections_killed=1)),
        ("attack nothing injected", lambda d: d["attack"].update(
            injected_total=0)),
        ("attack negative challenge count", lambda d: d["attack"].update(
            challenge_acks=-5)),
        ("attack slowdown above gate", lambda d: d["attack"].update(
            worst_slowdown=8.0)),
        ("takeover missing points", lambda d: d["takeover"].pop("points")),
        ("takeover empty points", lambda d: d["takeover"].update(points=[])),
        ("takeover unknown axis", lambda d: d["takeover"]["points"][0].update(
            axis="latitude")),
        ("takeover point missing p99", lambda d: d["takeover"]["points"][0].pop(
            "stall_p99_ns")),
        ("takeover p99 below p50", lambda d: d["takeover"]["points"][4].update(
            stall_p99_ns=1.0)),
        ("takeover unknown announcer", lambda d: d["takeover"]["points"][4].update(
            announcer="carrier_pigeon")),
        ("takeover client saw a reset", lambda d: d["takeover"]["points"][6].update(
            client_resets=1)),
        ("takeover route never converged",
         lambda d: d["takeover"]["points"][6].update(route_converged_ns=0)),
        ("takeover garp claims convergence",
         lambda d: d["takeover"]["points"][4].update(route_converged_ns=5000.0)),
        ("takeover hops not increasing", lambda d: d["takeover"]["points"][5].update(
            hops=1)),
        ("takeover zero runs", lambda d: d["takeover"]["points"][4].update(
            runs=0, seeds=0)),
        ("takeover run lost", lambda d: d["takeover"]["points"][1].update(runs=2)),
        ("takeover only one announcer kind", lambda d: d["takeover"].update(
            points=[p for p in d["takeover"]["points"]
                    if p["announcer"] == "garp"])),
        ("takeover axis missing", lambda d: d["takeover"].update(
            points=[p for p in d["takeover"]["points"] if p["axis"] != "chain"])),
        ("takeover stall past detection at T = 0",
         lambda d: d["takeover"]["points"][0].update(stall_p50_ns=4.3e7,
                                                     stall_p99_ns=4.3e7)),
        ("takeover chain stalls spread", lambda d: d["takeover"]["points"][3].update(
            detect_ns=4.5e7, stall_p50_ns=4.5e7, stall_p99_ns=4.5e7)),
        ("failover_time bench without takeover", lambda d: (
            d.update(bench="failover_time"), d.pop("takeover"))),
        ("fig6 bench without its section", lambda d: (
            d.update(bench="fig6"), d.pop("fig6"))),
        ("fig6 missing a file size", lambda d: d["fig6"]["points"].pop(2)),
        ("fig6 negative rate", lambda d: d["fig6"]["points"][0].update(
            get_fo_kbs=-1.0)),
        # The shape gates must fire before the pins, naming the claim.
        ("fig6 tiny get std and failover apart", lambda d: d["fig6"]["points"][1].update(
            get_fo_kbs=40.0), "differ by more"),
        ("fig6 small put at link rate", lambda d: d["fig6"]["points"][2].update(
            put_fo_kbs=180.0), "local-write rate"),
        ("fig6 large file below the link band", lambda d: d["fig6"]["points"][4].update(
            get_std_kbs=120.0), "link band"),
        ("fig6 large file above the link band", lambda d: d["fig6"]["points"][4].update(
            put_fo_kbs=260.0), "link band"),
        ("fig6 drift inside every shape", lambda d: d["fig6"]["points"][3].update(
            get_std_kbs=172.3), "pinned"),
    ]
    for name, mutate, *expect in bad_cases:
        doc = copy.deepcopy(good)
        mutate(doc)
        try:
            check_document(doc)
        except SchemaError as e:
            if not expect or expect[0] in str(e):
                continue
            print(f"FAIL self-test: '{name}' was rejected for the wrong reason: {e}")
            return False
        print(f"FAIL self-test: '{name}' was not rejected")
        return False
    print(f"OK   self-test: valid document accepted, "
          f"{len(bad_cases)} invalid mutations rejected")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 1
    ok = True
    files = []
    for arg in argv[1:]:
        if arg == "--self-test":
            ok = self_test() and ok
        else:
            files.append(arg)
    for path in files:
        ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
