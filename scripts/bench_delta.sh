#!/usr/bin/env sh
# Bench regression gate: compare the freshly written BENCH_*.json at the
# repository root against the committed baselines (HEAD) and fail on a
# >25% regression of any recorded mean.
#
#   scripts/bench_delta.sh          # compare working-tree JSON vs HEAD
#
# The benches overwrite the committed JSON in place, so the baseline is
# read back from git. Entries are matched by their identifying fields
# (rows, scenario). Missing coverage fails loudly: a BENCH_*.json with
# no committed baseline fails (commit the baseline in the same change
# that adds the bench), a fresh entry whose key the baseline does not
# know fails, and a baseline entry the fresh run did not reproduce
# fails too — except under fast mode, which records a smoke-size subset
# by design (its keys must still all exist in the baseline). Every
# BENCH_*.json at the root is gated the same way:
# BENCH_incremental.json (edit latency speedups), BENCH_join.json
# (hash-vs-nested join speedups), BENCH_plan.json (planned multi-join
# speedups), BENCH_stream.json (streaming base-delta speedups),
# BENCH_server.json (shared-snapshot read throughput/tails),
# BENCH_persist.json (binary columnar save / cold-open speedups) and
# BENCH_wal.json (durability tax of logged appends) today, anything a
# future bench writes tomorrow. Plan, stream, server, persist, wal and
# the incremental bench's query-modification scenarios additionally
# carry absolute floors — see below.
#
# By default only the speedup ratios are gated: they are means recorded
# by the same run on the same machine, so they transfer across hosts,
# whereas absolute *_ms means compare a CI runner against the machine
# that produced the baseline. Set BENCH_DELTA_STRICT=1 to also gate the
# *_ms means (useful when baseline and fresh run share a machine).
set -eu

cd "$(dirname "$0")/.."

python3 - "$@" <<'EOF'
import glob
import json
import os
import subprocess
import sys

THRESHOLD = 0.25
# Speedup ratios saturate: past this the timed path is effectively free
# (microseconds) and the ratio is timer noise, so both sides are clamped
# here before comparing. A collapse from "free" to "slow" still fails.
SPEEDUP_CAP = 20.0
STRICT = os.environ.get("BENCH_DELTA_STRICT") == "1"
ID_FIELDS = ("rows", "scenario")

def entry_key(entry):
    return tuple((f, entry[f]) for f in ID_FIELDS if f in entry)

def sections(doc):
    """Top-level lists of measurement dicts, e.g. "sizes" or "edits"."""
    for name, value in doc.items():
        if isinstance(value, list) and value and all(
            isinstance(e, dict) for e in value
        ):
            yield name, {entry_key(e): e for e in value}

def gated_metrics(entry):
    """(field, higher_is_better) pairs this gate checks in an entry."""
    for field, value in entry.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if "speedup" in field:
            yield field, True
        elif field.endswith("_ms") and STRICT:
            yield field, False

# Absolute floors on top of the relative gate: the planner must keep a
# ≥5x speedup over the unplanned pipeline on the full-size (100k-row)
# multi-join workloads — the acceptance bar for the plan rewrites, not
# just "no worse than last commit". Fast-mode runs only record the smoke
# size, so the floor never fires there.
PLAN_SPEEDUP_FLOOR = 5.0
PLAN_FLOOR_ROWS = 100_000

# The streaming base-data delta paths must keep a ≥10x per-append
# speedup over full re-evaluation at the full 100k-row size — the
# acceptance bar for the live-feed patching (DESIGN.md §14). Applied to
# every append scenario (single and burst); deletes and updates are
# covered by the relative gate only, since their cost is dominated by
# the O(n) narrowing pass by design.
STREAM_SPEEDUP_FLOOR = 10.0
STREAM_FLOOR_ROWS = 100_000

# The server's shared-snapshot reads must sustain >= 5x the single-site
# (deep-copy-per-session, deep-copy-per-undo-snapshot) baseline at the
# full 100k-row size with 4 reader threads, and a concurrent writer must
# not degrade read tail latency beyond 2x quiet — the acceptance bars
# for the snapshot/epoch architecture (DESIGN.md §15).
SERVER_SPEEDUP_FLOOR = 5.0
SERVER_P99_RATIO_CEILING = 2.0
SERVER_FLOOR_ROWS = 100_000

# Cold open-to-first-answer through the paged binary store must stay
# >= 5x faster than parsing the JSON dump when the query touches a
# strict subset of the columns, at the full 1M-row size — the
# acceptance bar for the lazily-loaded columnar format (DESIGN.md §16).
# The all-columns scenario and save are covered by the relative gate.
PERSIST_SPEEDUP_FLOOR = 5.0
PERSIST_FLOOR_ROWS = 1_000_000

# Durability must not eat the streaming win: with the default batch
# fsync policy, one acked logged append must keep the §14 >= 10x
# speedup over full re-evaluation at the full 100k-row size, and cost
# <= 2x the same append on an unlogged in-memory replica (DESIGN.md
# §17). The never/always policies are covered by the relative gate.
WAL_SPEEDUP_FLOOR = 10.0
WAL_OVERHEAD_CEILING = 2.0
WAL_FLOOR_ROWS = 100_000

# Query modification must not fall back to the full pipeline's cost
# (DESIGN.md §10): widening a selection (loosening or removing it) must
# keep >= 1.2x over full re-evaluation, and undoing an aggregate (undo
# keeps the cache) >= 2x, at the full 100k-row size. The other
# incremental scenarios are covered by the relative gate.
INCREMENTAL_SPEEDUP_FLOORS = {
    "loosen_selection": 1.2,
    "remove_selection": 1.2,
    "undo_aggregate": 2.0,
}
INCREMENTAL_FLOOR_ROWS = 100_000

def floor_entries(path, fresh):
    """(section, entry, floor) triples whose speedup has an absolute
    floor on top of the relative gate."""
    if path == "BENCH_plan.json":
        for entry in fresh.get("plans", []):
            if entry.get("rows", 0) >= PLAN_FLOOR_ROWS:
                yield "plans", entry, PLAN_SPEEDUP_FLOOR
    elif path == "BENCH_stream.json":
        for entry in fresh.get("edits", []):
            if entry.get("rows", 0) >= STREAM_FLOOR_ROWS and str(
                entry.get("scenario", "")
            ).startswith("append"):
                yield "edits", entry, STREAM_SPEEDUP_FLOOR
    elif path == "BENCH_server.json":
        for entry in fresh.get("reads", []):
            if entry.get("rows", 0) >= SERVER_FLOOR_ROWS and str(
                entry.get("scenario", "")
            ).startswith("read_shared_4"):
                yield "reads", entry, SERVER_SPEEDUP_FLOOR
    elif path == "BENCH_persist.json":
        for entry in fresh.get("scenarios", []):
            if (entry.get("rows", 0) >= PERSIST_FLOOR_ROWS
                    and entry.get("scenario") == "cold_open_query_1col"):
                yield "scenarios", entry, PERSIST_SPEEDUP_FLOOR
    elif path == "BENCH_incremental.json":
        for entry in fresh.get("edits", []):
            floor = INCREMENTAL_SPEEDUP_FLOORS.get(entry.get("scenario"))
            if floor is not None and entry.get("rows", 0) >= INCREMENTAL_FLOOR_ROWS:
                yield "edits", entry, floor
    elif path == "BENCH_wal.json":
        for entry in fresh.get("appends", []):
            if (entry.get("rows", 0) >= WAL_FLOOR_ROWS
                    and entry.get("scenario") == "append_wal_batch"):
                yield "appends", entry, WAL_SPEEDUP_FLOOR

def floor_checks(path, fresh):
    # Fast-mode runs only record the smoke size, so floors never fire.
    if fresh.get("fast"):
        return
    for section, entry, floor in floor_entries(path, fresh):
        label = f"{path}:{section}:{dict(entry_key(entry))}"
        speedup = float(entry.get("speedup", 0.0))
        verdict = "FAIL" if speedup < floor else "ok"
        print(f"{verdict:4} {label} speedup floor: "
              f"{speedup:g} (need >= {floor:g})")
        if speedup < floor:
            yield f"{label} speedup {speedup:g} < floor {floor:g}"
        if path == "BENCH_server.json" and "p99_ratio" in entry:
            ratio = float(entry["p99_ratio"])
            ceiling = SERVER_P99_RATIO_CEILING
            verdict = "FAIL" if ratio > ceiling else "ok"
            print(f"{verdict:4} {label} p99_ratio ceiling: "
                  f"{ratio:g} (need <= {ceiling:g})")
            if ratio > ceiling:
                yield f"{label} p99_ratio {ratio:g} > ceiling {ceiling:g}"
        if path == "BENCH_wal.json" and "overhead_ratio" in entry:
            ratio = float(entry["overhead_ratio"])
            ceiling = WAL_OVERHEAD_CEILING
            verdict = "FAIL" if ratio > ceiling else "ok"
            print(f"{verdict:4} {label} overhead_ratio ceiling: "
                  f"{ratio:g} (need <= {ceiling:g})")
            if ratio > ceiling:
                yield f"{label} overhead_ratio {ratio:g} > ceiling {ceiling:g}"

failures = []
compared = 0
for path in sorted(glob.glob("BENCH_*.json")):
    with open(path) as f:
        fresh = json.load(f)
    if fresh.get("fast"):
        print(f"{path}: fresh run is fast-mode (smoke sizes/samples)")
    failures.extend(floor_checks(path, fresh))
    show = subprocess.run(
        ["git", "show", f"HEAD:{path}"], capture_output=True, text=True
    )
    if show.returncode != 0:
        # A bench without a committed baseline would silently skip the
        # gate forever; the change adding a bench must commit its
        # baseline JSON too.
        print(f"FAIL {path}: no committed baseline "
              f"(commit the full-run JSON alongside the bench)")
        failures.append(f"{path}: no committed baseline")
        continue
    baseline = json.loads(show.stdout)
    base_sections = dict(sections(baseline))
    fresh_sections = dict(sections(fresh))
    # Coverage must be loud in both directions: a fresh key the baseline
    # does not know means the gate has nothing to compare it against; a
    # baseline key the fresh run skipped means coverage silently
    # shrank (tolerated only for fast-mode smoke subsets).
    for name, base_entries in base_sections.items():
        fresh_entries = fresh_sections.get(name, {})
        for key in base_entries:
            if key not in fresh_entries:
                label = f"{path}:{name}:{dict(key)}"
                if fresh.get("fast"):
                    print(f"{label}: not re-run by the fast-mode subset")
                else:
                    print(f"FAIL {label}: in baseline but missing from "
                          f"the fresh run")
                    failures.append(f"{label}: missing from fresh run")
    for name, fresh_entries in fresh_sections.items():
        base_entries = base_sections.get(name, {})
        for key, entry in fresh_entries.items():
            base = base_entries.get(key)
            label = f"{path}:{name}:{dict(key)}"
            if base is None:
                print(f"FAIL {label}: not in committed baseline "
                      f"(unknown entry key — update the baseline)")
                failures.append(f"{label}: not in committed baseline")
                continue
            for field, higher_better in gated_metrics(entry):
                if field not in base:
                    continue
                old, new = float(base[field]), float(entry[field])
                if higher_better:
                    old, new = min(old, SPEEDUP_CAP), min(new, SPEEDUP_CAP)
                if old <= 0:
                    continue
                # Regression fraction: how much worse the fresh mean is.
                delta = (old - new) / old if higher_better else (new - old) / old
                verdict = "FAIL" if delta > THRESHOLD else "ok"
                print(
                    f"{verdict:4} {label} {field}: "
                    f"{old:g} -> {new:g} ({-delta:+.1%})"
                )
                compared += 1
                if delta > THRESHOLD:
                    failures.append(f"{label} {field}")

if failures:
    print(f"\nbench_delta: {len(failures)} regression(s) beyond "
          f"{THRESHOLD:.0%}:")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"\nbench_delta: OK ({compared} means within {THRESHOLD:.0%})")
EOF
