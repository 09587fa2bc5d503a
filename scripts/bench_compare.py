#!/usr/bin/env python3
"""Diff a fresh tabd_micro JSON run against the committed BENCH_micro.json.

Usage: bench_compare.py BASELINE.json FRESH.json [--threshold PCT]
                        [--history FILE]

Prints a per-benchmark table for the tracked families and flags entries whose
time regressed by more than the threshold (default 20%).  Wall-clock
benchmarks (names carrying Google Benchmark's `/real_time` suffix, e.g. the
BM_FleetRunner thread-scaling families) are compared on real_time; everything
else on cpu_time.  Always exits 0: this is a trend signal for humans (and CI
annotations), not a gate — a loaded CI runner must not fail the build.  New
benchmarks (no baseline entry) and removed ones are reported informationally.

Comparisons are only meaningful on matching media: both JSONs carry the
run_bench.sh-stamped context.bench_media_fs (the committed baseline is
tmpfs-recorded), and a baseline/fresh mismatch loudly downgrades the whole
comparison to informational — deltas print, but nothing is flagged as a
regression, because a disk-vs-tmpfs delta measures the media, not the code.

--history FILE appends one NDJSON record of this comparison (UTC timestamp,
commit, per-benchmark baseline/fresh/delta) to FILE — the scheduled bench
workflow feeds its bench-history artifact with this, so slow drift across
days is visible, not just per-push regressions.
"""

import argparse
import datetime
import json
import os
import re
import sys

# Families tracked for regressions (the hot paths this repo optimizes for).
# BM_Rollback covers the binary/linear rebuild pair AND the per-backend
# BM_RollbackRecover* restart families; BM_Backend* are the per-backend
# churn families (memory is the no-regression reference, mmap/log price
# durability); BM_NodeAttach*/BM_ChurnRestart* are the warm-restart
# families (Node attach-from-storage and the full kill/reopen/rejoin
# cycle); BM_RecvFrame is the fleet's socket receive path, which costs the
# received bytes, not its 1 MiB buffer.
TRACKED = re.compile(
    r"^(BM_DvMerge|BM_ReceivePath)\b"
    r"|^BM_Rollback|^BM_StoreChurn|^BM_Backend|^BM_FleetRunner"
    r"|^BM_NodeAttach|^BM_ChurnRestart"
    r"|^BM_Protocol|^BM_SimDelivery|^BM_RecvFrame")


def load(path):
    """(name -> measured time, media_fs): real_time for /real_time
    benchmarks, cpu_time otherwise (a worker-pool benchmark's main-thread
    cpu_time is mostly condition-variable waiting).  media_fs is the
    run_bench.sh-stamped context.bench_media_fs ("unknown" when absent —
    a raw tabd_micro run that bypassed the wrapper)."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        key = "real_time" if "/real_time" in b["name"] else "cpu_time"
        out[b["name"]] = b[key]
    media = data.get("context", {}).get("bench_media_fs", "unknown")
    return out, media


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="regression threshold in percent (default 20)")
    parser.add_argument("--history", metavar="FILE",
                        help="append one NDJSON comparison record to FILE")
    args = parser.parse_args()

    baseline, baseline_media = load(args.baseline)
    fresh, fresh_media = load(args.fresh)

    # The storage-backend families time the MEDIA as much as the code: a
    # tmpfs baseline (the committed BENCH_micro.json) against an ext4/disk
    # fresh run regresses by integer factors with zero code change.  A
    # cross-media comparison is therefore downgraded to informational —
    # printed, recorded, but never flagged as a regression.
    cross_media = baseline_media != fresh_media
    if cross_media:
        print(f"::warning title=bench media mismatch::baseline media is "
              f"'{baseline_media}', fresh media is '{fresh_media}' — "
              f"cross-media deltas are not comparable")
        print(f"WARNING: cross-media comparison ({baseline_media} baseline "
              f"vs {fresh_media} fresh): regression flags suppressed, "
              f"output is informational only.\n"
              f"Re-record on matching media (scripts/run_bench.sh uses "
              f"/dev/shm) for a real comparison.\n")

    regressions = []
    records = []
    print(f"{'benchmark':40s} {'baseline':>12s} {'fresh':>12s} {'delta':>8s}")
    for name in sorted(fresh):
        if not TRACKED.search(name):
            continue
        if name not in baseline:
            print(f"{name:40s} {'(new)':>12s} {fresh[name]:12.1f}")
            records.append({"name": name, "fresh": fresh[name]})
            continue
        delta = (fresh[name] / baseline[name] - 1.0) * 100.0
        flag = ""
        if delta > args.threshold and not cross_media:
            flag = "  <-- REGRESSION"
            regressions.append((name, delta))
        print(f"{name:40s} {baseline[name]:12.1f} {fresh[name]:12.1f} "
              f"{delta:+7.1f}%{flag}")
        records.append({"name": name, "baseline": baseline[name],
                        "fresh": fresh[name], "delta_pct": round(delta, 2)})
    for name in sorted(set(baseline) - set(fresh)):
        if TRACKED.search(name):
            print(f"{name:40s} {baseline[name]:12.1f} {'(removed)':>12s}")

    if regressions:
        print()
        for name, delta in regressions:
            # GitHub Actions annotation; harmless noise elsewhere.
            print(f"::warning title=bench regression::{name} is {delta:+.1f}% "
                  f"vs BENCH_micro.json (threshold {args.threshold:.0f}%)")
        print(f"{len(regressions)} tracked benchmark(s) regressed more than "
              f"{args.threshold:.0f}% — investigate before the baseline drifts.")
    elif cross_media:
        print("\ncross-media run: no regression verdict "
              f"({baseline_media} baseline vs {fresh_media} fresh)")
    else:
        print("\nno tracked regressions above "
              f"{args.threshold:.0f}% (families: BM_DvMerge, BM_ReceivePath, "
              "BM_NodeAttach*, BM_ChurnRestart*, "
              "BM_Rollback*, BM_StoreChurn*, BM_Backend*, BM_FleetRunner, "
              "BM_Protocol*, BM_SimDelivery, BM_RecvFrame)")

    if args.history:
        record = {
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "commit": os.environ.get("GITHUB_SHA", ""),
            "threshold_pct": args.threshold,
            "regressions": len(regressions),
            "baseline_media_fs": baseline_media,
            "fresh_media_fs": fresh_media,
            "cross_media": cross_media,
            "benchmarks": records,
        }
        with open(args.history, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended comparison record to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
