#!/usr/bin/env python3
"""Diff two runs of a TLP benchmark trajectory file.

The bench binaries append one labeled run per invocation to $TLP_BENCH_JSON
(see bench/bench_json.h and docs/BENCHMARKING.md). This tool compares two
runs of such a file benchmark by benchmark:

    tools/bench_compare.py BENCH_fig9_synthetic.json \
        --base scalar-baseline --new simd-avx2

Speedup is new_items_per_second / base_items_per_second (falling back to
base_real_time / new_real_time when a benchmark reports no items). A label
may name several runs (record the same label repeatedly): each benchmark is
then compared on its median over those runs, and a `base_spread` column
gives the base runs' (max - min) / median for that benchmark, so one noisy
run cannot pass or fail a gate on its own. Single-run output is unchanged.
Exit status is 0 normally; with --min-speedup X it is 1 unless at least one
compared benchmark reaches X (use --geomean-floor to gate on the geometric
mean instead, e.g. for a CI smoke check against a committed baseline).
Usage and input errors — a missing or unreadable trajectory file, a file
with no runs, an unknown --base/--new label — print a single-line error to
stderr and exit 2, so scripts can tell "the comparison failed the gate"
(exit 1) from "the comparison never ran" (exit 2).
"""

import argparse
import json
import math
import sys


def die(message):
    """Single-line diagnostic + exit 2: the comparison could not run."""
    print(f"bench_compare: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_runs(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        die(f"cannot read trajectory {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        die(f"{path} is not valid trajectory JSON: {e}")
    runs = doc.get("runs", []) if isinstance(doc, dict) else []
    if not runs:
        die(f"{path} contains no runs")
    return doc.get("bench_id", "?"), runs


def pick_runs(runs, label, fallback_index):
    """All runs carrying `label`, or the single run at `fallback_index`."""
    if label is None:
        if not -len(runs) <= fallback_index < len(runs):
            die(f"need at least two runs to compare (found {len(runs)}); "
                "record another run or pass --base/--new explicitly")
        return [runs[fallback_index]]
    picked = [run for run in runs if run.get("label") == label]
    if not picked:
        labels = ", ".join(repr(r.get("label")) for r in runs)
        die(f"no run labeled {label!r} (have: {labels})")
    return picked


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def by_name(runs):
    """Benchmark name -> its records across `runs`, in run order."""
    records = {}
    for run in runs:
        for b in run.get("benchmarks", []):
            records.setdefault(b["name"], []).append(b)
    return records


def summarize(records):
    """One record of per-field medians over a benchmark's repeated records
    (the record itself when there is only one)."""
    if len(records) == 1:
        return records[0]
    return {field: median([r.get(field, 0) for r in records])
            for field in ("items_per_second", "real_time_us")}


def spread(records):
    """(max - min) / median over `records` of the compared figure: items
    per second where reported, else real time."""
    values = [r.get("items_per_second", 0) or r.get("real_time_us", 0)
              for r in records]
    mid = median(values)
    return (max(values) - min(values)) / mid if mid > 0 else 0.0


def speedup(base, new):
    b_ips, n_ips = base.get("items_per_second", 0), new.get(
        "items_per_second", 0)
    if b_ips > 0 and n_ips > 0:
        return n_ips / b_ips
    b_t, n_t = base.get("real_time_us", 0), new.get("real_time_us", 0)
    if b_t > 0 and n_t > 0:
        return b_t / n_t
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trajectory", help="BENCH_*.json file to read")
    ap.add_argument("--base", help="label of the baseline run "
                                   "(default: first run in the file)")
    ap.add_argument("--new", dest="new_label",
                    help="label of the candidate run (default: last run)")
    ap.add_argument("--filter", default="",
                    help="only compare benchmarks whose name contains this")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="exit 1 unless some benchmark reaches this speedup")
    ap.add_argument("--geomean-floor", type=float, default=None,
                    help="exit 1 unless the geometric-mean speedup reaches "
                         "this")
    args = ap.parse_args()

    bench_id, runs = load_runs(args.trajectory)
    base_runs = pick_runs(runs, args.base, 0)
    new_runs = pick_runs(runs, args.new_label, -1)
    if any(run is other for run in base_runs for other in new_runs):
        die("--base and --new select the same run")
    repeated = len(base_runs) > 1 or len(new_runs) > 1

    base_by_name = by_name(base_runs)
    rows = []
    for name, new_records in by_name(new_runs).items():
        if args.filter and args.filter not in name:
            continue
        base_records = base_by_name.get(name)
        if base_records is None:
            continue
        other, b = summarize(base_records), summarize(new_records)
        s = speedup(other, b)
        if s is not None:
            rows.append((name, other, b, s, spread(base_records)))

    if not rows:
        die("the selected runs share no comparable benchmarks")

    def describe(selected):
        run = selected[0]
        count = f" x{len(selected)}" if repeated else ""
        return f"{run.get('label')}{count} ({run.get('backend')})"

    print(f"# {bench_id}: {describe(base_runs)} -> {describe(new_runs)}")
    if repeated:
        print("# medians per benchmark; base_spread = (max - min) / median "
              "of the base runs")
    width = max(len(name) for name, *_ in rows)
    extra = f"  {'base_spread':>11}" if repeated else ""
    print(f"{'benchmark':<{width}}  {'base_us':>10}  {'new_us':>10}  "
          f"{'speedup':>8}{extra}")
    for name, b_rec, n_rec, s, base_spread in sorted(rows,
                                                    key=lambda r: -r[3]):
        extra = f"  {base_spread:>10.1%}" if repeated else ""
        print(f"{name:<{width}}  {b_rec.get('real_time_us', 0):>10.2f}  "
              f"{n_rec.get('real_time_us', 0):>10.2f}  {s:>7.2f}x{extra}")

    speedups = [row[3] for row in rows]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    best = max(speedups)
    print(f"\n{len(rows)} benchmarks; best {best:.2f}x, "
          f"geomean {geomean:.2f}x, worst {min(speedups):.2f}x")

    failed = False
    if args.min_speedup is not None and best < args.min_speedup:
        print(f"FAIL: best speedup {best:.2f}x < {args.min_speedup:.2f}x")
        failed = True
    if args.geomean_floor is not None and geomean < args.geomean_floor:
        print(f"FAIL: geomean {geomean:.2f}x < {args.geomean_floor:.2f}x")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
