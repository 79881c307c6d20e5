#!/usr/bin/env python3
"""Compare freshly-generated BENCH_*.json files against a committed baseline.

Each BENCH file carries a top-level ``time_sec`` plus optional per-row
series. Rows are matched by their identity fields (everything that is not
a measurement), and a row whose ``time_sec`` grew by more than the
threshold factor counts as a regression. Missing rows and missing files
are reported too (a bench that stopped emitting a row would otherwise
pass silently).

Intended use (CI runs this as a blocking gate):

    python3 tools/bench_diff.py \
        --baseline-dir . --current-dir fresh-bench \
        --benches scaling,table1 --threshold 1.3 \
        --per-bench table1=1.5,scaling=1.45 \
        --markdown-out "$GITHUB_STEP_SUMMARY"

``--per-bench`` overrides the global threshold for individual benches;
the committed CI values are derived from observed same-runner run-to-run
noise on each bench's artifacts (see docs/BENCHMARKS.md for the numbers
and how to re-derive them from the uploaded ``bench-json`` artifacts).

Besides each row's ``time_sec``, every field named in GATED_FIELDS (e.g.
``rewrite_sec``, the saturation phase the tail models spend most of their
time in) gates with the same threshold and the same min-time floor — so
only rows where that phase is above timer noise participate.

``--against-best`` replaces the baseline directory with the committed
history: each gated field of each row is compared with its minimum over
every committed version of ``BENCH_<name>.json`` in the git checkout the
tool runs in (``git log --format=%H -- BENCH_<name>.json`` plus ``git
show``), so a slow drift across several changes fails even when each
step stayed within the threshold of its parent. The row set is the
newest committed version's:

    python3 tools/bench_diff.py --against-best \
        --current-dir build/bench-gate --benches table1,extract \
        --per-bench table1=1.4,extract=1.45

The committed points may come from other machines, so CI runs this mode
as a report, not a gate; the ``bench_gate`` CMake target runs it locally.

Calibration: every BENCH file written by bench/BenchUtil.h carries a
top-level ``calibration_sec``, the time of a fixed integer kernel on the
machine that wrote it. Only ``--against-best`` uses it: each committed
version is expressed in units of its own calibration and the best point
is rescaled to the current machine (multiplied by the current file's
calibration) before the threshold and floor apply, so history from a
slower or faster machine does not read as a regression or a win. If the
current file carries a calibration, only versions that carry one take
part (raw history is used when none does). A ``--baseline-dir``
comparison ignores calibration: both sides come from the same runner,
and the ratio of two short kernel timings would only add its own noise
to the gate.

``--markdown-out`` appends a GitHub-flavored markdown summary (one table
per bench: baseline vs current time per row, ratio, verdict) to the given
file — CI points it at the job summary page. See docs/BENCHMARKS.md for
the full JSON schema and gating semantics.

Exit status: 0 when no regression, 1 on any regression or missing data,
2 on usage errors.
"""

import argparse
import json
import os
import subprocess
import sys

# Fields that *identify* a row (which workload/config it measures). Every
# other field is an output — a measurement or a derived result — and may
# legitimately drift without breaking row matching (e.g. a new rewrite
# rule changing saturated e-node counts must still compare times, not
# report the row missing).
IDENTITY_FIELDS = ("family", "n", "model", "kind", "iter", "rule")

# Measurement fields gated per row (when present in both baseline and
# current, and above the min-time floor). time_sec is the end-to-end row
# time; rewrite_sec isolates the saturation phase so a rewrite-engine
# regression on a tail model cannot hide behind an extraction win;
# extract_sec gates the k-best engine, which a synthesis syncs once per
# main-loop round, so redundant re-derivation shows up here even on rows
# whose total stays within the threshold; rewrite_apply_sec
# gates the Runner's serial apply phase. Under --against-best
# each of these is compared with its own best committed value.
GATED_FIELDS = ("time_sec", "rewrite_sec", "extract_sec", "rewrite_apply_sec")


def row_key(row):
    """Identity of a row: its identity fields, order-insensitive."""
    key = tuple((k, str(row[k])) for k in IDENTITY_FIELDS if k in row)
    if key:
        return key
    # No known identity field: fall back to position-free full identity
    # minus the one field always treated as a measurement.
    return tuple(sorted((k, str(v)) for k, v in row.items() if k != "time_sec"))


def load(path):
    with open(path) as f:
        return json.load(f)


def committed_history(fname):
    """Every committed version of ./<fname> as parsed JSON, newest first.
    Versions that do not parse (or commits that deleted the file) are
    skipped."""

    def git(*args):
        return subprocess.run(
            ["git", *args], check=True, capture_output=True, text=True
        ).stdout

    versions = []
    for sha in git("log", "--format=%H", "--", fname).split():
        try:
            versions.append((sha, json.loads(git("show", f"{sha}:./{fname}"))))
        except (subprocess.CalledProcessError, json.JSONDecodeError):
            continue
    return versions


def positive(v):
    return isinstance(v, (int, float)) and v > 0


def calibration(doc):
    """The file's calibration_sec, or None when it carries none."""
    cal = doc.get("calibration_sec")
    return cal if positive(cal) else None


def best_baseline(versions, units=False):
    """A baseline built from committed history: the newest version's rows,
    each gated field (and the total time_sec) replaced by its minimum over
    all versions that have the row. Each row's "best_at" maps a field to
    the short hash of the commit that holds its minimum. With ``units``,
    only calibrated versions take part, each field is divided by its
    version's calibration_sec, and the result carries calibration_sec 1
    (falls back to raw values when no version is calibrated)."""

    if units:
        calibrated = [(sha, d) for sha, d in versions if calibration(d)]
        if calibrated:
            versions = calibrated
        else:
            units = False

    def scale(doc):
        return 1.0 / calibration(doc) if units else 1.0

    seen = {}
    for sha, doc in versions:
        for row in doc.get("rows", []):
            seen.setdefault(row_key(row), []).append((sha, row, scale(doc)))
    totals = [d["time_sec"] * scale(d) for _, d in versions
              if positive(d.get("time_sec"))]
    best = {"rows": []}
    if units:
        best["calibration_sec"] = 1.0
    if totals:
        best["time_sec"] = min(totals)
    for row in versions[0][1].get("rows", []):
        history = seen[row_key(row)]
        row = dict(row, best_at={})
        for field in GATED_FIELDS:
            points = [(r[field] * k, sha) for sha, r, k in history
                      if positive(r.get(field))]
            if points:
                value, sha = min(points)
                row[field] = value
                row["best_at"][field] = sha[:10]
        best["rows"].append(row)
    return best


def load_baseline(args, fname, current):
    """(where the baseline comes from, the baseline or None if absent)."""
    if args.against_best:
        versions = committed_history(fname)
        where = f"git history of {fname}"
        units = current is not None and calibration(current) is not None
        return where, best_baseline(versions, units) if versions else None
    path = os.path.join(args.baseline_dir, fname)
    return path, load(path) if os.path.exists(path) else None


def compare_bench(name, baseline, current, threshold, min_time, report, md,
                  calibrated=False):
    ok = True
    # With ``calibrated`` (--against-best), baseline seconds are rescaled
    # to the current machine when both sides carry a calibration; 1
    # otherwise.
    rescale = 1.0
    if calibrated and calibration(baseline) and calibration(current):
        rescale = calibration(current) / calibration(baseline)
        report.append(f"  {name}: baseline rescaled by calibration "
                      f"{rescale:.3f}x to this machine")
    base_time = baseline.get("time_sec")
    if base_time:
        base_time *= rescale
    cur_time = current.get("time_sec")
    if base_time and cur_time:
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        line = f"{name}: total {base_time:.3f}s -> {cur_time:.3f}s ({ratio:.2f}x)"
        # The total is informational only: it includes fixed harness
        # overhead, so per-row times below are what gate.
        report.append("  " + line)

    md.append(f"### `{name}` (threshold {threshold:.2f}x)")
    md.append("")
    md.append("| row | baseline (s) | current (s) | ratio | verdict |")
    md.append("| --- | ---: | ---: | ---: | --- |")
    if base_time and cur_time:
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        md.append(
            f"| *total (informational)* | {base_time:.3f} | {cur_time:.3f} "
            f"| {ratio:.2f}x | |"
        )

    base_rows = {row_key(r): r for r in baseline.get("rows", [])}
    cur_rows = {row_key(r): r for r in current.get("rows", [])}
    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        ident = ", ".join(f"{k}={v}" for k, v in key)
        if cur_row is None:
            report.append(f"  MISSING ROW [{name}] {ident}")
            md.append(f"| {ident} | — | — | — | :x: missing |")
            ok = False
            continue
        for field in GATED_FIELDS:
            bt, ct = base_row.get(field), cur_row.get(field)
            if bt is None or ct is None or bt <= 0:
                continue
            bt *= rescale
            label = ident if field == "time_sec" else f"{ident} [{field}]"
            if bt < min_time and ct < min_time:
                # Sub-floor rows are pure timer noise; growth ratios on
                # them would flap CI.
                if field == "time_sec":
                    md.append(
                        f"| {label} | {bt:.4f} | {ct:.4f} | | below floor |"
                    )
                continue
            ratio = ct / bt
            best_at = base_row.get("best_at", {}).get(field)
            if best_at:
                label += f" (best at {best_at})"
            if ratio > threshold:
                report.append(
                    f"  REGRESSION [{name}] {label}: "
                    f"{bt:.4f}s -> {ct:.4f}s ({ratio:.2f}x > {threshold:.2f}x)"
                )
                md.append(
                    f"| {label} | {bt:.4f} | {ct:.4f} | {ratio:.2f}x "
                    f"| :x: regression |"
                )
                ok = False
            else:
                md.append(
                    f"| {label} | {bt:.4f} | {ct:.4f} | {ratio:.2f}x | ok |"
                )
    md.append("")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir")
    ap.add_argument("--current-dir", required=True)
    ap.add_argument(
        "--against-best",
        action="store_true",
        help="compare with the best committed value of each gated row "
        "(git history of BENCH_<name>.json in the current directory) "
        "instead of "
        "--baseline-dir",
    )
    ap.add_argument(
        "--benches",
        default="scaling,table1",
        help="comma-separated bench names (BENCH_<name>.json)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=1.3,
        help="max allowed per-row growth factor on gated fields",
    )
    ap.add_argument(
        "--per-bench",
        default="",
        help="per-bench threshold overrides, e.g. 'table1=1.5,scaling=1.45' "
        "(benches not listed use --threshold)",
    )
    ap.add_argument(
        "--min-time",
        type=float,
        default=0.05,
        help="ignore rows whose time stays below this many seconds",
    )
    ap.add_argument(
        "--markdown-out",
        default=None,
        help="append a markdown summary (per-bench tables) to this file; "
        "CI points it at $GITHUB_STEP_SUMMARY",
    )
    args = ap.parse_args()
    if not args.against_best and not args.baseline_dir:
        print("--baseline-dir is required without --against-best", file=sys.stderr)
        return 2

    per_bench = {}
    for entry in [e.strip() for e in args.per_bench.split(",") if e.strip()]:
        bench, _, value = entry.partition("=")
        try:
            per_bench[bench.strip()] = float(value)
        except ValueError:
            print(f"bad --per-bench entry: {entry!r}", file=sys.stderr)
            return 2

    ok = True
    report = []
    against = "best committed point" if args.against_best else "baseline"
    md = [f"## Bench regression report against the {against} "
          f"(threshold {args.threshold:.2f}x)", ""]
    for name in [b.strip() for b in args.benches.split(",") if b.strip()]:
        fname = f"BENCH_{name}.json"
        cur_path = os.path.join(args.current_dir, fname)
        try:
            current = load(cur_path) if os.path.exists(cur_path) else None
            base_path, baseline = load_baseline(args, fname, current)
        except (json.JSONDecodeError, OSError, subprocess.CalledProcessError) as e:
            report.append(f"  UNREADABLE {name}: {e}")
            md.append(f"- :x: unreadable `{name}`: {e}")
            ok = False
            continue
        if baseline is None:
            report.append(f"  NO BASELINE for {name} ({base_path})")
            md.append(f"- :x: no baseline for `{name}`")
            ok = False
            continue
        if current is None:
            report.append(f"  NO CURRENT RESULT for {name} ({cur_path})")
            md.append(f"- :x: no current result for `{name}`")
            ok = False
            continue
        ok &= compare_bench(
            name,
            baseline,
            current,
            per_bench.get(name, args.threshold),
            args.min_time,
            report,
            md,
            calibrated=args.against_best,
        )

    print("bench_diff report (threshold {:.2f}x):".format(args.threshold))
    for line in report:
        print(line)
    print("RESULT:", "OK" if ok else "REGRESSION")

    md.append(f"**Result: {'OK' if ok else 'REGRESSION'}**")
    md.append("")
    if args.markdown_out:
        with open(args.markdown_out, "a") as f:
            f.write("\n".join(md) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
