#!/usr/bin/env python3
"""Compare the benchmark's results for a parent and a changed commit.

Compare two existing result sets (directories of `reobench/out/*-trace0-*.json`
files, or of records written by --run):

    python3 reobench/compare.py PARENT_DIR CHANGE_DIR

Run ten paired runs per workload first (seeds 1-10, alternating which side
runs first; run length and workloads from BENCHMARK.json), then compare:

    python3 reobench/compare.py --run PARENT_ROOT CHANGE_ROOT --out DIR [--holdout-seed 9001]

PARENT_ROOT and CHANGE_ROOT are source checkouts; each is built once into its
own `.bench_build`. Results land in DIR/parent and DIR/change.

The rule, per workload and end-to-end metric (bounds and directions come from
BENCHMARK.json). Wall-clock metrics vary from run to run, so they are judged
across the pairs:
  * gain: the change wins at least 9/10 of the pairs (ties count for neither)
    and the medians differ, in the better direction, by more than the parent's
    interquartile spread, and no more requests failed than at the parent; it
    stands only if the change also wins the pair on --holdout-seed;
  * unresolved: the parent's own spread (IQR / median) exceeds the bound and
    not every change run reads better than every parent run;
  * REGRESSION: the change's median is worse than the parent's by more than
    the bound;
  * otherwise no regression.
Simulated metrics (a record's `same_seed_metrics`) repeat exactly for a seed
on any host, so each pair is judged on its own seed: the change's relative
change against the parent's run on that seed. The median of these changes decides:
  * identical: every pair reads the same;
  * REGRESSION: worse by more than SAME_SEED_BOUND;
  * gain: better by more than SAME_SEED_BOUND on at least 9/10 of the pairs
    (and on --holdout-seed);
  * otherwise changed within SAME_SEED_BOUND.
A failed-request share above the parent's is reported as a regression of its
own. The exit status is 1 on any regression or incorrect run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"

# Paired runs per workload, on seeds FIRST_SEED, FIRST_SEED + 1, ...
PAIRS = 10
FIRST_SEED = 1

# Relative worsening of a same-seed metric (median over the pairs) that
# counts as a regression. Same-seed metrics, which each result record lists
# under `same_seed_metrics`, are computed from simulated time and counters
# alone, so a change shows on every pair.
SAME_SEED_BOUND = 0.001


def load_benchmark():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def load_results(directory):
    """(workload, seed) -> list of untraced result records, in file order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") or "metrics" not in rec:
            continue
        runs.setdefault((rec["workload"], rec["seed"]), []).append(rec)
    return runs


def pairs_of(parent, change):
    """workload -> list of (parent record, change record) matched by seed."""
    out = {}
    for key in sorted(set(parent) & set(change)):
        for p, c in zip(parent[key], change[key]):
            out.setdefault(key[0], []).append((p, c))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / max(attempted, 1)


def relative_change(parent, change, higher):
    """Signed relative change of `change` against `parent`, positive = better."""
    if parent == change:
        return 0.0
    if not parent:
        return float("inf") if (change > parent) == higher else float("-inf")
    return ((change - parent) if higher else (parent - change)) / abs(parent)


def verdict(metric, pairs, more_failures, same_seed):
    name, bound = metric["name"], metric["bound"]
    higher = metric["better"] == "higher"
    p = [pr["metrics"][name]["value"] for pr, _ in pairs]
    c = [ch["metrics"][name]["value"] for _, ch in pairs]

    def better(a, b):
        return a > b if higher else a < b

    wins = sum(better(ci, pi) for pi, ci in zip(p, c))
    p_med, c_med = statistics.median(p), statistics.median(c)
    p_q1, p_q3 = quartiles(p)
    c_q1, c_q3 = quartiles(c)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    if same_seed:
        changes = [relative_change(pi, ci, higher) for pi, ci in zip(p, c)]
        gap = statistics.median(changes)
        wide_wins = sum(x > SAME_SEED_BOUND for x in changes)
        bound = SAME_SEED_BOUND
        if not any(changes):
            result = "identical"
        elif gap < -bound:
            result = "REGRESSION"
        elif wide_wins >= 0.9 * len(pairs) and not more_failures:
            result = "gain"
        else:
            result = "changed within bound"
    else:
        gap = relative_change(p_med, c_med, higher)
        all_better = all(better(ci, pi) for ci in c for pi in p)
        if (wins >= 0.9 * len(pairs) and gap > 0 and abs(c_med - p_med) > (p_q3 - p_q1)
                and not more_failures):
            result = "gain"
        elif spread > bound and not all_better:
            result = "unresolved"
        elif gap < -bound:
            result = "REGRESSION"
        else:
            result = "no regression"
    return {
        "metric": name,
        "unit": metric["unit"],
        "parent": [p_med, p_q1, p_q3],
        "change": [c_med, c_q1, c_q3],
        "wins": wins,
        "pairs": len(pairs),
        "change_pct": 100.0 * gap,
        "parent_spread_pct": 100.0 * spread,
        "bound_pct": 100.0 * bound,
        "verdict": result,
    }


def confirm_on_holdout(row, metric, holdout):
    """A gain stands only if the change also wins the held-out seed's pair."""
    if row["verdict"] != "gain":
        return
    if not holdout:
        row["verdict"] = "gain (no held-out seed run)"
        return
    p, c = (r["metrics"][metric["name"]]["value"] for r in holdout[0])
    won = c > p if metric["better"] == "higher" else c < p
    row["verdict"] = "gain, held-out seed confirms" if won else "not a gain: held-out seed disagrees"


def compare(parent_dir, change_dir, metrics, holdout_seed=None):
    pairs = pairs_of(load_results(parent_dir), load_results(change_dir))
    held = {}
    for workload in list(pairs):
        held[workload] = [pc for pc in pairs[workload] if pc[0]["seed"] == holdout_seed]
        pairs[workload] = [pc for pc in pairs[workload] if pc[0]["seed"] != holdout_seed]
    pairs = {w: wp for w, wp in pairs.items() if wp}
    if not pairs:
        sys.exit("no untraced results with matching workload and seed in both sets")
    report, bad = {}, False
    print(f"{'workload':<16} {'pairs':>5} {'failed% parent':>15} {'failed% change':>15}  verdicts")
    for workload, wp in pairs.items():
        parents = [p for p, _ in wp]
        changes = [c for _, c in wp]
        pf, cf = failed_share(parents), failed_share(changes)
        incorrect = [r["seed"] for r in parents + changes if not r.get("correct", False)]
        rows = []
        for m in metrics.values():
            row = verdict(m, wp, cf > pf, m["name"] in parents[0]["same_seed_metrics"])
            confirm_on_holdout(row, m, held.get(workload))
            rows.append(row)
        counts = {}
        for r in rows:
            counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
        summary = ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
        if cf > pf:
            summary += ", FAILED SHARE UP"
        if incorrect:
            summary += f", INCORRECT RUNS (seeds {incorrect})"
        print(f"{workload:<16} {len(wp):>5} {100 * pf:>15.4f} {100 * cf:>15.4f}  {summary}")
        bad |= cf > pf or bool(incorrect) or any(r["verdict"] == "REGRESSION" for r in rows)
        report[workload] = {"failed_pct": [100 * pf, 100 * cf], "incorrect_seeds": incorrect,
                            "metrics": rows}
    for workload, entry in report.items():
        print(f"\n{workload}: median [q1, q3] parent -> change, wins/pairs")
        for r in entry["metrics"]:
            p, c = r["parent"], r["change"]
            print(f"  {r['metric']:<22} {p[0]:12.4f} [{p[1]:.4f}, {p[2]:.4f}] -> "
                  f"{c[0]:12.4f} [{c[1]:.4f}, {c[2]:.4f}] {r['unit']:<7} "
                  f"{r['wins']:>2}/{r['pairs']:<2} {r['change_pct']:+7.2f}% "
                  f"(spread {r['parent_spread_pct']:.2f}%, bound {r['bound_pct']:.1f}%) "
                  f"{r['verdict']}")
    return bad


def build(root):
    env = dict(os.environ, CARGO_TARGET_DIR=str(Path(root) / ".bench_build"))
    subprocess.run(["cargo", "build", "--release", "--offline", "-q",
                    "--manifest-path", "reobench/Cargo.toml"], cwd=root, env=env, check=True)
    return Path(root) / ".bench_build" / "release" / "reobench"


def run_one(binary, root, workload, seed, seconds):
    """Runs the benchmark once and returns the result record it wrote."""
    before = set(Path(root).glob(f"reobench/out/{workload}-seed{seed}-trace0-*.json"))
    out = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, capture_output=True, text=True, timeout=600)
    written = set(Path(root).glob(f"reobench/out/{workload}-seed{seed}-trace0-*.json")) - before
    if len(written) != 1:
        sys.exit(f"{root}: {workload} seed {seed} wrote no result:\n{out.stderr}")
    with open(written.pop()) as f:
        rec = json.load(f)
    rec["exit_code"] = out.returncode
    return rec


def run_pairs(args, bench):
    roots = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    binaries = {side: build(root) for side, root in roots.items()}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [FIRST_SEED + i for i in range(PAIRS)]
    if args.holdout_seed is not None:
        seeds.append(args.holdout_seed)
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for position, side in enumerate(order):
                rec = run_one(binaries[side], roots[side], workload, seed, seconds)
                rec.update(pair=i, position=position)
                target = Path(args.out) / side
                target.mkdir(parents=True, exist_ok=True)
                with open(target / f"{workload}-seed{seed}.json", "w") as f:
                    json.dump(rec, f)
                print(f"pair {i} seed {seed} {workload} {side}: correct={rec['correct']}",
                      file=sys.stderr, flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="parent result directory (or checkout root with --run)")
    ap.add_argument("change", help="change result directory (or checkout root with --run)")
    ap.add_argument("--run", action="store_true", help="run paired runs before comparing")
    ap.add_argument("--out", help="result directory for --run")
    ap.add_argument("--holdout-seed", type=int,
                    help="a seed not used while the change was written: with --run one more "
                         "pair runs on it; a gain stands only if the change wins that pair too")
    args = ap.parse_args()
    bench, metrics = load_benchmark()
    parent_dir, change_dir = args.parent, args.change
    if args.run:
        if not args.out:
            ap.error("--run needs --out")
        run_pairs(args, bench)
        parent_dir, change_dir = Path(args.out) / "parent", Path(args.out) / "change"
    bad = compare(parent_dir, change_dir, metrics, args.holdout_seed)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
