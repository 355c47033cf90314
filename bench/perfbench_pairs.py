#!/usr/bin/env python3
"""Compare two revisions on one perfbench workload in alternating pairs.

    python3 bench/perfbench_pairs.py BASE CHANGE --workload sweep \\
        --seeds 51-58 --seconds 40 [--trace 0|1] [--workdir DIR]

BASE and CHANGE are anything `git archive` accepts (a commit, a tag, or the
hash `git stash create` prints for uncommitted work). Each is exported into
its own directory under DIR (default: a new temporary directory outside the
repository) and built there by its own perfbench/run.py, with its own build
directory. An export whose directory already holds the same commit is
reused, build included, so a second series on the same DIR builds nothing.

Pair i runs seed i on both sides; even pairs run BASE first, odd pairs
CHANGE first. For every metric the run reports, the summary gives each
side's median and quartiles, the median of the per-pair CHANGE/BASE ratios,
and in how many pairs CHANGE was better (ties count for neither side).
Higher is better for rates (unit 1/s) and hit ratios; lower for the rest.
Exits non-zero as soon as a run fails or reports `correct` other than true
or `failed` other than 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"perfbench_pairs: {message}", file=sys.stderr)
    sys.exit(1)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def export(revision, side_dir):
    """Exports `revision` into side_dir/tree once; returns the tree."""
    commit = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify",
         f"{revision}^{{commit}}"],
        capture_output=True, text=True)
    if commit.returncode != 0:
        fail(f"unknown revision {revision!r}")
    commit = commit.stdout.strip()
    tree = side_dir / "tree"
    marker = side_dir / "commit"
    if marker.exists() and marker.read_text() == commit:
        return tree
    if tree.exists():
        fail(f"{side_dir} holds another export; pick a new --workdir")
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail(f"could not export {revision}")
    marker.write_text(commit)
    return tree


def run_once(tree, build_dir, args, seed):
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_dir))
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"run in {tree} (seed {seed}) exited {done.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        fail(f"run in {tree} (seed {seed}) reported correct="
             f"{result.get('correct')} failed={result.get('failed')}")
    return result


def higher_is_better(name, unit):
    return unit == "1/s" or name.endswith(("hit_ratio", "slots_per_wave"))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs):
    """pairs: list of (base_result, change_result)."""
    names = sorted(set(pairs[0][0]["metrics"]) & set(pairs[0][1]["metrics"]))
    rows = []
    for name in names:
        unit = pairs[0][0]["metrics"][name]["unit"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        higher = higher_is_better(name, unit)
        wins = sum(1 for b, c in zip(base, change)
                   if (c > b if higher else c < b))
        ratios = [c / b for b, c in zip(base, change) if b != 0]
        rows.append({
            "metric": name, "unit": unit,
            "better": "higher" if higher else "lower",
            "base_median": statistics.median(base),
            "base_quartiles": quartiles(base),
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "median_pair_ratio": statistics.median(ratios) if ratios else None,
            "change_wins": wins, "pairs": len(pairs),
        })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="comma-separated seeds or ranges, e.g. 51-58")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args()

    workdir = (args.workdir or
               Path(tempfile.mkdtemp(prefix="perfbench_pairs_"))).resolve()
    if workdir == REPO or REPO in workdir.parents:
        fail("--workdir must be outside the repository")
    sides = {}
    for name, revision in (("base", args.base), ("change", args.change)):
        side_dir = workdir / name
        sides[name] = (export(revision, side_dir), side_dir / "build")
    print(f"workdir {workdir}", file=sys.stderr)

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        results = {}
        for name in order:
            tree, build_dir = sides[name]
            results[name] = run_once(tree, build_dir, args, seed)
            value = results[name]["metrics"].get("ops_per_s", {}).get("value")
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {name}: "
                  f"ops_per_s {value}", file=sys.stderr)
        pairs.append((results["base"], results["change"]))

    rows = summarize(pairs)
    print(f"{'metric':<26} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6}")
    for r in rows:
        def side(prefix):
            q1, q3 = r[f"{prefix}_quartiles"]
            return f"{r[f'{prefix}_median']:.6g} [{q1:.6g}, {q3:.6g}]"
        ratio = r["median_pair_ratio"]
        ratio = "-" if ratio is None else f"{ratio:.3f}"
        print(f"{r['metric']:<26} {side('base'):>30} {side('change'):>30} "
              f"{ratio:>7} {r['change_wins']:>3}/{r['pairs']}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "seconds": args.seconds, "trace": args.trace,
                      "metrics": rows}))


if __name__ == "__main__":
    main()
