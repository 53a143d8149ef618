"""Run the benchmark on a parent checkout and on this working tree, in pairs.

    python3 scripts/bench_pairs.py --parent DIR --pr N [--pairs 10] [--seeds 1]

For each workload of ``BENCHMARK.json`` and each seed, runs
``perfbench/run.py`` --pairs times on each side, one run at a time, for the
``run_seconds`` that ``BENCHMARK.json`` sets.  A pair runs the parent first
when its number is odd and this tree first when it is even, so a drift in
machine speed does not favour one side.  Each side then runs every workload
once with ``--trace 1`` at the first seed, for the per-layer metrics.  The
result lines go to ``BENCH_<N>.json`` at the root of this tree, with one
summary line per workload, seed and end-to-end metric: the parent's median
and quartiles, this tree's median, and in how many pairs this tree reads
better.  The file also records, per side, the non-blank, non-comment lines
of each ``src/polydec/*.py``, and one more summary line gives the net
change.  The parent must be a git checkout (``git clone``), whose commit
the file records.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run(checkout, workload, seed, seconds, trace):
    """The JSON result line of one perfbench run in ``checkout``.

    Bytecode is neither read from the checkout's ``__pycache__`` nor
    written, so both sides compile their sources at import, as a fresh
    checkout does; a working tree's stale caches would lower its setup_s.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory() as empty:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=empty)
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def short_head(checkout):
    """The short commit id of HEAD in ``checkout``, or None when it is not
    the top of a git checkout (a ``git archive`` copy, say)."""
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_lines(checkout):
    """Per module of ``src/polydec`` in ``checkout``, its lines that are
    neither blank nor comments (first non-blank character ``#``)."""
    src = os.path.join(checkout, "src", "polydec")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                counts[name] = sum(1 for line in f
                                   if line.strip() and not line.lstrip().startswith("#"))
    return counts


def lines_summary(lines):
    """One line: the total of each side and the net change, with the net
    change of every module whose count changed."""
    parent, change = lines["parent"], lines["change"]
    nets = [f"{name} {change.get(name, 0) - parent.get(name, 0):+d}"
            for name in sorted(parent.keys() | change.keys())
            if change.get(name) != parent.get(name)]
    total_p, total_c = sum(parent.values()), sum(change.values())
    return (f"src/polydec non-blank, non-comment lines: parent {total_p}, change {total_c}"
            f" ({total_c - total_p:+d}{': ' if nets else ''}{', '.join(nets)})")


def summary(runs):
    """Per workload, seed and end-to-end metric: the parent's median and
    quartiles, this tree's median and the pairs in which this tree reads
    better (ties count for neither)."""
    out = []
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        both = [r for r in runs if (r["workload"], r["seed"]) == key]
        for metric in SPEC["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            value = {(r["pair"], r["side"]): r["result"]["metrics"][name]["value"] for r in both}
            pairs = sorted({r["pair"] for r in both})
            wins = sum((value[k, "change"] > value[k, "parent"]) == higher
                       and value[k, "change"] != value[k, "parent"] for k in pairs)
            parent = [value[k, "parent"] for k in pairs]
            q1, med, q3 = statistics.quantiles(parent, n=4)
            change = statistics.median(value[k, "change"] for k in pairs)
            out.append(f"{key[0]} seed {key[1]} {name}: parent {med:.4g} [{q1:.4g}, {q3:.4g}],"
                       f" change {change:.4g}, change better in {wins}/{len(pairs)} pairs")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="source checkout of the parent commit")
    ap.add_argument("--pr", required=True, type=int, help="writes BENCH_<PR>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    parent_head = short_head(sides["parent"])
    if parent_head is None:
        sys.exit(f"--parent {sides['parent']} is not a git checkout: make it with git clone")
    seconds = SPEC["run_seconds"]
    workloads = [w["name"] for w in SPEC["workloads"]]
    runs, traces = [], []
    for workload in workloads:
        for seed in args.seeds:
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result = run(sides[side], workload, seed, seconds, 0)
                    runs.append({"set": "pairs", "pair": pair, "side": side,
                                 "workload": workload, "seed": seed,
                                 "seconds": seconds, "trace": 0, "result": result})
                    print(f"{workload} seed {seed} pair {pair} {side}: ops_s"
                          f" {result['metrics']['ops_s']['value']:.1f}", flush=True)
    for side in ("parent", "change"):
        for workload in workloads:
            traces.append({"side": side, "workload": workload, "seed": args.seeds[0],
                           "trace": 1, "result": run(sides[side], workload,
                                                     args.seeds[0], seconds, 1)})
    counted = {side: src_lines(path) for side, path in sides.items()}
    lines = summary(runs) + [lines_summary(counted)]
    report = {
        "about": (
            "Result lines of perfbench/run.py for the parent commit and for this change, in"
            f" the order run. 'pairs': {args.pairs} alternating pairs per workload and seed"
            " (parent first in odd pairs). 'traces': --trace 1 at the first seed"
            " (per-layer metrics). 'summary': per end-to-end metric, the parent's median"
            " [quartiles], the change's median and the pairs in which the change reads better;"
            " its last line the net change in 'src_lines'. 'src_lines': per side, the"
            " non-blank lines of each src/polydec/*.py that are not comments."
        ),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                   " --trace 0",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, {platform.python_implementation()}"
                   f" {platform.python_version()}, one run at a time; times in the harness's"
                   " reference seconds",
        "parent": parent_head,
        "runs": runs,
        "traces": traces,
        "src_lines": counted,
        "summary": lines,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    print("\n".join(lines))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
