"""Alternating runs of ``perfbench/run.py`` on two checkouts, kept in a
BENCH file.

Usage, with the parent commit and the change checked out side by side in
``parent`` and ``change`` (``git archive`` or ``git clone``, never a
worktree):

    python3 change/tools/bench_pairs.py --parent parent --change change \\
        --workload bler-short --pairs 10 --first-seed 1901 \\
        --out change/BENCH_19.json

Pair i runs ``perfbench/run.py --workload W --seed S_i --trace T`` once
in each checkout, for the run length that ``perfbench/run.py`` sets, each
with its own ``perfbench/`` and ``src/``; the parent goes first in even
pairs and the change in odd ones.
Each run's last two output lines, the run record (with its environment
block) and the result, are kept as printed.  The file also records, once,
the numpy and scipy versions and the CPU features numpy dispatches to,
which the pinned outputs depend on; both checkouts run on this
interpreter.  With them it records both checkouts' absolute paths, and
it refuses paths of different lengths: ``BENCH_23.json``'s ``bler-short``
+4.3% followed where the checkouts lay, not the code.  Runs of further
workloads are appended to the same file (on the same versions, features
and paths only), and its summary is made again from all runs: per
workload, trace mode and metric, each side's median and quartiles and the
pairs in which the change reads lower.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    record, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def numeric_environment():
    """numpy's and scipy's versions and numpy's dispatched CPU features."""
    import numpy
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_features": sorted(f for f, on in __cpu_features__.items()
                                   if on)}


def summarise(runs):
    groups = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        for name, metric in run["result"]["metrics"].items():
            side = groups.setdefault(key + (name,), {})
            side.setdefault(run["side"], {})[run["pair"]] = metric["value"]
    summary = []
    for (workload, trace, name), sides in sorted(groups.items()):
        row = {"workload": workload, "trace": trace, "metric": name}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values.values(), n=4) \
                if len(values) > 1 else [*values.values()] * 3
            row[side] = {"median": median, "q1": q1, "q3": q3,
                         "runs": len(values)}
        pairs = set(sides.get("parent", {})) & set(sides.get("change", {}))
        row["change_lower_in_pairs"] = [
            sum(sides["change"][p] < sides["parent"][p] for p in pairs),
            len(pairs)]
        summary.append(row)
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    checkouts = {side: str(Path(getattr(args, side)).resolve())
                 for side in ("parent", "change")}
    if len(checkouts["parent"]) != len(checkouts["change"]):
        raise SystemExit(f"error: checkout paths of different lengths: "
                         f"{checkouts}")
    env = {**numeric_environment(), "checkouts": checkouts}
    if doc.setdefault("environment", env) != env:
        raise SystemExit(f"error: {out} was recorded on "
                         f"{doc['environment']}, not {env}")
    start = max((r["pair"] + 1 for r in doc["runs"]
                 if (r["workload"], r["trace"]) == (args.workload,
                                                    args.trace)), default=0)
    for pair in range(start, start + args.pairs):
        seed = args.first_seed + pair - start
        sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in sides:
            record, result = run_once(getattr(args, side), args.workload,
                                      seed, args.trace)
            doc["runs"].append({"workload": args.workload,
                                "trace": args.trace, "pair": pair,
                                "side": side, "seed": seed,
                                "record": record, "result": result})
            print(f"{args.workload} trace={args.trace} pair {pair} {side} "
                  f"seed {seed}: {json.dumps(result['metrics'])}", flush=True)
        write(out, doc["environment"], doc["runs"])


def write(out, env, runs):
    """The environment, the runs and their summary, one JSON object per
    line."""
    def block(items):
        return "[\n" + ",\n".join(json.dumps(x) for x in items) + "\n]"
    out.write_text(f'{{"environment": {json.dumps(env)},\n'
                   f'"runs": {block(runs)},\n'
                   f'"summary": {block(summarise(runs))}}}\n')


if __name__ == "__main__":
    main()
