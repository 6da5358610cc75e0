"""Summarize a benchmark record: median and quartiles per workload and side.

    python3 tools/bench_summary.py BENCH_15.jsonl > BENCH_15.json

The record holds one JSON line per ``python3 bench/run.py`` run, the run's
last stdout line with ``workload``, ``seed``, ``side`` ("parent" or
"change"), ``commit``, ``trace`` and ``digest`` added.  Runs are grouped by
workload, trace flag and side.  Each metric gets its median, its quartiles
(``statistics.quantiles(..., method="inclusive")``) and their distance, the
IQR.  Untraced metrics that ``BENCHMARK.json`` lists also get a pair count:
of the seeds run on both sides, on how many the change reads better; the
``digest`` entry counts the seeds whose answer digests agree.  Each such
metric also gets a ``gain`` entry that applies the rule for claiming a
gain: ``wins`` (pairs the change reads better; ties count for neither),
``median_delta`` (the change's median less the parent's), ``parent_iqr``,
and ``holds``, true when at least ten pairs ran, the change won at least
nine tenths of them, and the median moved in the better direction by
more than the parent's IQR.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: list) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, better: dict) -> dict:
    groups: dict = {}
    for run in runs:
        key = (run["workload"], f"trace{run['trace']}")
        groups.setdefault(key, {}).setdefault(run["side"], []).append(run)
    out: dict = {}
    for (workload, trace), sides in sorted(groups.items()):
        entry = {}
        for side, side_runs in sorted(sides.items()):
            names = sorted({name for run in side_runs for name in run.get("metrics", {})})
            entry[side] = {
                "runs": len(side_runs),
                "seeds": sorted(run["seed"] for run in side_runs),
                "digests": sorted({run["digest"] for run in side_runs if run.get("digest")}),
                "attempted": sum(run.get("attempted", 0) for run in side_runs),
                "failed": sum(run.get("failed", 0) for run in side_runs),
                "metrics": {
                    name: quartiles([run["metrics"][name]["value"] for run in side_runs if name in run["metrics"]])
                    for name in names
                },
            }
        if trace == "trace0" and {"parent", "change"} <= sides.keys():
            by_seed = {side: {run["seed"]: run["metrics"] for run in sides[side]} for side in ("parent", "change")}
            seeds = sorted(by_seed["parent"].keys() & by_seed["change"].keys())
            wins, gain = {}, {}
            for name, direction in better.items():
                sign = 1 if direction == "higher" else -1
                pairs = [(by_seed["parent"][s].get(name), by_seed["change"][s].get(name)) for s in seeds]
                pairs = [(p["value"], c["value"]) for p, c in pairs if p and c]
                if pairs:
                    won = sum(sign * (c - p) > 0 for p, c in pairs)
                    wins[name] = {"change_better": won, "pairs": len(pairs)}
                    parent, change = entry["parent"]["metrics"][name], entry["change"]["metrics"][name]
                    delta = change["median"] - parent["median"]
                    gain[name] = {
                        "wins": won,
                        "pairs": len(pairs),
                        "median_delta": delta,
                        "parent_iqr": parent["iqr"],
                        "holds": len(pairs) >= 10 and 10 * won >= 9 * len(pairs) and sign * delta > parent["iqr"],
                    }
            digests = {side: {run["seed"]: run.get("digest") for run in sides[side]} for side in ("parent", "change")}
            wins["digest"] = {"same": sum(digests["parent"][s] == digests["change"][s] for s in seeds), "pairs": len(seeds)}
            entry["pairs"] = wins
            entry["gain"] = gain
        out.setdefault(workload, {})[trace] = entry
    return out


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n")[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    print(json.dumps({"source": os.path.basename(argv[0]), "workloads": summarize(runs, better)}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
