"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py

They run each workload for a single pass, so they take about 90 seconds.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

WORKLOADS = ("sweep", "large", "members", "cli")
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def make(name):
    cls = workloads.WORKLOADS[name]
    return cls(ROOT) if name == "cli" else cls()


def run(name, seed, trace=0):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def field(lines, prefix, key):
    line = next(x for x in lines if x.startswith(prefix))
    return re.search(key + r"=(\S+)", line).group(1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_inputs(name):
    wl = make(name)
    assert wl.inputs(1) == wl.inputs(1)
    assert wl.inputs(1) != wl.inputs(2)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_digest_and_all_metrics(name):
    first, result = run(name, 3)
    second, _ = run(name, 3)
    assert field(first, "inputs", "sha256") == field(second, "inputs", "sha256")
    assert field(first, "digest", "sha256") == field(second, "digest", "sha256")
    printed = {m.group(1): m.group(2) for m in (re.match(r"metric (\S+) \S+ (\S+)", x) for x in first) if m}
    assert printed == END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END) - {"failed_frac"}
    assert result["correct"]


def test_traced_run_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    _, result = run("cli", 4, trace=1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    assert result["metrics"]["cli.process_ms"]["value"] > result["metrics"]["cli.main_ms"]["value"]
