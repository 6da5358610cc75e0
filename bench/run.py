"""akblocks benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
The job list of one pass is generated from the seed.  Jobs run one after
another in this process (the ``cli`` workload starts one ``akblocks``
process per job and waits for it), in whole passes over the list until
``--seconds`` of job time has been measured.  Times are scaled to a
reference speed (see REF_MS).  Each answer is checked right after its
job, outside the job's timed region.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_PROCESSES = 9

# Speed scaling.  On a shared machine the single-thread speed can switch
# between levels up to 1.8x apart for seconds to minutes, which moves every raw
# timing by more than any regression bound.  So a fixed Python loop that
# does not touch akblocks runs between jobs, after every REF_EVERY_NS of job
# time, and each job's time is scaled by REF_MS over the loop's time around
# it.  Timings then read as on a machine where the loop takes REF_MS, which
# is about the typical speed of the machine described in bench/README.md.
REF_LOOPS = 2000
REF_MS = 3.5
REF_EVERY_NS = 50_000_000


def reference_ns() -> int:
    """Time the fixed reference loop."""
    t0 = time.perf_counter_ns()
    seen = {}
    total = 0
    for i in range(REF_LOOPS):
        k = (i * 7919) % 1013
        seen[k] = seen.get(k, 0) + i
        total += len(str(tuple(sorted((k, i, k ^ i)))))
    return time.perf_counter_ns() - t0


# The first call each workload makes in a fresh process, timed into setup_s.
FIRST_CALL = {
    "library": (
        "import akblocks\n"
        "p = akblocks.AbacusPair(((1,), (), ()), (0, 1, 2), 3)\n"
        "akblocks.core(p); akblocks.defect(akblocks.block_id(p)); akblocks.repr_type(p)\n"
    ),
    "cli": (
        "import io, contextlib, akblocks.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    akblocks.cli.main(['core', '{\"e\": 3, \"multicharge\": [0, 1, 2], '\n"
        "                       '\"multipartition\": [[1], [], []]}'])\n"
    ),
}
SETUP_CHILD = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "{code}"
    "setup = time.perf_counter() - t0\n"
    "sys.path.insert(0, {bench!r})\n"
    "from run import reference_ns\n"
    "print(json.dumps(setup * {ref_ms} * 1e6 / reference_ns()))\n"
)


class NullTracer:
    """Untraced runs: a layer call is a plain call."""

    def begin_job(self, job_id):
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, k=1):
        pass


class Tracer:
    """Spans (name, start_ns, end_ns, parent index, job id) kept in memory,
    plus counters recorded at the same layer boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._open = []

    def begin_job(self, job_id):
        self.job = job_id

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.job)

    def count(self, name, k=1):
        self.counts[name] += k

    def self_times(self) -> dict:
        """Per span name: (calls, seconds of span time not covered by children)."""
        child_ns = defaultdict(int)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls, busy = Counter(), Counter()
        for idx, (name, start, end, parent, job) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start - child_ns[idx]
        return {name: (calls[name], busy[name] / 1e9) for name in calls}

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@dataclass
class Passes:
    """What a run of whole passes measured."""

    scaled_ns: list = field(default_factory=list)  # job latencies at reference speed
    job_s: float = 0.0  # raw job time
    ref_ns: list = field(default_factory=list)  # reference loop times
    failures: dict = field(default_factory=dict)  # first pass: job index -> reason
    ctx: dict = field(default_factory=dict)  # first pass: check context
    digests: list = field(default_factory=list)  # one answer digest per pass

    def extend(self, more: "Passes"):
        self.scaled_ns += more.scaled_ns
        self.job_s += more.job_s
        self.ref_ns += more.ref_ns
        self.digests += more.digests


def run_passes(wl, inputs, seconds, tr, check=True) -> Passes:
    """Whole passes over the job list until `seconds` of job time is measured.

    The first pass's answers are checked (unless `check` is false), and
    every pass's answers hashed, right after each job, outside its timed
    region; no answer is kept.
    """
    run = Passes()
    timed_ns = 0
    while not run.digests or timed_ns < seconds * 1e9:
        first = check and not run.digests
        state = wl.new_pass()
        hashes, raw = [], []
        marks, refs = [0], [reference_ns()]
        since_ref = 0
        for i, inp in enumerate(inputs):
            tr.begin_job(i)
            t0 = time.perf_counter_ns()
            try:
                out = tr.call("job", wl.job, inp, state, tr)
                reason = None
            except Exception as exc:  # an undocumented exception is a failed job
                reason = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - t0
            raw.append(elapsed)
            timed_ns += elapsed
            line = ["failed", i]
            if reason is None:
                try:
                    line = wl.canon(inp, out)
                    if first:
                        reason = wl.check(inp, out, run.ctx)
                except Exception as exc:  # an answer of the wrong shape
                    line, reason = ["failed", i], f"malformed answer: {type(exc).__name__}: {exc}"
            hashes.append(hashlib.sha256(json.dumps(line, sort_keys=True).encode()).hexdigest())
            if first and reason:
                run.failures[i] = reason
            since_ref += elapsed
            if since_ref >= REF_EVERY_NS:
                marks.append(i + 1)
                refs.append(reference_ns())
                since_ref = 0
        if marks[-1] < len(inputs):
            marks.append(len(inputs))
            refs.append(reference_ns())
        for k in range(len(marks) - 1):
            scale = 2 * REF_MS * 1e6 / (refs[k] + refs[k + 1])
            run.scaled_ns += [x * scale for x in raw[marks[k] : marks[k + 1]]]
        run.ref_ns += refs
        run.digests.append(hashlib.sha256("".join(sorted(hashes)).encode()).hexdigest())
    run.job_s = timed_ns / 1e9
    return run


def inputs_digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()


def measure_setup(workload: str) -> float:
    """Median, over fresh processes, of importing akblocks plus the first
    call, each scaled by the reference loop timed in the same process."""
    code = SETUP_CHILD.format(
        code=FIRST_CALL["cli" if workload == "cli" else "library"],
        bench=os.path.dirname(os.path.abspath(__file__)),
        ref_ms=REF_MS,
    )
    return child_times(code, SETUP_PROCESSES)[1] / 1e3


def child_times(code: str, runs: int) -> tuple:
    """Median wall time (ms) of `runs` fresh interpreters running `code` and,
    for code that prints seconds, the median of what it prints (ms).  One
    untimed process runs first and fills the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    walls, printed = [], []
    for _ in range(runs + 1):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        walls.append((time.perf_counter() - t0) * 1e3)
        if done.stdout.strip():
            printed.append(float(done.stdout) * 1e3)
    return statistics.median(walls[1:]), (statistics.median(printed[1:]) if printed else None)


def tail_percentile(jobs_per_pass: int) -> float:
    """Highest ladder percentile with at least 10 jobs of one pass beyond it."""
    for p in TAIL_LADDER:
        if jobs_per_pass * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(sorted_values, p: float):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(k)]


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


LAYER_SPANS = [
    # (span name, metrics taken from its span list, counters)
    ("abacus.pair", ("calls", "busy_s"), ()),
    ("abacus.is_complete", ("busy_s",), ()),
    ("abacus.uglov", ("busy_s",), ()),
    ("abacus.dual", ("busy_s",), ()),
    ("moves.core", ("calls", "busy_s"), ("ops",)),
    ("blocks.block_id", ("busy_s",), ()),
    ("blocks.defect", ("busy_s",), ()),
    ("blocks.weyl_sigma", ("busy_s",), ()),
    ("blocks.enumerate", ("calls", "busy_s"), ("candidates", "members")),
    ("classify.repr_type", ("calls", "busy_s"), ("witnessed",)),
    ("classify.witness", ("calls", "busy_s"), ("found",)),
    ("classify.derived", ("busy_s",), ()),
    ("partitions.dominance", ("calls", "busy_s"), ()),
]


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-pass layer numbers from the spans and counters of a traced run."""
    spans = tr.self_times()
    out = {}
    for name, from_spans, counters in LAYER_SPANS:
        calls, busy = spans.get(name, (0, 0.0))
        if "calls" in from_spans:
            out[f"{name}.calls"] = (calls / passes, "count")
        if "busy_s" in from_spans:
            out[f"{name}.busy_s"] = (busy / passes, "s")
        for c in counters:
            out[f"{name}.{c}"] = (tr.counts[f"{name}.{c}"] / passes, "count")
    candidates = out["blocks.enumerate.candidates"][0]
    out["blocks.enumerate.yield"] = (
        out["blocks.enumerate.members"][0] / candidates if candidates else 0.0,
        "ratio",
    )
    return out


CLI_UNITS = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.process_ms": "ms",
    "cli.main_ms": "ms",
    "cli.startup_share": "ratio",
}


def cli_metrics(wl, inputs, tr: Tracer) -> dict:
    """Where a CLI job's time goes: interpreter start, import, whole process,
    and cli.main run in this process."""
    interp_ms, _ = child_times("pass", 5)
    _, import_ms = child_times(
        "import time\nt0 = time.perf_counter()\nimport akblocks.cli\nprint(time.perf_counter() - t0)\n", 5
    )
    process = sorted(end - start for name, start, end, _, _ in tr.spans if name == "cli.process")
    first_main = len(tr.spans)
    for i, inp in enumerate(inputs):
        tr.begin_job(i)
        wl.main_in_process(inp, tr)
    main = sorted(end - start for name, start, end, _, _ in tr.spans[first_main:])
    process_ms = statistics.median(process) / 1e6
    values = (
        interp_ms,
        import_ms,
        process_ms,
        statistics.median(main) / 1e6,
        (interp_ms + import_ms) / process_ms,
    )
    return {name: (value, unit) for (name, unit), value in zip(CLI_UNITS.items(), values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "large", "members", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "akblocks", "__init__.py")):
        print(f"bench: no akblocks sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    info = machine()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine python={info['python']} nproc={info['nproc']} cpu={info['cpu']!r}")

    setup_s = measure_setup(args.workload) if not args.trace else None

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(ROOT) if args.workload == "cli" else cls()
    t0 = time.perf_counter()
    inputs = wl.inputs(args.seed)
    gen_s = time.perf_counter() - t0
    print(
        f"inputs jobs_per_pass={len(inputs)} sha256={inputs_digest(inputs)} "
        f"gen_s={gen_s:.3f} (not in any metric)"
    )

    if args.trace:
        # traced and untraced passes alternate, so that drift in machine
        # speed does not land on one side of the overhead
        tr = Tracer()
        run = run_passes(wl, inputs, 0, tr)
        untraced = run_passes(wl, inputs, 0, NullTracer(), check=False)
        while run.job_s < args.seconds:
            run.extend(run_passes(wl, inputs, 0, tr, check=False))
            untraced.extend(run_passes(wl, inputs, 0, NullTracer(), check=False))
        passes = len(run.digests)
        # scaled job time of one pass
        per_pass = sum(untraced.scaled_ns) / passes / 1e9
        overhead = sum(run.scaled_ns) / passes / 1e9 - per_pass
        metrics = layer_metrics(tr, passes)
        if args.workload == "cli":
            metrics.update(cli_metrics(wl, inputs, tr))
        else:  # no CLI process runs on this workload
            metrics.update({name: (0.0, unit) for name, unit in CLI_UNITS.items()})
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / per_pass, "ratio")
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tr.write(spans_path)
        print(f"trace spans={len(tr.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        print(f"trace scaled job time per pass: untraced {per_pass:.4f} s, "
              f"traced {per_pass + overhead:.4f} s")
    else:
        run = run_passes(wl, inputs, args.seconds, NullTracer())
        passes = len(run.digests)

    problems = wl.finish(run.ctx)
    if len(set(run.digests)) != 1:
        problems.append("answers differ between passes")
    known = run.ctx.get("known_defects", 0)
    attempted = passes * len(inputs)
    failed = len(run.failures) * passes
    correct = not problems and len(run.failures) == known

    latencies = sorted(run.scaled_ns)
    p_tail = tail_percentile(len(inputs))
    ref_ms = statistics.median(run.ref_ns) / 1e6
    print(f"passes={passes} jobs={attempted} job_time_s={run.job_s:.3f}")
    print(f"speed reference loop median {ref_ms:.3f} ms, so times are scaled by {REF_MS / ref_ms:.4f}")
    print(f"digest sha256={run.digests[0]}")
    for i in sorted(run.failures)[:20]:
        print(f"failed job {i}: {run.failures[i]}")
    for problem in problems:
        print(f"problem: {problem}")

    if not args.trace:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        rss_kb = resource.getrusage(who).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (len(latencies) / sum(latencies) * 1e9, "1/s"),
            "job_ms_p50": (percentile(latencies, 50) / 1e6, "ms"),
            "job_ms_tail": (percentile(latencies, p_tail) / 1e6, "ms"),
            "failed_frac": (failed / attempted, "ratio"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
    beyond = attempted - int(-(-attempted * p_tail // 100))
    for name, (value, unit) in metrics.items():
        note = f"  (p{p_tail:g} of {attempted} samples, {beyond} beyond)" if name == "job_ms_tail" else ""
        print(f"metric {name} {value:.6g} {unit}{note}")

    # failed_frac is printed above; it is 0 on most workloads, so the result
    # line carries it as attempted/failed instead of as a metric
    metrics.pop("failed_frac", None)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
