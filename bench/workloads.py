"""The four benchmark workloads: inputs from a seed, one job, answer checks.

Each workload class has the same shape:

- ``inputs(seed)`` returns the job list of one pass; the same seed gives
  the same list.
- ``new_pass()`` returns the per-pass state handed to every job.
- ``job(inp, state, tr)`` runs one job, calling each library layer through
  ``tr.call(span_name, fn, *args)`` so a traced run can time it.
- ``check(inp, out, ctx)`` runs outside the timed region, right after the
  job, and returns the reason the answer is wrong, or None.  ``ctx`` is a
  dict shared by the checks of one pass; ``finish(ctx)`` then returns the
  problems found across the whole pass.
- ``canon(inp, out)`` is the job's contractual answer in canonical JSON
  form; the answer digest is built from it.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, combinations_with_replacement

from akblocks import (
    INFINITY,
    AbacusPair,
    BrauerLine,
    DominanceRel,
    block_id,
    cell_chains,
    core,
    defect,
    dominance_compare,
    dual,
    enumerate_block_members,
    find_incomparable_pair,
    is_complete,
    is_incomparable_witness,
    multipartitions_of,
    operation_set_between,
    permute,
    render,
    repr_type,
    rotate_rows,
    subabacus_moving_vector,
    uglov,
    weyl_sigma,
)
from akblocks.partitions import count_multipartitions, in_A, is_finite


# ---------------------------------------------------------------- helpers


def rand_partition(rng: random.Random, k: int, balanced: bool = False) -> tuple:
    """A partition of k.  Balanced ones have parts capped near sqrt(2k);
    otherwise half of them are uncapped, so long first rows occur."""
    cap = max(1, int((2 * k) ** 0.5)) if balanced or rng.random() < 0.5 else k
    parts = []
    while k > 0:
        p = rng.randint(1, min(k, cap))
        parts.append(p)
        k -= p
    return tuple(sorted(parts, reverse=True))


def rand_multipartition(rng: random.Random, n: int, r: int, balanced: bool = False) -> tuple:
    cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return tuple(rand_partition(rng, s, balanced) for s in sizes)


def rand_fundamental_charge(rng: random.Random, r: int, e) -> tuple:
    """Weakly increasing multicharge with spread below e (below 2r for e = inf)."""
    cap = e - 1 if is_finite(e) else 2 * r
    return tuple(sorted(rng.randint(0, cap) for _ in range(r)))


def pair_key(a: AbacusPair) -> list:
    return [encode_e(a.e), list(a.charge), [list(c) for c in a.mp]]


def encode_e(e):
    return "inf" if e == INFINITY else e


def ops_key(ops) -> list:
    return sorted([o.row, o.col, o.index] for o in ops)


def witness_error(w, e):
    """None if the witness is valid for its own block, else the reason."""
    pa = AbacusPair(w.mu, w.charge, e)
    pb = AbacusPair(w.nu, w.charge, e)
    if block_id(pa) != block_id(pb):
        return "witness abaci lie in different blocks"
    if not is_incomparable_witness(pa, pb, *w.coords):
        return "witness fails is_incomparable_witness"
    if dominance_compare(permute(w.mu, w.sigma), permute(w.nu, w.sigma)) is not DominanceRel.INCOMPARABLE:
        return "permuted witness pair is not INCOMPARABLE"
    return None


def report_key(rep) -> list:
    """Contractual part of a ReprTypeReport: not which witness was found."""
    return [
        rep.verdict,
        rep.weight,
        list(rep.moving_vector),
        list(rep.normalized_charge),
        list(rep.sigma),
        rep.detail_kind,
        rep.detail_degree,
        rep.detail_edges,
        rep.witness is not None,
    ]


def report_error(rep, pair: AbacusPair):
    """Checks every repr_type answer shares: weight and a valid witness."""
    if rep.weight != defect(block_id(pair)):
        return f"repr_type weight {rep.weight} != block defect"
    if rep.witness is not None:
        if rep.verdict != "infinite":
            return "finite verdict carries a witness"
        return witness_error(rep.witness, pair.e)
    return None


def dominance_oracle(a, b) -> DominanceRel:
    """Dominance by running prefix sums; independent of the library's code."""
    if a == b:
        return DominanceRel.EQUAL
    ge = le = True
    sa = sb = 0
    for ca, cb in zip(a, b):
        for j in range(max(len(ca), len(cb), 1)):
            sa += ca[j] if j < len(ca) else 0
            sb += cb[j] if j < len(cb) else 0
            ge &= sa >= sb
            le &= sa <= sb
    if ge:
        return DominanceRel.GREATER
    return DominanceRel.LESS if le else DominanceRel.INCOMPARABLE


# ------------------------------------------------------------------ sweep


def sweep_settings():
    """The desk sweep of tests/conftest.py: e in {2, 3, inf}, r in {3, 4},
    multicharges starting at 0, weakly increasing, spread below e (at
    most 2 for infinite e)."""
    for e in (2, 3, INFINITY):
        cap = 2 if e == INFINITY else e - 1
        for r in (3, 4):
            for rest in combinations_with_replacement(range(cap + 1), r - 1):
                yield e, r, (0,) + rest


class Sweep:
    """Every pair of the desk sweep (n <= 6) in seeded order; the first pair
    seen of each block is also classified."""

    name = "sweep"
    # verdict totals of the desk sweep: finite, infinite, infinite with witness
    EXPECTED_TOTALS = (1311, 1266, 1259)

    def inputs(self, seed: int) -> list:
        jobs = [
            (e, r, charge, mp)
            for e, r, charge in sweep_settings()
            for n in range(7)
            for mp in multipartitions_of(n, r)
        ]
        random.Random(seed).shuffle(jobs)
        return jobs

    def new_pass(self):
        return set()

    def job(self, inp, seen, tr):
        e, r, charge, mp = inp
        pair = tr.call("abacus.pair", AbacusPair, mp, charge, e)
        bid = tr.call("blocks.block_id", block_id, pair)
        d = tr.call("blocks.defect", defect, bid)
        core_pair, ops, mv = tr.call("moves.core", core, pair)
        tr.count("moves.core.ops", len(ops))
        rep = None
        if bid not in seen:
            seen.add(bid)
            rep = tr.call("classify.repr_type", repr_type, pair)
            tr.count("classify.repr_type.witnessed", rep.witness is not None)
        return bid, d, core_pair, ops, mv, rep

    def check(self, inp, out, ctx):
        e, r, charge, mp = inp
        bid, d, core_pair, ops, mv, rep = out
        ctx.setdefault("members", {}).setdefault(bid, []).append(mp)
        totals = ctx.setdefault("totals", Counter())
        if sum(mv) != d or len(ops) != d:
            return "moving vector sum or op count != defect"
        if not is_complete(core_pair):
            return "core is not complete"
        if ctx.setdefault("cores", {}).setdefault(bid, (core_pair, mv)) != (core_pair, mv):
            return "block members disagree on core or moving vector"
        if rep is None:
            return None
        totals[rep.verdict] += 1
        if rep.witness is None:
            if rep.verdict == "infinite":
                ctx.setdefault("unwitnessed", []).append(bid)
            return report_error(rep, AbacusPair(mp, charge, e))
        totals["witnessed"] += 1
        if block_id(AbacusPair(rep.witness.mu, charge, e)) != bid:
            return "witness lies outside the block"
        return report_error(rep, AbacusPair(mp, charge, e))

    def finish(self, ctx):
        problems = []
        totals = ctx.get("totals", Counter())
        got = (totals["finite"], totals["infinite"], totals["witnessed"])
        if got != self.EXPECTED_TOTALS:
            problems.append(f"verdict totals {got} != {self.EXPECTED_TOTALS}")
        # an infinite block without a witness is a correct answer only when
        # its members are totally ordered under dominance (criterion 12)
        for bid in ctx.get("unwitnessed", []):
            for x, y in combinations(ctx["members"][bid], 2):
                if dominance_oracle(x, y) is DominanceRel.INCOMPARABLE:
                    problems.append(f"block {bid} has incomparable members but no witness")
                    break
        return problems

    def canon(self, inp, out):
        e, r, charge, mp = inp
        bid, d, core_pair, ops, mv, rep = out
        return [
            [encode_e(e), list(charge), [list(c) for c in mp]],
            [list(x) for x in bid.content],
            d,
            pair_key(core_pair),
            ops_key(ops),
            list(mv),
            report_key(rep) if rep else None,
        ]


# ------------------------------------------------------------------ large


class Large:
    """Seeded pairs over a balanced grid of r, e and 16 sizes n from 100 to
    1000; every fourth size has a raw, unsorted multicharge of spread about
    200, the rest lie in the fundamental region.  Only the details vary with
    the seed (component sizes, part sizes, charge jitter), so the amount of
    work per pass does not."""

    name = "large"
    RANKS = (2, 3, 4, 5)
    CHARS = (2, 3, 5, INFINITY)
    STRATA = 16

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        jobs = []
        for r in self.RANKS:
            for e in self.CHARS:
                for k in range(self.STRATA):
                    n = 100 + 900 * (2 * k + 1) // (2 * self.STRATA) + rng.randint(-10, 10)
                    if k % 4 == 3:
                        charge = [-100 + 200 * i // (r - 1) + rng.randint(-5, 5) for i in range(r)]
                        rng.shuffle(charge)
                        charge = tuple(charge)
                    else:
                        charge = rand_fundamental_charge(rng, r, e)
                    if is_finite(e):
                        j = rng.randrange(e)
                    else:
                        j = rng.randint(min(charge), max(charge) + 1)
                    jobs.append((e, charge, rand_multipartition(rng, n, r, balanced=True), j))
        rng.shuffle(jobs)
        return jobs

    def new_pass(self):
        return None

    def job(self, inp, state, tr):
        e, charge, mp, j = inp
        pair = tr.call("abacus.pair", AbacusPair, mp, charge, e)
        core_pair, ops, mv = tr.call("moves.core", core, pair)
        tr.count("moves.core.ops", len(ops))
        complete = tr.call("abacus.is_complete", is_complete, core_pair)
        bid = tr.call("blocks.block_id", block_id, pair)
        d = tr.call("blocks.defect", defect, bid)
        dual_pair = tr.call("abacus.dual", dual, pair)
        image = tr.call("abacus.uglov", uglov, pair) if is_finite(e) else None
        reflected = tr.call("blocks.weyl_sigma", weyl_sigma, pair, j)
        rep = tr.call("classify.repr_type", repr_type, pair)
        tr.count("classify.repr_type.witnessed", rep.witness is not None)
        return core_pair, ops, mv, complete, bid, d, dual_pair, image, reflected, rep

    def check(self, inp, out, ctx):
        e, charge, mp, j = inp
        pair = AbacusPair(mp, charge, e)
        core_pair, ops, mv, complete, bid, d, dual_pair, image, reflected, rep = out
        if in_A(charge, e) and (sum(mv) != d or len(ops) != d):
            return "moving vector sum or op count != defect"
        if not complete or not is_complete(core_pair):
            return "core is not complete"
        if bid != block_id(pair):
            return "block id differs from a fresh computation"
        if reflected.charge != charge or weyl_sigma(reflected, j) != pair:
            return "weyl_sigma applied twice is not the identity"
        if dual(dual_pair) != pair:
            return "dual applied twice is not the identity"
        if image is not None and image.charge != sum(charge):
            return "uglov image charge != multicharge sum"
        return report_error(rep, pair)

    def finish(self, ctx):
        return []

    def canon(self, inp, out):
        e, charge, mp, j = inp
        core_pair, ops, mv, complete, bid, d, dual_pair, image, reflected, rep = out
        return [
            [encode_e(e), list(charge), [list(c) for c in mp], j],
            pair_key(core_pair),
            ops_key(ops),
            list(mv),
            complete,
            [list(x) for x in bid.content],
            d,
            pair_key(dual_pair),
            [list(image.partition), image.charge] if image else None,
            pair_key(reflected),
            report_key(rep),
        ]


# ---------------------------------------------------------------- members


README_PAIR = (((2, 1), (3, 2), (4, 3, 1)), (0, 2, 1), 3)


class Members:
    """Block queries at n in [10, 16]: one seeded block per (r, n) cell of a
    fixed grid, weights cycling through 1, 2-3, 4-6 and 7-12, plus the
    README quickstart block.  Each query on a block is its own job; the
    (r, n) grid fixes the enumeration work, the seed picks the blocks."""

    name = "members"
    CELLS = [(3, n) for n in range(10, 17)] + [(4, n) for n in range(10, 13)]
    WEIGHTS = [(1, 1), (2, 3), (4, 6), (7, 12)]
    CHARS = (3, 4, 5, INFINITY)
    # four jobs of 50 sampled member pairs each, so that over half of the
    # jobs are cheap queries and job_ms_p50 sits inside that group
    DOMINANCE_JOBS = 4
    DOMINANCE_SAMPLE = 50

    def _block(self, rng, r, n, lo, hi):
        for _ in range(200000):
            e = rng.choice(self.CHARS)
            pair = AbacusPair(rand_multipartition(rng, n, r), rand_fundamental_charge(rng, r, e), e)
            if lo <= defect(block_id(pair)) <= hi:
                return pair
        raise RuntimeError(f"no block of weight {lo}..{hi} found at r={r}, n={n}")

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        pairs = [AbacusPair(*README_PAIR)]
        for idx, (r, n) in enumerate(self.CELLS):
            pairs.append(self._block(rng, r, n, *self.WEIGHTS[idx % len(self.WEIGHTS)]))
        jobs = []
        for b, pair in enumerate(pairs):
            spec = (b, pair.e, pair.charge, pair.mp)
            jobs.append(("enumerate", spec, None))
            for _ in range(self.DOMINANCE_JOBS):
                sample = [(rng.random(), rng.random()) for _ in range(self.DOMINANCE_SAMPLE)]
                jobs.append(("dominance", spec, sample))
            jobs.append(("witness", spec, None))
            jobs.append(("repr_type", spec, None))
            if defect(block_id(pair)) == 1:
                jobs.append(("derived", spec, None))
        return jobs

    def new_pass(self):
        return {}

    def job(self, inp, members, tr):
        kind, (b, e, charge, mp), sample = inp
        if kind == "dominance":
            found = members[b]
            pairs = [(found[int(u * len(found))], found[int(v * len(found))]) for u, v in sample]
            return [tr.call("partitions.dominance", dominance_compare, x, y) for x, y in pairs]
        pair = tr.call("abacus.pair", AbacusPair, mp, charge, e)
        if kind == "repr_type":
            rep = tr.call("classify.repr_type", repr_type, pair)
            tr.count("classify.repr_type.witnessed", rep.witness is not None)
            return rep
        bid = tr.call("blocks.block_id", block_id, pair)
        if kind == "enumerate":
            found = tr.call("blocks.enumerate", enumerate_block_members, bid)
            tr.count("blocks.enumerate.candidates", count_multipartitions(bid.n, len(charge)))
            tr.count("blocks.enumerate.members", len(found))
            members[b] = found
            return found
        if kind == "witness":
            w = tr.call("classify.witness", find_incomparable_pair, bid)
            tr.count("classify.witness.found", w is not None)
            return w
        return tr.call("classify.derived", subabacus_moving_vector, bid)

    def check(self, inp, out, ctx):
        kind, (b, e, charge, mp), sample = inp
        pair = AbacusPair(mp, charge, e)
        bid = block_id(pair)
        members = ctx.setdefault("members", {})
        if kind == "enumerate":
            members[b] = out
            if out != sorted(set(out)) or mp not in out:
                return "member list is not sorted, unique and complete"
            if any(block_id(AbacusPair(m, charge, e)) != bid for m in out):
                return "a listed member lies outside the block"
        elif kind == "dominance":
            found = members.get(b, [])
            pairs = [(found[int(u * len(found))], found[int(v * len(found))]) for u, v in sample]
            if out != [dominance_oracle(x, y) for x, y in pairs]:
                return "dominance_compare disagrees with the prefix-sum oracle"
        elif kind == "witness":
            if out is None:
                if repr_type(pair, witness_budget=0).verdict == "infinite":
                    return "no witness for an infinite-type block"
            elif witness_error(out, e) or block_id(AbacusPair(out.mu, charge, e)) != bid:
                return "witness is invalid or outside the block"
        elif kind == "repr_type":
            return report_error(out, pair)
        elif sum(out.values()) != len(members.get(b, [])):
            return "weight-one subabacus vector does not count one move per member"
        return None

    def finish(self, ctx):
        return []

    def canon(self, inp, out):
        kind, (b, e, charge, mp), sample = inp
        key = [kind, encode_e(e), list(charge), [list(c) for c in mp]]
        if kind == "enumerate":
            return key + [[[list(c) for c in m] for m in out]]
        if kind == "dominance":
            return key + [[rel.value for rel in out]]
        if kind == "witness":
            return key + [out is not None]
        if kind == "repr_type":
            return key + [report_key(out)]
        return key + [sorted(out.items())]


# -------------------------------------------------------------------- cli


def _job_text(pair: AbacusPair, **extra) -> str:
    e, charge, mp = pair_key(pair)
    return json.dumps({"e": e, "multicharge": charge, "multipartition": mp, **extra})


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _pair_json(a: AbacusPair) -> dict:
    e, charge, mp = pair_key(a)
    return {"e": e, "multicharge": charge, "multipartition": mp}


class Cli:
    """One ``akblocks`` process per job over a seeded job file: every command
    on small pairs, inputs outside the contract (exit 2) and one job over
    ABACUS_BUDGET (exit 3)."""

    name = "cli"
    PER_COMMAND = 2
    # Non-int values the CLI coerces instead of rejecting (ROADMAP item 5).
    # They are expected to exit 2; while the defect stands they exit 0 and
    # count as failed jobs, without marking the run incorrect.
    KNOWN_DEFECT = "non-int input coerced instead of rejected (ROADMAP item 5)"

    def __init__(self, root):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("ABACUS_BUDGET", None)

    def _small_pair(self, rng, finite=False):
        e = rng.choice((2, 3, 4) if finite else (2, 3, 4, INFINITY))
        r = rng.randint(2, 4)
        return AbacusPair(
            rand_multipartition(rng, rng.randint(1, 6), r), rand_fundamental_charge(rng, r, e), e
        )

    @staticmethod
    def _line_params(rng):
        edges = rng.randint(1, 5)
        return edges, rng.randint(1, edges + 1), rng.randint(1, 4)

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        jobs = []  # (argv, budget or None, expected exit, known defect or None)
        for _ in range(self.PER_COMMAND):
            p = self._small_pair(rng)
            f = self._small_pair(rng, finite=True)
            target, _, _ = core(p)
            jobs += [
                (["core", _job_text(p)], None, 0, None),
                (["mv", _job_text(p, target_multicharge=list(target.charge),
                                  target_multipartition=[list(c) for c in target.mp])], None, 0, None),
                (["block-id", _job_text(p)], None, 0, None),
                (["defect", _job_text(p)], None, 0, None),
                (["classify", _job_text(p)], None, 0, None),
                (["witness", _job_text(p)], None, 0, None),
                (["uglov", _job_text(f)], None, 0, None),
                (["dual", _job_text(p)], None, 0, None),
                (["sigma", str(rng.randrange(f.e)), _job_text(f)], None, 0, None),
                (["rotate", str(rng.randrange(f.r)), _job_text(f)], None, 0, None),
                (["render", _job_text(p)], None, 0, None),
                (["brauer-line", *map(str, self._line_params(rng))], None, 0, None),
                (["enumerate", "--n", str(rng.randint(1, 3)),
                  json.dumps({"e": encode_e(p.e), "multicharge": list(p.charge[:3])})], None, 0, None),
            ]
        p = self._small_pair(rng)
        e, charge, mp = pair_key(p)
        bad = [
            ["core", "{not json"],
            ["core", json.dumps({"e": e, "multicharge": charge})],
            ["core", json.dumps({"e": 1, "multicharge": charge, "multipartition": mp})],
            ["core", json.dumps({"e": e, "multicharge": charge, "multipartition": [[-1]] + mp[1:]})],
            ["core", json.dumps({"e": e, "multicharge": charge, "multipartition": [[1, 2]] + mp[1:]})],
            ["block-id", json.dumps({"e": e, "multicharge": charge[:-1], "multipartition": mp})],
            ["sigma", _job_text(p)],
            ["rotate", str(p.r + 3), _job_text(p)],
            ["uglov", _job_text(AbacusPair(p.mp, p.charge, INFINITY))],
            ["brauer-line", "x"],
        ]
        jobs += [(argv, None, 2, None) for argv in bad]
        jobs.append((["enumerate", "--n", "6", json.dumps({"e": e, "multicharge": [0, 0, 0]})], 100, 3, None))
        coerced = [
            {"e": e, "multicharge": charge, "multipartition": [[1.5]] + mp[1:]},
            {"e": e, "multicharge": charge, "multipartition": [[True]] + mp[1:]},
            {"e": e, "multicharge": charge, "multipartition": [["2"]] + mp[1:]},
            {"e": e, "multicharge": [0.7], "multipartition": [[1]]},
        ]
        jobs += [(["core", json.dumps(job)], None, 2, self.KNOWN_DEFECT) for job in coerced]
        rng.shuffle(jobs)
        return jobs

    def new_pass(self):
        return None

    def _env(self, budget):
        if budget is None:
            return self.env
        return dict(self.env, ABACUS_BUDGET=str(budget))

    def job(self, inp, state, tr):
        argv, budget, expected, known = inp
        done = tr.call(
            "cli.process",
            subprocess.run,
            [sys.executable, "-m", "akblocks.cli", *argv],
            env=self._env(budget),
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    def main_in_process(self, inp, tr):
        """Time cli.main in this process on one job, output discarded."""
        from akblocks.cli import main

        argv, budget, expected, known = inp
        saved = os.environ.get("ABACUS_BUDGET")
        if budget is not None:
            os.environ["ABACUS_BUDGET"] = str(budget)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                tr.call("cli.main", main, list(argv))
        except SystemExit:  # argparse rejects the command line
            pass
        finally:
            if saved is None:
                os.environ.pop("ABACUS_BUDGET", None)
            else:
                os.environ["ABACUS_BUDGET"] = saved

    def check(self, inp, out, ctx):
        argv, budget, expected, known = inp
        code, stdout, stderr = out
        if code != expected:
            if known:
                ctx["known_defects"] = ctx.get("known_defects", 0) + 1
            return f"exit {code}, expected {expected}" + (f" [{known}]" if known else "")
        if "Traceback" in stderr:
            return "traceback on stderr"
        if code != 0:
            lines = [_parse(x) for x in stderr.splitlines()]
            if stdout or not lines or not all(isinstance(x, dict) and "error" in x for x in lines):
                return "diagnostic is not JSON lines on stderr"
            return None
        doc = _parse(stdout)
        return "stdout is not one JSON document" if doc is None else self._answer_error(argv, doc)

    def finish(self, ctx):
        return []

    def _answer_error(self, argv, doc):
        cmd = argv[0]
        if cmd == "brauer-line":
            t1, t2 = cell_chains(BrauerLine(*(int(x) for x in argv[1:])))
            ok = (len(doc["type_i"]), len(doc["type_ii"])) == (len(t1), len(t2))
            return None if ok else "cell chains differ"
        if cmd == "enumerate":
            job = json.loads(argv[3])
            n, r = int(argv[2]), len(job["multicharge"])
            e = INFINITY if job["e"] == "inf" else job["e"]
            listed = [tuple(tuple(c) for c in m) for blk in doc["blocks"] for m in blk["members"]]
            if len(listed) != count_multipartitions(n, r) or len(set(listed)) != len(listed):
                return "enumerate does not list every multipartition once"
            for blk in doc["blocks"]:
                ids = {block_id(AbacusPair(tuple(tuple(c) for c in m), tuple(job["multicharge"]), e))
                       for m in blk["members"]}
                if len(ids) != 1 or {str(k): v for k, v in ids.pop().content} != blk["content"]:
                    return "an enumerated block mixes contents"
            return None
        job = json.loads(argv[-1])
        e = INFINITY if job["e"] == "inf" else job["e"]
        pair = AbacusPair(tuple(tuple(c) for c in job["multipartition"]), tuple(job["multicharge"]), e)
        if cmd == "core":
            core_pair, ops, mv = core(pair)
            ok = (doc["core"], doc["moving_vector"]) == (_pair_json(core_pair), list(mv)) and sorted(
                [o["row"], o["col"], o["index"]] for o in doc["operation_set"]) == ops_key(ops)
        elif cmd == "mv":
            target = AbacusPair(tuple(tuple(c) for c in job["target_multipartition"]),
                                tuple(job["target_multicharge"]), e)
            ok = doc["moving_vector"] == list(operation_set_between(pair, target)[1])
        elif cmd == "block-id":
            ok = doc["content"] == {str(k): v for k, v in block_id(pair).content}
        elif cmd == "defect":
            ok = doc["defect"] == defect(block_id(pair))
        elif cmd == "classify":
            rep = repr_type(pair, witness_budget=0)
            ok = (doc["verdict"], doc["weight"]) == (rep.verdict, rep.weight)
        elif cmd == "witness":
            ok = doc["found"] == (find_incomparable_pair(block_id(pair), member=pair.mp) is not None)
            if ok and doc["found"]:
                mu = tuple(tuple(c) for c in doc["mu"])
                nu = tuple(tuple(c) for c in doc["nu"])
                coords = tuple(doc["coords"][k] for k in ("kappa1", "iota1", "kappa2", "iota2"))
                pa, pb = AbacusPair(mu, pair.charge, e), AbacusPair(nu, pair.charge, e)
                ok = (block_id(pa) == block_id(pb) == block_id(pair)
                      and is_incomparable_witness(pa, pb, *coords)
                      and dominance_compare(permute(mu, doc["sigma"]), permute(nu, doc["sigma"]))
                      is DominanceRel.INCOMPARABLE)
        elif cmd == "uglov":
            img = uglov(pair)
            ok = (doc["partition"], doc["charge"]) == (list(img.partition), img.charge)
        elif cmd == "dual":
            ok = doc == _pair_json(dual(pair))
        elif cmd == "sigma":
            ok = doc == _pair_json(weyl_sigma(pair, int(argv[1])))
        elif cmd == "rotate":
            ok = doc == _pair_json(rotate_rows(pair, int(argv[1])))
        else:  # render
            lo, hi = pair.bounds()
            ok = doc["rows"] == render(pair, (lo - 1, hi)).split("\n")
        return None if ok else f"{cmd} answer differs from the library"

    def canon(self, inp, out):
        argv, budget, expected, known = inp
        code, stdout, stderr = out
        doc = _parse(stdout) if code == 0 else None
        if argv[0] in ("witness", "classify") and doc is not None:
            w = doc if argv[0] == "witness" else doc.get("witness")
            if w is not None:
                found = w["found"]
                w.clear()
                w["found"] = found
        errors = sorted(str(_parse(x)) for x in stderr.splitlines()) if code else []
        return [argv, budget, code, doc, errors]


WORKLOADS = {"sweep": Sweep, "large": Large, "members": Members, "cli": Cli}
