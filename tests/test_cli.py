import hashlib
import json
import sys
import time
import tracemalloc

import jsonschema
import pytest

from akblocks import moves
from akblocks.abacus import AbacusPair
from akblocks.cli import COMMANDS, SCHEMAS, main
from akblocks.moves import core_and_vector

PAIR41 = {
    "e": 3,
    "multicharge": [0, 2, 1],
    "multipartition": [[2, 1], [3, 2], [4, 3, 1]],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, command, *argv):
    code, out, err = run(capsys, command, *argv)
    assert code == 0, err
    doc = json.loads(out)
    schema = dict(SCHEMAS[command])
    schema["definitions"] = SCHEMAS["definitions"]
    jsonschema.validate(doc, schema)
    return doc


def test_mv_worked_example(capsys):
    job = dict(PAIR41)
    job["target_multicharge"] = [0, 1, 2]
    job["target_multipartition"] = [[], [4, 3, 1], [3, 2]]
    doc = run_json(capsys, "mv", json.dumps(job))
    assert doc["moving_vector"] == [1, 2, 1]
    got = {(o["row"], o["col"], o["index"]) for o in doc["operation_set"]}
    assert got == {(2, -2, 4), (1, 1, 3), (2, 1, 3), (3, 1, 3)}


def test_core_of_complete_abacus(capsys):
    job = {"e": 3, "multicharge": [0, 1, 2], "multipartition": [[], [2], [1, 1]]}
    doc = run_json(capsys, "core", json.dumps(job))
    assert doc["moving_vector"] == [0, 0, 0]
    assert doc["operation_set"] == []
    assert doc["core"] == job


def test_classify_truncated_polynomial(capsys):
    job = {
        "e": 5,
        "multicharge": [1, 1, 1, 3, 3, 3],
        "multipartition": [[1], [], [], [], [], []],
    }
    doc = run_json(capsys, "classify", json.dumps(job))
    assert doc["verdict"] == "finite"
    assert doc["detail"] == {"kind": "truncated_polynomial", "degree": 3}


def test_block_id_defect_schur(capsys):
    doc = run_json(capsys, "block-id", json.dumps(PAIR41))
    assert doc["n"] == 16 and doc["content"] == {"0": 4, "1": 6, "2": 6}
    doc = run_json(capsys, "defect", json.dumps(PAIR41))
    assert doc["defect"] == 12
    doc = run_json(
        capsys,
        "schur-classify",
        json.dumps(
            {
                "e": 5,
                "multicharge": [1, 1, 1, 3, 3, 3],
                "multipartition": [[1], [], [], [], [], []],
            }
        ),
    )
    assert doc == {"verdict": "finite", "hecke_verdict": "finite"}


def test_enumerate(capsys):
    doc = run_json(capsys, "enumerate", "--n", "2", json.dumps({"e": 2, "multicharge": [0, 0, 0]}))
    sizes = sorted(b["size"] for b in doc["blocks"])
    assert doc["n"] == 2 and sizes == [3, 6]


def test_witness_sigma_uglov_dual_rotate(capsys):
    lam332 = {
        "e": 5,
        "multicharge": [1, 0, 2, 0],
        "multipartition": [[2, 1, 1], [2, 2, 1, 1], [3, 1, 1], [4, 3, 1, 1]],
    }
    doc = run_json(capsys, "witness", json.dumps(lam332))
    assert doc["found"] is True and len(doc["sigma"]) == 4
    doc = run_json(capsys, "sigma", "1", json.dumps(PAIR41))
    assert doc["multicharge"] == [0, 2, 1]
    doc = run_json(
        capsys,
        "uglov",
        json.dumps({"e": 3, "multicharge": [0, 0, 2], "multipartition": [[2], [3, 1], [1, 1]]}),
    )
    assert doc == {"partition": [6, 5, 3, 3, 1, 1, 1], "charge": 2}
    doc = run_json(
        capsys, "dual", json.dumps({"e": 2, "multicharge": [0, 0], "multipartition": [[2], []]})
    )
    assert doc["multipartition"] == [[], [1, 1]]
    doc = run_json(capsys, "rotate", "1", json.dumps(PAIR41))
    assert doc["multicharge"] == [2, 1, 3]


def test_derived_class(capsys):
    job = {"e": 5, "multicharge": [1, 2, 3], "multipartition": [[2], [], []]}
    doc = run_json(capsys, "derived-class", json.dumps(job))
    assert doc["nonzero_components"] == 3


def test_derived_class_on_1500_subabaci(capsys):
    job = {"e": 1500, "multicharge": [0, 0], "multipartition": [[1], []]}
    doc = run_json(capsys, "derived-class", json.dumps(job))
    assert doc["nonzero_components"] == 2


def test_brauer_line(capsys):
    doc = run_json(capsys, "brauer-line", "4", "3", "3")
    assert len(doc["type_i"]) == 7 and len(doc["poset"]) == 7
    assert doc["type_i"][0] == {"top": 1}
    assert doc["type_ii"][0] == {"top": 4}
    flagged = [p["edge"] for p in doc["poset"] if p["in_lambda0"]]
    assert flagged == [1, 2, 3, 4]


def test_brauer_line_counts_its_cells_against_the_budget(capsys, monkeypatch):
    """N edges at multiplicity M chain N + M cells, refused over
    ABACUS_BUDGET before any is built; a fourth parameter is an extra
    argument, and the poset counts repeated labels in one pass."""
    monkeypatch.setenv("ABACUS_BUDGET", "10")
    assert len(run_json(capsys, "brauer-line", "8", "1", "2")["type_i"]) == 10
    code, out, err = run(capsys, "brauer-line", "9", "1", "2")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "budget", "detail": "cell chain of 11 cells exceeds budget 10"}
    monkeypatch.delenv("ABACUS_BUDGET")
    start = time.perf_counter()
    code, out, err = run(capsys, "brauer-line", str(10**9))
    assert code == 3 and out == "" and time.perf_counter() - start < 0.5
    code, out, err = run(capsys, "brauer-line", "4", "3", "3", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["detail"] == "brauer-line needs N [V M] positional parameters"
    start = time.perf_counter()
    assert len(run_json(capsys, "brauer-line", "20000")["poset"]) == 20001
    assert time.perf_counter() - start < 3


def test_render_modes(capsys):
    job = {"e": 2, "multicharge": [0], "multipartition": [[]]}
    code, out, err = run(capsys, "render", json.dumps(job), "--window", "-2", "1", "--ascii")
    assert code == 0 and out.strip() == "● ● ¦ ○ ○"
    doc = run_json(capsys, "render", json.dumps(job))
    assert doc["rows"]


def test_render_window_counts_against_the_budget(capsys, monkeypatch):
    """A window of r x (hi - lo + 1) cells is refused before any row is
    drawn when it exceeds ABACUS_BUDGET; the README pair's default window
    (-3, 5) has 3 x 9 = 27 cells."""
    monkeypatch.setenv("ABACUS_BUDGET", "27")
    doc = run_json(capsys, "render", json.dumps(PAIR41))
    assert doc["window"] == [-3, 5] and len(doc["rows"]) == 3
    monkeypatch.setenv("ABACUS_BUDGET", "26")
    code, out, err = run(capsys, "render", json.dumps(PAIR41))
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "budget", "detail": "render window of 27 cells exceeds budget 26"}
    monkeypatch.setenv("ABACUS_BUDGET", "10")
    job = json.dumps({"e": 3, "multicharge": [0, 1], "multipartition": [[2], [1]]})
    start = time.perf_counter()
    code, out, err = run(capsys, "render", job, "--window", "0", str(10**6))
    assert code == 3 and out == ""
    assert json.loads(err)["detail"] == "render window of 2000002 cells exceeds budget 10"
    monkeypatch.delenv("ABACUS_BUDGET")
    code, out, err = run(capsys, "render", job, "--window", "0", str(10**7))
    assert code == 3 and out == "" and time.perf_counter() - start < 0.5
    assert json.loads(err)["detail"] == "render window of 20000002 cells exceeds budget 10000000"


def test_exit_codes(capsys):
    code, out, err = run(capsys, "defect", "not json")
    assert code == 2 and json.loads(err)["error"] == "parse"
    code, out, err = run(capsys, "classify", json.dumps({"e": 1, "multicharge": [0], "multipartition": [[]]}))
    assert code == 2
    import os

    os.environ["ABACUS_BUDGET"] = "5"
    try:
        code, out, err = run(capsys, "enumerate", "--n", "6", json.dumps({"e": 2, "multicharge": [0, 0, 0]}))
    finally:
        del os.environ["ABACUS_BUDGET"]
    assert code == 3 and json.loads(err)["error"] == "budget"


def test_witness_on_a_finite_block_needs_no_budget(capsys, monkeypatch):
    """A block of finite type has no witness, and its verdict needs no
    member, so `witness` answers found: false (exit 0) under a budget below
    p_r(n); an infinite block whose member and dual yield nothing still
    gates the member stream on it (exit 3)."""
    monkeypatch.setenv("ABACUS_BUDGET", "1")
    finite = {"e": 5, "multicharge": [1, 1, 1, 3, 3, 3], "multipartition": [[1], [], [], [], [], []]}
    code, out, err = run(capsys, "witness", json.dumps(finite))
    assert (code, json.loads(out), err) == (0, {"found": False}, "")
    infinite = {"e": 2, "multicharge": [0, 0, 0], "multipartition": [[2], [], []]}
    code, out, err = run(capsys, "witness", json.dumps(infinite))
    assert code == 3 and json.loads(err) == {"error": "budget", "detail": "estimated 3 candidates exceeds budget 1"}


def test_witness_on_a_rank_one_block_needs_no_budget(capsys):
    """A witness needs two distinct rows, so `witness` on a block of rank
    one answers found: false (exit 0) without building a member, although
    p_1(90) exceeds the default budget."""
    job = {"e": 3, "multicharge": [0], "multipartition": [[30, 30, 30]]}
    code, out, err = run(capsys, "witness", json.dumps(job))
    assert (code, json.loads(out), err) == (0, {"found": False}, "")


@pytest.mark.parametrize(
    "job",
    [
        {"e": 3, "multicharge": [0, 1], "multipartition": [[1.5], []]},
        {"e": 3, "multicharge": [0, 1], "multipartition": [[True], []]},
        {"e": 3, "multicharge": [0, 1], "multipartition": [["2"], []]},
        {"e": 3, "multicharge": [0.7], "multipartition": [[1]]},
    ],
)
def test_non_integer_input_is_rejected(capsys, job):
    for command in ("core", "classify"):
        code, out, err = run(capsys, command, json.dumps(job))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "parse" and "integers" in json.loads(err)["detail"]


def test_enumerate_rejects_negative_n(capsys):
    job = json.dumps({"e": 3, "multicharge": [0, 1]})
    code, out, err = run(capsys, "enumerate", "--n", "-1", job)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "parse" and "--n" in json.loads(err)["detail"]


# `akblocks core` and `mv` on the README quickstart pair, byte for byte: the
# serialized operation set must not depend on the Python type of an op
CORE_GOLDEN = (
    '{"core":{"e":3,"multicharge":[0,1,2],"multipartition":[[],[2],[1,1]]},"moving_vector":[4,5,4],'
    '"operation_set":[{"col":4,"index":1,"row":2},{"col":4,"index":1,"row":3},'
    '{"col":1,"index":1,"row":1},{"col":1,"index":1,"row":2},{"col":4,"index":2,"row":3},'
    '{"col":1,"index":2,"row":1},{"col":1,"index":2,"row":2},{"col":1,"index":2,"row":3},'
    '{"col":1,"index":3,"row":1},{"col":1,"index":3,"row":2},{"col":1,"index":3,"row":3},'
    '{"col":-2,"index":3,"row":1},{"col":-2,"index":4,"row":2}]}'
)
MV_GOLDEN = (
    '{"moving_vector":[1,2,1],"operation_set":[{"col":1,"index":3,"row":1},'
    '{"col":1,"index":3,"row":2},{"col":1,"index":3,"row":3},{"col":-2,"index":4,"row":2}]}'
)


def test_core_and_mv_match_golden_output(capsys):
    code, out, _ = run(capsys, "core", json.dumps(PAIR41))
    assert code == 0 and out == CORE_GOLDEN + "\n"
    job = dict(PAIR41, target_multicharge=[0, 1, 2], target_multipartition=[[], [4, 3, 1], [3, 2]])
    code, out, _ = run(capsys, "mv", json.dumps(job))
    assert code == 0 and out == MV_GOLDEN + "\n"


@pytest.mark.parametrize("n", ["1000000000", "100000"])
def test_enumerate_budget_stops_early(capsys, monkeypatch, n):
    """The budget gate stops counting once p_r(m) passes the budget, so a
    huge --n exits 3 at once instead of counting p_r(n) in full."""
    monkeypatch.delenv("ABACUS_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--n", n, json.dumps({"e": 2, "multicharge": [0, 0, 0]}))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "budget"


def test_enumerate_budget_names_first_count_over_it(capsys, monkeypatch):
    monkeypatch.setenv("ABACUS_BUDGET", "100")
    code, out, err = run(capsys, "enumerate", "--n", "6", json.dumps({"e": 2, "multicharge": [0, 0, 0]}))
    assert code == 3 and out == ""
    assert json.loads(err)["detail"] == "estimated 108 candidates exceeds budget 100"


def test_output_byte_stability(capsys):
    job = json.dumps(PAIR41)
    _, first, _ = run(capsys, "core", job)
    _, second, _ = run(capsys, "core", job)
    assert first == second
    # round trip: parse and re-emit is the identity
    doc = json.loads(first)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == first.strip()


def test_tsv_mode(capsys):
    code, out, err = run(capsys, "defect", json.dumps(PAIR41), "--tsv")
    assert code == 0 and out.strip() == "defect\t12"


BIG_SPREAD = {"e": 3, "multicharge": [0, 10**4], "multipartition": [[3, 1], [2]]}


def test_core_and_mv_refuse_op_sets_over_budget(capsys, monkeypatch):
    """The size guard reads the op count off the bead paths: 16,661,667
    moves at spread 10^4 are refused at once, before any op is built."""
    monkeypatch.delenv("ABACUS_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "core", json.dumps(BIG_SPREAD))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "budget",
        "detail": "operation set of 16661667 moves exceeds budget 10000000",
    }
    core_pair, _ = core_and_vector(AbacusPair(((3, 1), (2,)), (0, 10**4), 3))
    job = dict(BIG_SPREAD, target_multicharge=list(core_pair.charge))
    job["target_multipartition"] = [list(c) for c in core_pair.mp]
    code, out, err = run(capsys, "mv", json.dumps(job))
    assert code == 3 and out == ""
    assert "16661667 moves" in json.loads(err)["detail"]


def test_op_budget_is_inclusive(capsys, monkeypatch):
    """The README pair's core is 13 moves away: a budget of 13 prints
    them, 12 refuses them."""
    monkeypatch.setenv("ABACUS_BUDGET", "13")
    code, out, _ = run(capsys, "core", json.dumps(PAIR41))
    assert code == 0 and out == CORE_GOLDEN + "\n"
    monkeypatch.setenv("ABACUS_BUDGET", "12")
    code, out, err = run(capsys, "core", json.dumps(PAIR41))
    assert code == 3 and out == ""
    assert json.loads(err)["detail"] == "operation set of 13 moves exceeds budget 12"


def test_core_refuses_over_budget_before_listing_paths(capsys, monkeypatch):
    """At spread 10^6 and e = 2 the core is 249,999,500,010 moves away
    along about 500,000 bead paths; the op count comes from bead counts,
    so the job is refused before any path or level is listed."""
    monkeypatch.delenv("ABACUS_BUDGET", raising=False)
    job = json.dumps({"e": 2, "multicharge": [0, 10**6], "multipartition": [[5, 3], [2]]})
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "core", job)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "budget",
        "detail": "operation set of 249999500010 moves exceeds budget 10000000",
    }
    assert elapsed < 0.5 and peak < 5 * 2**20


@pytest.mark.parametrize("n", ["0", "1000"])
def test_enumerate_validates_multicharge_before_budget(capsys, monkeypatch, n):
    """A malformed multicharge is a parse error whatever --n is."""
    monkeypatch.delenv("ABACUS_BUDGET", raising=False)
    code, out, err = run(capsys, "enumerate", "--n", n, json.dumps({"e": 2, "multicharge": ["x", 0.5]}))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "parse", "detail": "multicharge entries must be integers, got 'x'"}


def test_enumerate_takes_moving_vectors_over_normalized_multicharge(capsys):
    """A raw multicharge outside the fundamental region is tabled, each
    block with the moving vector classify reports for its members."""
    doc = run_json(capsys, "enumerate", "--n", "2", json.dumps({"e": 2, "multicharge": [1, 0, 0]}))
    assert sorted(b["size"] for b in doc["blocks"]) == [1, 8]
    for block in doc["blocks"]:
        for mp in block["members"]:
            job = {"e": 2, "multicharge": [1, 0, 0], "multipartition": mp}
            assert run_json(capsys, "classify", json.dumps(job))["moving_vector"] == block["moving_vector"]


@pytest.mark.parametrize(
    "argv, detail",
    [
        (
            ["enumerate", "--n", "x", json.dumps({"e": 2, "multicharge": [0, 1]})],
            "argument --n: invalid int value: 'x'",
        ),
        (["bogus", json.dumps(PAIR41)], "argument command: invalid choice: 'bogus'"),
        (["render", json.dumps(PAIR41), "--window", "1"], "argument --window: expected 2 arguments"),
        (["brauer-line", "2", "--n", "5", "--window", "1", "2"], "--n applies only to enumerate"),
        (["dual", json.dumps(PAIR41), "--n", "7"], "--n applies only to enumerate"),
        (["core", json.dumps(PAIR41), "--ascii"], "--ascii applies only to render"),
    ],
    ids=["n", "command", "window", "n-on-brauer-line", "n-on-dual", "ascii-on-core"],
)
def test_usage_errors_are_json_diagnostics(capsys, argv, detail):
    """A command line argparse rejects ends like any other parse error: main
    returns 2 and stderr holds exactly one JSON line, with no usage text."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "usage" not in err
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "parse" and diagnostic["detail"].startswith(detail)


def test_n_and_window_only_where_they_apply(capsys):
    """--n belongs to enumerate, --window and --ascii to render; on any
    other command each is a parse error (exit 2), not silently dropped."""
    for command in sorted(COMMANDS):
        positionals = {"brauer-line": ["2"], "sigma": ["1"], "rotate": ["1"]}.get(command, [])
        if command != "brauer-line":
            positionals.append(json.dumps(PAIR41))
        for flag, values, only in (
            ("--n", ["2"], "enumerate"),
            ("--window", ["-2", "1"], "render"),
            ("--ascii", [], "render"),
        ):
            code, out, err = run(capsys, command, *positionals, flag, *values)
            if command == only:
                assert code == 0, err
                continue
            assert code == 2 and out == "", command
            assert json.loads(err) == {"error": "parse", "detail": f"{flag} applies only to {only}, not {command}"}


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: akblocks") and out.err == ""


FAR = {"e": 2, "multicharge": [0, 10**6], "multipartition": [[5, 3], [2]]}


def _to_core(job: dict) -> dict:
    """The job with its own core as the mv target."""
    pair = AbacusPair(tuple(map(tuple, job["multipartition"])), tuple(job["multicharge"]), job["e"])
    core_pair, _ = core_and_vector(pair)
    return dict(job, target_multicharge=list(core_pair.charge), target_multipartition=[list(c) for c in core_pair.mp])


def test_mv_refuses_over_budget_before_listing_paths(capsys, monkeypatch):
    """At spread 10^6 and e = 2 the core is 249,999,500,010 moves away; mv
    takes that count from bead counts, so it refuses before any path or
    level is listed."""
    monkeypatch.delenv("ABACUS_BUDGET", raising=False)
    job = json.dumps(_to_core(FAR))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, "mv", job)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "budget",
        "detail": "operation set of 249999500010 moves exceeds budget 10000000",
    }
    assert elapsed < 0.5 and peak < 5 * 2**20


def test_mv_checks_budget_before_reachability(capsys, monkeypatch):
    """mv refuses an over-budget op count before any path is listed, and
    only under the budget do the paths decide reachability: a target with
    the same core that some bead would have to climb to, or one with other
    bead counts, still exits 2."""

    def no_paths(a, b):
        raise AssertionError("paths listed before the budget check")

    monkeypatch.setenv("ABACUS_BUDGET", "12")
    job = dict(PAIR41, target_multicharge=[0, 1, 2], target_multipartition=[[], [2], [1, 1]])
    with monkeypatch.context() as m:
        m.setattr(moves, "operation_set_between", no_paths)
        code, out, err = run(capsys, "mv", json.dumps(job))
    assert code == 3 and out == ""
    assert json.loads(err)["detail"] == "operation set of 13 moves exceeds budget 12"
    # (2) and (1,1) share the empty 2-core, each one move away, but the
    # bead on subabacus 0 would have to rise: the count 0 passes a budget
    # of 0, and the path check refuses the target
    monkeypatch.setenv("ABACUS_BUDGET", "0")
    job = {"e": 2, "multicharge": [0], "multipartition": [[2]], "target_multicharge": [0],
           "target_multipartition": [[1, 1]]}
    code, out, err = run(capsys, "mv", json.dumps(job))
    assert code == 2 and out == ""
    assert "would have to move backwards" in json.loads(err)["detail"]
    job = dict(job, target_multipartition=[[1]], target_multicharge=[1])
    code, out, err = run(capsys, "mv", json.dumps(job))
    assert code == 2 and "bead counts differ" in json.loads(err)["detail"]


class _HashSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


# ((3,1),(2,)), e = 3, charge (0, 800): its core is 106,269 moves away.  The
# digests are of the output before operation sets were streamed.
SPREAD_800 = {"e": 3, "multicharge": [0, 800], "multipartition": [[3, 1], [2]]}
STREAM_DIGESTS = {
    ("core", ""): "1d2d4f02d9011edae346326c1441d710c4faa814b56d4503f49b6a66cf8958cd",
    ("core", "--tsv"): "b8af4f2112030f2ed53b0e6d26782b36839c3055487c3d16615713f82bdc177d",
    ("mv", ""): "1432c3123ab23fdbd6c3f322800ea9df4994e563c0dc820d3be41b2cc70f256a",
    ("mv", "--tsv"): "394083e34efc8a7f17ca168e49b5a9b64b21562a57d695fc302be83119f586f3",
}


def _streamed(monkeypatch, command, flag):
    monkeypatch.delenv("ABACUS_BUDGET", raising=False)
    job = SPREAD_800 if command == "core" else _to_core(SPREAD_800)
    sink = _HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main([command, json.dumps(job), *filter(None, [flag])]) == 0
    return sink.sha.hexdigest()


@pytest.mark.parametrize("command, flag", list(STREAM_DIGESTS))
def test_streamed_operation_sets_keep_their_bytes(monkeypatch, command, flag):
    assert _streamed(monkeypatch, command, flag) == STREAM_DIGESTS[command, flag]


@pytest.mark.parametrize("command, flag", [("core", ""), ("mv", "--tsv")])
def test_streamed_operation_sets_stay_small(monkeypatch, command, flag):
    """Written in chunks, 106,269 moves take about 1 MB of traced memory;
    built as one dict per move they took about 30 MB."""
    tracemalloc.start()
    try:
        digest = _streamed(monkeypatch, command, flag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == STREAM_DIGESTS[command, flag]
    assert peak < 16 * 2**20
