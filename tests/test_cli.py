import json
import time
import tracemalloc

import jsonschema
import pytest

from akblocks.abacus import AbacusPair
from akblocks.cli import SCHEMAS, main
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


def test_brauer_line(capsys):
    doc = run_json(capsys, "brauer-line", "4", "3", "3")
    assert len(doc["type_i"]) == 7 and len(doc["poset"]) == 7
    assert doc["type_i"][0] == {"top": 1}
    assert doc["type_ii"][0] == {"top": 4}
    flagged = [p["edge"] for p in doc["poset"] if p["in_lambda0"]]
    assert flagged == [1, 2, 3, 4]


def test_render_modes(capsys):
    job = {"e": 2, "multicharge": [0], "multipartition": [[]]}
    code, out, err = run(capsys, "render", json.dumps(job), "--window", "-2", "1", "--ascii")
    assert code == 0 and out.strip() == "● ● ¦ ○ ○"
    doc = run_json(capsys, "render", json.dumps(job))
    assert doc["rows"]


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
    ],
    ids=["n", "command", "window"],
)
def test_usage_errors_are_json_diagnostics(capsys, argv, detail):
    """A command line argparse rejects ends like any other parse error: main
    returns 2 and stderr holds exactly one JSON line, with no usage text."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "usage" not in err
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "parse" and diagnostic["detail"].startswith(detail)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out.startswith("usage: akblocks") and out.err == ""
