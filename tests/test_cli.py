import json

import jsonschema
import pytest

from akblocks.cli import SCHEMAS, main

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
