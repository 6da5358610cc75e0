"""Fuzzed CLI contract for all fifteen commands: ``core``, ``mv``,
``enumerate``, ``classify``, ``schur-classify``, ``witness``,
``block-id``, ``defect``, ``dual``, ``uglov``, ``sigma``, ``rotate``,
``derived-class``, ``brauer-line`` and ``render``.

Every job, valid or not, ends in exit 0 with a schema-valid document on
stdout, or in exit 2 or 3 with nothing on stdout; stderr carries only
JSON lines, never a traceback, and each job finishes under a wall-time
deadline.  Jobs are drawn valid, near-valid (out-of-range or unordered
values, missing fields, unreachable targets), wrong-typed and
huge-valued: charge spreads up to 10^6 and ``--n`` up to 10^9.  Command
lines are also drawn broken (a non-integer ``--n``, an unknown command
or option, a short ``--window``, a missing or extra positional, an
``--n`` off ``enumerate`` or a ``--window`` off ``render``; an example
adds an ``--ascii`` off ``render``), which must
end in exit 2 with one JSON diagnostic like any other parse error.

Spreads of 10^6 are drawn with finite e only.  With infinite e the level
reader scans every column of the display, so one such job takes seconds
(``enumerate`` pays it once per block); those spreads stay at 10^4.
``ABACUS_BUDGET`` is drawn as well, up to 10^5: the default cap of 10^7
moves or candidates admits jobs that run for minutes.  ``uglov`` prints
its one-runner image, whose partition has about as many parts as the
spread, so its jobs are the slowest finite-e ones (about 1.5 s at 10^6).
``sigma`` and ``rotate`` take a drawn integer before the job JSON;
``brauer-line`` takes one to four drawn integers (N [V M], so four are
an extra argument) and no job, and ``render`` may take a drawn
``--window``.  ``derived-class`` refuses every block of weight other
than one, so the examples include weight-one jobs.
"""

import contextlib
import io
import json
import os
import time

import jsonschema
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from akblocks.abacus import AbacusPair
from akblocks.cli import SCHEMAS, main
from akblocks.moves import core_and_vector
from akblocks.partitions import INFINITY

DEADLINE_S = 10.0

VALID_E = st.sampled_from([2, 3, 5, "inf"])
NEAR_E = st.sampled_from([0, 1, -3, "INF", 10**4])
WRONG = st.sampled_from([None, True, 2.5, "3", [1], {"a": 1}])
PARTITION = st.lists(st.integers(1, 6), max_size=4).map(lambda xs: sorted(xs, reverse=True))


@st.composite
def pair_fields(draw, e, r, huge):
    """(multicharge, multipartition) of rank r; with ``huge`` one charge
    entry sits up to 10^6 away (10^4 when e is infinite) and one part is
    10^3 or 10^4."""
    charge = draw(st.lists(st.integers(-3, 8), min_size=r, max_size=r))
    mp = draw(st.lists(PARTITION, min_size=r, max_size=r))
    if huge:
        far = draw(st.sampled_from([10**4, 10**5, 10**6])) if e != "inf" else 10**4
        charge[draw(st.integers(0, r - 1))] = draw(st.sampled_from([far, -far // 2, far // 2]))
        mp[draw(st.integers(0, r - 1))].insert(0, draw(st.sampled_from([10**3, 10**4])))
    return charge, mp


COMMANDS = [
    "core",
    "mv",
    "enumerate",
    "classify",
    "schur-classify",
    "witness",
    "block-id",
    "defect",
    "dual",
    "uglov",
    "sigma",
    "rotate",
    "derived-class",
    "brauer-line",
    "render",
]
PARAM = st.sampled_from(["0", "1", "2", "-1", "4", str(10**9), "x"])
LINE_PARAM = st.sampled_from(["1", "2", "3", "7", "0", "-1", "30000", str(10**9), "x"])
WINDOW_END = st.sampled_from(["-3", "0", "2", "9", "-" + str(10**9), str(10**9)])


def broken_command_line(draw, argv):
    """A well-formed argv broken at the command-line level: argparse
    rejects all but a missing or extra positional, which the job reader
    rejects."""
    fault = draw(st.sampled_from(["n", "command", "option", "window", "missing", "extra"]))
    if fault == "n":
        return [argv[0], argv[1], "--n", draw(st.sampled_from(["x", "1.5", "", "1e3"]))]
    if fault == "command":
        return [draw(st.sampled_from(["bogus", "Core", "", "--", "classify-all"])), argv[1]]
    if fault == "option":
        return argv + [draw(st.sampled_from(["--frobnicate", "-x", "--n"]))]
    if fault == "window":
        return argv + ["--window", draw(st.sampled_from(["1", "a"]))]
    if fault == "missing":
        return draw(st.sampled_from([[], [argv[0]]]))
    if argv[0] == "brauer-line":  # past N V M
        return argv + ["1"] * 3
    return argv + [argv[1]]


@st.composite
def jobs(draw):
    """(argv, ABACUS_BUDGET, whether argv is a broken command line) for one
    job of a drawn flavour."""
    command = draw(st.sampled_from(COMMANDS))
    flavour = draw(st.sampled_from(["valid", "huge", "near", "wrong", "argv"]))
    e, r = draw(VALID_E), draw(st.integers(1, 3))
    charge, mp = draw(pair_fields(e, r, flavour == "huge"))
    job = {"e": e, "multicharge": charge, "multipartition": mp}
    if command == "mv":
        target = draw(st.sampled_from(["same", "core", "other"]))
        t_charge, t_mp = charge, mp
        if target == "core":
            pair = AbacusPair(tuple(map(tuple, mp)), tuple(charge), INFINITY if e == "inf" else e)
            core_pair, _ = core_and_vector(pair)
            t_charge, t_mp = list(core_pair.charge), [list(c) for c in core_pair.mp]
        elif target == "other":  # mostly unreachable
            t_charge, t_mp = draw(pair_fields(e, r, flavour == "huge"))
        job.update(target_multicharge=t_charge, target_multipartition=t_mp)
    n = draw(st.integers(0, 5))
    text = None
    if flavour == "huge":
        n = draw(st.sampled_from([n, 10**5, 10**9]))
    elif flavour == "near":
        fault = draw(st.sampled_from(["e", "rank", "unordered", "zero", "missing", "n"]))
        if fault == "e":
            job["e"] = draw(NEAR_E)
        elif fault == "rank":
            job["multicharge"] = charge + [0]
        elif fault in ("unordered", "zero"):
            mp[draw(st.integers(0, r - 1))] += [0] if fault == "zero" else [1, 2]
        elif fault == "missing":
            del job[draw(st.sampled_from(sorted(job)))]
        else:
            n = -1
    elif flavour == "wrong":
        where = draw(st.sampled_from(["field", "entry", "part", "text"]))
        if where == "field":
            job[draw(st.sampled_from(sorted(job)))] = draw(WRONG)
        elif where == "entry":
            charge[draw(st.integers(0, r - 1))] = draw(WRONG)
        elif where == "part":
            mp[draw(st.integers(0, r - 1))].append(draw(WRONG))
        else:
            text = draw(st.sampled_from(["[1, 2]", "17", '"job"', "{not json", ""]))
    argv = [command, json.dumps(job) if text is None else text]
    if command in ("sigma", "rotate"):
        argv.insert(1, draw(PARAM))
    elif command == "brauer-line":
        argv[1:] = draw(st.lists(LINE_PARAM, min_size=1, max_size=4))
    elif command == "render" and draw(st.booleans()):
        argv += ["--window", draw(WINDOW_END), draw(WINDOW_END)]
    # --n belongs to enumerate and --window to render; elsewhere each is a
    # usage error, drawn now and then
    stray = draw(st.sampled_from([None] * 8 + ["--n", "--window"]))
    if command == "enumerate" or stray == "--n":
        argv += ["--n", str(n)]
    if stray == "--window" and command != "render":
        argv += ["--window", draw(WINDOW_END), draw(WINDOW_END)]
    misplaced = stray == "--n" and command != "enumerate" or stray == "--window" and command != "render"
    if flavour == "argv":
        argv = broken_command_line(draw, argv)
    budget = draw(st.sampled_from(["0", "12", "1000", "100000", "lots"]))
    return argv, budget, flavour == "argv" or misplaced


def run_in_process(argv, budget):
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("ABACUS_BUDGET", None)
    os.environ["ABACUS_BUDGET"] = budget
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("ABACUS_BUDGET", None)
        if saved is not None:
            os.environ["ABACUS_BUDGET"] = saved
    return code, out.getvalue(), err.getvalue()


SPREAD_1E6 = {"e": 2, "multicharge": [0, 10**6], "multipartition": [[3, 1], [2]]}
WEIGHT_ONE = {"e": 4, "multicharge": [0, 1, 2], "multipartition": [[], [1], [1]]}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jobs())
@example((["core", json.dumps(SPREAD_1E6)], "100000", False))
@example((["enumerate", json.dumps(SPREAD_1E6), "--n", str(10**9)], "100000", False))
@example((["classify", json.dumps(SPREAD_1E6)], "100000", False))
@example((["witness", json.dumps(SPREAD_1E6)], "100000", False))
@example((["enumerate", "--n", "x", json.dumps(SPREAD_1E6)], "100000", True))
@example((["bogus", json.dumps(SPREAD_1E6)], "100000", True))
@example((["block-id", json.dumps(SPREAD_1E6)], "100000", False))
@example((["uglov", json.dumps(SPREAD_1E6)], "100000", False))
@example((["sigma", "1", json.dumps(SPREAD_1E6)], "100000", False))
@example((["derived-class", json.dumps(WEIGHT_ONE)], "100000", False))
@example((["derived-class", json.dumps(dict(WEIGHT_ONE, e="inf"))], "100000", False))
@example((["render", json.dumps(SPREAD_1E6)], "100000", False))
@example((["render", json.dumps(WEIGHT_ONE), "--window", "-3", "9"], "100000", False))
@example((["brauer-line", "30000", "7", "3"], "100000", False))
@example((["brauer-line", str(10**9)], "100000", False))
@example((["brauer-line", "4", "3", "3", "1"], "100000", True))
@example((["brauer-line", "2", "--n", "5", "--window", "1", "2"], "100000", True))
@example((["dual", json.dumps(WEIGHT_ONE), "--n", "7"], "100000", True))
@example((["core", json.dumps(WEIGHT_ONE), "--ascii"], "100000", True))
def test_cli_contract(case):
    argv, budget, rejected = case
    start = time.perf_counter()
    code, out, err = run_in_process(argv, budget)
    assert time.perf_counter() - start < DEADLINE_S, argv
    assert code in ((2,) if rejected else (0, 2, 3))
    event(f"{argv[0] if argv else '(none)'} exit {code}")
    assert "Traceback" not in err and "Traceback" not in out
    diagnostics = [json.loads(line) for line in err.splitlines()]
    if code == 0:
        schema = dict(SCHEMAS[argv[0]], definitions=SCHEMAS["definitions"])
        jsonschema.validate(json.loads(out), schema)
        assert diagnostics == []
    else:
        assert out == ""
        assert [d["error"] for d in diagnostics] == ["parse" if code == 2 else "budget"]
