"""Command-line front end.

Jobs are described by a single JSON object, e.g.

    {"e": 3, "multicharge": [0, 2, 1], "multipartition": [[2, 1], [3, 2], [4, 3, 1]]}

with ``"inf"`` for an infinite quantum characteristic.  The object is
passed as the positional argument (or ``-`` to read it from stdin).
Results go to stdout as JSON by default (``--tsv`` and ``--ascii`` are
the alternates), diagnostics to stderr as one JSON object per line.
Exit codes: 0 success, 2 parse/validation error, 3 budget exhaustion
(``ABACUS_BUDGET`` bounds enumerations, operation sets and the cells of
a ``render`` window or a ``brauer-line`` cell chain).

Start-up.  A process runs one job and spends most of its time loading
code, so this module imports only ``abacus`` and ``partitions`` up front
and each command imports what it runs once its job is parsed: ``dual``,
``uglov``, ``render`` and parse errors nothing more; ``brauer-line``
``brauer``; ``core``, ``mv`` and ``rotate`` ``moves``; ``block-id``,
``defect`` and ``sigma`` ``blocks`` alone; ``classify``,
``schur-classify``, ``witness``, ``enumerate`` and ``derived-class``
``classify``.  No module imports ``dataclasses``.  Operation sets are
written out in chunks as they are read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice, starmap

from . import abacus
from .abacus import AbacusPair
from .partitions import (
    DEFAULT_ENUMERATION_BUDGET,
    INFINITY,
    BudgetExceeded,
    _check_budget,
    check_integers,
    multipartitions_of,
    permute,
)

SCHEMAS = {
    "pair": {
        "type": "object",
        "required": ["e", "multicharge", "multipartition"],
        "properties": {
            "e": {"type": ["integer", "string"]},
            "multicharge": {"type": "array", "items": {"type": "integer"}},
            "multipartition": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            },
        },
    },
    "core": {
        "type": "object",
        "required": ["core", "operation_set", "moving_vector"],
        "properties": {
            "core": {"$ref": "#/definitions/pair"},
            "operation_set": {"$ref": "#/definitions/ops"},
            "moving_vector": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "mv": {
        "type": "object",
        "required": ["moving_vector", "operation_set"],
        "properties": {
            "moving_vector": {"type": "array", "items": {"type": "integer"}},
            "operation_set": {"$ref": "#/definitions/ops"},
        },
    },
    "block-id": {
        "type": "object",
        "required": ["e", "multicharge", "content", "n"],
        "properties": {
            "content": {"type": "object", "additionalProperties": {"type": "integer"}},
            "n": {"type": "integer"},
        },
    },
    "defect": {"type": "object", "required": ["defect"]},
    "classify": {
        "type": "object",
        "required": ["verdict", "weight", "moving_vector", "normalized_multicharge"],
        "properties": {"verdict": {"enum": ["finite", "infinite"]}},
    },
    "schur-classify": {"type": "object", "required": ["verdict", "hecke_verdict"]},
    "enumerate": {
        "type": "object",
        "required": ["n", "blocks"],
        "properties": {"blocks": {"type": "array"}},
    },
    "witness": {"type": "object", "required": ["found"]},
    "sigma": {"$ref": "#/definitions/pair"},
    "uglov": {"type": "object", "required": ["partition", "charge"]},
    "dual": {"$ref": "#/definitions/pair"},
    "rotate": {"$ref": "#/definitions/pair"},
    "derived-class": {
        "type": "object",
        "required": ["nonzero_components", "subabacus_moving_vector"],
    },
    "brauer-line": {"type": "object", "required": ["type_i", "type_ii", "poset"]},
    "render": {"type": "object", "required": ["rows"]},
    "definitions": {
        "pair": {
            "type": "object",
            "required": ["e", "multicharge", "multipartition"],
        },
        "ops": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["row", "col", "index"],
                "additionalProperties": False,
                "properties": {
                    "row": {"type": "integer"},
                    "col": {"type": "integer"},
                    "index": {"type": "integer"},
                },
            },
        },
    },
}


class JobError(ValueError):
    pass


def _decode_e(raw):
    if raw == "inf":
        return INFINITY
    if isinstance(raw, int) and raw >= 2:
        return raw
    raise JobError(f"e must be an integer >= 2 or \"inf\", got {raw!r}")


def _encode_e(e):
    return "inf" if e == INFINITY else e


def _load_job(text: str) -> dict:
    try:
        job = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobError(f"invalid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise JobError("the job must be a JSON object")
    return job


def _pair_from_job(job: dict, mp_key="multipartition", charge_key="multicharge") -> AbacusPair:
    for key in ("e", charge_key, mp_key):
        if key not in job:
            raise JobError(f"missing field {key!r}")
    try:
        return AbacusPair(
            tuple(tuple(c) for c in job[mp_key]),
            tuple(job[charge_key]),
            _decode_e(job["e"]),
        )
    except (TypeError, ValueError) as exc:
        raise JobError(str(exc)) from exc


def _pair_json(a: AbacusPair) -> dict:
    return {
        "e": _encode_e(a.e),
        "multicharge": list(a.charge),
        "multipartition": [list(c) for c in a.mp],
    }


class _OpStream:
    """An operation set in a result document: written out in chunks of
    moves as it is read, never held as one dict per move."""

    CHUNK = 4096

    def __init__(self, ops):
        self.ops = ops

    def chunks(self, item_sep: str, key_sep: str):
        """The text ``json.dumps`` gives the list of ``{"row", "col",
        "index"}`` objects with these separators and sorted keys."""
        fmt = '{{"col":{1},"index":{2},"row":{0}}}'.replace(":", key_sep).replace(",", item_sep)
        ops, sep = iter(self.ops), ""
        yield "["
        while True:
            piece = item_sep.join(starmap(fmt.format, islice(ops, self.CHUNK)))
            if not piece:
                break
            yield sep + piece
            sep = item_sep
        yield "]"


def _content_json(content: dict) -> dict:
    return {str(k): v for k, v in sorted(content.items())}


def _witness_json(w) -> dict:
    if w is None:
        return {"found": False}
    return {
        "found": True,
        "mu": [list(c) for c in w.mu],
        "nu": [list(c) for c in w.nu],
        "multicharge": list(w.charge),
        "coords": {
            "kappa1": w.coords[0],
            "iota1": w.coords[1],
            "kappa2": w.coords[2],
            "iota2": w.coords[3],
        },
        "sigma": list(w.sigma),
    }


def _report_json(rep) -> dict:
    out = {
        "verdict": rep.verdict,
        "weight": rep.weight,
        "moving_vector": list(rep.moving_vector),
        "normalized_multicharge": list(rep.normalized_charge),
        "sigma": list(rep.sigma),
    }
    if rep.detail_kind is not None:
        out["detail"] = {"kind": rep.detail_kind}
        if rep.detail_degree is not None:
            out["detail"]["degree"] = rep.detail_degree
        if rep.detail_edges is not None:
            out["detail"]["edges"] = rep.detail_edges
    if rep.verdict == "infinite":
        out["witness"] = _witness_json(rep.witness)
    return out


def _budget() -> int:
    raw = os.environ.get("ABACUS_BUDGET")
    if raw is None:
        return DEFAULT_ENUMERATION_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise JobError(f"ABACUS_BUDGET must be an integer, got {raw!r}") from exc


def _check_size(size: int, what: str = "operation set of {} moves") -> None:
    """Refuse an output of more items (moves, render cells) than the budget allows."""
    budget = _budget()
    if size > budget:
        raise BudgetExceeded(size, budget, what)


def _cmd_core(job, args):
    a = _pair_from_job(job)
    from . import moves
    # the vector's sum is the op count, known before any bead path is listed
    _check_size(sum(moves.core_and_vector(a)[1]))
    core_pair, ops, mv = moves.core(a)
    return {"core": _pair_json(core_pair), "operation_set": _OpStream(ops), "moving_vector": list(mv)}


def _cmd_mv(job, args):
    a = _pair_from_job(job)
    b = _pair_from_job(job, mp_key="target_multipartition", charge_key="target_multicharge")
    from . import moves
    # with one core the op count comes from bead counts, before any path is
    # listed; the paths then show whether b is reachable at all
    count = moves._op_count_between(a, b)
    if count is not None:
        _check_size(count)
    ops, mv = moves.operation_set_between(a, b)
    return {"moving_vector": list(mv), "operation_set": _OpStream(ops)}


def _cmd_block_id(job, args):
    a = _pair_from_job(job)
    from . import blocks
    bid = blocks.block_id(a)
    return {
        "e": _encode_e(bid.e),
        "multicharge": list(bid.charge),
        "content": _content_json(bid.content_dict()),
        "n": bid.n,
    }


def _cmd_defect(job, args):
    a = _pair_from_job(job)
    from . import blocks
    return {"defect": blocks.defect(blocks.block_id(a))}


def _cmd_classify(job, args):
    a = _pair_from_job(job)
    from . import classify
    return _report_json(classify.repr_type(a))


def _cmd_schur(job, args):
    a = _pair_from_job(job)
    from . import classify
    rep = classify.repr_type(a)
    return {"verdict": classify.schur_repr_type(rep), "hecke_verdict": rep.verdict}


def _cmd_enumerate(job, args):
    if args.n is None:
        raise JobError("enumerate needs --n")
    if args.n < 0:
        raise JobError(f"--n must be a non-negative integer, got {args.n}")
    e = _decode_e(job.get("e"))
    charge = check_integers(job.get("multicharge", ()), "multicharge")
    if not charge:
        raise JobError("missing field 'multicharge'")
    _check_budget(args.n, len(charge), _budget())
    from . import blocks, classify
    grouped: dict = {}
    for mp in multipartitions_of(args.n, len(charge)):
        bid = blocks.block_id(AbacusPair(mp, charge, e))
        grouped.setdefault(bid, []).append(mp)
    # moving vectors are taken over the normalized multicharge, as classify does
    charge_norm, sigma = blocks.normalize_multicharge(charge, e)
    table = []
    for bid in sorted(grouped, key=lambda b: b.content):
        members = sorted(grouped[bid])
        mv, _ = classify.block_moving_vector(AbacusPair(permute(members[0], sigma), charge_norm, e))
        table.append(
            {
                "content": _content_json(bid.content_dict()),
                "defect": blocks.defect(bid),
                "moving_vector": list(mv),
                "size": len(members),
                "members": [[list(c) for c in mp] for mp in members],
            }
        )
    return {"n": args.n, "blocks": table}


def _cmd_witness(job, args):
    pair = _pair_from_job(job)
    from . import blocks, classify
    w = classify.find_incomparable_pair(
        blocks.block_id(pair), member=pair.mp, enumeration_budget=_budget()
    )
    return _witness_json(w)


def _cmd_sigma(job, args):
    a = _pair_from_job(job)
    from . import blocks
    return _pair_json(blocks.weyl_sigma(a, args.param))


def _cmd_uglov(job, args):
    img = abacus.uglov(_pair_from_job(job))
    return {"partition": list(img.partition), "charge": img.charge}


def _cmd_dual(job, args):
    return _pair_json(abacus.dual(_pair_from_job(job)))


def _cmd_rotate(job, args):
    a = _pair_from_job(job)
    from . import moves
    return _pair_json(moves.rotate_rows(a, args.param))


def _cmd_derived_class(job, args):
    a = _pair_from_job(job)
    from . import blocks, classify
    bid = blocks.block_id(a)
    if blocks.defect(bid) != 1:
        raise JobError("derived-class is the weight-one invariant; this block has weight != 1")
    w = classify.subabacus_moving_vector(bid, enumeration_budget=_budget())
    return {
        "nonzero_components": len(w),
        "subabacus_moving_vector": _content_json(w),
    }


def _cmd_brauer_line(job, args):
    if not 1 <= len(args.line_params) <= 3:
        raise JobError("brauer-line needs N [V M] positional parameters")
    from . import brauer
    line = brauer.BrauerLine(*args.line_params)
    _check_size(line.edges + line.multiplicity, "cell chain of {} cells")
    t1, t2 = brauer.cell_chains(line)

    def chain_json(chain):
        return [
            {"top": c.top} if c.simple else {"top": c.top, "bottom": c.bottom} for c in chain
        ]

    poset = [
        {"edge": p.edge, "copy": p.copy, "in_lambda0": p.in_lambda0}
        for p in brauer.multiplication_poset(line)
    ]
    return {"type_i": chain_json(t1), "type_ii": chain_json(t2), "poset": poset}


def _cmd_render(job, args):
    a = _pair_from_job(job)
    if args.window:
        lo, hi = args.window
    else:
        lo, hi = a.bounds()
        lo, hi = lo - 1, hi
    _check_size(a.r * (hi - lo + 1), "render window of {} cells")
    text = abacus.render(a, (lo, hi))
    return {"rows": text.split("\n"), "window": [lo, hi]}


COMMANDS = {
    "core": _cmd_core,
    "mv": _cmd_mv,
    "block-id": _cmd_block_id,
    "defect": _cmd_defect,
    "classify": _cmd_classify,
    "schur-classify": _cmd_schur,
    "enumerate": _cmd_enumerate,
    "witness": _cmd_witness,
    "sigma": _cmd_sigma,
    "uglov": _cmd_uglov,
    "dual": _cmd_dual,
    "rotate": _cmd_rotate,
    "derived-class": _cmd_derived_class,
    "brauer-line": _cmd_brauer_line,
    "render": _cmd_render,
}

NO_JOB_COMMANDS = {"brauer-line"}
PARAM_COMMANDS = {"sigma", "rotate"}  # take one integer before the job JSON


def _json_chunks(result: dict):
    """``json.dumps(result, sort_keys=True, separators=(",", ":"))`` in
    pieces, with an operation set streamed."""
    sep = "{"
    for key in sorted(result):
        yield f"{sep}{json.dumps(key)}:"
        sep = ","
        value = result[key]
        if isinstance(value, _OpStream):
            yield from value.chunks(",", ":")
        else:
            yield json.dumps(value, sort_keys=True, separators=(",", ":"))
    yield "}" if result else "{}"


def _tsv_leaves(prefix: str, value):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _tsv_leaves(f"{prefix}.{k}" if prefix else str(k), value[k])
    else:
        yield prefix, value


def _tsv_chunks(result: dict):
    """One ``key<TAB>value`` line per leaf, nested keys joined by dots and
    lists as JSON, with an operation set streamed."""
    sep = ""
    for key, value in _tsv_leaves("", result):
        yield f"{sep}{key}\t"
        sep = "\n"
        if isinstance(value, _OpStream):
            yield from value.chunks(", ", ": ")
        elif isinstance(value, list):
            yield json.dumps(value, sort_keys=True)
        else:
            yield str(value)


class _Parser(argparse.ArgumentParser):
    """Usage errors become a JobError, so they end like any other parse
    error: one JSON diagnostic on stderr and exit 2, with no usage text."""

    def error(self, message):
        raise JobError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="akblocks",
        description="Abacus calculus and representation type for blocks of Ariki-Koike algebras.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument(
        "args",
        nargs="*",
        help="command arguments: the job JSON object ('-' reads stdin), "
        "preceded by J for sigma and I for rotate; N [V M] for brauer-line",
    )
    parser.add_argument("--n", type=int, default=None, help="size for enumerate")
    parser.add_argument(
        "--window", type=int, nargs=2, metavar=("LO", "HI"), default=None, help="render window"
    )
    parser.add_argument("--tsv", action="store_true", help="emit key/value TSV instead of JSON")
    parser.add_argument("--ascii", action="store_true", default=None, help="emit render's rows as plain text")
    return parser


def _diag(code: str, message: str):
    print(json.dumps({"error": code, "detail": message}, sort_keys=True), file=sys.stderr)


def _split_args(args) -> dict:
    """Distribute the raw positionals into param / line_params / job text."""
    for flag, only in (("n", "enumerate"), ("window", "render"), ("ascii", "render")):
        if getattr(args, flag) is not None and args.command != only:
            raise JobError(f"--{flag} applies only to {only}, not {args.command}")
    raw = list(args.args)
    args.param = None
    args.line_params = []
    if args.command in NO_JOB_COMMANDS:
        try:
            args.line_params = [int(x) for x in raw]
        except ValueError as exc:
            raise JobError(f"brauer-line parameters must be integers: {exc}") from exc
        return {}
    if args.command in PARAM_COMMANDS:
        if not raw:
            raise JobError(f"{args.command} needs an integer parameter and a job JSON")
        try:
            args.param = int(raw.pop(0))
        except ValueError as exc:
            raise JobError(f"{args.command} parameter must be an integer") from exc
    if not raw:
        raise JobError("missing job JSON (pass '-' to read stdin)")
    if len(raw) > 1:
        raise JobError(f"unexpected extra arguments: {raw[1:]}")
    text = sys.stdin.read() if raw[0] == "-" else raw[0]
    return _load_job(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_intermixed_args(argv)
        job = _split_args(args)
        result = COMMANDS[args.command](job, args)
    except BudgetExceeded as exc:
        _diag("budget", str(exc))
        return 3
    except (ValueError, TypeError) as exc:
        _diag("parse", str(exc))
        return 2
    if args.ascii and args.command == "render":
        print("\n".join(result["rows"]))
    else:
        out = sys.stdout
        for chunk in _tsv_chunks(result) if args.tsv else _json_chunks(result):
            out.write(chunk)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
