"""Command-line front end.

Jobs are described by a single JSON object, e.g.

    {"e": 3, "multicharge": [0, 2, 1], "multipartition": [[2, 1], [3, 2], [4, 3, 1]]}

with ``"inf"`` for an infinite quantum characteristic.  The object is
passed as the positional argument (or ``-`` to read it from stdin).
Results go to stdout as JSON by default (``--tsv`` and ``--ascii`` are
the alternates), diagnostics to stderr as one JSON object per line.
Exit codes: 0 success, 2 parse/validation error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import abacus, blocks, brauer, classify, moves, partitions
from .abacus import AbacusPair
from .partitions import INFINITY

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


def _ops_json(ops) -> list:
    return [{"row": o.row, "col": o.col, "index": o.index} for o in ops]


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


def _report_json(rep: classify.ReprTypeReport) -> dict:
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
        return blocks.DEFAULT_ENUMERATION_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise JobError(f"ABACUS_BUDGET must be an integer, got {raw!r}") from exc


def _cmd_core(job, args):
    a = _pair_from_job(job)
    core_pair, ops, mv = moves.core(a)
    return {"core": _pair_json(core_pair), "operation_set": _ops_json(ops), "moving_vector": list(mv)}


def _cmd_mv(job, args):
    a = _pair_from_job(job)
    b = _pair_from_job(job, mp_key="target_multipartition", charge_key="target_multicharge")
    ops, mv = moves.operation_set_between(a, b)
    return {"moving_vector": list(mv), "operation_set": _ops_json(ops)}


def _cmd_block_id(job, args):
    bid = blocks.block_id(_pair_from_job(job))
    return {
        "e": _encode_e(bid.e),
        "multicharge": list(bid.charge),
        "content": _content_json(bid.content_dict()),
        "n": bid.n,
    }


def _cmd_defect(job, args):
    return {"defect": blocks.defect(blocks.block_id(_pair_from_job(job)))}


def _cmd_classify(job, args):
    return _report_json(classify.repr_type(_pair_from_job(job)))


def _cmd_schur(job, args):
    rep = classify.repr_type(_pair_from_job(job))
    return {"verdict": classify.schur_repr_type(rep), "hecke_verdict": rep.verdict}


def _cmd_enumerate(job, args):
    if args.n is None:
        raise JobError("enumerate needs --n")
    if args.n < 0:
        raise JobError(f"--n must be a non-negative integer, got {args.n}")
    e = _decode_e(job.get("e"))
    charge = tuple(job.get("multicharge", ()))
    if not charge:
        raise JobError("missing field 'multicharge'")
    estimate = partitions.count_multipartitions(args.n, len(charge))
    if estimate > _budget():
        raise blocks.BudgetExceeded(estimate, _budget())
    grouped: dict = {}
    for mp in partitions.multipartitions_of(args.n, len(charge)):
        bid = blocks.block_id(AbacusPair(mp, charge, e))
        grouped.setdefault(bid, []).append(mp)
    table = []
    for bid in sorted(grouped, key=lambda b: b.content):
        members = sorted(grouped[bid])
        mv, _ = classify.block_moving_vector(AbacusPair(members[0], charge, e))
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
    w = classify.find_incomparable_pair(
        blocks.block_id(pair), member=pair.mp, enumeration_budget=_budget()
    )
    return _witness_json(w)


def _cmd_sigma(job, args):
    if args.param is None:
        raise JobError("sigma needs a residue J before the job JSON")
    return _pair_json(blocks.weyl_sigma(_pair_from_job(job), args.param))


def _cmd_uglov(job, args):
    img = abacus.uglov(_pair_from_job(job))
    return {"partition": list(img.partition), "charge": img.charge}


def _cmd_dual(job, args):
    return _pair_json(abacus.dual(_pair_from_job(job)))


def _cmd_rotate(job, args):
    if args.param is None:
        raise JobError("rotate needs an amount I before the job JSON")
    return _pair_json(moves.rotate_rows(_pair_from_job(job), args.param))


def _cmd_derived_class(job, args):
    bid = blocks.block_id(_pair_from_job(job))
    if blocks.defect(bid) != 1:
        raise JobError("derived-class is the weight-one invariant; this block has weight != 1")
    w = classify.subabacus_moving_vector(bid, enumeration_budget=_budget())
    return {
        "nonzero_components": len(w),
        "subabacus_moving_vector": _content_json(w),
    }


def _cmd_brauer_line(job, args):
    if not args.line_params:
        raise JobError("brauer-line needs N [V M] positional parameters")
    params = args.line_params + [1, 1][len(args.line_params) - 1 :]
    line = brauer.BrauerLine(*params[:3])
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


def _emit_tsv(result: dict) -> str:
    lines = []

    def flat(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                flat(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix}\t{json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix}\t{value}")

    flat("", result)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser.add_argument("--ascii", action="store_true", help="emit plain text where sensible")
    return parser


def _diag(code: str, message: str):
    print(json.dumps({"error": code, "detail": message}, sort_keys=True), file=sys.stderr)


def _split_args(args) -> dict:
    """Distribute the raw positionals into param / line_params / job text."""
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
    args = build_parser().parse_intermixed_args(argv)
    try:
        job = _split_args(args)
        result = COMMANDS[args.command](job, args)
    except blocks.BudgetExceeded as exc:
        _diag("budget", str(exc))
        return 3
    except JobError as exc:
        _diag("parse", str(exc))
        return 2
    except (ValueError, TypeError) as exc:
        _diag("parse", str(exc))
        return 2
    if args.ascii and args.command == "render":
        print("\n".join(result["rows"]))
    elif args.tsv:
        print(_emit_tsv(result))
    else:
        print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
