"""Batch command-line front end.

Subcommands build the group families, run kernel computations, simplify
and verify, emitting deterministic text or JSON to stdout or to the
``--out`` file.  Exit codes: 0 on success or a passing verdict; 1 on a
failing verdict or when ``match`` finds no match; 2 on usage or parse
errors, or when the ``--out`` file cannot be written.

Each command imports its engine, and ``json``, only where it uses them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .presentations import (
    DEFAULT_MAX_COSETS,
    DEFAULT_MAX_RELATOR_LENGTH,
    INF,
    CoxeterMatrix,
    EmbeddingInstance,
    PcSpec,
    Presentation,
    artin_presentation,
    build_artin_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    coxeter_presentation,
    parse_int,
    parse_matrix_text,
    parse_presentation,
    parse_vector_text,
    parse_word,
    pc_presentation,
    serialize_presentation,
    serialize_word,
)


class UsageError(Exception):
    pass


FAMILIES = ("thm1", "prop2", "klein", "artin")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _presentation_arg(arg: str) -> Presentation:
    text = _read_text(arg[1:]) if arg.startswith("@") else arg
    return parse_presentation(text)


def _load_rows(path: Optional[str]):
    if path is None:
        raise UsageError("this command requires --m MATRIXFILE")
    return parse_matrix_text(_read_text(path))


def _load_orders(spec: Optional[str], n: int):
    if spec is None:
        return (INF,) * n
    orders = parse_vector_text(spec)
    if len(orders) != n:
        raise UsageError(f"--p needs {n} entries, got {len(orders)}")
    return orders


def _build_instance(args) -> EmbeddingInstance:
    family = args.family
    if family == "klein":
        if args.m or args.p:
            raise UsageError("klein takes no --m or --p")
        return build_klein_instance()
    matrix = CoxeterMatrix(_load_rows(args.m))
    if family == "thm1":
        return build_thm1_instance(matrix, _load_orders(args.p, matrix.n))
    if family == "prop2":
        return build_prop2_instance(matrix, _load_orders(args.p, matrix.n))
    if args.p:
        raise UsageError("artin takes no --p")
    return build_artin_instance(matrix)


def _instance_dict(inst: EmbeddingInstance) -> dict:
    return {
        "family": inst.family,
        "params": inst.params,
        "ambient": serialize_presentation(inst.ambient),
        "hom": {
            name: inst.hom.bits(inst.hom.images[i])
            for i, name in enumerate(inst.ambient.gens)
        },
        "transversal_generators": [inst.ambient.gens[g] for g in inst.transversal_gens],
        "expected_kernel": serialize_presentation(inst.expected_kernel),
        "expected_words": {
            name: serialize_word(w, inst.ambient.gens)
            for name, w in zip(inst.expected_kernel.gens, inst.expected_words)
        },
    }


# what every command returns: the exit code, the data ``--format json``
# prints as indented JSON and the text ``--format text`` prints
CommandResult = tuple[int, object, str]


def cmd_build(args) -> CommandResult:
    if args.p and args.kind != "pc":
        raise UsageError(f"build {args.kind} takes no --p")
    rows = _load_rows(args.m)
    if args.kind == "coxeter":
        pres = coxeter_presentation(CoxeterMatrix(rows))
    elif args.kind == "artin":
        pres = artin_presentation(CoxeterMatrix(rows))
    else:
        pres = pc_presentation(PcSpec(rows, _load_orders(args.p, len(rows))))
    text = serialize_presentation(pres)
    return 0, {"presentation": text}, text


def cmd_embed(args) -> CommandResult:
    data = _instance_dict(_build_instance(args))
    lines = [
        f"family: {data['family']}",
        f"ambient: {data['ambient']}",
        "hom: " + ", ".join(f"{name} -> {bits}" for name, bits in data["hom"].items()),
        "transversal generators: " + ", ".join(data["transversal_generators"]),
        f"expected kernel: {data['expected_kernel']}",
        "expected words: " + ", ".join(f"{name} = {w}" for name, w in data["expected_words"].items()),
    ]
    return 0, data, "\n".join(lines)


def _kernel_section(inst: EmbeddingInstance, mode: str, kp):
    data = {
        "mode": mode,
        "presentation": serialize_presentation(kp.presentation),
        "generators": [
            {"name": name, "origin_t": t, "origin_x": x, "defining_word": word}
            for name, t, x, word in kp.table_rows(inst.ambient)
        ],
    }
    lines = [f"mode: {data['mode']}", f"presentation: {data['presentation']}", "generators:"]
    lines += [
        f"  {g['name']} = {g['defining_word']}  (t = {g['origin_t']}, x = {g['origin_x']})"
        for g in data["generators"]
    ]
    return data, "\n".join(lines)


def cmd_kernel(args) -> CommandResult:
    inst = _build_instance(args)
    from .schreier import evaluated_kernel_presentation, raw_kernel_presentation
    modes = ("evaluated", "raw") if args.mode == "both" else (args.mode,)
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens) if "raw" in modes else None
    kernels = {"raw": raw}
    if "evaluated" in modes:
        # read from coset 0, or walked from the cosets when the instance
        # misses that premise; never from the raw kernel
        kernels["evaluated"] = evaluated_kernel_presentation(inst)
    data, texts = zip(*(_kernel_section(inst, mode, kernels[mode]) for mode in modes))
    return 0, data[0] if len(data) == 1 else list(data), "\n\n".join(texts)


def cmd_simplify(args) -> CommandResult:
    pres = _presentation_arg(args.presentation)
    from .tietze import simplify
    simplified, trace = simplify(pres, args.max_relator_length)
    text = serialize_presentation(simplified)
    return 0, {"presentation": text, "trace": trace.to_dict()}, text


def cmd_order(args) -> CommandResult:
    pres = _presentation_arg(args.presentation)
    from .verify import group_order
    order = group_order(pres, args.max_cosets)
    if order == INF:
        return 0, {"order": None, "infinite": True}, "infinite"
    return 0, {"order": order}, "budget-exceeded" if order is None else str(order)


def cmd_index(args) -> CommandResult:
    pres = _presentation_arg(args.presentation)
    sub, letters = [], 0
    for text in args.word:
        sub.append(parse_word(text, pres.gens, letters))
        letters += len(sub[-1])
    from .verify import todd_coxeter
    table = todd_coxeter(pres, sub, args.max_cosets)
    index = table.num_cosets if table.complete else None
    return 0, {"index": index}, "budget-exceeded" if index is None else str(index)


def cmd_abelianization(args) -> CommandResult:
    pres = _presentation_arg(args.presentation)
    from .verify import abelianization
    inv = abelianization(pres)
    data = {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}
    tors = ", ".join(str(d) for d in inv.torsion)
    return 0, data, f"free rank {inv.free_rank}, torsion ({tors})"


def cmd_match(args) -> CommandResult:
    p = _presentation_arg(args.presentation)
    q = _presentation_arg(args.other)
    from .verify import match_presentations
    result = match_presentations(p, q)
    if result is None:
        return 1, {"matched": False, "mapping": None}, "none"
    mapping = [
        {"from": p.gens[g], "to": q.gens[idx], "sign": sign}
        for g, (idx, sign) in enumerate(result)
    ]
    text = ", ".join(f"{m['from']} -> {m['to']}" + ("" if m["sign"] == 1 else "^-1") for m in mapping)
    return 0, {"matched": True, "mapping": mapping}, text


def cmd_verify(args) -> CommandResult:
    inst = _build_instance(args)
    from .verify import verify_instance
    report = verify_instance(inst, args.max_cosets, args.max_relator_length)
    data = report.to_dict()
    import json
    # instance fields bare, other sections as section.key; strings
    # print as they are, everything else as JSON
    lines = []
    for key, value in data.items():
        if key == "instance":
            items = value.items()
        elif isinstance(value, dict):
            items = [(f"{key}.{sub}", v) for sub, v in value.items()]
        else:
            items = [(key, value)]
        lines += [f"{k}: {v if isinstance(v, str) else json.dumps(v)}" for k, v in items]
    return 0 if report.verdict == "pass" else 1, data, "\n".join(lines)


def _budget(text: str) -> int:
    # read as matrix entries are; the engines reject a budget below 1
    try:
        return parse_int(text, "budget")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_budget_flags(parser: argparse.ArgumentParser, cosets=True, tietze=True) -> None:
    if cosets:
        parser.add_argument("--max-cosets", type=_budget, default=DEFAULT_MAX_COSETS)
    if tietze:
        parser.add_argument("--max-relator-length", type=_budget, default=DEFAULT_MAX_RELATOR_LENGTH)


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("family", choices=FAMILIES)
    parser.add_argument("--m", default=None, help="Coxeter matrix file")
    parser.add_argument("--p", default=None, help="comma-separated orders, inf allowed")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxembed",
        description="Reidemeister-Schreier kernel computations for Coxeter-style"
        " presentations mapping onto elementary abelian 2-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="print a family presentation")
    p.add_argument("kind", choices=("coxeter", "pc", "artin"))
    p.add_argument("--m", default=None, help="label matrix file")
    p.add_argument("--p", default=None, help="comma-separated orders (pc only)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("embed", help="print an embedding instance")
    _add_family_flags(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("kernel", help="kernel presentation of an instance")
    _add_family_flags(p)
    p.add_argument("--mode", choices=("evaluated", "raw", "both"), default="evaluated")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("simplify", help="Tietze-simplify a presentation")
    p.add_argument("presentation", help="quoted presentation or @file")
    _add_budget_flags(p, cosets=False)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("order", help="group order by coset enumeration")
    p.add_argument("presentation", help="quoted presentation or @file")
    _add_budget_flags(p, tietze=False)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("index", help="subgroup index by coset enumeration")
    p.add_argument("presentation", help="quoted presentation or @file")
    p.add_argument("word", nargs="+", help="subgroup generator words")
    _add_budget_flags(p, tietze=False)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("abelianization", help="free rank and torsion invariants")
    p.add_argument("presentation", help="quoted presentation or @file")
    p.set_defaults(func=cmd_abelianization)

    p = sub.add_parser("match", help="match two presentations up to relabeling")
    p.add_argument("presentation", help="quoted presentation or @file")
    p.add_argument("other", help="quoted presentation or @file")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("verify", help="run all checks for an instance")
    _add_family_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_verify)

    # shared by every subcommand, added last so they list last in --help
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, data, text = args.func(args)
        if args.format == "json":
            import json
            text = json.dumps(data, indent=2)
        out = text + "\n"
        if args.out:
            _write_text(args.out, out)
        else:
            sys.stdout.write(out)
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
