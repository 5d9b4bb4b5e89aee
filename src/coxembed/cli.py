"""Batch command-line front end.

Subcommands build the group families, run kernel computations, simplify
and verify, emitting deterministic text or JSON.  Exit codes: 0 on
success or a passing verdict, 1 on verification failure, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .presentations import (
    CoxeterMatrix,
    EmbeddingInstance,
    ParseError,
    PcSpec,
    Presentation,
    artin_presentation,
    build_artin_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    coxeter_presentation,
    parse_matrix_text,
    parse_presentation,
    parse_vector_text,
    parse_word,
    pc_presentation,
    serialize_presentation,
    serialize_word,
)
from .schreier import KernelPresentation, evaluated_kernel_presentation, raw_kernel_presentation
from .tietze import SimplifyConfig, simplify
from .verify import (
    DEFAULT_MAX_COSETS,
    Budgets,
    abelianization,
    certified_infinite,
    group_order,
    match_presentations,
    todd_coxeter,
    verify_instance,
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


def _presentation_arg(arg: str) -> Presentation:
    text = _read_text(arg[1:]) if arg.startswith("@") else arg
    return parse_presentation(text)


def _load_rows(path: Optional[str]):
    if path is None:
        raise UsageError("this command requires --m MATRIXFILE")
    return parse_matrix_text(_read_text(path))


def _load_orders(spec: Optional[str], n: int):
    if spec is None:
        return (float("inf"),) * n
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
    if family == "artin":
        if args.p:
            raise UsageError("artin takes no --p")
        return build_artin_instance(matrix)
    raise UsageError(f"unknown family {family!r}")


def _emit(args, text: str) -> None:
    out = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _json(data) -> str:
    return json.dumps(data, indent=2)


def _budgets(args) -> Budgets:
    return Budgets(max_cosets=args.max_cosets, max_relator_length=args.max_relator_length)


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


def cmd_build(args) -> int:
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
    _emit(args, _json({"presentation": text}) if args.format == "json" else text)
    return 0


def cmd_embed(args) -> int:
    data = _instance_dict(_build_instance(args))
    if args.format == "json":
        _emit(args, _json(data))
        return 0
    lines = [
        f"family: {data['family']}",
        f"ambient: {data['ambient']}",
        "hom: " + ", ".join(f"{name} -> {bits}" for name, bits in data["hom"].items()),
        "transversal generators: " + ", ".join(data["transversal_generators"]),
        f"expected kernel: {data['expected_kernel']}",
        "expected words: " + ", ".join(f"{name} = {w}" for name, w in data["expected_words"].items()),
    ]
    _emit(args, "\n".join(lines))
    return 0


def _kernel_section(inst: EmbeddingInstance, kp: KernelPresentation):
    data = {
        "mode": kp.mode,
        "presentation": serialize_presentation(kp.presentation),
        "generators": [
            {"name": name, "origin_t": t, "origin_x": x, "defining_word": word}
            for name, t, x, word in kp.table_rows(inst.ambient)
        ],
    }
    text_lines = [f"mode: {data['mode']}", f"presentation: {data['presentation']}", "generators:"]
    text_lines += [
        f"  {g['name']} = {g['defining_word']}  (t = {g['origin_t']}, x = {g['origin_x']})"
        for g in data["generators"]
    ]
    return text_lines, data


def cmd_kernel(args) -> int:
    inst = _build_instance(args)
    modes = ("evaluated", "raw") if args.mode == "both" else (args.mode,)
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    kernels = {"raw": raw}
    if "evaluated" in modes:
        kernels["evaluated"] = evaluated_kernel_presentation(inst, raw)
    sections = [_kernel_section(inst, kernels[mode]) for mode in modes]
    if args.format == "json":
        payload = sections[0][1] if len(sections) == 1 else [s[1] for s in sections]
        _emit(args, _json(payload))
        return 0
    lines: list[str] = []
    for k, (text_lines, _) in enumerate(sections):
        if k:
            lines.append("")
        lines.extend(text_lines)
    _emit(args, "\n".join(lines))
    return 0


def cmd_simplify(args) -> int:
    pres = _presentation_arg(args.presentation)
    simplified, trace = simplify(pres, SimplifyConfig(args.max_relator_length))
    if args.format == "json":
        _emit(
            args,
            _json(
                {
                    "presentation": serialize_presentation(simplified),
                    "trace": trace.to_dict(),
                }
            ),
        )
    else:
        _emit(args, serialize_presentation(simplified))
    return 0


def cmd_order(args) -> int:
    pres = _presentation_arg(args.presentation)
    order = group_order(pres, args.max_cosets)
    data = {"order": order}
    if order is None and certified_infinite(pres):
        data["infinite"] = True
        value = "infinite"
    else:
        value = "budget-exceeded" if order is None else str(order)
    _emit(args, _json(data) if args.format == "json" else value)
    return 0


def cmd_index(args) -> int:
    pres = _presentation_arg(args.presentation)
    sub = [parse_word(w, pres.gens) for w in args.word]
    table = todd_coxeter(pres, sub, args.max_cosets)
    index = table.num_cosets if table.complete else None
    value = "budget-exceeded" if index is None else str(index)
    _emit(args, _json({"index": index}) if args.format == "json" else value)
    return 0


def cmd_abelianization(args) -> int:
    pres = _presentation_arg(args.presentation)
    inv = abelianization(pres)
    if args.format == "json":
        _emit(args, _json({"free_rank": inv.free_rank, "torsion": list(inv.torsion)}))
    else:
        tors = ", ".join(str(d) for d in inv.torsion)
        _emit(args, f"free rank {inv.free_rank}, torsion ({tors})")
    return 0


def cmd_match(args) -> int:
    p = _presentation_arg(args.presentation)
    q = _presentation_arg(args.other)
    result = match_presentations(p, q)
    if args.format == "json":
        mapping = None
        if result is not None:
            mapping = [
                {"from": p.gens[g], "to": q.gens[idx], "sign": sign}
                for g, (idx, sign) in enumerate(result)
            ]
        _emit(args, _json({"matched": result is not None, "mapping": mapping}))
    elif result is None:
        _emit(args, "none")
    else:
        parts = [
            f"{p.gens[g]} -> {q.gens[idx]}" + ("" if sign == 1 else "^-1")
            for g, (idx, sign) in enumerate(result)
        ]
        _emit(args, ", ".join(parts))
    return 0 if result is not None else 1


def cmd_verify(args) -> int:
    inst = _build_instance(args)
    report = verify_instance(inst, _budgets(args))
    data = report.to_dict()
    if args.format == "json":
        _emit(args, _json(data))
    else:
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
        _emit(args, "\n".join(lines))
    return 0 if report.verdict == "pass" else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output to a file")


def _add_budget_flags(parser: argparse.ArgumentParser, cosets=True, tietze=True) -> None:
    if cosets:
        parser.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    if tietze:
        parser.add_argument("--max-relator-length", type=int, default=Budgets().max_relator_length)


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
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("embed", help="print an embedding instance")
    _add_family_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("kernel", help="kernel presentation of an instance")
    _add_family_flags(p)
    p.add_argument("--mode", choices=("evaluated", "raw", "both"), default="evaluated")
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("simplify", help="Tietze-simplify a presentation")
    p.add_argument("presentation", help="quoted presentation or @file")
    _add_budget_flags(p, cosets=False)
    _add_common(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("order", help="group order by coset enumeration")
    p.add_argument("presentation", help="quoted presentation or @file")
    _add_budget_flags(p, tietze=False)
    _add_common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("index", help="subgroup index by coset enumeration")
    p.add_argument("presentation", help="quoted presentation or @file")
    p.add_argument("word", nargs="+", help="subgroup generator words")
    _add_budget_flags(p, tietze=False)
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("abelianization", help="free rank and torsion invariants")
    p.add_argument("presentation", help="quoted presentation or @file")
    _add_common(p)
    p.set_defaults(func=cmd_abelianization)

    p = sub.add_parser("match", help="match two presentations up to relabeling")
    p.add_argument("presentation", help="quoted presentation or @file")
    p.add_argument("other", help="quoted presentation or @file")
    _add_common(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("verify", help="run all checks for an instance")
    _add_family_flags(p)
    _add_budget_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
