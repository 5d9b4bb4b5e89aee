"""Workload definitions: seeded op lists, instance preparation and checks.

An *op* is one user-level request.  ``draw(workload, seed)`` returns a
run's *pass*, the fixed list of ops that a run times (once or several
times over), as plain data without touching coxembed, so the same seed
always gives the same inputs.  ``prepare`` turns an op into coxembed
objects plus its reference answer (from ``reference``); the result's
``run`` performs the op and its ``check`` raises ``Mismatch`` when the
output disagrees.

A pass is a fixed number of cycles, and each cycle holds a fixed number of
ops per stratum, so every seed and every run puts the same mix of instance
shapes in front of the program, however fast it is; the seed picks the
labels, the vertex numbering and the order of the ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Dict, List, Sequence, Tuple

from reference import (
    INF,
    artin_verdict,
    canonical_key,
    coxeter_abelianization,
    coxeter_order,
    double_matrix,
    pc_abelianization,
    prop2_kernel_matrix,
)

WORKLOADS = ("verify-finite", "verify-infinite", "kernels", "cli")


class Mismatch(Exception):
    """An op's output disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    """One request.  ``m`` and ``p`` are the Coxeter matrix and orders of a
    family instance; ``partner`` is the (m, p) of the thm1 kernel that a
    ``kernels`` op matches against; ``argv`` is a CLI command line."""

    index: int
    family: str
    m: Tuple = ()
    p: Tuple = ()
    partner: Tuple = ()
    argv: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# instance pools


def _matrix(n: int, labels: Dict[Tuple[int, int], object], default=2) -> Tuple[Tuple, ...]:
    m = [[1 if i == j else default for j in range(n)] for i in range(n)]
    for (i, j), v in labels.items():
        m[i][j] = m[j][i] = v
    return tuple(tuple(row) for row in m)


def _pairs(n: int):
    return list(itertools.combinations(range(n), 2))


def _classes(candidates):
    """One representative per isomorphism class of (m, p), in a fixed order."""
    seen = {}
    for m, p in candidates:
        key = canonical_key(m, p)
        if key not in seen:
            seen[key] = (m, p)
    return [seen[k] for k in sorted(seen, key=repr)]


def _double_pool(family: str, ranks, labels, orders, finite: bool, max_order: int = 2000):
    """(m, p) classes of a thm1/prop2 family whose ambient is finite with
    order in [6, max_order], or infinite."""
    out = []
    for n in ranks:
        cands = []
        for labs in itertools.product(labels, repeat=len(_pairs(n))):
            m = _matrix(n, dict(zip(_pairs(n), labs)))
            for p in itertools.product(orders, repeat=n):
                order = coxeter_order(double_matrix(m, p))
                if finite and order is not None and 6 <= order <= max_order:
                    cands.append((m, p))
                elif not finite and order is None:
                    cands.append((m, p))
        out.append((f"{family}-r{n}", _classes(cands)))
    return out


@lru_cache(maxsize=None)
def pools(workload: str) -> Tuple[Tuple[str, str, Tuple], ...]:
    """Strata of a verify workload as (stratum, family, classes)."""
    if workload == "verify-finite":
        strata = [("thm1",) + s for s in _double_pool("thm1", (1, 2, 3), (2, 4, 6), (2, 3, 4, 5, 6), True)]
        strata += [("prop2",) + s for s in _double_pool("prop2", (1, 2), (2, 3, 4, 5, 6), (2, 4, 6), True)]
    elif workload == "verify-infinite":
        strata = [("thm1",) + s for s in _double_pool("thm1", (1, 2, 3), (2, 4, INF), (2, INF), False)]
        strata += [("prop2",) + s for s in _double_pool("prop2", (1, 2), (2, 3, 4, INF), (2, 4, INF), False)]
        strata.append(("klein", "klein", (((), ()),)))
        for n in (2, 3):
            cands = [(_matrix(n, dict(zip(_pairs(n), labs))), (INF,) * n)
                     for labs in itertools.product((2, 3, 4, INF), repeat=len(_pairs(n)))]
            strata.append(("artin", f"artin-r{n}", tuple(_classes(cands))))
    else:
        raise ValueError(workload)
    return tuple((fam, name, tuple(classes)) for fam, name, classes in strata)


# ---------------------------------------------------------------------------
# draws

# ops per cycle by stratum; a stratum's classes are dealt in a seeded
# shuffled order, reshuffled once all have been used
CYCLE = {
    "verify-finite": {"thm1-r1": 1, "thm1-r2": 3, "thm1-r3": 3, "prop2-r1": 1, "prop2-r2": 3},
    "verify-infinite": {"thm1-r1": 1, "thm1-r2": 2, "thm1-r3": 2, "prop2-r1": 1, "prop2-r2": 2,
                        "klein": 1, "artin-r2": 1, "artin-r3": 2},
}
# cycles per pass, sized so that at this commit on a shared 2-vCPU x86 VM a
# pass takes 4-6 s (verify-finite), 15-19 s (verify-infinite), 19-29 s
# (kernels) and 10-12 s (cli); a run times at least one whole pass
CYCLES = {"verify-finite": 10, "verify-infinite": 4, "kernels": 1, "cli": 3}

# kernels: spanning trees by rank; pairs off the tree are unrelated (inf)
TREES = {
    4: (((0, 1), (1, 2), (2, 3)), ((0, 1), (0, 2), (0, 3))),
    5: (((0, 1), (1, 2), (2, 3), (3, 4)), ((0, 1), (0, 2), (0, 3), (0, 4)),
        ((0, 1), (1, 2), (2, 3), (1, 4))),
}


def relabel(m, p, perm):
    """The same instance with vertex ``i`` renamed ``perm[i]``."""
    n = len(p)
    inv = [0] * n
    for i, j in enumerate(perm):
        inv[j] = i
    return (tuple(tuple(m[inv[i]][inv[j]] for j in range(n)) for i in range(n)),
            tuple(p[inv[i]] for i in range(n)))


def draw(workload: str, seed: int) -> List[Op]:
    """The pass of a run: its ops in order.  Pure data; same seed, same ops."""
    rng = random.Random(f"{workload}:{seed}")
    decks: Dict[str, list] = {}
    ops = []
    for _ in range(CYCLES[workload]):
        cycle = _DRAW[workload](rng, decks)
        rng.shuffle(cycle)
        ops += cycle
    return [replace(op, index=i) for i, op in enumerate(ops)]


def _verify_cycle(workload, rng, decks):
    ops = []
    for family, stratum, classes in pools(workload):
        for _ in range(CYCLE[workload][stratum]):
            if not decks.get(stratum):
                decks[stratum] = rng.sample(classes, len(classes))
            m, p = decks[stratum].pop()
            if family != "klein":
                m, p = relabel(m, p, rng.sample(range(len(p)), len(p)))
            ops.append(Op(0, family, m, p))
    return ops


# kernels: (tree edge labels, generator orders) per (family, rank), dealt
# over a seeded tree and vertex numbering
KERNEL_LABELS = {
    ("thm1", 4): ((4, 4, 4), (2, 2, 4, 4)),
    ("prop2", 4): ((3, 3, 4), (2, 2, 4, 4)),
    ("thm1", 5): ((4, 4, 4, 4), (2, 2, 2, 4, 4)),
    ("prop2", 5): ((3, 3, 4, 4), (2, 2, 2, 4, 4)),
}


def _kernel_instance(rng, family, n):
    labels, orders = KERNEL_LABELS[family, n]
    tree = rng.choice(TREES[n])
    m = _matrix(n, dict(zip(tree, rng.sample(labels, len(labels)))), default=INF)
    return m, tuple(rng.sample(orders, n))


def _partner(rng, m, p):
    """A thm1 instance with the same label and order multisets, hence the
    same kernel relator lengths, but a different canonical key."""
    n = len(p)
    labels = sorted(m[i][j] for i, j in _pairs(n) if m[i][j] != INF)
    while True:
        tree = rng.choice(TREES[n])
        shuffled = rng.sample(labels, len(labels))
        m2 = _matrix(n, dict(zip(tree, shuffled)), default=INF)
        p2 = tuple(rng.sample(p, n))
        if canonical_key(m2, p2) != canonical_key(m, p):
            return m2, p2


# kernels: ops per cycle by (family, rank)
KERNEL_CYCLE = {("thm1", 4): 14, ("prop2", 4): 7, ("thm1", 5): 1, ("prop2", 5): 1}


def _kernels_cycle(rng, decks):
    ops = []
    for (family, n), count in KERNEL_CYCLE.items():
        for _ in range(count):
            m, p = _kernel_instance(rng, family, n)
            partner = ()
            if family == "thm1":
                m2, p2 = _partner(rng, m, p)
                partner = relabel(m2, p2, rng.sample(range(n), n))
            m, p = relabel(m, p, rng.sample(range(n), n))
            ops.append(Op(0, family, m, p, partner))
    return ops


def _cli_cycle(rng, decks):
    return [Op(0, "cli", argv=argv) for argv in cli_commands(rng)]


# ---------------------------------------------------------------------------
# CLI commands and their references

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = "scripts/fixtures"
DIHEDRAL = "< s1,s2 | s1^2, s2^2, (s1 s2)^{k} >"
KLEIN_KERNEL = (
    "mode: evaluated\n"
    "presentation: < a, b | a b^-1 a^-1 b^-1 >\n"
    "generators:\n"
    "  a = s1 r1 r2  (t = 1, x = s1)\n"
    "  b = s2 r2  (t = 1, x = s2)\n"
)


def read_matrix(path: str) -> Tuple[Tuple, ...]:
    """A fixture matrix file, relative to the repository root:
    comma-separated rows, ``inf`` allowed."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines() if line.strip()]
    return tuple(tuple(INF if v.strip() == "inf" else int(v) for v in row.split(",")) for row in rows)


def _vec(p) -> str:
    return ",".join("inf" if v == INF else str(v) for v in p)


def _fixture_orders(name: str, family: str, choices, finite: bool):
    m = read_matrix(f"{FIXTURES}/{name}")
    out = []
    for p in itertools.product(choices, repeat=len(m)):
        if (family == "thm1" or all(v == INF or v % 2 == 0 for v in p)) and \
                (coxeter_order(double_matrix(m, p)) is not None) == finite:
            out.append(p)
    return out


def cli_commands(rng) -> List[Tuple[str, ...]]:
    """One cycle: the README examples plus ``verify`` on every fixture."""
    k = rng.randint(2, 12)
    f = FIXTURES
    return [
        ("order", DIHEDRAL.format(k=k)),
        ("verify", "thm1", "--m", f"{f}/m2x2_4.txt", "--p", "2,2", "--format", "json"),
        ("verify", "thm1", "--m", f"{f}/m2x2_4.txt", "--p",
         _vec(rng.choice(_fixture_orders("m2x2_4.txt", "thm1", (2, 3, 4), True)))),
        ("kernel", "klein", "--mode", "evaluated"),
        ("build", "coxeter", "--m", f"{f}/m2x2_3.txt"),
        ("embed", "prop2", "--m", f"{f}/m2x2_3.txt", "--p", "4,4"),
        ("kernel", "thm1", "--m", f"{f}/m2x2_4.txt", "--p", "2,2", "--mode", "both"),
        ("simplify", "< a, b | b a^-1 >"),
        ("index", DIHEDRAL.format(k=rng.randint(2, 12)), "s1 s2"),
        ("abelianization", "< a, b | a^-1 b a b >"),
        ("match", "< a, b | a^2, b^3 >", "< x, y | y^2, x^3 >"),
        ("verify", "prop2", "--m", f"{f}/m2x2_3.txt", "--p",
         _vec(rng.choice(_fixture_orders("m2x2_3.txt", "prop2", (2, 4, INF), False)))),
        ("verify", "thm1", "--m", f"{f}/m3x3_right_angled.txt", "--p",
         _vec(rng.choice(_fixture_orders("m3x3_right_angled.txt", "thm1", (2, INF), False)))),
        ("verify", "thm1", "--m", f"{f}/n3x3_raag.txt"),
    ]


def _parse_vec(text: str):
    return tuple(INF if v == "inf" else int(v) for v in text.split(","))


def _coxeter_text(m) -> str:
    """``coxeter_presentation`` output for a matrix, serialized by hand."""
    n = len(m)
    gens = [f"s{i + 1}" for i in range(n)]
    rels = [f"{g}^2" for g in gens]
    for i, j in _pairs(n):
        if m[i][j] != INF:
            rels.append(" ".join([gens[i], gens[j]] * m[i][j]))
    return f"< {', '.join(gens)} | {', '.join(rels)} >\n"


def cli_check(argv: Sequence[str], code: int, out: str, err: str) -> None:
    """Compare one command's exit code and output with the README."""
    def expect(cond, what):
        if not cond:
            raise Mismatch(f"{' '.join(argv)}: {what}; exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}")

    cmd = argv[0]
    if cmd == "verify" and argv[1] == "thm1" and argv[3].endswith("n3x3_raag.txt"):
        expect(code == 2 and err.startswith("error:"), "expected a usage error")
        return
    expect(code == 0, "exit code")
    if cmd == "order":
        k = int(re.search(r"\^(\d+) >$", argv[1]).group(1))
        expect(out == f"{2 * k}\n", f"order {2 * k}")
    elif cmd == "index":
        expect(out == "2\n", "index 2")
    elif cmd == "kernel" and argv[1] == "klein":
        expect(out == KLEIN_KERNEL, "README klein kernel")
    elif cmd == "kernel":
        sections = out.split("\n\n")
        expect(len(sections) == 2 and sections[0].startswith("mode: evaluated")
               and sections[1].startswith("mode: raw"), "two sections")
        n = len(read_matrix(argv[3]))
        schreier = 2**n * 2 * n - (2**n - 1)
        gens = [sum(1 for line in s.splitlines() if line.startswith("  ")) for s in sections]
        expect(gens == [n, schreier], f"{n} evaluated and {schreier} raw generators")
    elif cmd == "build":
        expect(out == _coxeter_text(read_matrix(argv[3])), "Coxeter presentation")
    elif cmd == "embed":
        lines = out.splitlines()
        expect(lines[0] == "family: prop2"
               and any(line.startswith("expected kernel: < s1, s2, t1, t2 |") for line in lines),
               "prop2 instance")
    elif cmd == "simplify":
        expect(re.fullmatch(r"< [A-Za-z]\w* \| >\n", out) is not None, "free group of rank 1")
    elif cmd == "abelianization":
        expect(out == "free rank 1, torsion (2)\n", "Z + Z_2")
    elif cmd == "match":
        expect(out == "a -> y, b -> x\n", "a -> y, b -> x")
    elif cmd == "verify":
        m = read_matrix(argv[3])
        p = _parse_vec(argv[5])
        order = coxeter_order(double_matrix(m, p))
        if "--format" in argv:
            data = json.loads(out)
            fin = data["finite"]
            expect(data["verdict"] == "pass" and fin != "skipped" and fin["ambient_order"] == order
                   and fin["index"] == 2 ** len(p), f"pass with ambient order {order}")
        else:
            lines = set(out.splitlines())
            finite = {"finite: skipped"} if order is None else {
                f"finite.ambient_order: {order}", f"finite.index: {2 ** len(p)}"}
            expect("verdict: pass" in lines and finite <= lines, f"pass with ambient order {order}")
    else:
        raise Mismatch(f"no reference for {argv}")


_DRAW: Dict[str, Callable] = {
    "verify-finite": partial(_verify_cycle, "verify-finite"),
    "verify-infinite": partial(_verify_cycle, "verify-infinite"),
    "kernels": _kernels_cycle,
    "cli": _cli_cycle,
}


# ---------------------------------------------------------------------------
# preparation: coxembed objects, reference answers and checks


@dataclass
class Prepared:
    """``run`` performs the op; ``check`` raises ``Mismatch`` on a wrong
    output and otherwise returns a digest of it."""

    op: Op
    run: Callable[[], object]
    check: Callable[[object], str]


def _matrix_text(m) -> str:
    return "".join(_vec(row) + "\n" for row in m)


def _instance(cx, op: Op):
    """Build the instance from text, as the CLI does from a matrix file."""
    P = cx["coxembed.presentations"]
    if op.family == "klein":
        return P.build_klein_instance()
    matrix = P.CoxeterMatrix.from_rows(P.parse_matrix_text(_matrix_text(op.m)))
    if op.family == "artin":
        return P.build_artin_instance(matrix)
    build = P.build_thm1_instance if op.family == "thm1" else P.build_prop2_instance
    return build(matrix, P.parse_vector_text(_vec(op.p)))


def _prepare_verify(cx, op: Op) -> Prepared:
    V = cx["coxembed.verify"]
    inst = _instance(cx, op)
    n = inst.hom.n
    if op.family == "klein":
        verdict, order = "pass", None
    elif op.family == "artin":
        verdict, order = artin_verdict(op.m), None
    else:
        verdict, order = "pass", coxeter_order(double_matrix(op.m, op.p))

    def check(report) -> str:
        if report.verdict != verdict:
            raise Mismatch(f"verdict {report.verdict}, expected {verdict}")
        fin = report.finite
        if order is None:
            if fin is not None:
                raise Mismatch(f"finite checks ran on an infinite ambient: {fin}")
        elif fin is None or (fin["ambient_order"], fin["index"], fin["kernel_order"]) != (order, 2**n, order >> n):
            raise Mismatch(f"finite section {fin}, expected ambient order {order} and index {2**n}")
        return json.dumps(report.to_dict(), sort_keys=True)

    return Prepared(op, lambda: V.verify_instance(inst), check)


def _prepare_kernel(cx, op: Op) -> Prepared:
    S, T, V = cx["coxembed.schreier"], cx["coxembed.tietze"], cx["coxembed.verify"]
    inst = _instance(cx, op)
    n = len(op.p)
    schreier = 2**n * 2 * n - (2**n - 1)
    if op.family == "thm1":
        ab = pc_abelianization(op.p)
    else:
        ab = coxeter_abelianization(prop2_kernel_matrix(op.m, op.p))
    partner = _instance(cx, Op(op.index, "thm1", *op.partner)).expected_kernel if op.partner else None
    same = bool(op.partner) and canonical_key(op.m, op.p) == canonical_key(*op.partner)

    def run():
        ev = S.evaluated_kernel_presentation(inst)
        raw = S.raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        simplified, trace = T.simplify(raw.presentation)
        inv = V.abelianization(simplified)
        ev_ok = V.evaluated_matches_expected(ev.presentation, inst.expected_kernel)
        match = V.match_presentations(inst.expected_kernel, partner) if partner is not None else None
        return ev, raw, simplified, trace, inv, ev_ok, match

    def check(out) -> str:
        ev, raw, simplified, trace, inv, ev_ok, match = out
        if not ev_ok:
            raise Mismatch("evaluated kernel does not match the expected kernel")
        if raw.presentation.rank != schreier:
            raise Mismatch(f"{raw.presentation.rank} raw symbols, expected {schreier}")
        if (inv.free_rank, inv.torsion) != ab:
            raise Mismatch(f"abelianization {inv}, expected free rank {ab[0]} and torsion {ab[1]}")
        if partner is not None and (match is not None) != same:
            raise Mismatch(f"match {match}, expected {'a match' if same else 'none'}")
        digest = repr((str(ev.presentation), str(simplified), trace.bounded, inv, match))
        return hashlib.sha256(digest.encode()).hexdigest()

    return Prepared(op, run, check)


def _prepare_cli(cx, op: Op, in_process: bool) -> Prepared:
    argv = list(op.argv)
    if in_process:
        C = cx["coxembed.cli"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = C.main(argv)
            return code, out.getvalue(), err.getvalue()
    else:
        src = os.path.join(ROOT, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, "-m", "coxembed", *argv]

        def run():
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

    def check(result) -> str:
        cli_check(argv, *result)
        return repr(result[:2])

    return Prepared(op, run, check)


def prepare(workload: str, cx, op: Op, in_process: bool = False) -> Prepared:
    """The op with its reference; ``in_process`` runs CLI ops through
    ``coxembed.cli.main`` instead of a child process."""
    if workload == "cli":
        return _prepare_cli(cx, op, in_process)
    if workload == "kernels":
        return _prepare_kernel(cx, op)
    return _prepare_verify(cx, op)


WARM_UP = {
    "verify-finite": Op(-1, "thm1", ((1,),), (3,)),
    "verify-infinite": Op(-1, "thm1", ((1,),), (3,)),
    "kernels": Op(-1, "prop2", ((1, 3), (3, 1)), (2, 2)),
    "cli": Op(-1, "cli", argv=("order", DIHEDRAL.format(k=3))),
}
