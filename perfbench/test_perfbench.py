"""Benchmark-local tests.

The reference oracles are checked against coxembed-free computations
(permutation and reflection group closures, minor-gcd Smith diagonals,
brute-force cyclic-word matching), and the benchmark is checked to be
deterministic: same seed, same ops; same ops, same counters, traced or
not.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import math
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import INF  # noqa: E402
from tracing import Tracer, mappings_tried  # noqa: E402


# ---------------------------------------------------------------------------
# coxembed-free helpers


def closure(gens, cap=20000):
    """Size of the group generated by ``gens``, or None once it exceeds
    ``cap``.  Elements provide ``mul`` and a hashable ``key``."""
    seen = {g.key(): g for g in gens}
    frontier = list(gens)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                x = g.mul(h)
                k = x.key()
                if k not in seen:
                    seen[k] = x
                    new.append(x)
                    if len(seen) > cap:
                        return None
        frontier = new
    return len(seen)


class Perm(tuple):
    def mul(self, other):
        return Perm(other[i] for i in self)

    def key(self):
        return self


class Mat(tuple):
    """Square real matrix; products use the exact floats, so rounding
    errors do not build up, and elements are told apart after rounding."""

    def mul(self, other):
        n = len(self)
        return Mat(tuple(sum(self[i][k] * other[k][j] for k in range(n)) for j in range(n)) for i in range(n))

    def key(self):
        return tuple(round(v, 6) + 0.0 for row in self for v in row)


def reflections(m):
    """Geometric representation: sigma_i(v) = v - 2 B(e_i, v) e_i with
    B(e_i, e_j) = -cos(pi / m_ij)."""
    n = len(m)

    def b(i, j):
        if i == j:
            return 1.0
        return -1.0 if m[i][j] == INF else -math.cos(math.pi / m[i][j])

    return [Mat(tuple((1.0 if r == c else 0.0) - (2 * b(i, c) if r == i else 0.0) for c in range(n))
                for r in range(n)) for i in range(n)]


def matrix(n, labels, default=2):
    m = [[1 if i == j else default for j in range(n)] for i in range(n)]
    for (i, j), v in labels.items():
        m[i][j] = m[j][i] = v
    return m


def path(labels):
    return matrix(len(labels) + 1, {(i, i + 1): lab for i, lab in enumerate(labels)})


def swap_perm(npoints, pairs):
    p = list(range(npoints))
    for a, b in pairs:
        p[a], p[b] = p[b], p[a]
    return Perm(p)


def minor_gcd_invariants(rows, ncols):
    """(free rank, torsion) of Z^ncols / rowspace via d_i = D_i / D_{i-1},
    D_i the gcd of the i x i minors."""
    def det(a):
        if len(a) == 1:
            return a[0][0]
        return sum((-1) ** j * a[0][j] * det([r[:j] + r[j + 1:] for r in a[1:]]) for j in range(len(a)))

    diag, prev = [], 1
    for size in range(1, min(len(rows), ncols) + 1):
        g = 0
        for rs in itertools.combinations(range(len(rows)), size):
            for cs in itertools.combinations(range(ncols), size):
                g = math.gcd(g, det([[rows[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return ncols - len(diag), tuple(d for d in diag if d > 1)


def orbit(w):
    inv = tuple(-x for x in reversed(w))
    return {v[i:] + v[:i] for v in (w, inv) for i in range(len(v))}


def cyclic_class(w):
    return min(orbit(w))


def pc_relators(m, p):
    """Relators of the thm1 expected kernel: [a_i, a_j]^(m_ij / 2) and a_i^p_i."""
    n = len(p)
    rels = []
    for i, j in itertools.combinations(range(n), 2):
        if m[i][j] != INF:
            rels.append((i + 1, j + 1, -(i + 1), -(j + 1)) * (m[i][j] // 2))
    rels += [(i + 1,) * p[i] for i in range(n) if p[i] != INF]
    return rels


def brute_match(rels_a, rels_b, n):
    target = sorted(cyclic_class(r) for r in rels_b)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            image = [tuple((perm[abs(x) - 1] + 1) * signs[abs(x) - 1] * (1 if x > 0 else -1) for x in r)
                     for r in rels_a]
            if sorted(cyclic_class(r) for r in image) == target:
                return True
    return False


# ---------------------------------------------------------------------------
# closed-form Coxeter orders


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type_a_against_symmetric_group(n):
    gens = [swap_perm(n + 1, [(i, i + 1)]) for i in range(n)]
    assert ref.coxeter_order(path([3] * (n - 1)) if n > 1 else [[1]]) == closure(gens) == math.factorial(n + 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type_b_against_signed_permutations(n):
    # points 0..n-1 and their negatives n..2n-1
    gens = [swap_perm(2 * n, [(i, i + 1), (n + i, n + i + 1)]) for i in range(n - 1)]
    gens.append(swap_perm(2 * n, [(n - 1, 2 * n - 1)]))
    assert ref.coxeter_order(path([3] * (n - 2) + [4])) == closure(gens) == 2**n * math.factorial(n)


@pytest.mark.parametrize("n", [4, 5])
def test_type_d_against_even_signed_permutations(n):
    gens = [swap_perm(2 * n, [(i, i + 1), (n + i, n + i + 1)]) for i in range(n - 1)]
    gens.append(swap_perm(2 * n, [(n - 2, 2 * n - 1), (n - 1, 2 * n - 2)]))
    labels = {(i, i + 1): 3 for i in range(n - 2)}
    labels[(n - 3, n - 1)] = 3
    assert ref.coxeter_order(matrix(n, labels)) == closure(gens) == 2 ** (n - 1) * math.factorial(n)


@pytest.mark.parametrize("m,order", [
    (path([3, 4, 3]), 1152),                 # F4
    (path([5, 3]), 120),                     # H3
    (path([5, 3, 3]), 14400),                # H4
    (path([4, 3]), 48),                      # B3, reversed
    (matrix(3, {(0, 1): 5}), 20),            # I2(5) x A1
    (matrix(4, {(0, 1): 3, (2, 3): 4}), 48),  # A2 x B2
])
def test_exceptional_and_product_orders_against_reflection_closure(m, order):
    assert ref.coxeter_order(m) == closure(reflections(m)) == order


@pytest.mark.parametrize("k", range(2, 9))
def test_dihedral_orders(k):
    assert ref.coxeter_order(matrix(2, {(0, 1): k})) == closure(reflections(matrix(2, {(0, 1): k}))) == 2 * k


def test_rank_three_classification_against_reflection_closure():
    for labs in itertools.combinations_with_replacement((2, 3, 4, 5, 6, INF), 3):
        m = matrix(3, dict(zip([(0, 1), (0, 2), (1, 2)], labs)))
        # every finite rank-3 Coxeter group has at most 120 elements
        assert ref.coxeter_order(m) == closure(reflections(m), cap=1000), labs


def test_infinite_types_are_rejected():
    for m in (path([4, 4]), path([3, 6]), matrix(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}),
              matrix(2, {(0, 1): INF}), path([3, 3, 3, 3, 4, 3])):
        assert ref.coxeter_order(m) is None


def test_finite_pool_orders_against_reflection_closure():
    rng = random.Random(5)
    for family, stratum, classes in workloads.pools("verify-finite"):
        for m, p in rng.sample(classes, min(3, len(classes))):
            dm = ref.double_matrix(m, p)
            assert ref.coxeter_order(dm) == closure(reflections(dm)), (stratum, m, p)


# ---------------------------------------------------------------------------
# abelianizations, artin verdicts, match keys


def test_pc_abelianization_against_minor_gcd():
    for p in itertools.product((2, 3, 4, 6, INF), repeat=3):
        m = matrix(3, {(0, 1): 4, (1, 2): 2}, default=INF)
        rows = []
        for r in pc_relators(m, p):
            row = [0] * 3
            for x in r:
                row[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(row)
        assert ref.pc_abelianization(p) == minor_gcd_invariants(rows, 3), p


def test_coxeter_abelianization_against_minor_gcd():
    for labs in itertools.product((2, 3, 4, INF), repeat=1):
        for p in itertools.product((2, 4, 6, INF), repeat=2):
            m = matrix(2, {(0, 1): labs[0]})
            km = ref.prop2_kernel_matrix(m, p)
            rows = [[2 if k == i else 0 for k in range(4)] for i in range(4)]
            for i, j in itertools.combinations(range(4), 2):
                if km[i][j] != INF:
                    rows.append([km[i][j] if k in (i, j) else 0 for k in range(4)])
            assert ref.coxeter_abelianization(km) == minor_gcd_invariants(rows, 4), (labs, p)


def braid(i, j, k):
    alt = lambda a, b: tuple(a if t % 2 == 0 else b for t in range(k))
    return alt(i, j) + tuple(-x for x in reversed(alt(j, i)))


@pytest.mark.parametrize("k", range(2, 9))
def test_artin_rule_sign_flipped_braid_class(k):
    """Inverting a_1 leaves the braid relator's cyclic class unchanged
    exactly at label 2, which is what the verdict rule encodes."""
    flipped = tuple(-x if abs(x) == 1 else x for x in braid(1, 2, k))
    same_class = cyclic_class(flipped) == cyclic_class(braid(1, 2, k))
    assert same_class == (k == 2)
    assert ref.artin_verdict(matrix(2, {(0, 1): k})) == ("pass" if same_class else "fail")
    assert ref.artin_verdict(matrix(2, {(0, 1): INF})) == "pass"


def test_canonical_key_against_brute_force_match():
    rng = random.Random(11)
    insts = [(matrix(3, dict(zip([(0, 1), (0, 2), (1, 2)], labs)), default=INF), p)
             for labs in itertools.product((2, 4, INF), repeat=3)
             for p in itertools.product((2, 3), repeat=3)]
    pairs = [tuple(rng.sample(insts, 2)) for _ in range(150)]
    for m, p in rng.sample(insts, 30):
        m2, p2 = workloads.relabel(m, p, rng.sample(range(3), 3))
        pairs.append(((m, p), (m2, p2)))
    for (m, p), (m2, p2) in pairs:
        same = ref.canonical_key(m, p) == ref.canonical_key(m2, p2)
        assert same == brute_match(pc_relators(m, p), pc_relators(m2, p2), 3)


def test_mappings_tried_is_the_search_position():
    cx = run.import_fresh("kernels")
    P, V = cx["coxembed.presentations"], cx["coxembed.verify"]
    rng = random.Random(3)
    def draw(n):
        m = matrix(n, {e: rng.choice((2, 4, INF)) for e in itertools.combinations(range(n), 2)}, default=INF)
        return m, tuple(rng.choice((2, 3)) for _ in range(n))

    def kernel(m, p):
        return P.build_thm1_instance(P.CoxeterMatrix.from_rows(m), p).expected_kernel

    for k in range(40):
        n = rng.choice((2, 3))
        m, p = draw(n)
        # half the partners are relabeled copies, so both outcomes occur
        m2, p2 = workloads.relabel(m, p, rng.sample(range(n), n)) if k % 2 else draw(n)
        a, b = kernel(m, p), kernel(m2, p2)
        result = V.match_presentations(a, b)
        order = [tuple(zip(perm, signs)) for perm in itertools.permutations(range(n))
                 for signs in itertools.product((1, -1), repeat=n)]
        expected = len(order) if result is None else order.index(result) + 1
        if sorted(map(len, a.relators)) != sorted(map(len, b.relators)):
            expected = 0
        assert mappings_tried(a, b, result) == expected


# ---------------------------------------------------------------------------
# determinism and failure handling


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert workloads.draw(workload, 7) == workloads.draw(workload, 7)
    assert workloads.draw(workload, 7) != workloads.draw(workload, 8)


def shape(op):
    if op.family == "cli":
        return (op.argv[0],) + tuple(a for a in op.argv if a.startswith(workloads.FIXTURES))
    return op.family, len(op.p)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_times_the_same_mix(workload):
    mixes = [Counter(map(shape, workloads.draw(workload, seed))) for seed in (1, 2, 97)]
    assert mixes[0] == mixes[1] == mixes[2]


def test_a_faster_program_times_the_same_ops_more_often():
    ok = workloads.Prepared(workloads.Op(0, "thm1"), lambda: 1, lambda out: "d")
    loop = run.Loop("kernels")
    loop.run([ok] * 5, seconds=0.05)
    assert len(loop.passes) > 1
    assert loop.attempted == 5 * len(loop.passes)
    assert len(loop.op_latencies()) == 5


def sample_ops(workload):
    """A cheap, fixed slice of a run's ops."""
    ops = workloads.draw(workload, 1)
    if workload == "kernels":
        return [next(op for op in ops if (op.family, len(op.p)) == (family, 4)) for family in ("thm1", "prop2")]
    return ops[:{"verify-finite": 11, "verify-infinite": 3, "cli": 14}[workload]]


def run_ops(workload, ops, tracer=None):
    cx = run.import_fresh(workload)
    if tracer is not None:
        tracer.install(cx)
    items = [workloads.prepare(workload, cx, op, in_process=True) for op in ops]
    loop = run.Loop(workload)
    loop.run_pass(items, tracer)
    if tracer is not None:
        tracer.uninstall()
    assert loop.failures == []
    return loop.digests


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_traced_and_untraced(workload, monkeypatch):
    monkeypatch.chdir(ROOT)  # CLI ops name fixture files relative to the root
    ops = sample_ops(workload)
    first, second = Tracer(), Tracer()
    digests = run_ops(workload, ops, first)
    assert run_ops(workload, ops, second) == digests
    assert run_ops(workload, ops) == digests
    counts = first.deterministic_counters()
    assert counts == second.deterministic_counters()
    assert counts["words.relator_nf.calls"] > 0
    expected = {
        "verify-finite": "verify.todd_coxeter.complete.cosets_defined",
        "verify-infinite": "verify.todd_coxeter.exhausted.cosets_defined",
        "kernels": "verify.match.mappings_tried",
        "cli": "tietze.simplify.eliminations",
    }[workload]
    assert counts[expected] > 0
    assert all(span is not None for span in first.spans)


def test_times_are_scaled_by_the_calibration_loop(monkeypatch):
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.REFERENCE_S)  # a host at half speed
    ok = workloads.Prepared(workloads.Op(0, "thm1"), lambda: sum(range(20000)), lambda out: "d")
    loop = run.Loop("kernels")
    loop.run_pass([ok] * 3)
    assert loop.op_latencies() == pytest.approx([t / 2 for t in loop.op_latencies(scaled=False)])


def test_failed_op_is_recorded_and_the_run_continues():
    def boom():
        raise RuntimeError("boom")

    def wrong(out):
        raise workloads.Mismatch("wrong")

    ok = workloads.Prepared(workloads.Op(0, "thm1"), lambda: 1, lambda out: "d")
    items = [ok, workloads.Prepared(workloads.Op(1, "thm1"), boom, ok.check),
             workloads.Prepared(workloads.Op(2, "thm1"), lambda: 2, wrong), ok]
    loop = run.Loop("kernels")
    loop.run_pass(items)
    loop.run_pass(items)
    assert loop.attempted == len(loop.op_latencies()) * 2 == 8
    assert [(f["workload"], f["op"]) for f in loop.failures] == [("kernels", 1), ("kernels", 2)] * 2
    assert "RuntimeError: boom" in loop.failures[0]["error"]
    assert "Mismatch: wrong" in loop.failures[1]["error"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
