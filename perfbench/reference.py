"""Reference oracles for the benchmark, independent of coxembed.

Nothing here imports coxembed.  The answers come from closed forms:

* finite Coxeter group orders by classifying the connected components of
  the Coxeter graph (Humphreys, *Reflection Groups and Coxeter Groups*,
  ch. 2), with ``None`` for an infinite group;
* the ambient Coxeter matrix of the thm1 and prop2 doubles;
* abelianizations of the expected kernels (power-commutator groups and
  Coxeter groups);
* the verdict rule for the ``artin`` family;
* the canonical key deciding whether two thm1 expected kernels match up
  to generator permutation and inversion.

Labels are ints, with ``INF`` for an absent relation.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

INF = math.inf

# orders of the exceptional spherical types, keyed by name
_EXCEPTIONAL = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "H3": 120, "H4": 14400}


def _component_order(nodes: Sequence[int], m) -> Optional[int]:
    """Order of the irreducible Coxeter group on ``nodes``, or None."""
    k = len(nodes)
    if k == 1:
        return 2
    edges = [(a, b, m[a][b]) for a, b in itertools.combinations(nodes, 2) if m[a][b] >= 3]
    if any(lab == INF for _, _, lab in edges):
        return None
    if k == 2:
        return 2 * edges[0][2]
    if len(edges) != k - 1:
        return None  # a cycle
    degree = {v: 0 for v in nodes}
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    if max(degree.values()) > 3:
        return None
    branches = [v for v in nodes if degree[v] == 3]
    labels = sorted(lab for _, _, lab in edges)
    if branches:
        if len(branches) > 1 or labels[-1] != 3:
            return None
        arms = sorted(_arm_lengths(branches[0], edges))
        if arms[0] == 1 and arms[1] == 1:
            return 2 ** (k - 1) * math.factorial(k)  # D_k
        name = {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}.get(tuple(arms))
        return _EXCEPTIONAL[name] if name else None
    path = _path_labels(nodes, edges, degree)
    if all(lab == 3 for lab in path):
        return math.factorial(k + 1)  # A_k
    special = [i for i, lab in enumerate(path) if lab != 3]
    if len(special) != 1:
        return None
    i, lab = special[0], path[special[0]]
    at_end = i in (0, len(path) - 1)
    if lab == 4 and at_end:
        return 2**k * math.factorial(k)  # B_k
    if lab == 4 and k == 4:
        return _EXCEPTIONAL["F4"]
    if lab == 5 and at_end and k in (3, 4):
        return _EXCEPTIONAL[f"H{k}"]
    return None


def _arm_lengths(center: int, edges) -> List[int]:
    adj: Dict[int, List[int]] = {}
    for a, b, _ in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    arms = []
    for start in adj[center]:
        prev, cur, length = center, start, 1
        while len(adj[cur]) == 2:
            prev, cur = cur, next(v for v in adj[cur] if v != prev)
            length += 1
        arms.append(length)
    return arms


def _path_labels(nodes, edges, degree) -> List[int]:
    adj: Dict[int, List[Tuple[int, int]]] = {}
    for a, b, lab in edges:
        adj.setdefault(a, []).append((b, lab))
        adj.setdefault(b, []).append((a, lab))
    prev, cur = None, next(v for v in nodes if degree[v] == 1)
    labels = []
    while True:
        step = [(v, lab) for v, lab in adj[cur] if v != prev]
        if not step:
            return labels
        prev, (cur, lab) = cur, step[0]
        labels.append(lab)


def coxeter_order(m: Sequence[Sequence]) -> Optional[int]:
    """Order of the Coxeter group with matrix ``m``, or None if infinite.

    The matrix is symmetric with labels ``>= 2`` or ``INF`` off the
    diagonal; the diagonal is ignored.  The group is the direct product of
    the groups of the connected components of the graph whose edges are
    the labels ``>= 3``.
    """
    n = len(m)
    seen = set()
    order = 1
    for root in range(n):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if w != v and w not in seen and m[v][w] >= 3:
                    seen.add(w)
                    stack.append(w)
        part = _component_order(sorted(comp), m)
        if part is None:
            return None
        order *= part
    return order


def double_matrix(m: Sequence[Sequence], orders: Sequence) -> Tuple[Tuple, ...]:
    """Coxeter matrix of the rank-2n thm1/prop2 ambient on ``r_1..r_n,
    s_1..s_n``: ``r``-``r`` and ``r_i``-``s_j`` (i != j) commute,
    ``s_i``-``s_j`` has label ``m_ij`` and ``s_i``-``r_i`` has ``p_i``."""
    n = len(m)
    out = [[2] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        out[i][i] = 1
    for i in range(n):
        for j in range(n):
            if i != j:
                out[n + i][n + j] = m[i][j]
        out[i][n + i] = out[n + i][i] = orders[i]
    return tuple(tuple(row) for row in out)


# ---------------------------------------------------------------------------
# abelianizations of expected kernels, as (free rank, torsion chain)


def _chain(torsion: Sequence[int]) -> Tuple[int, ...]:
    """Invariant-factor chain of a direct sum of cyclic groups Z_d."""
    primes: Dict[int, List[int]] = {}
    for d in torsion:
        p = 2
        while d > 1:
            e = 1
            while d % p == 0:
                d //= p
                e *= p
            if e > 1:
                primes.setdefault(p, []).append(e)
            p += 1
    width = max((len(v) for v in primes.values()), default=0)
    factors = [1] * width
    for powers in primes.values():
        for k, e in enumerate(sorted(powers, reverse=True)):
            factors[width - 1 - k] *= e
    return tuple(factors)


def pc_abelianization(orders: Sequence) -> Tuple[int, Tuple[int, ...]]:
    """Abelianization of the thm1 kernel: commutator relators vanish, so it
    is the direct sum of Z_{p_i}, with Z for an infinite order."""
    free = sum(1 for p in orders if p == INF)
    return free, _chain([p for p in orders if p != INF and p > 1])


def prop2_kernel_matrix(m: Sequence[Sequence], orders: Sequence) -> Tuple[Tuple, ...]:
    """Coxeter matrix of the prop2 kernel on ``s_1..s_n, t_1..t_n``:
    ``s_i``-``t_i`` has label ``p_i / 2`` and every other pair ``i != j``
    carries ``m_ij``."""
    n = len(m)
    out = [[1] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                for a, b in ((i, j), (i, n + j), (n + i, j), (n + i, n + j)):
                    out[a][b] = m[i][j]
        half = orders[i] if orders[i] == INF else orders[i] // 2
        out[i][n + i] = out[n + i][i] = half
    return tuple(tuple(row) for row in out)


def coxeter_abelianization(m: Sequence[Sequence]) -> Tuple[int, Tuple[int, ...]]:
    """Abelianization of a Coxeter group: Z_2 per class of generators joined
    by odd labels, since ``(st)^k`` with k odd forces s = t."""
    n = len(m)
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in itertools.combinations(range(n), 2):
        lab = m[i][j]
        if lab != INF and lab % 2 == 1:
            parent[find(j)] = find(i)
    # a label of 1 (p_i = 2 in prop2) identifies the two generators too
    classes = len({find(v) for v in range(n)})
    return 0, (2,) * classes


# ---------------------------------------------------------------------------
# verdict rule and match key


def artin_verdict(m: Sequence[Sequence]) -> str:
    """``pass`` when every label is 2 or inf, else ``fail``.

    Conjugating the braid relator of a label ``k`` by a transversal word
    containing ``r_i`` inverts ``a_i``; for ``k >= 3`` the result is a
    second relator class, so the kernel is a proper quotient of the Artin
    group and verification fails (README, "Known behavior: artin")."""
    n = len(m)
    labels = [m[i][j] for i, j in itertools.combinations(range(n), 2)]
    return "pass" if all(lab in (2, INF) for lab in labels) else "fail"


def canonical_key(m: Sequence[Sequence], orders: Sequence) -> Tuple:
    """Least relabeling of (labels, orders) over all vertex permutations.

    Two thm1 expected kernels match up to generator permutation and
    inversion exactly when their keys are equal: commutator and power
    relators keep their cyclic class under inverting a generator, so only
    the permutation matters."""
    n = len(m)

    def code(v):
        return (1, 0) if v == INF else (0, v)

    best = None
    for perm in itertools.permutations(range(n)):
        key = (
            tuple(code(orders[perm[i]]) for i in range(n)),
            tuple(code(m[perm[i]][perm[j]]) for i, j in itertools.combinations(range(n), 2)),
        )
        if best is None or key < best:
            best = key
    return best
