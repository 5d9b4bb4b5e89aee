"""Independent verification tools.

Todd-Coxeter coset enumeration (orders and indices), closed-form
Coxeter group orders and an exact Coxeter word problem from the Tits
cone, certificates that a group is infinite, abelianization via a sparse
integer Smith normal form, presentation matching up to generator
bijection with inversions, and per-instance verdict reports.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from functools import partial
from math import factorial, gcd, lcm
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .presentations import (
    DEFAULT_MAX_COSETS,
    DEFAULT_MAX_RELATOR_LENGTH,
    INF,
    CoxeterMatrix,
    EmbeddingInstance,
    Presentation,
    _Value,
)
from .words import (
    Word,
    _least_rotation,
    code_invert,
    code_nf,
    decode,
    encode,
    expand_kernel_word,
    free_reduce,
    relator_nf,
)


class _Budget(Exception):
    pass


class CosetTable(_Value):
    """Result of a coset enumeration.

    ``status`` is ``complete`` or ``budget-exceeded``.  For complete
    tables, ``fwd[g][c]`` / ``bwd[g][c]`` give the action of generator g
    and its inverse on coset c (0-based; coset 0 is the subgroup), and
    ``num_cosets`` is the index; in an incomplete table all three are
    None.  An involution (a generator with a relator ``g^2`` or
    ``g^-2``) has one column in the enumeration, so its ``bwd[g]``
    equals ``fwd[g]``.  ``num_defined`` counts every coset ever
    defined, including ones merged away by coincidences; it is also the
    count that ``max_cosets`` bounds.
    """

    __slots__ = ("status", "num_cosets", "num_defined", "fwd", "bwd")

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def todd_coxeter(
    pres: Presentation,
    subgroup_words: Sequence[Word] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable:
    """HLT-style enumeration of the cosets of the subgroup generated by
    ``subgroup_words`` in the group presented by ``pres``.

    Scans the subgroup words at coset 0, then every relator at every live
    coset in definition order, defining cosets on demand and merging
    coincidences with a union-find (smallest index survives).  A generator
    with a relator ``g^2`` or ``g^-2`` gets one table column that is its
    own inverse column (Holt, Eick and O'Brien, *Handbook of Computational
    Group Theory*, 2005, Sec. 5.1), so the table satisfies those relators
    by construction and they are not scanned; every other generator gets a
    column and an inverse column.  An involution thus fills one table
    entry per coset instead of two, and an enumeration defines fewer
    cosets; ``num_defined`` still counts every one of them.  Exceeding
    ``max_cosets`` defined cosets is a status, not an error; it is the
    unavoidable outcome for infinite-index inputs; a budget below 1 is a
    ``ValueError``.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    ngens = pres.rank
    squares = {r for r in pres.relators if len(r) == 2 and r[0] == r[1]}
    involutions = {abs(r[0]) for r in squares}
    col: Dict[int, int] = {}  # letter -> its table column
    inv: List[int] = []  # column -> the column of the inverse letter
    for g in range(1, ngens + 1):
        col[g] = len(inv)
        if g in involutions:
            inv.append(col[g])
        else:
            inv += [col[g] + 1, col[g]]
        col[-g] = inv[col[g]]
    ncols = len(inv)

    def cols(w: Word) -> Tuple[int, ...]:
        for l in w:
            if l not in col:
                raise ValueError(f"letter {l} outside alphabet of rank {ngens}")
        return tuple(map(col.__getitem__, w))

    rel_paths = [cols(r) for r in pres.relators if r not in squares]
    sub_paths = [cols(free_reduce(w)) for w in subgroup_words]

    table = [[-1] * ncols]
    labels = [0]

    def find(c: int) -> int:
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def define(c: int, d: int) -> int:
        if len(table) >= max_cosets:
            raise _Budget
        n = len(table)
        labels.append(n)
        table.append([-1] * ncols)
        table[c][d] = n
        table[n][inv[d]] = c
        return n

    def unify(a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            labels[b] = a
            row_a, row_b = table[a], table[b]
            for d in range(ncols):
                nb = row_b[d]
                if nb >= 0:
                    na = row_a[d]
                    if na < 0:
                        row_a[d] = nb
                    else:
                        stack.append((na, nb))

    def scan_and_fill(f: int, path: Tuple[int, ...]) -> None:
        # standard two-ended scan from the live coset f: walk defined
        # entries forward from the start and backward from the end, then
        # close a single gap as a deduction (both of its entries are still
        # undefined), define one coset to shrink a wider gap, or merge the
        # two ends on a complete scan; a live entry is taken without a
        # find, and an entry naming a merged coset is rewritten to its root
        b = f
        i, j = 0, len(path) - 1
        while True:
            while i <= j:
                row = table[f]
                nxt = row[path[i]]
                if nxt < 0:
                    break
                if labels[nxt] != nxt:
                    nxt = row[path[i]] = find(nxt)
                f = nxt
                i += 1
            if i > j:
                break
            while j >= i:
                row = table[b]
                nxt = row[inv[path[j]]]
                if nxt < 0:
                    break
                if labels[nxt] != nxt:
                    nxt = row[inv[path[j]]] = find(nxt)
                b = nxt
                j -= 1
            if j < i:
                break
            if j == i:
                table[f][path[i]] = b
                table[b][inv[path[i]]] = f
                return
            f = define(f, path[i])
            i += 1
        if f != b:
            unify(f, b)

    try:
        for path in sub_paths:
            scan_and_fill(0, path)
        i = 0
        while i < len(table):
            if labels[i] == i:
                for path in rel_paths:
                    scan_and_fill(i, path)
                    if labels[i] != i:
                        break
                if labels[i] == i:
                    row = table[i]
                    for d in range(ncols):
                        if row[d] < 0:
                            define(i, d)
            i += 1
    except _Budget:
        return CosetTable("budget-exceeded", None, len(table), None, None)

    live = [c for c in range(len(table)) if labels[c] == c]
    position = [0] * len(table)
    for k, c in enumerate(live):
        position[c] = k
    index_of = [position[find(c)] for c in range(len(table))]
    columns = [tuple(map(index_of.__getitem__, column)) for column in zip(*(table[c] for c in live))]
    fwd = tuple(columns[col[g]] for g in range(1, ngens + 1))
    bwd = tuple(columns[col[-g]] for g in range(1, ngens + 1))
    result = CosetTable("complete", len(live), len(table), fwd, bwd)
    _assert_closed(result, pres, subgroup_words)
    return result


def _images(fwd, bwd, w: Word, points: List[int]) -> List[int]:
    """The points that ``w`` carries ``points`` to, where ``fwd[g]`` and
    ``bwd[g]`` are generator g's permutation and its inverse: one list
    lookup per letter and point."""
    for l in w:
        perm = fwd[l - 1] if l > 0 else bwd[-l - 1]
        points = list(map(perm.__getitem__, points))
    return points


def _trace(tab: CosetTable, w: Word) -> int:
    """The coset that ``w`` carries coset 0 to in a complete table."""
    return _images(tab.fwd, tab.bwd, w, [0])[0]


def _assert_closed(tab: CosetTable, pres: Presentation, subgroup_words: Sequence[Word]) -> None:
    """Completeness invariants: relators trace to the identity at every
    coset and subgroup words fix coset 0, both by :func:`_images`, each
    relator from all cosets at once."""
    cosets = list(range(tab.num_cosets))
    for r in pres.relators:
        if _images(tab.fwd, tab.bwd, r, cosets) != cosets:
            raise AssertionError("relator trace does not close")
    for w in subgroup_words:
        if _trace(tab, free_reduce(w)) != 0:
            raise AssertionError("subgroup word does not fix coset 0")


def group_order(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> Union[int, float, None]:
    """Order of the presented group: ``INF`` when the group is certified
    infinite (:func:`certified_infinite`, no enumeration runs), None when
    the enumeration exceeds ``max_cosets``.  A budget below 1 is a
    ``ValueError``."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    if certified_infinite(pres):
        return INF
    tab = todd_coxeter(pres, (), max_cosets)
    return tab.num_cosets if tab.complete else None


# ---------------------------------------------------------------------------
# infiniteness certificates


def coxeter_matrix_of(pres: Presentation) -> Optional[CoxeterMatrix]:
    """The Coxeter matrix of a Coxeter presentation, or None.

    Recognizes relators ``g^2`` and ``(g h)^m`` with ``m >= 2`` in
    positive letters, every generator having its ``g^2``; a pair with no
    relator gets ``inf``.  Anything else, including one pair with two
    different labels, is not recognized.
    """
    involutions = set()
    labels: Dict[Tuple[int, int], int] = {}
    for r in pres.relators:
        if min(r) < 0:
            return None
        if len(r) == 2 and r[0] == r[1]:
            involutions.add(r[0] - 1)
            continue
        if len(r) < 4 or r[0] == r[1] or r != r[:2] * (len(r) // 2):
            return None
        g, h = r[0], r[1]
        pair = (min(g, h) - 1, max(g, h) - 1)
        if labels.setdefault(pair, len(r) // 2) != len(r) // 2:
            return None
    if len(involutions) != pres.rank:
        return None
    return CoxeterMatrix.from_pairs(pres.rank, labels, default=INF)


def coxeter_order(matrix: CoxeterMatrix) -> Optional[int]:
    """Order of the Coxeter group of ``matrix``, or None if it is infinite.

    Exact classification of the connected components of the Coxeter
    graph (edges are the labels >= 3): each must be a tree with finite
    labels of type A_n, B_n, D_n, E_6-8, F_4, H_3, H_4 or I_2(m)
    (Coxeter 1935; Humphreys, *Reflection Groups and Coxeter Groups*,
    1990, Thm 6.4), and the order is the product of the component orders
    (Humphreys, Sec. 2.11).  Integers only.
    """
    adj: Dict[int, Dict[int, int]] = {v: {} for v in range(matrix.n)}
    for i, j, m in matrix.pairs():
        if m == INF:
            return None
        if m > 2:
            adj[i][j] = adj[j][i] = m
    order = 1
    seen = set()
    for root in range(matrix.n):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for v in comp:
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        if sum(len(adj[v]) for v in comp) != 2 * (len(comp) - 1):
            return None  # a cycle
        part = _tree_order(comp, adj)
        if part is None:
            return None
        order *= part
    return order


# E_6, E_7 and E_8 by the vertex counts of their three legs
_E_ORDERS = {(1, 2, 2): 51_840, (1, 2, 3): 2_903_040, (1, 2, 4): 696_729_600}


def _tree_order(comp: List[int], adj: Dict[int, Dict[int, int]]) -> Optional[int]:
    """``coxeter_order`` of one connected tree of the Coxeter graph."""
    k = len(comp)
    if k == 1:
        return 2  # A_1
    if k == 2:
        return 2 * next(iter(adj[comp[0]].values()))  # I_2(m)
    heavy = [(v, u, m) for v in comp for u, m in adj[v].items() if v < u and m > 3]
    branches = [v for v in comp if len(adj[v]) > 2]
    if len(heavy) + len(branches) > 1:
        return None
    if heavy:  # a path
        v, u, m = heavy[0]
        at_end = len(adj[v]) == 1 or len(adj[u]) == 1
        if m == 4 and at_end:
            return 2**k * factorial(k)  # B_k
        if m == 4 and k == 4:
            return 1152  # F_4, with the 4 in the middle
        if m == 5 and at_end and k <= 4:
            return 120 if k == 3 else 14_400  # H_3, H_4
        return None
    if not branches:
        return factorial(k + 1)  # A_k
    centre = branches[0]
    if len(adj[centre]) > 3:
        return None
    legs = tuple(sorted(_leg_length(centre, u, adj) for u in adj[centre]))
    if legs[:2] == (1, 1):
        return 2 ** (k - 1) * factorial(k)  # D_k
    return _E_ORDERS.get(legs)


def _leg_length(centre: int, u: int, adj: Dict[int, Dict[int, int]]) -> int:
    """Vertices on the path from ``u``, a neighbour of ``centre``, to a leaf."""
    length, prev = 1, centre
    while len(adj[u]) == 2:
        prev, u = u, next(w for w in adj[u] if w != prev)
        length += 1
    return length


def certified_infinite(pres: Presentation) -> bool:
    """True only if the presented group is provably infinite.

    A Coxeter presentation (:func:`coxeter_matrix_of`) is decided exactly
    by its Coxeter graph; any other presentation is certified when its
    abelianization has free rank > 0.  False means "not certified", not
    "finite"."""
    matrix = coxeter_matrix_of(pres)
    if matrix is not None:
        return coxeter_order(matrix) is None
    return abelianization(pres).free_rank > 0


def coxeter_word_trivial(matrix: CoxeterMatrix, word: Word) -> bool:
    """True iff ``word`` is the identity in the Coxeter group of ``matrix``.

    A word is trivial iff it fixes ``f = (1, ..., 1)``, in the open
    fundamental chamber of the Tits cone (Humphreys, *Reflection Groups
    and Coxeter Groups*, 1990, Sec. 5.13).  Letter ``s`` or ``s^-1`` sets
    ``f_s <- -f_s`` and ``f_t <- f_t + c_st f_s``, with ``c_st = 2`` for
    ``m_st = inf`` and ``c_st = 2 cos(pi / m_st) = x^a + x^-a`` for
    ``a = N / 2 m_st`` at ``x = exp(2 pi i / N)``, ``N`` the lcm of ``2 m``
    over the finite labels ``m >= 3``.  Then ``f_t = 1`` iff ``f_t - 1``
    times ``x^(N / p) - 1`` for each prime ``p | N``, a product that is 0
    at all but the primitive ``N``-th roots of unity, is 0 in
    ``Z[x] / (x^N - 1)``.

    Each coordinate is one integer, its image under the ring map
    ``x -> 2^B`` onto ``Z / M``, ``M = 2^(N B) - 1``: ``x^a`` rotates it by
    ``a B`` bits and ``-v`` is ``M - v``.  A first pass bounds the l1 norm
    of each coordinate: letter ``s`` adds twice the bound of ``f_s`` to
    each neighbour's, and each ``x^(N / p) - 1`` at most doubles it.  With
    ``2^(B - 1)`` above the final bound, the image ``sum c_i 2^(i B)`` of
    a product lies strictly between ``-M`` and ``M``, and it is 0 only if
    every ``c_i`` is (balanced base-``2^B`` digits are unique): the
    product is zero iff its residue is 0 or ``M``.
    """
    return next(_chamber_checks(matrix, (word,)))


def _chamber_checks(matrix: CoxeterMatrix, words: Iterable[Word]) -> Iterator[bool]:
    """:func:`coxeter_word_trivial` of each word, with one setup per matrix."""
    n = matrix.n
    N = lcm(*(2 * m for _, _, m in matrix.pairs() if m != INF and m > 2))
    nbrs: List[List[Tuple[int, Optional[int]]]] = [[] for _ in range(n)]
    for i, j, m in matrix.pairs():
        if m == INF or m > 2:
            shift = None if m == INF else N // (2 * m)
            nbrs[i].append((j, shift))
            nbrs[j].append((i, shift))
    steps = [N // p for p in range(2, N + 1) if N % p == 0 and all(p % q for q in range(2, p))]
    for word in words:
        bound = [1] * n
        for l in word:
            if l == 0 or abs(l) > n:
                raise ValueError(f"letter {l} outside alphabet of rank {n}")
            s = abs(l) - 1
            for t, _ in nbrs[s]:
                bound[t] += 2 * bound[s]
        B = ((max(bound, default=0) + 1) << len(steps)).bit_length() + 1
        K = N * B
        M = (1 << K) - 1
        f = [1] * n
        for l in word:
            s = abs(l) - 1
            fs = f[s]
            for t, a in nbrs[s]:
                if a is None:
                    v = f[t] + (fs << 1)
                else:
                    a *= B
                    v = f[t] + (((fs << a) | (fs >> K - a)) & M) + (((fs << K - a) | (fs >> a)) & M)
                v = (v & M) + (v >> K)
                f[t] = v - M if v > M else v
            f[s] = M - fs
        for v in f:
            v = (v or M) - 1
            for a in steps:
                v = (((v << a * B) | (v >> K - a * B)) & M) + M - v
                v = v - M if v > M else v
            if v % M:
                yield False
                break
        else:
            yield True


def word_holds(rep: Sequence[Sequence[int]], w: Word) -> bool:
    """True iff the permutation product of the word's letters is the
    identity, checked at every point by :func:`_images`.  The inverse of
    each generator whose inverse letter occurs is built once."""
    for l in w:
        if l == 0 or abs(l) > len(rep):
            raise ValueError(f"letter {l} outside alphabet of rank {len(rep)}")
    inverses: Dict[int, List[int]] = {}
    for g in {-l - 1 for l in w if l < 0}:
        inverses[g] = q = [0] * len(rep[g])
        for i, j in enumerate(rep[g]):
            q[j] = i
    points = list(range(len(rep[0]) if rep else 0))
    return _images(rep, inverses, w, points) == points


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def _sparse_smith_diagonal(rows: List[Dict[int, int]], k: int) -> Tuple[int, ...]:
    """Smith diagonal, of length ``k``, of the matrix with rows given as
    ``{column: nonzero entry}``; consumes ``rows``.

    Each pivot is an entry of least absolute value, from the sparsest such
    row and within it the sparsest column, which keeps fill-in low.  Row
    operations reduce the pivot's column to remainders; once that column
    is clear, column operations reduce the pivot row, touching no other
    row.  A pivot left alone in its row and column is a diagonal entry;
    otherwise a smaller remainder is pivoted next, so the least entry
    falls until a pivot drops out.  gcd/lcm exchanges then order the
    non-unit entries into a divisibility chain, zeros last.
    """
    rows = list(rows)  # a row becomes None once its pivot is on the diagonal
    cols: Dict[int, set] = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)

    heap = [(min(map(abs, row.values())), len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    diag: List[int] = []
    while heap:
        least, size, i = heapq.heappop(heap)
        piv = rows[i]
        if not piv or len(piv) != size or min(map(abs, piv.values())) != least:
            continue  # on the diagonal already, or queued again with a new key
        p = min((j for j, v in piv.items() if abs(v) == least), key=lambda j: (len(cols[j]), j))
        d = piv[p]
        cols[p].discard(i)
        for r in list(cols[p]):
            row = rows[r]
            q = row[p] // d
            for j, v in piv.items():
                x = row.get(j, 0) - q * v
                if x:
                    row[j] = x
                    cols[j].add(r)
                else:
                    del row[j]
                    cols[j].discard(r)
            if row:
                heapq.heappush(heap, (min(map(abs, row.values())), len(row), r))
        if not cols[p]:
            rest = {j: v % d for j, v in piv.items() if v % d}
            for j in piv:
                if j not in rest:
                    cols[j].discard(i)
            if not rest:
                rows[i] = None
                diag.append(abs(d))
                continue
            rows[i] = piv = {p: d, **rest}
        cols[p].add(i)
        heapq.heappush(heap, (min(map(abs, piv.values())), len(piv), i))
    torsion = [x for x in diag if x > 1]
    for s in range(len(torsion)):
        for t in range(s + 1, len(torsion)):
            g = gcd(torsion[s], torsion[t])
            torsion[s], torsion[t] = g, torsion[s] * torsion[t] // g
    units = len(diag) - len(torsion) + torsion.count(1)
    torsion = [x for x in torsion if x > 1]
    return (1,) * units + tuple(torsion) + (0,) * (k - units - len(torsion))


class AbelianInvariants(_Value):
    """Free rank plus torsion coefficients forming a divisibility chain."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Tuple[int, ...]):
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        tors = tuple(torsion)
        for d in tors:
            if d < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for x, y in zip(tors, tors[1:]):
            if y % x:
                raise ValueError("torsion coefficients must form a divisibility chain")
        super().__init__(free_rank, tors)


def abelianization(pres: Presentation) -> AbelianInvariants:
    """Invariants of the abelianized group via the exponent-sum matrix."""
    rows = []
    for r in pres.relators:
        row: Dict[int, int] = {}
        for l in r:
            g = abs(l) - 1
            row[g] = row.get(g, 0) + (1 if l > 0 else -1)
        rows.append({g: v for g, v in row.items() if v})
    diag = _sparse_smith_diagonal(rows, min(len(rows), pres.rank))
    nonzero = [d for d in diag if d]
    return AbelianInvariants(pres.rank - len(nonzero), tuple(d for d in nonzero if d > 1))


# ---------------------------------------------------------------------------
# presentation matching


def _forms(relators: Iterable[Word]) -> List[str]:
    """The sorted code strings (:func:`encode`) of the relators'
    :func:`relator_nf` forms: a presentation normalized once."""
    return sorted(encode(relator_nf(r)) for r in relators)


def _translated(codes: Iterable[str], table: Dict[int, str]) -> List[str]:
    """The sorted :func:`code_nf` forms of code strings, each passed
    through ``str.translate(table)``."""
    return sorted(code_nf(c.translate(table)) for c in codes)


def match_presentations(p: Presentation, q: Presentation):
    """Search generator bijections composed with per-generator inversion
    for one making the relator normal-form multisets equal.

    Returns a tuple of ``(target index, sign)`` per generator of ``p``, or
    None: the first match with targets in ``itertools.permutations`` order
    and, per permutation, signs in ``itertools.product((1, -1), ...)``
    order.  A depth-first search places targets, then signs, generator by
    generator, as a translate table on code strings (:func:`encode`) that
    sends generator g's codes ``2g`` and ``2g + 1`` to ``2t + s`` and
    ``2t + 1 - s`` for target t and sign bit s.  It drops a partial
    assignment once a cyclically adjacent letter pair on placed generators
    maps to a pair adjacent in no ``q`` relator of that length or its
    inverse (sign-blind while targets are placed), or, while signs are
    placed, a relator on placed generators maps outside ``q``'s relators.
    The worst case is still exponential in the rank; the pruning is what
    keeps kernels such as chain-versus-star pairs in milliseconds.
    """
    if p.rank != q.rank:
        return None
    n = p.rank
    p_forms = _forms(p.relators)
    q_forms = _forms(q.relators)
    if sorted(map(len, p_forms)) != sorted(map(len, q_forms)):
        return None
    q_set = set(q_forms)
    q_pairs = {(len(c), x, y) for w in q_forms for c in (w, code_invert(w)) for x, y in zip(c, c[1:] + c[:1])}
    q_gen_pairs = {(k, ord(x) >> 1, ord(y) >> 1) for k, x, y in q_pairs}
    # each check on p is due once the highest generator it involves is placed
    closing: List[List[str]] = [[] for _ in range(n)]
    pairs: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    for c in p_forms:
        closing[ord(max(c)) >> 1].append(c)
        for x, y in zip(c, c[1:] + c[:1]):
            pairs[ord(max(x, y)) >> 1].append((len(c), ord(x), ord(y)))
    table: Dict[int, str] = {}  # code of a placed letter -> the code of its image

    def place_signs(g: int) -> bool:
        if g == n:
            return _translated(p_forms, table) == q_forms
        t = ord(table[2 * g]) >> 1
        for s in (0, 1):
            table[2 * g], table[2 * g + 1] = chr(2 * t + s), chr(2 * t + 1 - s)
            if (
                all((k, table[x], table[y]) in q_pairs for k, x, y in pairs[g])
                and all(code_nf(c.translate(table)) in q_set for c in closing[g])
                and place_signs(g + 1)
            ):
                return True
        return False

    def place_targets(g: int, free: List[int]) -> bool:
        if g == n:
            return place_signs(0)
        for t in free:
            table[2 * g], table[2 * g + 1] = chr(2 * t), chr(2 * t + 1)
            fits = all((k, ord(table[x]) >> 1, ord(table[y]) >> 1) in q_gen_pairs for k, x, y in pairs[g])
            if fits and place_targets(g + 1, [u for u in free if u != t]):
                return True
        return False

    if not place_targets(0, list(range(n))):
        return None
    return tuple((ord(table[2 * g]) >> 1, -1 if ord(table[2 * g]) & 1 else 1) for g in range(n))


# ---------------------------------------------------------------------------
# instance verification


class VerifyReport(_Value):
    """Aggregated per-instance checks; verdict passes iff every enabled
    check passes.  ``finite`` holds the ambient order, taken from the
    Coxeter graph when the ambient is a Coxeter group and from an
    enumeration otherwise, the enumerated kernel order and index, and
    whether the expanded relators hold in the ambient.  Finite checks
    that exhaust ``max_cosets`` or are not run because the ambient or the
    expected kernel is certified infinite, and a raw comparison that finds
    no match after a simplify stopped at ``max_relator_length``, are
    reported as skipped, never as failures."""

    __slots__ = (
        "family", "params", "image_rank", "evaluated_generators",
        "evaluated_relator_nf_match", "raw_generators_after_simplify", "raw_matched", "finite",
        "split_section", "verdict",
    )

    def to_dict(self) -> dict:
        return {
            "instance": {"family": self.family, "params": self.params},
            "hom_valid": True,
            "image_rank": self.image_rank,
            "transversal_size": 1 << self.image_rank,
            "evaluated": {
                "generators": self.evaluated_generators,
                "relator_nf_match": self.evaluated_relator_nf_match,
            },
            "raw": {
                "generators_after_simplify": self.raw_generators_after_simplify,
                "matched": self.raw_matched if self.raw_matched is not None else "skipped",
            },
            "finite": self.finite if self.finite is not None else "skipped",
            "split_section": self.split_section,
            "verdict": self.verdict,
        }


def evaluated_matches_expected(kernel: Presentation, expected: Presentation) -> bool:
    """Relator normal-form multiset equality under the name identification
    between an evaluated kernel and its expected presentation."""
    if sorted(kernel.gens) != sorted(expected.gens):
        return False
    index = {name: k for k, name in enumerate(expected.gens)}
    table = {2 * g + s: chr(2 * index[name] + s) for g, name in enumerate(kernel.gens) for s in (0, 1)}
    return _translated(map(encode, kernel.relators), table) == _forms(expected.relators)


def _finite_section(inst: EmbeddingInstance, max_cosets: int) -> Optional[dict]:
    """Orders, index and relator checks, or None when a group is
    certified infinite or an enumeration cannot complete.

    A Coxeter ambient (:func:`coxeter_matrix_of`) is never enumerated:
    its order comes from its Coxeter graph (:func:`coxeter_order`) and
    each expanded relator is checked by its action on the fundamental
    chamber (:func:`coxeter_word_trivial`), all of them after one setup.
    Any other ambient is enumerated, and since the regular action is free,
    an expanded relator holds exactly when it carries coset 0 to itself.
    The expected kernel and the index of its image are always enumerated;
    no enumeration of an infinite group completes, so a certificate for
    either side skips them."""
    matrix = coxeter_matrix_of(inst.ambient)
    if matrix is not None:
        ambient_order = coxeter_order(matrix)
        if ambient_order is None or certified_infinite(inst.expected_kernel):
            return None
        holds = partial(_chamber_checks, matrix)
    else:
        # the expected kernel first: the built-in non-Coxeter ambients are
        # the artin families', whose expected kernel is an Artin group,
        # of free rank >= 1 since every braid relator has exponent sum 0
        if certified_infinite(inst.expected_kernel) or certified_infinite(inst.ambient):
            return None
        ambient_table = todd_coxeter(inst.ambient, (), max_cosets)
        if not ambient_table.complete:
            return None
        ambient_order = ambient_table.num_cosets
        holds = lambda words: (_trace(ambient_table, w) == 0 for w in words)  # noqa: E731
    kernel_order = todd_coxeter(inst.expected_kernel, (), max_cosets).num_cosets
    index_table = todd_coxeter(inst.ambient, inst.expected_words, max_cosets)
    if kernel_order is None or not index_table.complete:
        return None
    relators_hold = all(holds(expand_kernel_word(r, inst.expected_words) for r in inst.expected_kernel.relators))
    index = index_table.num_cosets
    n = inst.hom.n
    return {
        "ambient_order": ambient_order,
        "kernel_order": kernel_order,
        "index": index,
        "product_ok": ambient_order == (1 << n) * kernel_order and index == (1 << n),
        "relators_hold": relators_hold,
    }


def _flip_involutions(pres: Presentation) -> Presentation:
    """``pres`` with ``g^-1`` rewritten to ``g`` for every generator ``g``
    with the relator ``g^2``, which presents the same group.

    Each relator becomes the least rotation of the flipped word or of the
    flipped inverse, whichever is less: one form for all the relators that
    rotation, inversion and the signs of those generators carry into each
    other.  A proper power ``u^k`` is rotated through its primitive root
    ``u``, as :func:`~coxembed.words.rotation_nf` does: the flipped ``u``
    and its flipped inverse are rotated, and the lesser is repeated ``k``
    times, since the rotations of ``u^k`` are the ``k``-th powers of the
    rotations of ``u``.  Duplicates are merged, and relators sorted by
    length, then letter codes, as :func:`simplify` sorts them."""
    flip = {2 * abs(r[0]) - 1: 2 * abs(r[0]) - 2 for r in pres.relators if len(r) == 2 and r[0] == r[1]}
    relators = set()
    for r in pres.relators:
        c = encode(r)
        p = (c + c).find(c, 1)
        u, ui = c[:p].translate(flip), code_invert(c[:p]).translate(flip)
        relators.add(min(_least_rotation(u, min(u)), _least_rotation(ui, min(ui))) * (len(c) // p))
    return Presentation.trusted(pres.gens, tuple(decode(c) for c in sorted(relators, key=lambda c: (len(c), c))))


def verify_instance(
    inst: EmbeddingInstance,
    max_cosets: int = DEFAULT_MAX_COSETS,
    max_relator_length: int = DEFAULT_MAX_RELATOR_LENGTH,
) -> VerifyReport:
    """Run the full check battery for one embedding instance.

    The instance's constructor already rejects a hom that does not kill
    every ambient relator, so ``hom_valid`` always reads true.

    It also guarantees (0) that every commuting pair is a relation of the
    ambient W, and (z) that every expected word lies in the kernel H of
    the hom; with these, the evaluated match alone proves that the
    expected kernel E is H.  Write phi: E -> W for ``a_j -> expected_words[j]`` and psi for
    the map from the raw Schreier symbols to E's signed generators or 1 that
    :func:`evaluated_kernel_presentation`, the one builder, reads from
    coset 0: the symbol of (v, x) goes to alpha_v of the letter of the
    coset-0 symbol of x, alpha_v the transversal's action on E's letters
    by conjugation.  By Reidemeister-Schreier the raw symbols and relators
    present H.  When the evaluated kernel matches E (the same names, and
    the same relator normal-form multiset), psi sends every raw relator to
    a relator of E or to the empty word, so it induces a homomorphism
    H -> E, onto since every name of E occurs.  A merged symbol named
    ``a_j`` has a defining word equal to ``expected_words[j]`` in the
    right-angled Coxeter group of the pairs, which maps onto W by (0); so
    phi psi (s) = s in W for every raw symbol s.  Each relator of E is
    then psi of a raw relator, whose phi-image is trivial in W, so phi is
    a homomorphism E -> W, into H by (z); and phi psi is the identity of
    H, so psi is injective and phi maps E isomorphically onto H.  The one
    trusted piece is :func:`right_angled_nf`, which decides every equality
    that psi and the alpha_v are read from.  An instance outside the
    builder's premise is refused with its ``ValueError`` before any raw
    kernel is built.  The raw comparison and the finite section check the
    same fact independently.

    The finite section runs no coset enumeration when the ambient or the
    expected kernel is :func:`certified_infinite`; it reads skipped, as
    it would once the budget ran out.  Both budgets are checked here,
    since on a certified-infinite instance no coset enumeration would."""
    if max_cosets <= 0 or max_relator_length <= 0:
        raise ValueError("budgets must be positive")
    # imported here, so that the other checks load neither engine they check
    from .schreier import evaluated_kernel_presentation, image_rank, raw_kernel_presentation
    from .tietze import simplify
    n = inst.hom.n
    rank = image_rank(inst.hom)

    evaluated = evaluated_kernel_presentation(inst)
    ev_gens = evaluated.presentation.rank
    ev_match = evaluated_matches_expected(evaluated.presentation, inst.expected_kernel)

    # flipping involution signs after simplify merges their sign-variant
    # relator classes, so one comparison decides the match; no match after
    # a simplify that stopped at the length bound decides nothing (None)
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    simplified, raw_trace = simplify(raw.presentation, max_relator_length)
    expected, expected_trace = simplify(inst.expected_kernel, max_relator_length)
    raw_gens = simplified.rank
    matching = match_presentations(_flip_involutions(simplified), _flip_involutions(expected))
    raw_matched: Optional[bool] = matching is not None
    if not raw_matched and (raw_trace.bounded or expected_trace.bounded):
        raw_matched = None

    finite = _finite_section(inst, max_cosets)
    finite_ok = finite is None or (finite["product_ok"] and finite["relators_hold"])

    # the instance's hom kills every ambient relator, so only the images
    # of the transversal generators decide the split
    basis = tuple(1 << i for i in range(n))
    split_section = tuple(inst.hom.images[g] for g in inst.transversal_gens) == basis

    # a split section maps the transversal generators onto the basis, which
    # forces rank n; the evaluated match compares generator names, so it
    # fixes their number
    checks = [
        ev_match,
        raw_matched is not False,
        finite_ok,
        split_section,
    ]
    verdict = "pass" if all(checks) else "fail"
    return VerifyReport(
        family=inst.family,
        params=inst.params,
        image_rank=rank,
        evaluated_generators=ev_gens,
        evaluated_relator_nf_match=ev_match,
        raw_generators_after_simplify=raw_gens,
        raw_matched=raw_matched,
        finite=finite,
        split_section=split_section,
        verdict=verdict,
    )
