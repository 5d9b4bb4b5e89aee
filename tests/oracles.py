"""Independent oracles used by the test suite.

Everything here avoids the code paths under test: brute-force orbit
enumeration for cyclic words, an unreduced Reidemeister-Schreier walk,
permutation closures for group orders, minor gcds for Smith diagonals,
a whole-presentation Tietze loop for the incremental ``simplify``, the
exhaustive presentation matcher, every flipped rotation for the
involution sign flip, the bilinear form of a Coxeter
matrix for the infiniteness certificate, the chamber word check on
coefficient lists for the packed one, and the evaluated kernel by
substitution into the raw relators for the step-table walks.

Four helpers are entries to engine code rather than oracles, kept here
because only tests call them: :func:`regular_rep` reads a group's action
on itself off a complete Todd-Coxeter table,
:func:`smith_normal_form` runs the sparse Smith elimination on a dense
matrix, :func:`merge_images` reads each raw symbol's merged image as a
word, and :func:`evaluated_rewriter` rewrites kernel words over the
evaluated symbols.  :func:`fields` and :func:`replace` read and rebuild
a value object through its class's constructor, and :func:`relabel`
substitutes signed generators into a word.
"""

from __future__ import annotations

import itertools
from math import cos, gcd, inf, lcm, pi
from typing import List, Optional, Sequence, Tuple

from coxembed.presentations import DEFAULT_MAX_COSETS, INF, CoxeterMatrix, Presentation, serialize_word
from coxembed.schreier import KernelPresentation, merge_symbols, raw_kernel_presentation
from coxembed.verify import _sparse_smith_diagonal, todd_coxeter
from coxembed.words import (
    Word,
    concat,
    cyclic_reduce,
    expand_kernel_word,
    free_reduce,
    invert,
    relator_nf,
)


def orbit_rotation_inversion(w) -> set:
    """All rotations of ``w`` and of its inverse, as raw tuples."""
    w = tuple(w)
    out = set()
    for word in (w, invert(w)):
        if not word:
            out.add(())
            continue
        for i in range(len(word)):
            out.add(word[i:] + word[:i])
    return out


def letter_key(let: int) -> Tuple[int, int]:
    """Total order on letters: generator index ascending, each generator
    before its inverse."""
    return (abs(let), 0 if let > 0 else 1)


def word_key(w: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Lexicographic order on words by :func:`letter_key`."""
    return tuple(letter_key(l) for l in w)


def fields(obj) -> dict:
    """The fields of a value object by name, in the order of its class's
    ``__slots__``, which its constructor takes in that order."""
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def replace(obj, **changes):
    """``obj`` with ``changes`` applied, rebuilt through its class's
    constructor, so that every validation the constructor makes runs
    again."""
    return type(obj)(**{**fields(obj), **changes})


def walk_rewrite(table, images, w, coset=0):
    """Reidemeister-Schreier rewrite of ``w`` read from ``coset``: the raw
    symbols of ``table`` looked up by their (coset, generator) origin, one
    letter of ``w`` at a time, collected unreduced and then freely
    reduced.  ``images`` are the generators' image vectors; a symbol's
    coset is the image of its representative word.  Raises if ``w`` has
    nonzero image."""

    def image(word):
        v = 0
        for l in word:
            v ^= images[abs(l) - 1]
        return v

    symbol = {(image(g.coset_word), g.gen): k + 1 for k, g in enumerate(table)}
    out = []
    v = coset
    for l in w:
        x = abs(l) - 1
        if l < 0:
            v ^= images[x]
        s = symbol.get((v, x))
        if s:
            out.append(s if l > 0 else -s)
        if l > 0:
            v ^= images[x]
    if v != coset:
        raise ValueError("word has nonzero image")
    return free_reduce(out)


def merge_images(inst, table):
    """The evaluated symbol table of :func:`merge_symbols`, and each raw
    symbol's image: the word of its merged letter, empty for 0."""
    merged, letters = merge_symbols(inst, table)
    return merged, [(m,) if (m := letters[k]) else () for k in range(1, len(table) + 1)]


def evaluated_rewriter(inst):
    """The evaluated symbol table and a rewrite of kernel words over it:
    :func:`walk_rewrite` over the raw symbols with each raw symbol
    replaced by its merge image."""
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).table
    table, images = merge_images(inst, raw)
    return table, lambda w: expand_kernel_word(walk_rewrite(raw, inst.hom.images, w), images)


def reference_evaluated_kernel(inst, raw: KernelPresentation) -> KernelPresentation:
    """The evaluated kernel from the raw one by substitution: each raw
    relator with every symbol replaced by its :func:`merge_images` image
    (:func:`expand_kernel_word`), empty images dropped and the rest
    deduplicated by :func:`relator_nf` in first-appearance order, each kept
    cyclically reduced."""
    table, images = merge_images(inst, raw.table)
    rels = []
    seen = set()
    for r in raw.presentation.relators:
        img = expand_kernel_word(r, images)
        if not img:
            continue
        nf = relator_nf(img)
        if nf not in seen:
            seen.add(nf)
            rels.append(cyclic_reduce(img))
    kernel = Presentation(tuple(g.name for g in table), tuple(rels))
    return KernelPresentation(kernel, table)


def compose(p: Sequence[int], q: Sequence[int]) -> Tuple[int, ...]:
    """Permutation product acting left-to-right on points: first q, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def perm_closure(gens) -> int:
    """Order of the permutation group generated by ``gens`` (BFS closure)."""
    if not gens:
        return 1
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                x = compose(h, g)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return len(seen)


def eval_word_perm(w, perms) -> Tuple[int, ...]:
    """Permutation of a word: letters act left-to-right on points."""
    n = len(perms[0]) if perms else 0
    result = tuple(range(n))
    for l in w:
        p = perms[abs(l) - 1]
        if l < 0:
            q = [0] * n
            for i, j in enumerate(p):
                q[j] = i
            p = tuple(q)
        result = tuple(p[result[i]] for i in range(n))
    return result


def regular_rep(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> Tuple[Tuple[int, ...], ...]:
    """Generator actions of the presented group on itself, as permutations:
    the columns of a complete coset table of the trivial subgroup.  An
    enumeration that exceeds ``max_cosets`` is a ``ValueError``."""
    tab = todd_coxeter(pres, (), max_cosets)
    if not tab.complete:
        raise ValueError("coset table is incomplete")
    return tab.fwd


def dihedral_squared_times_klein_gens():
    """Explicit permutation realization of D4 x Z2 x Z2 on 8 points.

    s1, s2 are adjacent reflections of a square (their product has order
    4); r1, r2 swap two extra points each.  Returned in the ambient
    generator order r1, r2, s1, s2.
    """
    s1 = (1, 0, 3, 2, 4, 5, 6, 7)
    s2 = (0, 3, 2, 1, 4, 5, 6, 7)
    r1 = (0, 1, 2, 3, 5, 4, 6, 7)
    r2 = (0, 1, 2, 3, 4, 5, 7, 6)
    return (r1, r2, s1, s2)


def triangle_times_klein_gens():
    """Permutation realization of S3 x Z2 x Z2 on 7 points, ambient order
    r1, r2, s1, s2 (s's generate S3 on 3 points, r's swap point pairs)."""
    s1 = (1, 0, 2, 3, 4, 5, 6)
    s2 = (0, 2, 1, 3, 4, 5, 6)
    r1 = (0, 1, 2, 4, 3, 5, 6)
    r2 = (0, 1, 2, 3, 4, 6, 5)
    return (r1, r2, s1, s2)


def minor_gcd_diagonal(rows) -> Tuple[int, ...]:
    """Smith diagonal via the minor-gcd characterization: d_i = D_i/D_{i-1}
    where D_i is the gcd of all i x i minors (0 when all minors vanish)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    k = min(m, n)

    def det(mat):
        size = len(mat)
        if size == 1:
            return mat[0][0]
        total = 0
        for j in range(size):
            sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(sub)
        return total

    diag = []
    prev = 1
    for size in range(1, k + 1):
        g = 0
        for rs in itertools.combinations(range(m), size):
            for cs in itertools.combinations(range(n), size):
                sub = [[rows[i][j] for j in cs] for i in rs]
                g = gcd(g, det(sub))
        if g == 0:
            diag.extend([0] * (k - size + 1))
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


def smith_normal_form(rows) -> Tuple[int, ...]:
    """Smith diagonal of a dense integer matrix, of length ``min(rows,
    cols)``, by the engine's sparse elimination."""
    n = len(rows[0]) if rows else 0
    return _sparse_smith_diagonal([{j: v for j, v in enumerate(r) if v} for r in rows], min(len(rows), n))


def relabel(w: Sequence[int], mapping: Sequence[int]) -> Word:
    """Substitute letter ``mapping[g]`` for generator ``g`` (0-based) and
    its inverse for ``g``'s inverse; a negative entry maps ``g`` to an
    inverted generator."""
    return tuple(mapping[l - 1] if l > 0 else -mapping[-l - 1] for l in w)


def brute_force_match(p, q):
    """First ``(target index, sign)`` per generator of ``p``, trying every
    target permutation in ``itertools.permutations`` order and every sign
    vector in ``itertools.product((1, -1), ...)`` order, under which the
    relator normal-form multisets of ``p`` and ``q`` agree; the full
    n!*2^n search, or None."""
    if p.rank != q.rank:
        return None
    n = p.rank
    target = sorted(relator_nf(r) for r in q.relators)
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            mapping = [(t + 1) * s for t, s in zip(perm, signs)]
            if sorted(relator_nf(relabel(r, mapping)) for r in p.relators) == target:
                return tuple(zip(perm, signs))
    return None


def reference_flip_involutions(pres) -> str:
    """``coxembed.verify._flip_involutions`` by brute force: each relator
    becomes the least, in the word order, of every rotation of it and of
    its inverse with ``g^-1`` rewritten to ``g`` for every generator ``g``
    with the relator ``g^2`` or ``g^-2``; equal forms are merged and
    sorted by length, then word order.  Returned as a string."""
    squares = {abs(r[0]) for r in pres.relators if len(r) == 2 and r[0] == r[1]}
    forms = {
        min((tuple(abs(l) if abs(l) in squares else l for l in v) for v in orbit_rotation_inversion(r)), key=word_key)
        for r in pres.relators
    }
    return str(Presentation(pres.gens, tuple(sorted(forms, key=lambda w: (len(w), word_key(w))))))


def reference_simplify(pres, max_len=1000, flips=False):
    """Tietze simplification re-normalizing the whole presentation after
    every elimination, with the relabelled generators of each step.

    Follows the rules ``coxembed.tietze.simplify`` documents (shortest
    relator with a single-occurrence generator first, least growth
    estimate, length bound on the cyclically reduced rewrites of the
    relators containing the eliminated generator) and returns
    ``(str(presentation), steps, defining, bounded)``; ``bounded`` is set
    when it stops with a single-occurrence generator left, which only the
    length bound can cause.

    With ``flips``, every normalization also rewrites ``g^-1`` to ``g``
    for the generators with a square relator, so eliminations see flipped
    relators.  ``simplify`` has no such mode; on the kernels of the built
    families, this presentation is the reference for
    ``coxembed.verify._flip_involutions`` applied after ``simplify``.  On
    arbitrary presentations the two can differ, since flipping during
    elimination changes deduplication and choices.
    """

    def normalize(p):
        while True:
            nfs = sorted({relator_nf(r) for r in p.relators} - {()}, key=lambda w: (len(w), word_key(w)))
            p = Presentation(p.gens, tuple(nfs))
            squares = {r[0] for r in p.relators if len(r) == 2 and r[0] == r[1]} if flips else set()
            flipped = tuple(tuple(-l if -l in squares else l for l in r) for r in p.relators)
            if flipped == p.relators:
                return p
            p = Presentation(p.gens, flipped)

    def count(w, g):
        return sum(1 for l in w if abs(l) - 1 == g)

    def substitute(w, g, rep):
        """``w`` with g replaced, freely reduced, later generators shifted down."""
        out = []
        for l in w:
            if abs(l) - 1 == g:
                out.extend(rep if l > 0 else invert(rep))
            else:
                out.append(l)
        return tuple(l - 1 if l > g + 1 else (l + 1 if l < -(g + 1) else l) for l in free_reduce(out))

    steps = []
    current = normalize(pres)
    if len(current.relators) != len(pres.relators):
        steps.append(("dedupe", len(pres.relators) - len(current.relators)))
    steps.append(("reduce",))
    defining = {name: (i + 1,) for i, name in enumerate(pres.gens)}
    while True:
        usable = [
            (ri, r, [g for g in range(current.rank) if count(r, g) == 1])
            for ri, r in enumerate(current.relators)
        ]
        usable = [u for u in usable if u[2]]
        chosen = None
        for ri, r, singles in usable:
            total = {g: sum(count(w, g) for w in current.relators) - 1 for g in singles}
            for g in sorted(singles, key=lambda g: (total[g] * (len(r) - 2), g)):
                k = next(i for i, l in enumerate(r) if abs(l) - 1 == g)
                rep = concat(invert(r[:k]), invert(r[k + 1 :])) if r[k] > 0 else concat(r[k + 1 :], r[:k])
                rewritten = Presentation(
                    current.gens[:g] + current.gens[g + 1 :],
                    tuple(substitute(w, g, rep) for i, w in enumerate(current.relators) if i != ri),
                )
                users = [w for i, w in enumerate(current.relators) if i != ri and count(w, g)]
                if all(len(cyclic_reduce(substitute(w, g, rep))) <= max_len for w in users):
                    chosen = (g, r, rep, rewritten)
                    break
            if chosen:
                break
        if not chosen:
            bounded = bool(usable)
            break
        g, r, rep, rewritten = chosen
        steps.append(("eliminate", current.gens[g], serialize_word(r, current.gens), serialize_word(rep, current.gens)))
        defining = {name: substitute(w, g, rep) for name, w in defining.items()}
        emptied = len(current.relators) - 1 - len(rewritten.relators)
        if emptied:
            steps.append(("drop-empty", emptied))
        current = normalize(rewritten)
        if len(current.relators) != len(rewritten.relators):
            steps.append(("dedupe", len(rewritten.relators) - len(current.relators)))
        steps.append(("reduce",))
    defining = {name: serialize_word(w, current.gens) or "1" for name, w in defining.items()}
    return str(current), steps, defining, bounded


def coxeter_form_positive_definite(entries) -> bool:
    """Whether the bilinear form ``B_ij = -cos(pi/m_ij)`` (``-1`` for
    ``inf``, 1 on the diagonal) is positive definite, which holds iff the
    Coxeter group is finite (Humphreys, *Reflection Groups and Coxeter
    Groups*, Thm 6.4).

    A float LDL^T factorization: definite iff every pivot exceeds 1e-9.
    For labels <= 6 and rank <= 4 the least eigenvalue of a definite form
    is at least 1 - cos(pi/30), so the margin cannot misjudge those."""
    n = len(entries)
    b = [
        [1.0 if i == j else -1.0 if entries[i][j] == inf else -cos(pi / entries[i][j]) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        pivot = b[k][k]
        if pivot <= 1e-9:
            return False
        for i in range(k + 1, n):
            f = b[i][k] / pivot
            for j in range(k + 1, n):
                b[i][j] -= f * b[k][j]
    return True


def list_coxeter_word_trivial(matrix: CoxeterMatrix, word: Word) -> bool:
    """True iff ``word`` is the identity in the Coxeter group of ``matrix``:
    the chamber check with one coefficient list per coordinate, the form
    :func:`coxembed.verify.coxeter_word_trivial` had before it packed each
    coordinate into one integer.

    The group acts on the dual of its geometric representation simply
    transitively on the chambers of its Tits cone (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1990, Sec. 5.13), so a word is trivial
    exactly when it fixes ``f = (1, ..., 1)``, a point of the open
    fundamental chamber.  Letter ``s`` (or its inverse, the same
    reflection) sets ``f_s <- -f_s`` and ``f_t <- f_t + c_st f_s`` with
    ``c_st = 2 cos(pi / m_st)``, or 2 for ``m_st = inf``.

    Integers only: with ``N`` the lcm of ``2 m`` over the finite labels
    ``m >= 3``, each coordinate is a polynomial in ``Z[x] / (x^N - 1)``,
    and ``c_st = x^(N / 2m) + x^(-N / 2m)`` at ``x = exp(2 pi i / N)``, two
    cyclic shifts.  A coordinate equals 1 there exactly when ``f_t - 1`` is
    a multiple of the cyclotomic polynomial ``Phi_N``, that is, when its
    product with ``x^(N / p) - 1`` for every prime ``p | N`` vanishes
    modulo ``x^N - 1``: that product vanishes at every other ``N``-th root
    of unity, and at none of the primitive ones.
    """
    n = matrix.n
    N = lcm(*(2 * m for _, _, m in matrix.pairs() if m != INF and m > 2))
    nbrs: List[List[Tuple[int, Optional[int]]]] = [[] for _ in range(n)]
    for i, j, m in matrix.pairs():
        if m == INF or m > 2:
            shift = None if m == INF else N // (2 * m)
            nbrs[i].append((j, shift))
            nbrs[j].append((i, shift))
    f = [[1] + [0] * (N - 1) for _ in range(n)]
    for l in word:
        if l == 0 or abs(l) > n:
            raise ValueError(f"letter {l} outside alphabet of rank {n}")
        s = abs(l) - 1
        fs = f[s]
        for t, a in nbrs[s]:
            if a is None:
                f[t] = [x + 2 * y for x, y in zip(f[t], fs)]
            else:
                f[t] = [x + y + z for x, y, z in zip(f[t], fs[-a:] + fs[:-a], fs[a:] + fs[:a])]
        f[s] = [-x for x in fs]
    primes = [p for p in range(2, N + 1) if N % p == 0 and all(p % q for q in range(2, p))]
    for v in f:
        v[0] -= 1
        for p in primes:
            a = N // p
            v[:] = [x - y for x, y in zip(v[-a:] + v[:-a], v)]
    return not any(map(any, f))
