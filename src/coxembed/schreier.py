"""The Reidemeister-Schreier engine.

Builds Schreier transversals for homomorphisms onto ``Z_2^n``, the raw
Schreier symbols and, per coset, a step table that reads each letter
there as one symbol and the coset it leads to.  Kernel presentations
come in two modes: ``raw`` keeps defining words at the free-group level
(one symbol per nontrivial transversal/generator pair, one relator per
ambient relator walked through the step tables from each coset);
``evaluated`` is the raw kernel with the symbols merged whose defining
words are equal in the right-angled Coxeter group of the instance's
commuting pairs, which maps onto the ambient (every ambient generator is
an involution).  Equality there is decided exactly by
:func:`right_angled_nf`.  The evaluated kernel is built with no raw
relator, from coset 0, through the transversal generators' action by
conjugation on the expected words.  An instance outside the premise of
:func:`evaluated_kernel_presentation` is refused with a ``ValueError``
that names the condition it misses; every built-in family meets it.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from typing import Dict, Sequence, Set, Tuple

from .presentations import (
    EmbeddingInstance,
    HomZ2n,
    Presentation,
    _setattr,
    _Value,
    gf2_rank,
    serialize_word,
)
from .words import Word, code_nf, cyclic_trim, decode, free_reduce, invert, letter


def image_rank(hom: HomZ2n) -> int:
    """Rank over GF(2) of the image; equals ``n`` iff the hom is onto."""
    return gf2_rank(hom.images)


def transversal(pres: Presentation, hom: HomZ2n, subset: Sequence[int]) -> Dict[int, Word]:
    """Schreier transversal of coset representatives: each image vector
    mapped to its representative, in breadth-first order.

    Representatives are positive words over the declared generator subset,
    built breadth-first so the set is prefix-closed and each word has
    minimal length, ties broken by discovery order.  The zero vector is
    represented by the empty word.
    """
    if len(hom.images) != pres.rank:
        raise ValueError("missing generator image")
    if any(hom.word_image(r) for r in pres.relators):
        raise ValueError("hom does not kill every relator")
    subset = tuple(sorted(set(subset)))
    for g in subset:
        if not 0 <= g < pres.rank:
            raise ValueError(f"generator index {g} outside alphabet")
    reps = _reps(hom.images, subset)
    # the walk reaches exactly the span of the subset's images
    if len(reps) != 1 << image_rank(hom):
        raise ValueError("subset does not span the image; unreachable cosets")
    return reps


def _reps(images: Sequence[int], subset: Sequence[int]) -> Dict[int, Word]:
    """The breadth-first walk of :func:`transversal` over the generators
    ``subset``, sorted, with no check: each vector in the span of their
    ``images`` mapped to its representative."""
    reps: Dict[int, Word] = {0: ()}
    queue = [0]
    for v in queue:  # the queue grows as the walk finds cosets
        for g in subset:
            nv = v ^ images[g]
            if nv not in reps:
                reps[nv] = reps[v] + (letter(g),)
                queue.append(nv)
    return reps


def commuting_letters(rank: int, commuting) -> Dict[int, Set[int]]:
    """Each letter ``1..rank`` mapped to the letters of the generators it
    commutes with, for ``commuting`` pairs of generator indices."""
    near: Dict[int, Set[int]] = {g + 1: set() for g in range(rank)}
    for a, b in commuting:
        near[a + 1].add(b + 1)
        near[b + 1].add(a + 1)
    return near


def right_angled_nf(near: Dict[int, Set[int]], w: Sequence[int]) -> Word:
    """The least reduced word, letters compared as integers, of the element
    ``w`` names in the right-angled Coxeter group where letter ``a``
    commutes with the letters ``near[a]`` (see :func:`commuting_letters`).

    Signs are dropped, since every generator is an involution.  Each
    letter walks left past the letters it commutes with; reaching its own
    letter, the two cancel, and otherwise it goes in before the first
    greater letter from there.  Reduced words of one element differ only
    by commutations (Tits), and a word kept least in this way stays least
    (the lexicographic normal form of a trace: Anisimov and Knuth, 1979).
    """
    out: list[int] = []
    for l in w:
        g = abs(l)
        commutes = near[g]
        i = len(out)
        while i and out[i - 1] in commutes:
            i -= 1
        if i and out[i - 1] == g:
            del out[i - 1]
            continue
        while i < len(out) and out[i] < g:
            i += 1
        out.insert(i, g)
    return tuple(out)


class SchreierGen(_Value):
    """A surviving kernel symbol: its first origin and defining word."""

    __slots__ = ("name", "coset_word", "gen", "defining")

    # sets its fields directly, not through _Value's constructor: this is
    # the one value built per raw Schreier symbol (2^n * 2n per kernel),
    # and the shared constructor takes about 70 % longer per call
    def __init__(self, name: str, coset_word: Word, gen: int, defining: Word):
        _setattr(self, "name", name)
        _setattr(self, "coset_word", coset_word)
        _setattr(self, "gen", gen)
        _setattr(self, "defining", defining)


class KernelPresentation(_Value):
    """Kernel presentation plus its generator table."""

    __slots__ = ("presentation", "table")

    def table_rows(self, ambient: Presentation):
        """Display rows (name, origin t, origin x, defining word)."""
        rows = []
        for g in self.table:
            t_str = serialize_word(g.coset_word, ambient.gens) or "1"
            rows.append((g.name, t_str, ambient.gens[g.gen], serialize_word(g.defining, ambient.gens)))
        return rows


def _symbols(
    pres: Presentation, hom: HomZ2n, subset: Sequence[int]
) -> Tuple[list[SchreierGen], list[Dict[int, Tuple[int, int]]]]:
    """Raw kernel symbols over the :func:`transversal` of ``subset``, and
    the step table of each coset, cosets in transversal order.

    Every nontrivial (representative, generator) pair gets its own symbol,
    named after that origin.  The defining word of the pair (t, x) is
    t x (rep of the target coset)^-1, freely reduced.  ``steps[i]`` is
    the step table of coset ``i``: a signed letter read there maps to (the
    letter of its symbol, 0 when trivial, and the index of the coset it
    leads to).  A letter x at coset v reads the symbol of (v, x); x^-1
    reads the inverse of the symbol of (v', x), v' = v + image(x), and
    leads to v'."""
    trans = transversal(pres, hom, subset)
    cosets = {v: i for i, v in enumerate(trans)}
    table: list[SchreierGen] = []
    steps: list[Dict[int, Tuple[int, int]]] = [{} for _ in trans]
    inverses = [invert(t) for t in trans.values()]
    images = hom.images
    for i, (v, t) in enumerate(trans.items()):
        step = steps[i]
        for x in range(pres.rank):
            j = cosets[v ^ images[x]]
            word = free_reduce(t + (letter(x),) + inverses[j])
            s = 0
            if word:
                table.append(SchreierGen(f"y{i}_{pres.gens[x]}", t, x, word))
                s = len(table)
            step[x + 1] = (s, j)
            steps[j][-x - 1] = (-s, i)
    return table, steps


def _walk(steps: Sequence[Dict[int, Tuple[int, int]]], w: Sequence[int], i: int) -> Word:
    """The nontrivial symbols read along ``w`` through ``steps`` from coset
    index ``i``."""
    out: list[int] = []
    for l in w:
        s, i = steps[i][l]
        if s:
            out.append(s)
    return tuple(out)


def raw_kernel_presentation(pres: Presentation, hom: HomZ2n, subset: Sequence[int]) -> KernelPresentation:
    """Free-group-faithful kernel presentation: one symbol per nontrivial
    (representative, generator) pair, and one relator per (coset, ambient
    relator) pair, cosets in transversal order, the relator walked from
    that coset; empty relators are dropped.  :func:`transversal` has
    checked that every relator has zero image, so each walk ends where it
    started."""
    table, steps = _symbols(pres, hom, subset)
    # each image is freely and cyclically reduced as read: a cyclically
    # reduced relator walks the coset graph without backtracking, so
    # between two of its symbols, cyclically, lies no closed path of
    # trivial ones (transversal tree edges), as a cancelling pair would need
    rels = (img for i in range(len(steps)) for r in pres.relators if (img := _walk(steps, r, i)))
    kernel = Presentation.trusted(tuple(g.name for g in table), tuple(rels))
    return KernelPresentation(kernel, tuple(table))




def evaluated_kernel_presentation(inst: EmbeddingInstance) -> KernelPresentation:
    """Evaluated kernel presentation of an embedding instance: the raw
    kernel with the symbols merged whose defining words are equal in the
    right-angled Coxeter group of the instance's commuting pairs, which
    maps onto the ambient, read from coset 0 with no raw relator built.

    The merge rule: in raw-table order, each raw defining word is put in
    :func:`right_angled_nf`; an empty word drops out; a word equal to an
    earlier merged symbol's word, or to its inverse, merges into it with
    sign +1 or -1; a new word makes a merged symbol with the name and word
    of the first expected generator it or its inverse equals, and the sign
    -1 for the inverse, which under the premise below every nontrivial
    word has.  Relator images are
    freely reduced and deduplicated by relator normal form in
    first-appearance order, cosets in transversal order.

    Write C for the right-angled Coxeter group of the commuting pairs, E
    for the expected kernel and phi for ``a_j -> expected_words[j]``.  The
    premise, each condition refused by name with a ``ValueError``: the
    transversal generators ``t_i`` map one-to-one onto the basis of
    ``Z_2^n`` and commute pairwise; the expected words are nontrivial in
    C and pairwise distinct up to inversion, so that each puts a code of
    its own in the expected-letter table (its word to ``chr(2k)``, its
    inverse's to ``chr(2k + 1)``, an element equal to its own inverse
    keeping ``chr(2k)``); each ``t_i phi(a_j) t_i`` equals
    ``phi(a_k)^(+-1)`` in C, which defines a signed permutation alpha_i of
    E's letters; and each coset-0 symbol ``sigma_x = x t_(img x)`` is
    trivial in C or ``phi(a_k)^(+-1)``, its letter psi(sigma_x), both
    found in that table.  Then the representative of coset v is, in C,
    the involution ``t_v``, the product of the ``t_i`` over the bits of v
    with ``t_u t_v = t_(u+v)``, so the raw symbol of (v, x), ``t_v x t_(v +
    img x)``, is ``t_v sigma_x t_v`` and its letter is
    ``alpha_v(psi(sigma_x))``: conjugation maps inverse pairs to inverse
    pairs, and an element equal to its inverse keeps the sign +1 on both
    sides (Magnus, Karrass and Solitar, *Combinatorial Group Theory*,
    1966, ch. 2: W is H split by the ``t_i``).  So every merged symbol is
    an expected generator, with its name and word, numbered by its first
    (v, x) in raw-table order and carrying that origin, and the walk of a
    relator from coset v reads alpha_v of its walk from coset 0.  A signed
    relabelling commutes with free reduction, so each image is one
    :meth:`str.translate` of the coset-0 image in E codes, by alpha_v
    followed by the merged numbering.  The cost is n k + 2k + 2n normal
    forms, for k expected generators, and 2^n translations per ambient
    relator."""
    amb, images, tgens = inst.ambient, inst.hom.images, inst.transversal_gens
    if sorted(images[g] for g in tgens) != [1 << i for i in range(inst.hom.n)]:
        raise ValueError("the transversal generators do not map one-to-one onto the basis of Z_2^n")
    for a, b in combinations(sorted(tgens), 2):
        if (a, b) not in inst.commuting:
            raise ValueError(f"the transversal generators {amb.gens[a]} and {amb.gens[b]} do not commute")
    near = commuting_letters(amb.rank, inst.commuting)
    expected = [right_angled_nf(near, w) for w in inst.expected_words]
    code: Dict[Word, str] = {}  # the expected-letter table
    for k, w in enumerate(expected):
        code.setdefault(w, chr(2 * k))
        code.setdefault(right_angled_nf(near, w[::-1]), chr(2 * k + 1))
    # a word equal to an earlier one or its inverse puts no code in
    if not all(expected) or len({ord(c) >> 1 for c in code.values()}) != len(expected):
        raise ValueError("the expected words are not nontrivial and distinct up to inversion")
    # alpha[image of t_i]: the code string whose character c is alpha_i(c)
    alpha = {}
    for g in tgens:
        a = [code.get(right_angled_nf(near, (g + 1, *w, g + 1))) for w in expected]
        if None in a:
            raise ValueError(f"conjugation by {amb.gens[g]} does not permute the expected words up to inversion")
        alpha[images[g]] = "".join(c + chr(ord(c) ^ 1) for c in a)
    # EmbeddingInstance has checked the hom, and the basis premise makes
    # the transversal generators span Z_2^n
    trans = _reps(images, sorted(tgens))
    psi = []  # psi(sigma_x) as an E code, "" when trivial
    for x in range(amb.rank):
        w = right_angled_nf(near, (x + 1, *trans[images[x]]))
        if w and w not in code:
            raise ValueError(f"the coset-0 symbol of {amb.gens[x]} is not an expected word up to inversion")
        psi.append(code[w] if w else "")
    # alpha_v, the composite over the bits of v, by the last letter of
    # v's representative, whose coset comes earlier in transversal order
    alphas = {0: "".join(map(chr, range(2 * len(expected))))}
    for v, t in trans.items():
        if v:
            b = images[t[-1] - 1]
            alphas[v] = alphas[v ^ b].translate(alpha[b])
    sigmas = "".join(psi)
    xs = [x for x, c in enumerate(psi) if c]
    table: list[SchreierGen] = []
    merged: Dict[int, str] = {}  # E code -> merged code
    for v, t in trans.items():
        letters = sigmas.translate(alphas[v])  # of the nontrivial symbols of coset v
        if merged.keys() >= set(map(ord, letters)):
            continue
        for x, c in zip(xs, letters):
            if ord(c) not in merged:
                e = ord(c) >> 1
                merged[2 * e] = chr(2 * len(table))
                merged[2 * e + 1] = chr(2 * len(table) + 1)
                table.append(SchreierGen(inst.expected_kernel.gens[e], t, x, expected[e]))
    walked = []  # each nonempty relator image walked from coset 0, in E codes
    for r in amb.relators:
        out: list[int] = []
        v = 0
        for l in r:
            x = abs(l) - 1
            if l < 0:
                v ^= images[x]
            if psi[x]:
                c = ord(alphas[v][ord(psi[x])]) ^ (l < 0)
                if out and out[-1] == c ^ 1:
                    out.pop()
                else:
                    out.append(c)
            if l > 0:
                v ^= images[x]
        if out:
            walked.append("".join(map(chr, out)))
    # alpha_v into merged codes: every E code an image holds is a symbol
    per_coset = (alphas[v].translate(merged) for v in trans)
    rels = []
    forms = set()
    # equal images have equal normal forms; most images repeat
    for c in dict.fromkeys(chain.from_iterable(map(str.translate, walked, repeat(b)) for b in per_coset)):
        if (nf := code_nf(c)) not in forms:
            forms.add(nf)
            rels.append(cyclic_trim(decode(c)))
    kernel = Presentation.trusted(tuple(g.name for g in table), tuple(rels))
    return KernelPresentation(kernel, tuple(table))
