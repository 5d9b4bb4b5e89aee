"""The Reidemeister-Schreier engine.

Builds Schreier transversals for homomorphisms onto ``Z_2^n``, evaluates
the Schreier map, and rewrites words over the Schreier generators by a
walk through the cosets, one step-table lookup per letter.  Kernel
presentations come in two modes: ``raw`` keeps defining words at the
free-group level (one symbol per nontrivial transversal/generator pair,
one relator per ambient relator read from each coset); ``evaluated`` is
the raw kernel with the symbols merged whose defining words are equal in
the right-angled Coxeter group of the instance's commuting pairs, which
maps onto the ambient (every ambient generator is an involution).
Equality there is decided exactly by :func:`right_angled_nf`.  The
evaluated relators are the raw ones with each symbol replaced by its
merged letter: read from the raw kernel when the caller has it, else
walked from the cosets with no raw relator built.  Both modes record the
transversal they were rewritten over.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from .presentations import (
    EmbeddingInstance,
    HomZ2n,
    Presentation,
    _setattr,
    _Value,
    gf2_rank,
    serialize_word,
)
from .words import Word, cyclic_trim, free_reduce, invert, letter, relator_nf


def check_hom(pres: Presentation, hom: HomZ2n) -> bool:
    """True iff every relator of ``pres`` maps to the zero vector."""
    if len(hom.images) != pres.rank:
        raise ValueError("missing generator image")
    return all(hom.word_image(r) == 0 for r in pres.relators)


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
    if not check_hom(pres, hom):
        raise ValueError("hom does not kill every relator")
    subset = tuple(sorted(set(subset)))
    for g in subset:
        if not 0 <= g < pres.rank:
            raise ValueError(f"generator index {g} outside alphabet")
    reps: Dict[int, Word] = {0: ()}
    queue = [0]
    for v in queue:  # the queue grows as the walk finds cosets
        for g in subset:
            nv = v ^ hom.images[g]
            if nv not in reps:
                reps[nv] = reps[v] + (letter(g),)
                queue.append(nv)
    if gf2_rank([hom.images[g] for g in subset]) != image_rank(hom):
        raise ValueError("subset does not span the image; unreachable cosets")
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

    def __init__(self, name: str, coset_word: Word, gen: int, defining: Word):
        _setattr(self, "name", name)
        _setattr(self, "coset_word", coset_word)
        _setattr(self, "gen", gen)
        _setattr(self, "defining", defining)


class SymbolDict:
    """Raw kernel symbols: every nontrivial (representative, generator)
    pair gets its own symbol, named after that origin.  The defining word
    of the pair (t, x) is t x (rep of the target coset)^-1, freely reduced.

    ``cosets`` maps each transversal image vector to its index in
    transversal order.  ``steps[i]`` is the step table of coset ``i``: a
    signed letter read there maps to (the letter of its symbol, 0 when
    trivial, and the index of the coset it leads to).  A letter x at coset
    v reads the symbol of (v, x); x^-1 reads the inverse of the symbol of
    (v', x), v' = v + image(x), and leads to v'."""

    def __init__(self, pres: Presentation, hom: HomZ2n, trans: Dict[int, Word]):
        self.table: list[SchreierGen] = []
        self.cosets: Dict[int, int] = {v: i for i, v in enumerate(trans)}
        self.steps: list[Dict[int, Tuple[int, int]]] = [{} for _ in trans]
        inverses = [invert(t) for t in trans.values()]
        images = hom.images
        for i, (v, t) in enumerate(trans.items()):
            step = self.steps[i]
            for x in range(pres.rank):
                j = self.cosets[v ^ images[x]]
                word = free_reduce(t + (letter(x),) + inverses[j])
                s = 0
                if word:
                    self.table.append(SchreierGen(f"y{i}_{pres.gens[x]}", t, x, word))
                    s = len(self.table)
                step[x + 1] = (s, j)
                self.steps[j][-x - 1] = (-s, i)


def merge_symbols(
    inst: EmbeddingInstance, table: Sequence[SchreierGen]
) -> Tuple[Tuple[SchreierGen, ...], Tuple[Word, ...]]:
    """Evaluated symbols of a raw symbol table, and each raw symbol's image.

    In table order, each raw defining word is put in :func:`right_angled_nf`
    over the instance's commuting pairs.  An empty word drops out (image:
    the empty word); a word equal to an earlier symbol's word merges into
    it with sign +1, one whose normalized inverse equals it with sign -1; a
    new word makes a symbol named after its first origin, or after the
    expected generator it or its inverse equals.
    """
    near = commuting_letters(inst.ambient.rank, inst.commuting)
    expected = [
        (name, right_angled_nf(near, w)) for name, w in zip(inst.expected_kernel.gens, inst.expected_words)
    ]
    merged: list[SchreierGen] = []
    by_word: Dict[Word, int] = {}
    images: list[Word] = []
    for g in table:
        word = right_angled_nf(near, g.defining)
        if not word:
            images.append(())
            continue
        if word in by_word:
            images.append((letter(by_word[word]),))
            continue
        inv_word = right_angled_nf(near, word[::-1])  # the inverse, in involutions
        if inv_word in by_word:
            images.append((letter(by_word[inv_word], -1),))
            continue
        name, canonical, sign = g.name, word, 1
        for ename, ew in expected:
            if word == ew:
                name = ename
                break
            if inv_word == ew:
                name, canonical, sign = ename, ew, -1
                break
        by_word[canonical] = len(merged)
        images.append((letter(len(merged), sign),))
        merged.append(SchreierGen(name, g.coset_word, g.gen, canonical))
    return tuple(merged), tuple(images)


class KernelPresentation(_Value):
    """Kernel presentation plus the generator table, mode tag and the
    transversal it was rewritten over."""

    __slots__ = ("presentation", "table", "mode", "transversal")

    def __init__(
        self, presentation: Presentation, table: Tuple[SchreierGen, ...], mode: str, transversal: Dict[int, Word]
    ):
        _setattr(self, "presentation", presentation)
        _setattr(self, "table", table)
        _setattr(self, "mode", mode)
        _setattr(self, "transversal", transversal)

    def table_rows(self, ambient: Presentation):
        """Display rows (name, origin t, origin x, defining word)."""
        rows = []
        for g in self.table:
            t_str = serialize_word(g.coset_word, ambient.gens) or "1"
            rows.append((g.name, t_str, ambient.gens[g.gen], serialize_word(g.defining, ambient.gens)))
        return rows


def _walk(steps: Sequence[Dict[int, Tuple[int, int]]], w: Sequence[int], i: int) -> Tuple[Word, int]:
    """The letters read along ``w`` through ``steps`` from coset index
    ``i``, inverse pairs cancelled as they are appended, and the index of
    the coset where the walk ends."""
    out: list[int] = []
    try:
        for l in w:
            s, i = steps[i][l]
            if s:
                if out and out[-1] == -s:
                    out.pop()
                else:
                    out.append(s)
    except KeyError:
        raise ValueError(f"letter {l} outside the alphabet") from None
    return tuple(out), i


def reidemeister_rewrite(hom: HomZ2n, symbols: SymbolDict, w: Sequence[int], coset: int = 0) -> Word:
    """Rewrite ``w``, read from ``coset``, over the raw Schreier symbols.

    The walk starts at ``coset`` (the image vector of a transversal
    element) and reads one entry of the step table of
    :class:`SymbolDict` per letter; ``hom`` is the homomorphism
    ``symbols`` was built for.  The result is the rewrite of t w t^-1 from
    the trivial coset, t the representative of ``coset``: the letters of
    a prefix-closed transversal contribute only trivial symbols.  Inverse
    pairs cancel as the walk appends, so the result is freely reduced.
    Raises if a letter is outside the alphabet, if ``coset`` is not a
    transversal vector, or if the walk does not end where it started,
    i.e. ``w`` has nonzero image.
    """
    i = symbols.cosets.get(coset)
    if i is None:
        raise ValueError(f"coset {coset} outside the transversal")
    out, end = _walk(symbols.steps, w, i)
    if end != i:
        raise ValueError("word is not in the kernel (nonzero image)")
    return out


def raw_kernel_presentation(pres: Presentation, hom: HomZ2n, subset: Sequence[int]) -> KernelPresentation:
    """Free-group-faithful kernel presentation: one symbol per nontrivial
    (representative, generator) pair, and one relator per (coset, ambient
    relator) pair, the relator rewritten from that coset; empty relators
    are dropped."""
    trans = transversal(pres, hom, subset)
    symbols = SymbolDict(pres, hom, trans)
    rels = []
    # each image is cyclically reduced: a cyclically reduced relator walks
    # the coset graph without backtracking, so between two of its symbols,
    # cyclically, lies no closed path of trivial ones, as a cancelling pair
    # would need
    for v in trans:
        for r in pres.relators:
            img = reidemeister_rewrite(hom, symbols, r, v)
            if img:
                rels.append(img)
    kernel = Presentation.trusted(tuple(g.name for g in symbols.table), tuple(rels))
    return KernelPresentation(kernel, tuple(symbols.table), "raw", trans)


def evaluated_kernel_presentation(
    inst: EmbeddingInstance, raw: Optional[KernelPresentation] = None
) -> KernelPresentation:
    """Evaluated kernel presentation of an embedding instance: the raw
    kernel with the symbols merged whose defining words are equal in the
    right-angled Coxeter group of the instance's commuting pairs, which
    maps onto the ambient.

    The raw symbols are merged by :func:`merge_symbols`, which gives each
    one an image of at most one letter.  ``raw`` is the instance's raw
    kernel when the caller already has it: its relators are then read
    through a one-coset step table from raw letter to merged letter.
    Without it no raw relator is built: each (coset, ambient relator) pair
    is walked through the raw step table with every symbol replaced by its
    image.  Either way the images are freely reduced as they are read,
    and are deduplicated by relator normal form in first-appearance order.
    """
    if raw is None:
        trans = transversal(inst.ambient, inst.hom, inst.transversal_gens)
        symbols = SymbolDict(inst.ambient, inst.hom, trans)
        table, merged = _merged_letters(inst, symbols.table)
        steps = [{l: (merged[s], j) for l, (s, j) in step.items()} for step in symbols.steps]
        words = (_walk(steps, r, i)[0] for i in range(len(steps)) for r in inst.ambient.relators)
    else:
        trans = raw.transversal
        table, merged = _merged_letters(inst, raw.table)
        steps = [{l: (m, 0) for l, m in merged.items() if l}]
        words = (_walk(steps, r, 0)[0] for r in raw.presentation.relators)
    rels = []
    seen = set()
    forms = set()
    for img in words:
        # equal images have equal normal forms; most images repeat
        if not img or img in seen:
            continue
        seen.add(img)
        nf = relator_nf(img)
        if nf not in forms:
            forms.add(nf)
            rels.append(cyclic_trim(img))
    kernel = Presentation.trusted(tuple(g.name for g in table), tuple(rels))
    return KernelPresentation(kernel, table, "evaluated", trans)


def _merged_letters(
    inst: EmbeddingInstance, table: Sequence[SchreierGen]
) -> Tuple[Tuple[SchreierGen, ...], Dict[int, int]]:
    """The evaluated symbols of :func:`merge_symbols`, and each signed raw
    letter, and 0, mapped to its merged letter or 0."""
    merged_table, images = merge_symbols(inst, table)
    merged = {0: 0}
    for k, img in enumerate(images, 1):
        m = img[0] if img else 0
        merged[k] = m
        merged[-k] = -m
    return merged_table, merged
