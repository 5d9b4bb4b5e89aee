"""The Reidemeister-Schreier engine.

Builds Schreier transversals for homomorphisms onto ``Z_2^n``, evaluates
the Schreier map, and rewrites words over the Schreier generators by a
walk through the cosets.  Kernel presentations come in two modes: ``raw``
keeps defining words at the free-group level (one symbol per nontrivial
transversal/generator pair, one relator per ambient relator read from
each coset); ``evaluated`` is the raw kernel with the symbols merged whose
defining words are equal in the right-angled Coxeter group of the
instance's commuting pairs, which maps onto the ambient (every ambient
generator is an involution), computed from the same single rewrite.
Equality there is decided exactly by :func:`right_angled_nf`.  Both
modes record the transversal they were rewritten over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Set, Tuple

from .presentations import (
    EmbeddingInstance,
    HomZ2n,
    Presentation,
    gf2_rank,
    serialize_word,
)
from .words import Word, cyclic_trim, expand_kernel_word, free_reduce, invert, letter, relator_nf


def check_hom(pres: Presentation, hom: HomZ2n) -> bool:
    """True iff every relator of ``pres`` maps to the zero vector."""
    if len(hom.images) != pres.rank:
        raise ValueError("missing generator image")
    return all(hom.word_image(r) == 0 for r in pres.relators)


def image_rank(hom: HomZ2n) -> int:
    """Rank over GF(2) of the image; equals ``n`` iff the hom is onto."""
    return gf2_rank(hom.images)


@dataclass(frozen=True)
class Transversal:
    """Schreier transversal of coset representatives, keyed by image vector.

    Representatives are positive words over the declared generator subset,
    built breadth-first so the set is prefix-closed and each word has
    minimal length, ties broken by discovery order.  The zero vector is
    represented by the empty word.
    """

    reps: Dict[int, Word]
    order: Tuple[int, ...]
    subset: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.order)


def transversal(pres: Presentation, hom: HomZ2n, subset: Sequence[int]) -> Transversal:
    if not check_hom(pres, hom):
        raise ValueError("hom does not kill every relator")
    subset = tuple(sorted(set(subset)))
    for g in subset:
        if not 0 <= g < pres.rank:
            raise ValueError(f"generator index {g} outside alphabet")
    reps: Dict[int, Word] = {0: ()}
    order = [0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for g in subset:
            nv = v ^ hom.images[g]
            if nv not in reps:
                reps[nv] = reps[v] + (letter(g),)
                order.append(nv)
    if gf2_rank([hom.images[g] for g in subset]) != image_rank(hom):
        raise ValueError("subset does not span the image; unreachable cosets")
    return Transversal(reps, tuple(order), subset)


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


@dataclass(frozen=True)
class SchreierGen:
    """A surviving kernel symbol: its first origin and defining word."""

    name: str
    coset: int
    coset_word: Word
    gen: int
    defining: Word


class SymbolDict:
    """Raw kernel symbols: every nontrivial (representative, generator)
    pair gets its own symbol, named after that origin.  ``letters`` maps
    each (coset, generator) pair to its symbol's letter, 0 when trivial.
    The defining word of the pair (t, x) is t x (rep of the target
    coset)^-1, freely reduced."""

    def __init__(self, pres: Presentation, hom: HomZ2n, trans: Transversal):
        self.table: list[SchreierGen] = []
        self.letters: Dict[Tuple[int, int], int] = {}
        reps = trans.reps
        for k, v in enumerate(trans.order):
            t = reps[v]
            for x in range(pres.rank):
                word = free_reduce(t + (letter(x),) + invert(reps[v ^ hom.images[x]]))
                if word:
                    self.table.append(SchreierGen(f"y{k}_{pres.gens[x]}", v, t, x, word))
                    self.letters[(v, x)] = len(self.table)
                else:
                    self.letters[(v, x)] = 0

    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.table)


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
        merged.append(replace(g, name=name, defining=canonical))
    return tuple(merged), tuple(images)


@dataclass(frozen=True)
class KernelPresentation:
    """Kernel presentation plus the generator table, mode tag and the
    transversal it was rewritten over."""

    presentation: Presentation
    table: Tuple[SchreierGen, ...]
    mode: str
    transversal: Transversal

    def table_rows(self, ambient: Presentation):
        """Display rows (name, origin t, origin x, defining word)."""
        rows = []
        for g in self.table:
            t_str = serialize_word(g.coset_word, ambient.gens) or "1"
            rows.append((g.name, t_str, ambient.gens[g.gen], serialize_word(g.defining, ambient.gens)))
        return rows


def reidemeister_rewrite(
    trans: Transversal,
    hom: HomZ2n,
    symbols: SymbolDict,
    w: Sequence[int],
    coset: int = 0,
) -> Word:
    """Rewrite ``w``, read from ``coset``, over the raw Schreier symbols.

    The walk starts at ``coset`` (an image vector of ``trans``).  A
    positive letter x at coset v contributes the symbol of the pair
    (v, x); a letter x^-1 steps to v' = v + image(x) and contributes the
    inverse of the symbol at (v', x).  The result is the rewrite of
    t w t^-1 from the trivial coset, t the representative of ``coset``:
    the letters of a prefix-closed transversal contribute only trivial
    symbols.  Inverse pairs cancel as the walk appends, so the result is
    freely reduced.  Raises if the walk does not end where it started, i.e.
    ``w`` has nonzero image.
    """
    letters = symbols.letters
    images = hom.images
    out: list[int] = []
    v = coset
    for l in w:
        if l > 0:
            s = letters[(v, l - 1)]
            v ^= images[l - 1]
        else:
            v ^= images[-l - 1]
            s = -letters[(v, -l - 1)]
        if s:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
    if v != coset:
        raise ValueError("word is not in the kernel (nonzero image)")
    return tuple(out)


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
    for v in trans.order:
        for r in pres.relators:
            img = reidemeister_rewrite(trans, hom, symbols, r, v)
            if img:
                rels.append(img)
    kernel = Presentation.trusted(symbols.names(), tuple(rels))
    return KernelPresentation(kernel, tuple(symbols.table), "raw", trans)


def evaluated_kernel_presentation(
    inst: EmbeddingInstance, raw: Optional[KernelPresentation] = None
) -> KernelPresentation:
    """Evaluated kernel presentation of an embedding instance: the raw
    kernel with the symbols merged whose defining words are equal in the
    right-angled Coxeter group of the instance's commuting pairs, which
    maps onto the ambient.

    The raw symbols are merged by :func:`merge_symbols`, their images are
    substituted into the raw relators, and the results are deduplicated by
    relator normal form in first-appearance order.  ``raw`` is the
    instance's raw kernel when the caller already has it.
    """
    if raw is None:
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    table, images = merge_symbols(inst, raw.table)
    rels = []
    seen = set()
    for r in raw.presentation.relators:
        img = expand_kernel_word(r, images)
        if not img:
            continue
        nf = relator_nf(img)
        if nf not in seen:
            seen.add(nf)
            rels.append(cyclic_trim(img))
    kernel = Presentation.trusted(tuple(g.name for g in table), tuple(rels))
    return KernelPresentation(kernel, table, "evaluated", raw.transversal)
