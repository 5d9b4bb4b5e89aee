"""The Reidemeister-Schreier engine.

Builds Schreier transversals for homomorphisms onto ``Z_2^n``, evaluates
the Schreier map, and rewrites words over the Schreier generators by a
walk through the cosets.  Kernel presentations come in two modes: ``raw``
keeps defining words at the free-group level (one symbol per nontrivial
transversal/generator pair, one relator per ambient relator read from
each coset); ``evaluated`` is the raw kernel with its defining words
normalized by the instance's involution and commutation rules and the
symbols that then coincide merged, computed from the same single rewrite.
Both record the transversal they were rewritten over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from .presentations import (
    EmbeddingInstance,
    HomZ2n,
    Presentation,
    RewriteRules,
    gf2_rank,
    serialize_word,
)
from .words import Word, expand_kernel_word, free_reduce, invert, letter, relator_nf


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


def schreier_word(trans: Transversal, hom: HomZ2n, t: Word, x: int) -> Word:
    """The Schreier map value t x (rep of the target coset)^-1, freely reduced."""
    v = hom.word_image(t)
    if trans.reps.get(v) != tuple(t):
        raise ValueError("t is not a representative of this transversal")
    target = v ^ hom.images[x]
    return free_reduce(tuple(t) + (letter(x),) + invert(trans.reps[target]))


def normalize_with_rules(rules: RewriteRules, w: Sequence[int]) -> Word:
    """Rewrite ``w`` to a fixpoint, applying at the leftmost position:
    inverse removal on involution letters, deletion of adjacent cancelling
    or repeated-involution letters, and swaps of adjacent commuting
    letters into ascending generator order.  Idempotent and
    length-non-increasing.
    """
    inv = rules.involutions
    comm = rules.commuting
    v = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(v)):
            let = v[i]
            if let < 0 and (-let - 1) in inv:
                v[i] = -let
                changed = True
                break
            if i + 1 < len(v):
                nxt = v[i + 1]
                if nxt == -let:
                    del v[i : i + 2]
                    changed = True
                    break
                if nxt == let and let > 0 and (let - 1) in inv:
                    del v[i : i + 2]
                    changed = True
                    break
                a, b = abs(let) - 1, abs(nxt) - 1
                if a > b and (b, a) in comm:
                    v[i], v[i + 1] = nxt, let
                    changed = True
                    break
    return tuple(v)


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
    pair gets its own symbol, named after that origin."""

    def __init__(self, pres: Presentation, hom: HomZ2n, trans: Transversal):
        self.table: list[SchreierGen] = []
        self._by_origin: Dict[Tuple[int, int], Optional[int]] = {}
        for k, v in enumerate(trans.order):
            t = trans.reps[v]
            for x in range(pres.rank):
                word = schreier_word(trans, hom, t, x)
                if word:
                    self._by_origin[(v, x)] = len(self.table)
                    self.table.append(SchreierGen(f"y{k}_{pres.gens[x]}", v, t, x, word))
                else:
                    self._by_origin[(v, x)] = None

    def resolve(self, coset: int, x: int) -> Optional[int]:
        """Symbol index for the pair, or None when trivial."""
        return self._by_origin[(coset, x)]

    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.table)


def merge_symbols(
    inst: EmbeddingInstance, table: Sequence[SchreierGen]
) -> Tuple[Tuple[SchreierGen, ...], Tuple[Word, ...]]:
    """Evaluated symbols of a raw symbol table, and each raw symbol's image.

    In table order, each raw defining word is normalized with the instance
    rules.  An empty word drops out (image: the empty word); a word equal
    to an earlier symbol's word merges into it with sign +1, one whose
    normalized inverse equals it with sign -1; a new word makes a symbol
    named after its first origin, or after the expected generator it or
    its inverse equals.
    """
    rules = inst.rules
    expected = [
        (name, normalize_with_rules(rules, w))
        for name, w in zip(inst.expected_kernel.gens, inst.expected_words)
    ]
    merged: list[SchreierGen] = []
    by_word: Dict[Word, int] = {}
    images: list[Word] = []
    for g in table:
        word = normalize_with_rules(rules, g.defining)
        if not word:
            images.append(())
            continue
        if word in by_word:
            images.append((letter(by_word[word]),))
            continue
        inv_word = normalize_with_rules(rules, invert(word))
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
    symbols.  Raises if the walk does not end where it started, i.e.
    ``w`` has nonzero image.
    """
    out: list[int] = []
    v = coset
    for l in w:
        x = abs(l) - 1
        if l > 0:
            idx = symbols.resolve(v, x)
            v ^= hom.images[x]
            if idx is not None:
                out.append(letter(idx))
        else:
            v ^= hom.images[x]
            idx = symbols.resolve(v, x)
            if idx is not None:
                out.append(letter(idx, -1))
    if v != coset:
        raise ValueError("word is not in the kernel (nonzero image)")
    return free_reduce(out)


def raw_kernel_presentation(pres: Presentation, hom: HomZ2n, subset: Sequence[int]) -> KernelPresentation:
    """Free-group-faithful kernel presentation: one symbol per nontrivial
    (representative, generator) pair, and one relator per (coset, ambient
    relator) pair, the relator rewritten from that coset; empty relators
    are dropped."""
    trans = transversal(pres, hom, subset)
    symbols = SymbolDict(pres, hom, trans)
    rels = []
    for v in trans.order:
        for r in pres.relators:
            img = reidemeister_rewrite(trans, hom, symbols, r, v)
            if img:
                rels.append(img)
    kernel = Presentation(symbols.names(), tuple(rels))
    return KernelPresentation(kernel, tuple(symbols.table), "raw", trans)


def evaluated_kernel_presentation(
    inst: EmbeddingInstance, raw: Optional[KernelPresentation] = None
) -> KernelPresentation:
    """Rule-evaluated kernel presentation of an embedding instance: the
    raw kernel with symbols that coincide in the ambient group merged.

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
            rels.append(img)
    kernel = Presentation(tuple(g.name for g in table), tuple(rels))
    return KernelPresentation(kernel, table, "evaluated", raw.transversal)
