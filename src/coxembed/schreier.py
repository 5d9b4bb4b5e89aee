"""The Reidemeister-Schreier engine.

Builds Schreier transversals for homomorphisms onto ``Z_2^n``, evaluates
the Schreier map, and rewrites kernel words over the Schreier generators.
Kernel presentations come in two modes: ``raw`` keeps defining words at
the free-group level (one symbol per nontrivial transversal/generator
pair), ``evaluated`` normalizes defining words with the instance's
involution and commutation rules and merges symbols that coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .presentations import (
    EmbeddingInstance,
    HomZ2n,
    Presentation,
    RewriteRules,
    gf2_rank,
    serialize_word,
)
from .words import Word, free_reduce, invert, letter, relator_nf


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
    or repeated-involution letters, and ascending swaps of adjacent
    commuting letters.  Idempotent and length-non-increasing.
    """
    rank = rules.rank_of()
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
                if a != b and (min(a, b), max(a, b)) in comm and rank[a] > rank[b]:
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
    """Dictionary assigning kernel symbols to Schreier-map values.

    In raw mode every nontrivial (representative, generator) pair gets its
    own symbol.  In evaluated mode symbols are keyed by rule-normalized
    defining word; a word equal to an existing symbol resolves with sign
    +1, equal to its normalized inverse with sign -1, and fresh words make
    new symbols named after their first origin (or after the matching
    expected generator when the instance supplies expected words).
    """

    def __init__(
        self,
        pres: Presentation,
        hom: HomZ2n,
        trans: Transversal,
        rules: Optional[RewriteRules] = None,
        expected: Sequence[Tuple[str, Word]] = (),
    ):
        self.pres = pres
        self.hom = hom
        self.trans = trans
        self.rules = rules
        self.expected = tuple(expected)
        self.mode = "raw" if rules is None else "evaluated"
        self.table: list[SchreierGen] = []
        self._by_origin: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        self._by_word: Dict[Word, int] = {}
        self._coset_index = {v: k for k, v in enumerate(trans.order)}
        for v in trans.order:
            for x in range(pres.rank):
                self.resolve(v, x)

    def _origin_name(self, coset: int, x: int) -> str:
        return f"y{self._coset_index[coset]}_{self.pres.gens[x]}"

    def resolve(self, coset: int, x: int) -> Optional[Tuple[int, int]]:
        """Symbol index and sign for the pair, or None when trivial."""
        key = (coset, x)
        if key in self._by_origin:
            return self._by_origin[key]
        t = self.trans.reps[coset]
        word = schreier_word(self.trans, self.hom, t, x)
        if self.rules is not None:
            word = normalize_with_rules(self.rules, word)
        if not word:
            result: Optional[Tuple[int, int]] = None
        elif self.mode == "raw":
            idx = len(self.table)
            self.table.append(SchreierGen(self._origin_name(coset, x), coset, t, x, word))
            result = (idx, 1)
        else:
            result = self._resolve_evaluated(coset, t, x, word)
        self._by_origin[key] = result
        return result

    def _resolve_evaluated(self, coset: int, t: Word, x: int, word: Word):
        if word in self._by_word:
            return (self._by_word[word], 1)
        inv_word = normalize_with_rules(self.rules, invert(word))
        if inv_word in self._by_word:
            return (self._by_word[inv_word], -1)
        name, canonical, sign = self._origin_name(coset, x), word, 1
        for ename, ew in self.expected:
            if word == ew:
                name = ename
                break
            if inv_word == ew:
                name, canonical, sign = ename, ew, -1
                break
        idx = len(self.table)
        self.table.append(SchreierGen(name, coset, t, x, canonical))
        self._by_word[canonical] = idx
        return (idx, sign)

    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.table)


@dataclass(frozen=True)
class KernelPresentation:
    """Kernel presentation plus the generator table and mode tag."""

    presentation: Presentation
    table: Tuple[SchreierGen, ...]
    mode: str

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
) -> Word:
    """Rewrite a kernel word over the Schreier symbols.

    A positive letter x at prefix u contributes the symbol of the pair
    (rep of u's coset, x); a letter x^-1 contributes the inverse of the
    symbol at (rep of (u x^-1)'s coset, x).  Raises if ``w`` has nonzero
    image.  In evaluated mode the dictionary normalizes with its own
    rule set.
    """
    if hom.word_image(w) != 0:
        raise ValueError("word is not in the kernel (nonzero image)")
    out: list[int] = []
    v = 0
    for l in w:
        x = abs(l) - 1
        if l > 0:
            res = symbols.resolve(v, x)
            v ^= hom.images[x]
            if res is not None:
                idx, sign = res
                out.append(letter(idx, sign))
        else:
            v ^= hom.images[x]
            res = symbols.resolve(v, x)
            if res is not None:
                idx, sign = res
                out.append(-letter(idx, sign))
    return free_reduce(out)


def _conjugated_relators(pres: Presentation, trans: Transversal):
    for v in trans.order:
        t = trans.reps[v]
        for r in pres.relators:
            yield free_reduce(t + r + invert(t))


def raw_kernel_presentation(pres: Presentation, hom: HomZ2n, subset: Sequence[int]) -> KernelPresentation:
    """Free-group-faithful kernel presentation: one symbol per nontrivial
    (representative, generator) pair, one rewritten relator per
    (representative, ambient relator) pair, empty relators dropped."""
    if not check_hom(pres, hom):
        raise ValueError("hom does not kill every relator")
    trans = transversal(pres, hom, subset)
    symbols = SymbolDict(pres, hom, trans)
    rels = []
    for w in _conjugated_relators(pres, trans):
        img = reidemeister_rewrite(trans, hom, symbols, w)
        if img:
            rels.append(img)
    kernel = Presentation(symbols.names(), tuple(rels))
    return KernelPresentation(kernel, tuple(symbols.table), "raw")


def evaluated_kernel_presentation(inst: EmbeddingInstance) -> KernelPresentation:
    """Rule-evaluated kernel presentation of an embedding instance.

    Defining words are normalized with the instance rules before symbols
    are assigned, matched symbols take the expected generator names, and
    rewritten relators are deduplicated by relator normal form.
    """
    pres, hom = inst.ambient, inst.hom
    trans = transversal(pres, hom, inst.transversal_gens)
    expected = [
        (name, normalize_with_rules(inst.rules, w))
        for name, w in zip(inst.expected_kernel.gens, inst.expected_words)
    ]
    symbols = SymbolDict(pres, hom, trans, rules=inst.rules, expected=expected)
    rels = []
    seen = set()
    for w in _conjugated_relators(pres, trans):
        img = reidemeister_rewrite(trans, hom, symbols, w)
        if not img:
            continue
        nf = relator_nf(img)
        if nf not in seen:
            seen.add(nf)
            rels.append(img)
    kernel = Presentation(symbols.names(), tuple(rels))
    return KernelPresentation(kernel, tuple(symbols.table), "evaluated")
