"""Presentation simplification by Tietze transformations.

Relator normalization (canonical form, deduplication, deterministic
ordering) and greedy single-occurrence generator elimination with a
growth bound.  Every step preserves the presented group; the trace
records the steps and carries a defining-word table expressing each
original generator over the survivors.

``simplify`` works incrementally (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, on Tietze transformations).  Relators
are kept as normal forms in letter codes over the *input's* generator
indices: deleting a generator keeps the order of the others, so a relator
that does not contain the eliminated generator keeps its normal form and
its place in the deterministic order.  Each elimination therefore rewrites
and re-normalizes only the relators containing the eliminated generator,
and updates occurrence counts as it goes.  The result equals re-normalizing
the whole presentation after every elimination.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .presentations import Presentation, serialize_word
from .words import Code, code_invert, code_nf, code_reduce, decode, encode


@dataclass(frozen=True)
class SimplifyConfig:
    max_relator_length: int = 1000
    # rewrite g^-1 to g for generators with a square relator; off by
    # default so relator shapes like [a,b]^2 survive verbatim
    involution_flips: bool = False

    def __post_init__(self):
        if self.max_relator_length <= 0:
            raise ValueError("max_relator_length must be positive")


@dataclass
class SimplifyTrace:
    """Step log plus the defining-word table carried through eliminations.

    ``defining`` maps every original generator name to its expression as
    a word over the surviving generators.
    """

    steps: List[Tuple] = field(default_factory=list)
    defining: Dict[str, str] = field(default_factory=dict)
    bounded: bool = False

    def to_dict(self) -> dict:
        return {
            "steps": [list(s) for s in self.steps],
            "defining": dict(self.defining),
            "bounded": self.bounded,
        }


def _order(c: Code) -> Tuple[int, Code]:
    """Relator order: length, then letter order (native on codes)."""
    return (len(c), c)


def normalize_relators(pres: Presentation) -> Presentation:
    """Replace each relator by its normal form, drop empties, dedupe, and
    sort by length then letter order."""
    nfs = {code_nf(encode(r)) for r in pres.relators}
    nfs.discard(())
    return Presentation(pres.gens, tuple(decode(c) for c in sorted(nfs, key=_order)))


def _substitute(w: Code, g: int, replacement: Code) -> Code:
    """Free reduction of ``w`` with generator ``g`` replaced."""
    inverse = code_invert(replacement)
    out: list[int] = []
    for x in w:
        if x >> 1 == g:
            out.extend(inverse if x & 1 else replacement)
        else:
            out.append(x)
    return code_reduce(out)


def _solve(r: Code, g: int) -> Code:
    """Solve the relator ``r`` (containing g exactly once) for g."""
    occ = [k for k, x in enumerate(r) if x >> 1 == g]
    if len(occ) != 1:
        raise ValueError(f"generator occurs {len(occ)} times in the relator, need exactly 1")
    k = occ[0]
    rest = r[k + 1 :] + r[:k]
    return code_reduce(rest if r[k] & 1 else code_invert(rest))


def eliminate_generator(pres: Presentation, g: int, r_index: int) -> Presentation:
    """Remove generator ``g`` using relator ``r_index``, in which it must
    occur exactly once; the presented group is unchanged."""
    replacement = _solve(encode(pres.relators[r_index]), g)
    rels = []
    for idx, w in enumerate(pres.relators):
        if idx != r_index:
            rest = _substitute(encode(w), g, replacement)
            rels.append(decode(x - 2 if x >> 1 > g else x for x in rest))
    return Presentation(pres.gens[:g] + pres.gens[g + 1 :], tuple(rels))


class _Relators:
    """The relator set of one ``simplify`` run, kept normalized.

    ``rels`` holds distinct nonempty normal forms in letter codes over
    the input's generator indices.  Alongside it: letter occurrences per
    generator, the relators containing each generator, and the relators
    having a single-occurrence generator in relator order, the only ones
    an elimination can use.  With ``flips``, each normal form is also
    canonical under rewriting ``g^-1`` to ``g`` for every generator ``g``
    in ``squares``, those with the relator ``g^2``.
    """

    def __init__(self, flips: bool, max_len: int):
        self.flips = flips
        self.max_len = max_len
        self.squares: Set[int] = set()
        self.rels: Set[Code] = set()
        self.occ: Dict[int, int] = defaultdict(int)
        self.containing: Dict[int, Set[Code]] = defaultdict(set)
        self.singles: Dict[Code, List[int]] = {}
        self.usable: List[Tuple[int, Code]] = []  # _order of relators with singles, sorted
        self.too_long = 0  # relators longer than max_len (only input can have them)

    def __len__(self) -> int:
        return len(self.rels)

    def _canon(self, c: Code) -> Code:
        """Flip-canonical form of the normal form ``c``.

        Alternates the flip and re-normalization until the flip changes
        nothing.  This ends: if two successive normal forms both came from
        the inverted side, the flipped word and its flipped inverse would
        each have a lesser least rotation than the other.
        """
        sq = self.squares
        while True:
            flipped = tuple(x & ~1 if x >> 1 in sq else x for x in c)
            if flipped == c:
                return c
            c = code_nf(flipped)

    def add(self, c: Code) -> None:
        """Insert the normal form ``c`` unless it is empty or present."""
        if self.squares:
            c = self._canon(c)
        if not c or c in self.rels:
            return
        self.rels.add(c)
        counts = Counter(x >> 1 for x in c)
        for g, k in counts.items():
            self.occ[g] += k
            self.containing[g].add(c)
        singles = sorted(g for g, k in counts.items() if k == 1)
        if singles:
            self.singles[c] = singles
            insort(self.usable, _order(c))
        self.too_long += len(c) > self.max_len

    def remove(self, c: Code) -> None:
        self.rels.remove(c)
        for x in c:
            self.occ[x >> 1] -= 1
            self.containing[x >> 1].discard(c)
        if self.singles.pop(c, None):
            del self.usable[bisect_left(self.usable, _order(c))]
        self.too_long -= len(c) > self.max_len

    def add_all(self, nfs) -> None:
        """Insert normal forms, first taking up the squares among them."""
        nfs = list(nfs)
        if self.flips:
            new = {c[0] >> 1 for c in nfs if len(c) == 2 and c[0] == c[1]} - self.squares
            self.squares |= new
            for s in new:
                for c in list(self.containing[s]):
                    if self._canon(c) != c:
                        self.remove(c)
                        self.add(c)
        for c in nfs:
            self.add(c)

    def _rewrite(self, g: int, r: Code, replacement: Code) -> Optional[List[Code]]:
        """Normal forms of the relators containing ``g`` other than ``r``
        with ``g`` replaced, or None when one would exceed the length
        bound (cyclically reduced, as a presentation stores it)."""
        users = self.containing[g]
        if self.too_long > sum(len(w) > self.max_len for w in users):
            return None
        out = []
        for w in users:
            if w != r:
                w = code_nf(_substitute(w, g, replacement))
                if len(w) > self.max_len:
                    return None
                out.append(w)
        return out

    def choose(self):
        """First admissible elimination ``(g, r, replacement, rewritten)``.

        Relators are tried in relator order; within one, its
        single-occurrence generators by growth estimate (occurrences
        elsewhere times replacement length minus one), then index.
        """
        for _, r in self.usable:
            grow = len(r) - 2
            for g in sorted(self.singles[r], key=lambda g: ((self.occ[g] - 1) * grow, g)):
                replacement = _solve(r, g)
                rewritten = self._rewrite(g, r, replacement)
                if rewritten is not None:
                    return g, r, replacement, rewritten
        return None

    def eliminate(self, g: int, rewritten: List[Code]) -> None:
        """Drop the relators containing ``g`` and insert ``rewritten``."""
        for w in list(self.containing[g]):
            self.remove(w)
        self.squares.discard(g)
        self.add_all(rewritten)


def _expand(eliminated: List[Tuple[int, Code]]) -> Dict[int, Code]:
    """Each eliminated generator over the survivors.  Free reduction is
    confluent, so substituting once at the end gives the words that
    substituting after every elimination would."""
    words: Dict[int, Code] = {}
    for g, replacement in reversed(eliminated):
        out: list[int] = []
        for x in replacement:
            y = words.get(x >> 1)
            if y is None:
                out.append(x)
            else:
                out.extend(code_invert(y) if x & 1 else y)
        words[g] = code_reduce(out)
    return words


def simplify(pres: Presentation, cfg: Optional[SimplifyConfig] = None) -> Tuple[Presentation, SimplifyTrace]:
    """Iterate relator normalization and greedy elimination to completion.

    At each elimination step the shortest relator with a single-occurrence
    generator is used, choosing within it the generator whose elimination
    least grows the total relator length; eliminations pushing any relator
    past ``max_relator_length`` are rejected.  Stops when no step applies,
    which takes at most one step per generator; ``trace.bounded`` is set
    when a single-occurrence elimination was left undone because of
    ``max_relator_length``.  With
    ``involution_flips`` enabled, normalization additionally rewrites
    ``g^-1`` to ``g`` for generators whose square is a relator, merging
    sign-variant relator classes.

    Only the relators containing the eliminated generator are rewritten
    and re-normalized at each step (see the module docstring).
    """
    cfg = cfg or SimplifyConfig()
    names = pres.gens
    trace = SimplifyTrace()
    rels = _Relators(cfg.involution_flips, cfg.max_relator_length)
    rels.add_all(code_nf(encode(r)) for r in pres.relators)
    if len(rels) != len(pres.relators):
        trace.steps.append(("dedupe", len(pres.relators) - len(rels)))
    trace.steps.append(("reduce",))

    eliminated: List[Tuple[int, Code]] = []
    while chosen := rels.choose():
        g, r, replacement, rewritten = chosen
        trace.steps.append(
            ("eliminate", names[g], serialize_word(decode(r), names), serialize_word(decode(replacement), names))
        )
        eliminated.append((g, replacement))
        emptied = rewritten.count(())
        if emptied:
            trace.steps.append(("drop-empty", emptied))
        before = len(rels) - 1 - emptied
        rels.eliminate(g, rewritten)
        if len(rels) != before:
            trace.steps.append(("dedupe", before - len(rels)))
        trace.steps.append(("reduce",))
    # a relator with a single-occurrence generator is left only when the
    # length bound rejected every elimination it offers
    trace.bounded = bool(rels.usable)

    words = _expand(eliminated)
    survivors = [g for g in range(len(names)) if g not in words]
    new_index = {g: k for k, g in enumerate(survivors)}
    relators = tuple(
        decode(2 * new_index[x >> 1] + (x & 1) for x in c) for c in sorted(rels.rels, key=_order)
    )
    trace.defining = {
        name: serialize_word(decode(words.get(g, (2 * g,))), names) or "1" for g, name in enumerate(names)
    }
    return Presentation(tuple(names[g] for g in survivors), relators), trace
