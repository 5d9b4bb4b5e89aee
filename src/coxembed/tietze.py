"""Presentation simplification by Tietze transformations.

Relator normalization (canonical form, deduplication, deterministic
ordering) and greedy single-occurrence generator elimination with a
growth bound.  Every step preserves the presented group; the trace
records the steps and carries a defining-word table expressing each
original generator over the survivors.

``simplify`` works incrementally (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, on Tietze transformations).  Relators
are kept as normal forms, code strings (see :mod:`coxembed.words`) over
the *input's* generator indices: deleting a generator keeps the order of
the others, so a relator that does not contain the eliminated generator
keeps its normal form and its place in the deterministic order.  Each
relator has an integer id.  An elimination rewrites and re-normalizes in
place only the relators containing the eliminated generator, and changes
the sets of relators containing a letter only for the letters that enter
or leave a rewritten relator; a relator rewritten to the empty word or to
another live relator is dropped.  The result equals re-normalizing the
whole presentation after every elimination.  Generator counts, needed
only to choose among relators of three or more letters, are brought up to
date only when no shorter relator offers an elimination.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .presentations import Presentation, serialize_word
from .words import Code, code_invert, code_nf, code_reduce, decode, encode


# the longest relator an elimination in :func:`simplify` may write, unless
# told otherwise
DEFAULT_MAX_RELATOR_LENGTH = 1000


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


def _solve(r: Code, g: int) -> Code:
    """Solve the relator ``r`` (containing g exactly once) for g.  The rest
    of ``r`` is a cyclic segment of a cyclically reduced word, so it is
    freely reduced."""
    k = r.find(chr(2 * g))
    if k >= 0:
        return code_invert(r[k + 1 :] + r[:k])
    k = r.find(chr(2 * g + 1))
    return r[k + 1 :] + r[:k]


class _Relators:
    """The relator set of one ``simplify`` run, kept normalized.

    Each relator has an integer id.  ``ids`` maps each live normal form, a
    nonempty code string over the input's generator indices, to its id,
    and ``forms`` maps back.  ``containing`` maps each letter to the ids
    of the relators containing it.  ``short[0]`` holds the sorted forms of
    one letter and ``short[1]`` those of two letters of two generators:
    these relators have a single-occurrence generator, and choosing among
    them needs no counts.  Every elimination uses one of them while any
    is admissible.

    The rest of the bookkeeping serves the longer relators and is brought
    up to date only when no short relator is admissible: ``counted``
    holds each relator's form and generator counts as last counted,
    ``occ`` the letter occurrences per generator over those counts,
    ``singles`` the single-occurrence generators of the longer relators
    and ``long_usable`` their sorted ``(length, form, id)``.  ``dirty``
    holds the ids put since.

    ``rejected[g]`` holds the ids of relators whose elimination of ``g``
    the length bound rejected; an entry is dropped when a relator
    containing ``g``, before or after, changes, since only then can the
    answer change.
    """

    def __init__(self, max_len: int):
        self.max_len = max_len
        self.ids: Dict[Code, int] = {}
        self.forms: Dict[int, Code] = {}
        self.containing: Dict[str, Set[int]] = defaultdict(set)
        self.short: Tuple[List[Code], List[Code]] = ([], [])
        self.rejected: Dict[int, Set[int]] = {}
        self.dirty: Set[int] = set()
        self.counted: Dict[int, Tuple[Code, Dict[int, int]]] = {}
        self.occ: Dict[int, int] = defaultdict(int)
        self.singles: Dict[int, List[int]] = {}
        self.long_usable: List[Tuple[int, Code, int]] = []

    def __len__(self) -> int:
        return len(self.ids)

    def put(self, i: int, c: Code) -> None:
        """Give relator ``i`` the normal form ``c``, a new relator when ``i``
        is not live.  It is dropped instead when ``c`` is empty or the form
        of another live relator.  Only the letters entering or leaving
        relator ``i`` change their ``containing`` sets."""
        old = self.forms.pop(i, "")
        if old:
            del self.ids[old]
            if len(old) == 1 or (len(old) == 2 and old[0] != old[1]):
                short = self.short[len(old) - 1]
                del short[bisect_left(short, old)]
        if c in self.ids:
            c = ""
        if not (old or c):
            return
        before, after = set(old), set(c)
        for x in before - after:
            self.containing[x].discard(i)
        for x in after - before:
            self.containing[x].add(i)
        if self.rejected:
            for x in before | after:
                self.rejected.pop(ord(x) >> 1, None)
        self.dirty.add(i)
        if c:
            self.ids[c] = i
            self.forms[i] = c
            if len(c) == 1 or (len(c) == 2 and c[0] != c[1]):
                insort(self.short[len(c) - 1], c)

    def _count(self) -> None:
        """Bring the counts of the relators put since the last call up to
        date."""
        for i in self.dirty:
            if i in self.counted:
                form, counts = self.counted.pop(i)
                for g, k in counts.items():
                    self.occ[g] -= k
                if self.singles.pop(i, None):
                    del self.long_usable[bisect_left(self.long_usable, (len(form), form, i))]
            form = self.forms.get(i)
            if form:
                counts = {}
                for x in map(ord, form):
                    counts[x >> 1] = counts.get(x >> 1, 0) + 1
                for g, k in counts.items():
                    self.occ[g] += k
                self.counted[i] = form, counts
                singles = sorted(g for g, k in counts.items() if k == 1)
                if singles and len(form) > 2:
                    self.singles[i] = singles
                    insort(self.long_usable, (len(form), form, i))
        self.dirty.clear()

    def _rewrite(self, g: int, r: int, replacement: Code) -> Optional[List[Tuple[int, Code]]]:
        """``(id, normal form)`` of the relators containing ``g`` other than
        ``r`` with ``g`` replaced, or None when one would exceed the length
        bound (cyclically reduced, as a presentation stores it).  Relators
        not containing ``g`` are left as they are, so the bound does not
        apply to them."""
        x, y = chr(2 * g), chr(2 * g + 1)
        inverse = code_invert(replacement)
        forms, max_len = self.forms, self.max_len
        out = []
        for i in self.containing[x] | self.containing[y]:
            if i != r:
                c = code_nf(forms[i].replace(x, replacement).replace(y, inverse))
                if len(c) > max_len:
                    self.rejected.setdefault(g, set()).add(r)
                    return None
                out.append((i, c))
        return out

    def _candidates(self):
        """``(form, id, generators)`` of the relators with a
        single-occurrence generator, in relator order, each with those
        generators by growth estimate (occurrences elsewhere times
        replacement length minus one), then index.  For a relator of one or
        two letters the estimate is the same for each, so the counts are
        brought up to date only when the longer relators are reached."""
        for forms in self.short:
            for c in forms:
                yield c, self.ids[c], sorted({ord(x) >> 1 for x in c})
        self._count()
        for n, c, r in self.long_usable:
            yield c, r, sorted(self.singles[r], key=lambda g: ((self.occ[g] - 1) * (n - 2), g))

    def choose(self):
        """First admissible elimination ``(g, r, replacement, rewritten)``,
        ``r`` the id of the relator solved for ``g``; pairs the length
        bound rejected are skipped while ``rejected`` holds them."""
        for c, r, gens in self._candidates():
            for g in gens:
                if r in self.rejected.get(g, ()):
                    continue
                replacement = _solve(c, g)
                rewritten = self._rewrite(g, r, replacement)
                if rewritten is not None:
                    return g, r, replacement, rewritten
        return None

    def eliminate(self, r: int, rewritten: List[Tuple[int, Code]]) -> None:
        """Drop relator ``r`` and update the rewritten ones in place."""
        self.put(r, "")
        for i, c in rewritten:
            self.put(i, c)


def _expand(eliminated: List[Tuple[int, Code]]) -> Dict[int, Code]:
    """Each eliminated generator over the survivors.  Free reduction is
    confluent, so substituting once at the end gives the words that
    substituting after every elimination would."""
    words: Dict[int, Code] = {}
    table: Dict[int, Code] = {}
    for g, replacement in reversed(eliminated):
        words[g] = w = code_reduce(replacement.translate(table))
        table[2 * g], table[2 * g + 1] = w, code_invert(w)
    return words


def simplify(
    pres: Presentation, max_relator_length: int = DEFAULT_MAX_RELATOR_LENGTH
) -> Tuple[Presentation, SimplifyTrace]:
    """Iterate relator normalization and greedy elimination to completion.

    At each elimination step the shortest relator with a single-occurrence
    generator is used, choosing within it the generator whose elimination
    least grows the total relator length; eliminations pushing a rewritten
    relator past ``max_relator_length`` are rejected, while relators the
    elimination leaves untouched may be longer.  Stops when no step applies,
    which takes at most one step per generator; ``trace.bounded`` is set
    when a single-occurrence elimination was left undone because of
    ``max_relator_length``.  Normalization keeps the sign of every letter.

    Only the relators containing the eliminated generator are rewritten
    and re-normalized at each step (see the module docstring).
    """
    if max_relator_length <= 0:
        raise ValueError("max_relator_length must be positive")
    names = pres.gens
    trace = SimplifyTrace()
    rels = _Relators(max_relator_length)
    for i, r in enumerate(pres.relators):
        rels.put(i, code_nf(encode(r)))
    if len(rels) != len(pres.relators):
        trace.steps.append(("dedupe", len(pres.relators) - len(rels)))
    trace.steps.append(("reduce",))

    eliminated: List[Tuple[int, Code]] = []
    while chosen := rels.choose():
        g, r, replacement, rewritten = chosen
        relator = serialize_word(decode(rels.forms[r]), names)
        trace.steps.append(("eliminate", names[g], relator, serialize_word(decode(replacement), names)))
        eliminated.append((g, replacement))
        emptied = sum(1 for _, c in rewritten if not c)
        if emptied:
            trace.steps.append(("drop-empty", emptied))
        before = len(rels) - 1 - emptied
        rels.eliminate(r, rewritten)
        if len(rels) != before:
            trace.steps.append(("dedupe", before - len(rels)))
        trace.steps.append(("reduce",))
    # a relator with a single-occurrence generator is left only when the
    # length bound rejected every elimination it offers
    trace.bounded = bool(rels.short[0] or rels.short[1] or rels.long_usable)

    words = _expand(eliminated)
    survivors = [g for g in range(len(names)) if g not in words]
    renumber = {}
    for k, g in enumerate(survivors):
        renumber[2 * g], renumber[2 * g + 1] = 2 * k, 2 * k + 1
    relators = tuple(decode(c.translate(renumber)) for c in sorted(rels.ids, key=lambda c: (len(c), c)))
    trace.defining = {
        name: serialize_word(decode(words.get(g, chr(2 * g))), names) or "1" for g, name in enumerate(names)
    }
    return Presentation.trusted(tuple(names[g] for g in survivors), relators), trace
