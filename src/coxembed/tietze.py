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
its place in the deterministic order.  Each relator has an integer id,
and each id keeps its generator counts.  An elimination rewrites and
re-normalizes in place only the relators containing the eliminated
generator, and changes the sets of relators containing a generator only
for the generators that enter or leave a rewritten relator; a relator
rewritten to the empty word or to another live relator is dropped.  The
result equals re-normalizing the whole presentation after every
elimination.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .presentations import Presentation, serialize_word
from .words import Code, code_invert, code_nf, code_reduce, decode, encode


@dataclass(frozen=True)
class SimplifyConfig:
    """The longest relator an elimination in :func:`simplify` may write."""

    max_relator_length: int = 1000

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


def _solve(r: Code, g: int) -> Code:
    """Solve the relator ``r`` (containing g exactly once) for g."""
    k = next(k for k, x in enumerate(r) if x >> 1 == g)
    rest = r[k + 1 :] + r[:k]
    return code_reduce(rest if r[k] & 1 else code_invert(rest))


class _Relators:
    """The relator set of one ``simplify`` run, kept normalized.

    Each relator has an integer id.  ``ids`` maps each live normal form, a
    nonempty code word over the input's generator indices, to its id;
    ``forms`` and ``counts`` give an id's normal form and its letter
    occurrences per generator.  Alongside them: letter occurrences per
    generator, the ids of the relators containing each generator, each
    relator's single-occurrence generators, and ``usable``, the sorted
    ``(length, form, id)`` of the relators that have one, the only ones an
    elimination can use.
    """

    def __init__(self, max_len: int):
        self.max_len = max_len
        self.ids: Dict[Code, int] = {}
        self.forms: Dict[int, Code] = {}
        self.counts: Dict[int, Dict[int, int]] = {}
        self.occ: Dict[int, int] = defaultdict(int)
        self.containing: Dict[int, Set[int]] = defaultdict(set)
        self.singles: Dict[int, List[int]] = {}
        self.usable: List[Tuple[int, Code, int]] = []

    def __len__(self) -> int:
        return len(self.ids)

    def put(self, i: int, c: Code) -> None:
        """Give relator ``i`` the normal form ``c``, a new relator when ``i``
        is not live.  It is dropped instead when ``c`` is empty or the form
        of another live relator.  Only the generators entering or leaving
        relator ``i`` change their ``containing`` sets."""
        old = self.counts.pop(i, {})
        if i in self.forms:
            form = self.forms.pop(i)
            del self.ids[form]
            if self.singles.pop(i, None):
                del self.usable[bisect_left(self.usable, (len(form), form, i))]
        new: Dict[int, int] = {}
        if c not in self.ids:
            for x in c:
                new[x >> 1] = new.get(x >> 1, 0) + 1
        for g, k in old.items():
            if g not in new:
                self.occ[g] -= k
                self.containing[g].discard(i)
        for g, k in new.items():
            self.occ[g] += k - old.get(g, 0)
            if g not in old:
                self.containing[g].add(i)
        if new:
            self.ids[c] = i
            self.forms[i] = c
            self.counts[i] = new
            singles = sorted(g for g, k in new.items() if k == 1)
            if singles:
                self.singles[i] = singles
                insort(self.usable, (len(c), c, i))

    def _rewrite(self, g: int, r: int, replacement: Code) -> Optional[List[Tuple[int, Code]]]:
        """``(id, normal form)`` of the relators containing ``g`` other than
        ``r`` with ``g`` replaced, or None when one would exceed the length
        bound (cyclically reduced, as a presentation stores it).  Relators
        not containing ``g`` are left as they are, so the bound does not
        apply to them."""
        inverse = code_invert(replacement)
        out = []
        for i in self.containing[g]:
            if i != r:
                w: List[int] = []
                for x in self.forms[i]:
                    if x >> 1 == g:
                        w.extend(inverse if x & 1 else replacement)
                    else:
                        w.append(x)
                c = code_nf(w)
                if len(c) > self.max_len:
                    return None
                out.append((i, c))
        return out

    def choose(self):
        """First admissible elimination ``(g, r, replacement, rewritten)``,
        ``r`` the id of the relator solved for ``g``.

        Relators are tried in relator order; within one, its
        single-occurrence generators by growth estimate (occurrences
        elsewhere times replacement length minus one), then index.
        """
        for n, c, r in self.usable:
            grow = n - 2
            for g in sorted(self.singles[r], key=lambda g: ((self.occ[g] - 1) * grow, g)):
                replacement = _solve(c, g)
                rewritten = self._rewrite(g, r, replacement)
                if rewritten is not None:
                    return g, r, replacement, rewritten
        return None

    def eliminate(self, r: int, rewritten: List[Tuple[int, Code]]) -> None:
        """Drop relator ``r`` and update the rewritten ones in place."""
        self.put(r, ())
        for i, c in rewritten:
            self.put(i, c)


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
    least grows the total relator length; eliminations pushing a rewritten
    relator past ``max_relator_length`` are rejected, while relators the
    elimination leaves untouched may be longer.  Stops when no step applies,
    which takes at most one step per generator; ``trace.bounded`` is set
    when a single-occurrence elimination was left undone because of
    ``max_relator_length``.  Normalization keeps the sign of every letter.

    Only the relators containing the eliminated generator are rewritten
    and re-normalized at each step (see the module docstring).
    """
    cfg = cfg or SimplifyConfig()
    names = pres.gens
    trace = SimplifyTrace()
    rels = _Relators(cfg.max_relator_length)
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
    trace.bounded = bool(rels.usable)

    words = _expand(eliminated)
    survivors = [g for g in range(len(names)) if g not in words]
    new_index = {g: k for k, g in enumerate(survivors)}
    relators = tuple(
        decode(2 * new_index[x >> 1] + (x & 1) for x in c)
        for c in sorted(rels.ids, key=lambda c: (len(c), c))
    )
    trace.defining = {
        name: serialize_word(decode(words.get(g, (2 * g,))), names) or "1" for g, name in enumerate(names)
    }
    return Presentation(tuple(names[g] for g in survivors), relators), trace
