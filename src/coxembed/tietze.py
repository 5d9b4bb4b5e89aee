"""Presentation simplification by Tietze transformations.

Relator normalization (canonical form, deduplication, deterministic
ordering) and greedy single-occurrence generator elimination with a
growth bound.  Every step preserves the presented group; the trace
records the steps and carries a defining-word table expressing each
original generator over the survivors, both rendered only when read.

``simplify`` works incrementally (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, on Tietze transformations).  Relators
are kept as normal forms, code strings (see :mod:`coxembed.words`) over
the *input's* generator indices: deleting a generator keeps the order of
the others, so a relator that does not contain the eliminated generator
keeps its normal form and its place in the deterministic order.  Input
relators are cyclically reduced, so loading them needs only
:func:`~coxembed.words.rotation_nf`.  Each relator has an integer id.

The relators of one letter, or of two letters of two generators, wait in
a heap ordered by length and form, and each step solves the least of them
while one is admissible: the short-relator phase of Havas, Kenne,
Richardson and Robertson (*A Tietze transformation program*, 1984).  An
entry whose relator has since been rewritten or dropped is skipped when
it is popped.  Each elimination is one pass over the relators containing
the eliminated generator, found through id sets kept per generator that
only grow: an id whose relator is gone is skipped, and one whose relator
has lost the generator rewrites to itself.  The pass rewrites each
relator in place and commits it at once; if a rewrite is longer than the
length bound, it restores the relators committed before and the
elimination is rejected.  A replacement of at most one letter never
makes a relator longer, so the bound is checked only after a longer
replacement or when an input relator was longer than the bound, and
a short relator the bound rejects waits aside until such a relator is
rewritten or dropped.  A rewrite replaces the generator's two letters by
``str.replace``.  It is freely and cyclically reduced only when a
cancellation is possible: after a deletion or a longer replacement, or
where a one-letter substitute meets its inverse, last letter to first
included.  Otherwise it is only rotated into normal form.  A relator
rewritten to the empty word or to another live relator is dropped.  The
result equals re-normalizing the whole presentation after every
elimination.  Generator counts, needed only to choose among relators of
three or more letters, are taken afresh, in one pass over the live
relators, only when no shorter relator offers an elimination.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .presentations import DEFAULT_MAX_RELATOR_LENGTH, Presentation, serialize_word
from .words import Code, _Memo, code_invert, code_nf, code_reduce, decode, encode, rotation_nf


# letter code -> chr(g), g its generator, so that str.translate and Counter
# count generator occurrences at C speed
_GEN = _Memo(lambda x: x >> 1)


class SimplifyTrace:
    """Step log plus the defining-word table carried through eliminations.

    ``defining`` maps every original generator name to its expression as
    a word over the surviving generators.  ``simplify`` records each
    elimination as a generator index and code strings; ``steps`` and
    ``defining`` are rendered from the records on first access.
    """

    def __init__(self, names: Sequence[str], records: List[Tuple], bounded: bool):
        self._names = names
        self._records = records
        self.bounded = bounded

    @cached_property
    def steps(self) -> List[Tuple]:
        names = self._names
        return [
            (s[0], names[s[1]], *(serialize_word(decode(c), names) for c in s[2:])) if s[0] == "eliminate" else s
            for s in self._records
        ]

    @cached_property
    def defining(self) -> Dict[str, str]:
        words = _expand([(s[1], s[3]) for s in self._records if s[0] == "eliminate"])
        names = self._names
        return {
            name: serialize_word(decode(words.get(g, chr(2 * g))), names) or "1" for g, name in enumerate(names)
        }

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
    and ``forms`` maps back.  ``containing`` maps a generator ``g``, keyed
    by ``chr(g)`` as ``_GEN`` maps letters, to a set of ids that holds
    every live relator containing ``g``.  The sets only grow until ``g``
    is eliminated: they may hold stale ids, of relators dropped since, or
    rewritten so that ``g`` cancelled.

    ``heap`` holds ``(length, form, id)`` for the short forms, those of one
    letter or of two letters of two generators: each of their generators
    occurs once, and choosing among them needs no counts.  An entry counts
    only while ``forms[id]`` still equals its form; stale entries are
    popped and skipped.  Every elimination solves a short form while one
    is admissible.  The longer relators need generator counts, which are
    taken from the live forms only when no short form is admissible;
    nothing about them is kept between eliminations.

    A short form's replacement has at most one letter, so no rewrite it
    makes is longer than the relator it rewrites: only a live relator
    longer than the bound can reject it.  Only input relators can be that
    long, and ``overlong`` says whether one was.  Such a relator changes
    only by being rewritten into the bound or dropped, so a short form the
    bound rejects is set aside in ``parked`` and put back on the heap only
    after an elimination rewrites or drops one.

    ``steps`` holds the trace records; :meth:`eliminate` adds those of each
    elimination it commits.
    """

    def __init__(self, forms: Sequence[Code], max_len: int):
        """Relator ``i`` has the ``i``-th form, unless an earlier one has
        it."""
        self.max_len = max_len
        self.ids: Dict[Code, int] = {}
        for i, c in enumerate(forms):
            self.ids.setdefault(c, i)
        self.forms: Dict[int, Code] = {i: c for c, i in self.ids.items()}
        self.containing: Dict[str, Set[int]] = defaultdict(set)
        self.heap: List[Tuple[int, Code, int]] = []
        for c, i in self.ids.items():
            for x in c.translate(_GEN):
                self.containing[x].add(i)
            n = len(c)
            if n == 1 or n == 2 and c[0] != c[1]:
                self.heap.append((n, c, i))
        heapify(self.heap)
        self.parked: List[Tuple[int, Code, int]] = []
        self.overlong = any(len(c) > max_len for c in self.ids)
        self.steps: List[Tuple] = [("dedupe", len(forms) - len(self.ids))] if len(self.ids) < len(forms) else []
        self.steps.append(("reduce",))

    def run(self) -> None:
        """Eliminate in the greedy's order until no candidate commits.

        Each round takes the short forms off the heap, least first and
        lower generator first, then the longer relators by length, form and
        growth estimate, until :meth:`eliminate` commits one; the next
        round then starts afresh.  A short form neither of whose generators
        commits is parked.  A round without a commit ends the run and sets
        ``bounded`` if the length bound rejected a candidate still live."""
        forms, heap, parked = self.forms, self.heap, self.parked
        while True:
            while heap:
                entry = heappop(heap)
                _, c, r = entry
                if forms.get(r) == c:
                    # a two-letter normal form starts with its lower generator
                    for x in c:
                        if self.eliminate(r, ord(x) >> 1):
                            break
                    else:
                        parked.append(entry)
            offered = False
            for r, g in self._longer():
                offered = True
                if self.eliminate(r, g):
                    break
            else:
                self.bounded = offered or any(forms.get(r) == c for _, c, r in parked)
                return

    def _longer(self) -> Iterator[Tuple[int, int]]:
        """The candidates on relators of three or more letters, by length
        and form, and within a relator by growth estimate: occurrences
        elsewhere times replacement length minus one, then index.  The
        generator counts are taken once, from the live forms."""
        occ = Counter("".join(self.ids).translate(_GEN))
        for c in sorted((c for c in self.ids if len(c) > 2), key=lambda c: (len(c), c)):
            singles = [ord(x) for x, k in Counter(c.translate(_GEN)).items() if k == 1]
            if singles:
                for g in sorted(singles, key=lambda g: ((occ[chr(g)] - 1) * (len(c) - 2), g)):
                    yield self.ids[c], g

    def eliminate(self, r: int, g: int) -> bool:
        """Eliminate ``g`` through relator ``r``, which holds it once, and
        record the step; or change nothing and return False when a rewrite
        is longer than the length bound.

        One pass rewrites each other live relator holding ``g`` and commits
        it; a rejection restores the relators committed before it.  A
        rewrite replaces ``g``'s two letters by ``str.replace``.  A live
        form is cyclically reduced, so after substituting one letter ``z``
        it can cancel only where ``z`` meets its inverse, last letter to
        first included: it is reduced only then, or after a deletion or a
        longer replacement, and otherwise just rotated.  The bound is
        checked only where it can reject: after a longer replacement, or
        when an input relator was longer than the bound.  A relator
        rewritten to the empty word or to a live form is dropped.  A short
        form's heap entry pushed before a rejection is left stale."""
        forms, ids, containing, heap, max_len = self.forms, self.ids, self.containing, self.heap, self.max_len
        c = forms[r]
        z = _solve(c, g)
        zi = code_invert(z)
        x, y = chr(2 * g), chr(2 * g + 1)
        reduce = len(z) != 1
        pair, inverse_pair = z + zi, zi + z
        check = len(z) > 1 or self.overlong
        old: Dict[int, Code] = {}  # id -> form before, kept while the bound is checked
        kept = []
        emptied = deduped = 0
        for i in containing[chr(g)]:
            f = forms.get(i)
            if f is None or i == r:
                continue
            s = f.replace(x, z).replace(y, zi)
            if reduce or pair in s or inverse_pair in s or ord(s[0]) ^ ord(s[-1]) == 1:
                s = code_nf(s)
            else:
                s = rotation_nf(s)
            if s == f:
                continue
            if check:
                if len(s) > max_len:
                    for i, f in reversed(old.items()):
                        ids.pop(forms.get(i), None)
                        ids[f] = i
                        forms[i] = f
                    return False
                old[i] = f
            del ids[f]
            if not s:
                del forms[i]
                emptied += 1
            elif s in ids:
                del forms[i]
                deduped += 1
            else:
                ids[s] = i
                forms[i] = s
                kept.append(i)
                n = len(s)
                if n < 3 and (n == 1 or s[0] != s[1]):
                    heappush(heap, (n, s, i))
        del ids[forms.pop(r)]
        del containing[chr(g)]
        for x in set(z.translate(_GEN)):
            containing[x].update(kept)
        if self.parked and any(len(f) > max_len for f in (c, *old.values())):
            while self.parked:
                heappush(heap, self.parked.pop())
        steps = self.steps
        steps.append(("eliminate", g, c, z))
        if emptied:
            steps.append(("drop-empty", emptied))
        if deduped:
            steps.append(("dedupe", deduped))
        steps.append(("reduce",))
        return True


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
    rels = _Relators([rotation_nf(encode(r)) for r in pres.relators], max_relator_length)
    rels.run()
    gone = {s[1] for s in rels.steps if s[0] == "eliminate"}
    survivors = [g for g in range(len(names)) if g not in gone]
    renumber = {}
    for k, g in enumerate(survivors):
        renumber[2 * g], renumber[2 * g + 1] = 2 * k, 2 * k + 1
    relators = tuple(decode(c.translate(renumber)) for c in sorted(rels.ids, key=lambda c: (len(c), c)))
    trace = SimplifyTrace(names, rels.steps, rels.bounded)
    return Presentation.trusted(tuple(names[g] for g in survivors), relators), trace
