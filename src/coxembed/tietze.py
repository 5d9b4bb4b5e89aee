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
it is popped.  An elimination rewrites in place only the relators
containing the eliminated generator, found through id sets kept per
generator that only grow: an id whose relator is gone is skipped, and
one whose relator has lost the generator rewrites to itself.  These
rewrites are made once, when the elimination is admitted: each is checked
against the length bound, and the elimination commits them.  A rewrite
replaces the generator's two letters by ``str.replace``.  It is freely
and cyclically reduced only when a cancellation is possible: after a
deletion or a longer replacement, or where a one-letter substitute meets
its inverse, last letter to first included.  Otherwise it is only rotated
into normal form.  A relator rewritten to the empty word or to another
live relator is dropped.  The result equals re-normalizing the whole
presentation after every elimination.  Generator counts, needed only to
choose among relators of three or more letters, are taken afresh, in one
pass over the live relators, only when no shorter relator offers an
elimination.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

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

    An elimination's rewrites are made once, when :meth:`_admit` checks
    them against the length bound, and :meth:`eliminate` commits them.
    """

    def __init__(self, forms: Iterable[Code], max_len: int):
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

    def __len__(self) -> int:
        return len(self.ids)

    def _admit(self, c: Code, r: int, gens: Iterable[int]):
        """``(g, r, replacement, done)`` for the first of ``gens`` whose
        elimination through relator ``r``, of form ``c``, the length bound
        admits, or None.  ``done`` maps the id of every other live relator
        that may contain ``g`` to its form with ``g`` replaced, cyclically
        reduced as a presentation stores it: the rewrites the elimination
        makes, each checked against the bound."""
        forms, max_len = self.forms, self.max_len
        for g in gens:
            replacement = _solve(c, g)
            rewrite = _rewriter(g, replacement)
            done = {}
            for i in self.containing[chr(g)]:
                f = forms.get(i)
                if f is not None and i != r:
                    done[i] = rewritten = rewrite(f)
                    if len(rewritten) > max_len:
                        break
            else:
                return g, r, replacement, done
        return None

    def choose(self):
        """First admissible elimination ``(g, r, replacement, done)``, ``r``
        the id of the relator solved for ``g`` (see :meth:`_admit`).  None
        when no relator offers one, False when the length bound rejected
        every one offered.  A short form the bound rejects goes back on
        the heap, to be tried again at the next step."""
        forms, heap = self.forms, self.heap
        chosen = None
        rejected = []
        while heap and not chosen:
            entry = heappop(heap)
            c, r = entry[1:]
            if forms.get(r) == c:
                # a two-letter normal form starts with its lower generator
                chosen = self._admit(c, r, [ord(x) >> 1 for x in c])
                if not chosen:
                    rejected.append(entry)
        for entry in rejected:
            heappush(heap, entry)
        if chosen:
            return chosen
        chosen = False if rejected else None
        occ = Counter("".join(self.ids).translate(_GEN))
        for c in sorted((c for c in self.ids if len(c) > 2), key=lambda c: (len(c), c)):
            singles = [ord(x) for x, k in Counter(c.translate(_GEN)).items() if k == 1]
            if singles:
                # growth estimate: occurrences elsewhere times replacement
                # length minus one, then index
                singles.sort(key=lambda g: ((occ[chr(g)] - 1) * (len(c) - 2), g))
                chosen = self._admit(c, self.ids[c], singles) or False
                if chosen:
                    return chosen
        return chosen

    def eliminate(self, g: int, r: int, replacement: Code, done: Dict[int, Code]) -> Tuple[int, int]:
        """Drop relator ``r`` and commit the rewrites ``done`` that
        :meth:`_admit` made.  A relator rewritten to the empty word or to
        a live form is dropped; returns how many were dropped each way."""
        forms, ids, heap = self.forms, self.ids, self.heap
        del ids[forms.pop(r)]
        del self.containing[chr(g)]
        kept = []
        emptied = deduped = 0
        for i, c in done.items():
            f = forms[i]
            if c == f:
                continue
            del ids[f]
            if not c:
                del forms[i]
                emptied += 1
            elif c in ids:
                del forms[i]
                deduped += 1
            else:
                ids[c] = i
                forms[i] = c
                kept.append(i)
                n = len(c)
                if n == 1 or n == 2 and c[0] != c[1]:
                    heappush(heap, (n, c, i))
        for x in set(replacement.translate(_GEN)):
            self.containing[x].update(kept)
        return emptied, deduped


def _rewriter(g: int, replacement: Code) -> Callable[[Code], Code]:
    """The function taking a live normal form to its normal form with
    ``g`` replaced by ``replacement``.  A live form is cyclically reduced,
    so after substituting one letter ``z`` it can cancel only where ``z``
    meets its inverse, last letter to first included: it is reduced only
    then, and otherwise just rotated."""
    x, y = chr(2 * g), chr(2 * g + 1)
    z, zi = replacement, code_invert(replacement)
    if len(z) != 1:
        return lambda f: code_nf(f.replace(x, z).replace(y, zi))
    pair, inverse_pair = z + zi, zi + z

    def rewrite(f: Code) -> Code:
        s = f.replace(x, z).replace(y, zi)
        if pair in s or inverse_pair in s or ord(s[0]) ^ ord(s[-1]) == 1:
            return code_nf(s)
        return rotation_nf(s)

    return rewrite


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
    rels = _Relators(map(rotation_nf, map(encode, pres.relators)), max_relator_length)
    steps: List[Tuple] = []
    if len(rels) != len(pres.relators):
        steps.append(("dedupe", len(pres.relators) - len(rels)))
    steps.append(("reduce",))

    gone = set()
    while chosen := rels.choose():
        g, r, replacement, done = chosen
        steps.append(("eliminate", g, rels.forms[r], replacement))
        gone.add(g)
        emptied, deduped = rels.eliminate(g, r, replacement, done)
        if emptied:
            steps.append(("drop-empty", emptied))
        if deduped:
            steps.append(("dedupe", deduped))
        steps.append(("reduce",))

    survivors = [g for g in range(len(names)) if g not in gone]
    renumber = {}
    for k, g in enumerate(survivors):
        renumber[2 * g], renumber[2 * g + 1] = 2 * k, 2 * k + 1
    relators = tuple(decode(c.translate(renumber)) for c in sorted(rels.ids, key=lambda c: (len(c), c)))
    # False: the length bound rejected every elimination offered
    trace = SimplifyTrace(names, steps, chosen is False)
    return Presentation.trusted(tuple(names[g] for g in survivors), relators), trace
