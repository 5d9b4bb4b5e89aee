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
:func:`~coxembed.words.rotation_nf`.  Each relator has an integer id.  An
elimination rewrites and re-normalizes in place only the relators
containing the eliminated generator, and changes
the sets of relators containing a letter only for the letters that enter
or leave a rewritten relator; a relator rewritten to the empty word or to
another live relator is dropped.  The result equals re-normalizing the
whole presentation after every elimination.  Generator counts, needed
only to choose among relators of three or more letters, are taken afresh,
in one pass over the live relators, only when no shorter relator offers an
elimination.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter, defaultdict
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    and ``forms`` maps back.  ``containing`` maps each letter to the ids
    of the relators containing it.  ``short[0]`` holds the sorted forms of
    one letter and ``short[1]`` those of two letters of two generators:
    these relators have a single-occurrence generator, and choosing among
    them needs no counts.  Every elimination uses one of them while any
    is admissible.  The longer relators need generator counts, which are
    taken from the live forms only when no short relator is admissible;
    nothing about them is kept between eliminations.
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
        for c, i in self.ids.items():
            for x in set(c):
                self.containing[x].add(i)
        self.short: Tuple[List[Code], List[Code]] = (
            sorted(c for c in self.ids if len(c) == 1),
            sorted(c for c in self.ids if len(c) == 2 and c[0] != c[1]),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def _unlist(self, i: int) -> Code:
        """Relator ``i``'s form, out of ``forms``, ``ids`` and ``short``."""
        old = self.forms.pop(i)
        del self.ids[old]
        if len(old) == 1 or (len(old) == 2 and old[0] != old[1]):
            short = self.short[len(old) - 1]
            del short[bisect_left(short, old)]
        return old

    def drop(self, i: int) -> None:
        for x in set(self._unlist(i)):
            self.containing[x].discard(i)

    def put(self, i: int, c: Code) -> None:
        """Give relator ``i`` the normal form ``c``, other than its own.
        It is dropped instead when ``c`` is empty or the form of another
        live relator.  Only the letters entering or leaving relator ``i``
        change their ``containing`` sets."""
        if not c or c in self.ids:
            self.drop(i)
            return
        before, after = set(self._unlist(i)), set(c)
        for x in before - after:
            self.containing[x].discard(i)
        for x in after - before:
            self.containing[x].add(i)
        self.ids[c] = i
        self.forms[i] = c
        if len(c) == 1 or (len(c) == 2 and c[0] != c[1]):
            insort(self.short[len(c) - 1], c)

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
                    return None
                out.append((i, c))
        return out

    def _candidates(self):
        """``(form, id, generators)`` of the relators with a
        single-occurrence generator, in relator order, each with those
        generators by growth estimate (occurrences elsewhere times
        replacement length minus one), then index.  For a relator of one or
        two letters the estimate is the same for each, so the generators
        are counted, in one pass over the live forms, only when the longer
        relators are reached."""
        for forms in self.short:
            for c in forms:
                yield c, self.ids[c], sorted({ord(x) >> 1 for x in c})
        occ = Counter("".join(self.ids).translate(_GEN))
        for c in sorted((c for c in self.ids if len(c) > 2), key=lambda c: (len(c), c)):
            singles = [ord(x) for x, k in Counter(c.translate(_GEN)).items() if k == 1]
            if singles:
                yield c, self.ids[c], sorted(singles, key=lambda g: ((occ[chr(g)] - 1) * (len(c) - 2), g))

    def choose(self):
        """First admissible elimination ``(g, r, replacement, rewritten)``,
        ``r`` the id of the relator solved for ``g``.  None when no relator
        offers one, False when the length bound rejected every one
        offered."""
        chosen = None
        for c, r, gens in self._candidates():
            chosen = False
            for g in gens:
                replacement = _solve(c, g)
                rewritten = self._rewrite(g, r, replacement)
                if rewritten is not None:
                    return g, r, replacement, rewritten
        return chosen

    def eliminate(self, r: int, rewritten: List[Tuple[int, Code]]) -> None:
        """Drop relator ``r`` and update the rewritten ones in place."""
        self.drop(r)
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
    rels = _Relators(map(rotation_nf, map(encode, pres.relators)), max_relator_length)
    steps: List[Tuple] = []
    if len(rels) != len(pres.relators):
        steps.append(("dedupe", len(pres.relators) - len(rels)))
    steps.append(("reduce",))

    gone = set()
    while chosen := rels.choose():
        g, r, replacement, rewritten = chosen
        steps.append(("eliminate", g, rels.forms[r], replacement))
        gone.add(g)
        emptied = sum(1 for _, c in rewritten if not c)
        if emptied:
            steps.append(("drop-empty", emptied))
        before = len(rels) - 1 - emptied
        rels.eliminate(r, rewritten)
        if len(rels) != before:
            steps.append(("dedupe", before - len(rels)))
        steps.append(("reduce",))

    survivors = [g for g in range(len(names)) if g not in gone]
    renumber = {}
    for k, g in enumerate(survivors):
        renumber[2 * g], renumber[2 * g + 1] = 2 * k, 2 * k + 1
    relators = tuple(decode(c.translate(renumber)) for c in sorted(rels.ids, key=lambda c: (len(c), c)))
    # False: the length bound rejected every elimination offered
    trace = SimplifyTrace(names, steps, chosen is False)
    return Presentation.trusted(tuple(names[g] for g in survivors), relators), trace
