"""Presentations, Coxeter matrices and the group-family constructors.

Provides the presentation text DSL (parser and serializer), extended
naturals with ``inf`` labels, Coxeter / power-commutator parameter
objects, homomorphisms onto elementary abelian 2-groups, and the
embedding-instance builders (``thm1``, ``prop2``, ``klein``, ``artin`` and
``artin-inversion``) that bundle an ambient presentation with its expected
kernel.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, Sequence, Tuple

from .words import (
    Word,
    commutator,
    concat,
    cyclic_reduce,
    invert,
    letter,
    power,
)

INF = math.inf

# default budgets: cosets one enumeration may define, and the longest
# relator a Tietze elimination may write
DEFAULT_MAX_COSETS = 50_000
DEFAULT_MAX_RELATOR_LENGTH = 1000

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


# digits read in a label, order or budget, leading zeros aside: one past
# 10^18 asks for a word or a coset table that no machine holds
_MAX_DIGITS = 18


def parse_int(text: str, what: str) -> int:
    """An optional sign and ASCII digits, whitespace around them aside;
    ``int`` alone would also read underscores and non-ASCII digits.  At
    most ``_MAX_DIGITS`` digits are read, leading zeros aside, so ``int``
    never meets one of its 4300 digits.  The error calls ``text`` a
    ``what``."""
    text = text.strip()
    m = re.fullmatch(r"([+-]?)0*([0-9]+)", text)
    if not m:
        raise ValueError(f"bad {what} {text!r}")
    sign, digits = m.groups()
    if len(digits) > _MAX_DIGITS:
        raise ValueError(f"{what} {digits[:8]}... has {len(digits)} digits, more than {_MAX_DIGITS}")
    return int(sign + digits)


def parse_extnat(text: str):
    """``inf``, or an integer as :func:`parse_int` reads it."""
    return INF if text.strip() == "inf" else parse_int(text, "extended-natural entry")


def parse_vector_text(text: str) -> Tuple:
    """Comma-separated extended naturals, e.g. ``2,3,inf``."""
    return tuple(parse_extnat(part) for part in text.split(","))


def parse_matrix_text(text: str) -> Tuple[Tuple, ...]:
    """One comma-separated row per line; blank lines ignored."""
    rows = []
    for raw in text.splitlines():
        if raw.strip():
            rows.append(parse_vector_text(raw))
    if not rows:
        raise ValueError("empty matrix")
    return tuple(rows)


# sets a field of a _Value once, in its constructor, past the
# __setattr__ that refuses every later assignment
_setattr = object.__setattr__


class _Value:
    """Immutable value over the fields its class names in ``__slots__``.

    Two values are equal when they are of the same class with equal
    fields, and a value hashes as the tuple of its fields (so not at all
    while a field holds a dict).  The repr is ``Name(field=value, ...)``.
    The constructor takes the fields in ``__slots__`` order, positionally
    and then by name, and sets each with :data:`_setattr`; a missing,
    unknown or repeated field is a ``TypeError``.  A class that checks
    its fields does so in its own ``__init__``, whose parameters are its
    ``__slots__`` in order, and ends by calling this one.  So copies and
    pickles rebuild a value by passing its fields in order to its class."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args), **kwargs)
            # a repeated field, or a positional one past the last, leaves given short
            if len(given) != len(args) + len(kwargs) or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}, each once")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()


class ParseError(ValueError):
    """Syntax error in presentation text, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# presentation DSL
#
# presentation := "<" genlist "|" relatorlist? ">"
# genlist      := (name ("," name)*)?
# relatorlist  := word ("," word)*
# word         := "1" | factor+
# factor       := atom ("^" int)?
# atom         := name | "(" word ")" | "[" word "," word "]"
# "[u,v]" expands to u v u^-1 v^-1, "1" is the identity; whitespace
# insignificant.  Names and integers are ASCII, and brackets nest at most
# _MAX_NESTING deep, which keeps the recursive descent within Python's
# recursion limit.  No integer, no word, and no presentation or list of
# words taken together is longer than _MAX_WORD_LENGTH letters: each is
# checked before it is built, since a power or nested commutators ask for
# a word exponential in the text.

_PUNCT = "<>|,^()[]"
_NAME_OR_INT = re.compile(r"[A-Za-z][A-Za-z0-9_]*|-?[0-9]+")
_MAX_NESTING = 100
_MAX_WORD_LENGTH = 1_000_000


def _check_length(p: "_Parser", length: int, tok) -> None:
    """Refuse a word of ``length`` letters, or one that with the words
    parsed before it would pass the bound, at ``tok``."""
    if length > _MAX_WORD_LENGTH:
        raise ParseError(f"word longer than {_MAX_WORD_LENGTH} letters", tok[2], tok[3])
    if p.letters + length > _MAX_WORD_LENGTH:
        raise ParseError(f"words longer than {_MAX_WORD_LENGTH} letters in all", tok[2], tok[3])


def _tokenize(text: str):
    tokens = []
    i, line, col, depth = 0, 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c in _PUNCT:
            depth += (c in "([") - (c in ")]")
            if depth > _MAX_NESTING:
                raise ParseError(f"brackets nested more than {_MAX_NESTING} deep", line, col)
            tokens.append((c, c, line, col))
            i += 1
            col += 1
        elif m := _NAME_OR_INT.match(text, i):
            tok = m.group()
            if tok[0].isalpha():
                tokens.append(("name", tok, line, col))
            else:
                # bounded before int() reads it, since int() refuses 4300 digits
                digits = tok.lstrip("-").lstrip("0") or "0"
                if len(digits) > len(str(_MAX_WORD_LENGTH)) or int(digits) > _MAX_WORD_LENGTH:
                    raise ParseError(f"integer outside -{_MAX_WORD_LENGTH}..{_MAX_WORD_LENGTH}", line, col)
                tokens.append(("int", -int(digits) if tok[0] == "-" else int(digits), line, col))
            col += len(tok)
            i = m.end()
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, letters: int = 0):
        self.tokens = _tokenize(text)
        self.pos = 0
        # letters in the words parsed before, here or in other texts
        self.letters = letters

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok[2], tok[3])


def _parse_word(p: _Parser, gmap: Dict[str, int]) -> Word:
    if p.peek()[:2] == ("int", 1):
        p.next()
        return ()
    factors, length = [], 0
    while not factors or p.peek()[0] in ("name", "(", "["):
        tok = p.peek()
        factors.append(_parse_factor(p, gmap))
        length += len(factors[-1])
        _check_length(p, length, tok)
    return concat(*factors)


def _parse_factor(p: _Parser, gmap: Dict[str, int]) -> Word:
    atom = _parse_atom(p, gmap)
    if p.peek()[0] == "^":
        p.next()
        tok = p.expect("int")
        k = tok[1]
        _check_length(p, len(atom) * abs(k), tok)
        if k < 0:
            return power(invert(atom), -k)
        return power(atom, k)
    return atom


def _parse_atom(p: _Parser, gmap: Dict[str, int]) -> Word:
    tok = p.next()
    if tok[0] == "name":
        if tok[1] not in gmap:
            raise ParseError(f"unknown generator {tok[1]!r}", tok[2], tok[3])
        return (letter(gmap[tok[1]]),)
    if tok[0] == "(":
        w = _parse_word(p, gmap)
        p.expect(")")
        return w
    if tok[0] == "[":
        u = _parse_word(p, gmap)
        p.expect(",")
        v = _parse_word(p, gmap)
        p.expect("]")
        _check_length(p, 2 * (len(u) + len(v)), tok)
        return commutator(u, v)
    raise ParseError(f"expected a word, found {tok[1]!r}", tok[2], tok[3])


class Presentation(_Value):
    """Generator names plus relator words over that alphabet.

    Relators are freely and cyclically reduced at construction; empty
    relators are dropped.  Values are immutable.
    """

    __slots__ = ("gens", "relators")

    def __init__(self, gens: Tuple[str, ...], relators: Tuple[Word, ...] = ()):
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator name")
        for name in gens:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
        rels = []
        for w in relators:
            for l in w:
                if l == 0 or abs(l) > len(gens):
                    raise ValueError(f"letter {l} outside alphabet of rank {len(gens)}")
            r = cyclic_reduce(w)
            if r:
                rels.append(r)
        super().__init__(gens, tuple(rels))

    @classmethod
    def trusted(cls, gens: Tuple[str, ...], relators: Tuple[Word, ...]) -> "Presentation":
        """A presentation built without validation, for words the program
        has already reduced: ``gens`` distinct valid names and ``relators``
        nonempty, cyclically reduced words over them.  It equals
        ``Presentation(gens, relators)``."""
        pres = object.__new__(cls)
        _Value.__init__(pres, gens, relators)
        return pres

    @property
    def rank(self) -> int:
        return len(self.gens)

    def rename(self, names: Sequence[str]) -> "Presentation":
        if len(names) != len(self.gens):
            raise ValueError("rename needs one name per generator")
        return Presentation(tuple(names), self.relators)

    def __str__(self) -> str:
        return serialize_presentation(self)


def parse_presentation(text: str) -> Presentation:
    """Parse ``< a, b | a^2, [a,b]^2 >`` style presentation text."""
    p = _Parser(text)
    p.expect("<")
    names = []
    if p.peek()[0] != "|":
        names.append(p.expect("name")[1])
        while p.peek()[0] == ",":
            p.next()
            names.append(p.expect("name")[1])
    seen = set()
    for name in names:
        if name in seen:
            p.fail(f"duplicate generator name {name!r}")
        seen.add(name)
    gmap = {name: i for i, name in enumerate(names)}
    p.expect("|")
    relators = []
    if p.peek()[0] != ">":
        relators.append(_parse_word(p, gmap))
        p.letters += len(relators[-1])
        while p.peek()[0] == ",":
            p.next()
            relators.append(_parse_word(p, gmap))
            p.letters += len(relators[-1])
    p.expect(">")
    p.expect("end")
    return Presentation(tuple(names), tuple(relators))


def parse_word(text: str, gens: Sequence[str], letters: int = 0) -> Word:
    """Parse a word over ``gens``; ``letters`` is the length of the words
    parsed with it, which count against the same bound."""
    p = _Parser(text, letters)
    gmap = {name: i for i, name in enumerate(gens)}
    w = _parse_word(p, gmap)
    p.expect("end")
    return w


def serialize_word(w: Sequence[int], gens: Sequence[str]) -> str:
    """Space-separated syllable form, e.g. ``a^2 b^-1``."""
    parts = []
    run_letter, run_len = None, 0
    for l in (*w, None):
        if l == run_letter:
            run_len += 1
            continue
        if run_letter is not None:
            if run_letter == 0:
                raise ValueError("0 is not a letter")
            if abs(run_letter) > len(gens):
                raise ValueError(f"letter {run_letter} outside alphabet of rank {len(gens)}")
            name = gens[abs(run_letter) - 1]
            exp = run_len * (1 if run_letter > 0 else -1)
            parts.append(name if exp == 1 else f"{name}^{exp}")
        run_letter, run_len = l, 1
    return " ".join(parts)


def serialize_presentation(pres: Presentation) -> str:
    gens = ", ".join(pres.gens)
    rels = ", ".join(serialize_word(w, pres.gens) for w in pres.relators)
    if rels:
        return f"< {gens} | {rels} >"
    return f"< {gens} | >"


# ---------------------------------------------------------------------------
# parameter objects


def _check_symmetric(entries, minimum, what):
    n = len(entries)
    for i, row in enumerate(entries):
        if len(row) != n:
            raise ValueError(f"{what} must be square")
        for j, v in enumerate(row):
            if i == j:
                continue
            if v != entries[j][i]:
                raise ValueError(f"{what} must be symmetric")
            if v != INF and (not isinstance(v, int) or v < minimum):
                raise ValueError(f"{what} entries must be >= {minimum} or inf, got {v!r}")


class CoxeterMatrix(_Value):
    """Symmetric matrix of edge labels ``m_ij >= 2`` or inf; diagonal 1."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple, ...]):
        entries = tuple(tuple(row) for row in entries)
        _check_symmetric(entries, 2, "Coxeter matrix")
        entries = tuple(
            tuple(1 if i == j else v for j, v in enumerate(row))
            for i, row in enumerate(entries)
        )
        super().__init__(entries)

    @classmethod
    def from_rows(cls, rows) -> "CoxeterMatrix":
        """Build from raw rows, ignoring whatever is on the diagonal."""
        return cls(rows)

    @classmethod
    def from_pairs(cls, n: int, labels: Dict[Tuple[int, int], object], default=2) -> "CoxeterMatrix":
        rows = [[default] * n for _ in range(n)]
        for (i, j), m in labels.items():
            rows[i][j] = m
            rows[j][i] = m
        return cls.from_rows(rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def pairs(self):
        """Yield ``(i, j, m_ij)`` for i < j."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield i, j, self.entries[i][j]

    @property
    def is_even(self) -> bool:
        return all(m == INF or m % 2 == 0 for _, _, m in self.pairs())


class PcSpec(_Value):
    """Rank, commutator powers ``n_ij >= 1`` or inf, generator orders.

    Generator orders ``p_i`` may be any integer >= 1 or inf; note that an
    order of 1 kills its generator, which the presentation constructor
    accepts but the embedding builders reject.
    """

    __slots__ = ("powers", "orders")

    def __init__(self, powers: Tuple[Tuple, ...], orders: Tuple):
        powers = tuple(tuple(row) for row in powers)
        _check_symmetric(powers, 1, "commutator-power matrix")
        powers = tuple(
            tuple(INF if i == j else v for j, v in enumerate(row))
            for i, row in enumerate(powers)
        )
        orders = tuple(orders)
        if len(orders) != len(powers):
            raise ValueError("need one generator order per generator")
        for p in orders:
            if p != INF and (not isinstance(p, int) or p < 1):
                raise ValueError(f"generator order must be >= 1 or inf, got {p!r}")
        super().__init__(powers, orders)

    @classmethod
    def from_pairs(cls, n: int, powers: Dict[Tuple[int, int], object], orders) -> "PcSpec":
        rows = [[INF] * n for _ in range(n)]
        for (i, j), v in powers.items():
            rows[i][j] = v
            rows[j][i] = v
        return cls(rows, orders)

    @property
    def n(self) -> int:
        return len(self.powers)

    def pairs(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield i, j, self.powers[i][j]


class HomZ2n(_Value):
    """Generator-wise map onto (a subgroup of) ``Z_2^n``.

    Images are bitmasks; the image of a word is the XOR of its letters'
    images, signs irrelevant mod 2.
    """

    __slots__ = ("n", "images")

    def __init__(self, n: int, images: Tuple[int, ...]):
        if n < 1:
            raise ValueError("n must be >= 1")
        images = tuple(images)
        for v in images:
            if not 0 <= v < (1 << n):
                raise ValueError(f"image {v} outside Z_2^{n}")
        super().__init__(n, images)

    def word_image(self, w: Sequence[int]) -> int:
        v = 0
        for l in w:
            if l == 0:
                raise ValueError("0 is not a letter")
            g = abs(l) - 1
            if g >= len(self.images):
                raise ValueError("missing generator image")
            v ^= self.images[g]
        return v

    def bits(self, v: int) -> str:
        return "".join("1" if (v >> i) & 1 else "0" for i in range(self.n))


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of a set of bitmask vectors."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


class EmbeddingInstance(_Value):
    """An ambient presentation bundled with a hom onto ``Z_2^n``, the
    transversal generator subset, the commuting generator pairs, and the
    expected kernel with the defining words of its generators.

    Every ambient generator is an involution (has a ``g^2`` relator), and
    each commuting pair ``(a, b)``, ``a < b``, is a relation of the
    ambient: some ambient relator of four letters alternates between
    ``a`` and ``b``, signs aside, as ``(a b)^2`` and ``[a, b]`` do in
    every rotation and inversion.  So the right-angled Coxeter group of
    the pairs maps onto the ambient, and the evaluated kernel merges
    symbols equal there.  Every expected word lies in the kernel of the hom.  ``params``
    defaults to a new empty dict."""

    __slots__ = (
        "family", "ambient", "hom", "transversal_gens", "commuting", "expected_kernel",
        "expected_words", "params",
    )

    def __init__(
        self,
        family: str,
        ambient: Presentation,
        hom: HomZ2n,
        transversal_gens: Tuple[int, ...],
        commuting: frozenset,
        expected_kernel: Presentation,
        expected_words: Tuple[Word, ...],
        params: dict | None = None,
    ):
        n = ambient.rank
        if len(hom.images) != n:
            raise ValueError("hom must cover every ambient generator")
        squared = {abs(r[0]) - 1 for r in ambient.relators if len(r) == 2 and r[0] == r[1]}
        if len(squared) != n:
            raise ValueError("every ambient generator needs a g^2 relator")
        pairs = set()
        for a, b in commuting:
            if a == b:
                raise ValueError("commuting pair must contain two distinct generators")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"commuting pair {(a, b)} outside alphabet")
            pairs.add((min(a, b), max(a, b)))
        for r in ambient.relators:
            if hom.word_image(r) != 0:
                raise ValueError("hom does not kill every ambient relator")
        # between involutions, a relator of four letters alternating between
        # them, signs aside, says that they commute
        alternating = {
            (min(abs(r[0]), abs(r[1])) - 1, max(abs(r[0]), abs(r[1])) - 1)
            for r in ambient.relators
            if len(r) == 4 and abs(r[0]) == abs(r[2]) != abs(r[1]) == abs(r[3])
        }
        for pair in pairs:
            if pair not in alternating:
                raise ValueError(f"commuting pair {pair} is not an ambient relation")
        if len(expected_words) != expected_kernel.rank:
            raise ValueError("one expected word per expected kernel generator")
        expected_words = tuple(tuple(w) for w in expected_words)
        for w in expected_words:
            if hom.word_image(w) != 0:
                raise ValueError("expected word outside the kernel of the hom")
        transversal_gens = tuple(transversal_gens)
        for g in transversal_gens:
            if not 0 <= g < n:
                raise ValueError(f"transversal generator {g} outside alphabet")
        sub = [hom.images[g] for g in transversal_gens]
        if gf2_rank(sub) != gf2_rank(hom.images):
            raise ValueError("transversal generators do not span the image")
        super().__init__(
            family, ambient, hom, transversal_gens, frozenset(pairs), expected_kernel,
            expected_words, {} if params is None else params,
        )


# ---------------------------------------------------------------------------
# family constructors


def _names(prefix: str, n: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _squares(n: int) -> list[Word]:
    """``g^2`` for each of the first ``n`` generators, in order."""
    return [power((letter(g),), 2) for g in range(n)]


def _label_relators(triples: Iterable) -> list[Word]:
    """``(x y)^m`` for each ``(x, y, m)`` with ``m`` finite, in order;
    ``x`` and ``y`` are letters and an infinite label gives no relator."""
    return [power((x, y), m) for x, y, m in triples if m != INF]


def _check_letters(fixed: int, *sized: Tuple[str, Iterable[Tuple], int]) -> None:
    """Refuse, before any word is built, a presentation whose relators
    would hold more than ``_MAX_WORD_LENGTH`` letters in all, counted
    before free reduction: the bound the parser keeps on a presentation it
    reads.  ``fixed`` letters come from relators of fixed length.  Each
    ``(kind, entries, per)`` gives entries ``(i, j, v)`` or ``(i, v)``, and
    a finite ``v`` sizes relators of ``per * v`` letters; the entry that
    passes the bound is named by ``kind`` and its 1-based indices."""
    total = fixed
    for kind, entries, per in sized:
        for e in entries:
            if e[-1] != INF:
                total += per * e[-1]
                if total > _MAX_WORD_LENGTH:
                    at = ",".join(str(i + 1) for i in e[:-1])
                    raise ValueError(
                        f"{kind}[{at}] = {e[-1]} makes relators longer than {_MAX_WORD_LENGTH} letters in all"
                    )


def _double_commuting(n: int) -> list[Tuple[int, int]]:
    """The generator pairs every rank-2n double ``r_1..r_n, s_1..s_n``
    makes commute, in order: ``(r_i, r_j)`` for ``i < j``, then
    ``(r_i, s_j)`` for ``i != j``.

    These are the double's commuting pairs.  thm1 and prop2 write each pair
    ``(x, y)`` into the ambient as ``(x y)^2``, artin as ``[x, y]``.  The
    pairs are not derived from the ambient's relators: with ``p_i = 2``,
    thm1 and prop2 have the relator ``(s_i r_i)^2``, and deriving would
    add an ``(r_i, s_i)`` commutation and change the evaluated kernels."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)] + [
        (i, n + j) for i in range(n) for j in range(n) if i != j
    ]


def coxeter_presentation(matrix: CoxeterMatrix) -> Presentation:
    """Generators ``s_i`` with ``s_i^2`` and ``(s_i s_j)^{m_ij}`` relators.

    Infinite labels contribute no relator.
    """
    n = matrix.n
    _check_letters(2 * n, ("label m", matrix.pairs(), 2))
    rels = _squares(n) + _label_relators((letter(i), letter(j), m) for i, j, m in matrix.pairs())
    return Presentation(_names("s", n), tuple(rels))


def pc_presentation(spec: PcSpec) -> Presentation:
    """Generators ``g_i`` with ``[g_i,g_j]^{n_ij}`` and ``g_i^{p_i}`` relators."""
    n = spec.n
    _check_letters(0, ("commutator power n", spec.pairs(), 4), ("order p", enumerate(spec.orders), 1))
    rels = []
    for i, j, nij in spec.pairs():
        if nij != INF:
            rels.append(power(commutator((letter(i),), (letter(j),)), nij))
    for i, p in enumerate(spec.orders):
        if p != INF:
            rels.append(power((letter(i),), p))
    return Presentation(_names("g", n), tuple(rels))


def _braid_relators(matrix: CoxeterMatrix, a) -> list[Word]:
    """Braid relators ``(a_i a_j a_i ...)(a_j a_i a_j ...)^-1`` with ``m_ij``
    factors per block, finite labels only, where ``a(i)`` is the word
    standing for ``a_i``."""

    def block(i: int, j: int, m: int) -> Word:
        return tuple(l for k in range(m) for l in a(i if k % 2 == 0 else j))

    return [
        concat(block(i, j, m), invert(block(j, i, m)))
        for i, j, m in matrix.pairs()
        if m != INF
    ]


def artin_presentation(matrix: CoxeterMatrix) -> Presentation:
    """Generators ``a_i`` with braid relators ``(a_i a_j a_i ...)(a_j a_i a_j ...)^-1``,
    ``m_ij`` letters per block, for finite labels only."""
    _check_letters(0, ("label m", matrix.pairs(), 2))
    return Presentation(_names("a", matrix.n), tuple(_braid_relators(matrix, lambda i: (letter(i),))))


def _double_relators(matrix: CoxeterMatrix, orders) -> list[Word]:
    """Relators of the rank-2n ambient: involutions, commuting copies,
    ``(s_i s_j)^{m_ij}`` and ``(s_i r_i)^{p_i}``."""
    n = matrix.n
    commuting = _double_commuting(n)
    fixed = 4 * n + 4 * len(commuting)
    _check_letters(fixed, ("label m", matrix.pairs(), 2), ("order p", enumerate(orders), 2))
    s = lambda i: letter(n + i)
    return (
        _squares(2 * n)
        + _label_relators((letter(a), letter(b), 2) for a, b in commuting)
        + _label_relators((s(i), s(j), m) for i, j, m in matrix.pairs())
        + _label_relators((s(i), letter(i), p) for i, p in enumerate(orders))
    )


def _check_orders(orders, n: int):
    orders = tuple(orders)
    if len(orders) != n:
        raise ValueError(f"need {n} generator orders, got {len(orders)}")
    for p in orders:
        if p != INF and (not isinstance(p, int) or p < 2):
            raise ValueError(f"generator order must be >= 2 or inf, got {p!r}")
    return orders


def _matrix_params(matrix: CoxeterMatrix, orders=None) -> dict:
    params = {"m": [[v if v != INF else "inf" for v in row] for row in matrix.entries]}
    if orders is not None:
        params["p"] = [p if p != INF else "inf" for p in orders]
    return params


def _double_instance(family, matrix, orders, relators, images, expected, expected_words):
    """The rank-2n double ``r_1..r_n, s_1..s_n`` over ``Z_2^n`` with the
    ``r_i`` as transversal generators.  Every generator is an involution
    and the commuting pairs are :func:`_double_commuting`;
    ``orders`` is None for artin."""
    n = matrix.n
    return EmbeddingInstance(
        family=family,
        ambient=Presentation(_names("r", n) + _names("s", n), tuple(relators)),
        hom=HomZ2n(n, images),
        transversal_gens=tuple(range(n)),
        commuting=frozenset(_double_commuting(n)),
        expected_kernel=expected,
        expected_words=expected_words,
        params=_matrix_params(matrix, orders),
    )


def build_thm1_instance(matrix: CoxeterMatrix, orders) -> EmbeddingInstance:
    """Even-label double construction whose kernel is a power-commutator
    group with powers ``m_ij / 2`` and the given generator orders."""
    if not matrix.is_even:
        raise ValueError("all finite labels must be even")
    n = matrix.n
    orders = _check_orders(orders, n)
    # checked first: the ambient holds more letters than the expected kernel
    relators = _double_relators(matrix, orders)
    halved = {(i, j): m // 2 for i, j, m in matrix.pairs() if m != INF}
    expected = pc_presentation(PcSpec.from_pairs(n, halved, orders)).rename(_names("a", n))
    expected_words = tuple((letter(n + i), letter(i)) for i in range(n))
    return _double_instance(
        "thm1", matrix, orders, relators, tuple(1 << i for i in range(n)) * 2, expected, expected_words,
    )


def build_prop2_instance(matrix: CoxeterMatrix, orders) -> EmbeddingInstance:
    """Double construction over any Coxeter matrix, even generator orders;
    the kernel is again a Coxeter group on ``s_i`` and ``t_i = r_i s_i r_i``."""
    n = matrix.n
    orders = _check_orders(orders, n)
    for p in orders:
        if p != INF and p % 2 != 0:
            raise ValueError("finite generator orders must be even")
    relators = _double_relators(matrix, orders)
    # (s_i t_i)^(p_i / 2), and (s_i s_j), (s_i t_j), (s_j t_i), (t_i t_j) to the m_ij
    _check_letters(4 * n, ("order p", enumerate(orders), 1), ("label m", matrix.pairs(), 8))
    s = lambda i: letter(i)
    t = lambda i: letter(n + i)
    rels = (
        _squares(2 * n)
        + _label_relators((s(i), t(i), p // 2) for i, p in enumerate(orders) if p != INF)
        + _label_relators((s(i), s(j), m) for i, j, m in matrix.pairs())
        + _label_relators(
            (s(i), t(j), matrix.entries[i][j]) for i in range(n) for j in range(n) if i != j
        )
        + _label_relators((t(i), t(j), m) for i, j, m in matrix.pairs())
    )
    expected = Presentation(_names("s", n) + _names("t", n), tuple(rels))
    expected_words = tuple((letter(n + i),) for i in range(n)) + tuple(
        (letter(i), letter(n + i), letter(i)) for i in range(n)
    )
    return _double_instance(
        "prop2", matrix, orders, relators,
        tuple(1 << i for i in range(n)) + (0,) * n, expected, expected_words,
    )


def build_klein_instance() -> EmbeddingInstance:
    """Product of two infinite dihedral groups mapping onto ``Z_2^2`` with
    the Klein bottle group as kernel.

    The ambient is the Coxeter group on ``r1, s1, r2, s2`` with label
    ``inf`` on ``(r1, s1)`` and ``(r2, s2)`` and 2 elsewhere; the
    commuting pairs are its label-2 pairs."""
    matrix = CoxeterMatrix.from_pairs(4, {(0, 1): INF, (2, 3): INF})
    r1, s1, r2, s2 = (letter(i) for i in range(4))
    return EmbeddingInstance(
        family="klein",
        ambient=coxeter_presentation(matrix).rename(("r1", "s1", "r2", "s2")),
        hom=HomZ2n(2, (0b01, 0b11, 0b10, 0b10)),
        transversal_gens=(0, 2),
        commuting=frozenset((i, j) for i, j, m in matrix.pairs() if m == 2),
        expected_kernel=Presentation(("a", "b"), ((-1, 2, 1, 2),)),
        expected_words=((s1, r1, r2), (s2, r2)),
    )


def build_artin_instance(matrix: CoxeterMatrix) -> EmbeddingInstance:
    """Involution double with braid relators in ``a_i = s_i r_i``.  The
    braid-type relators make this a generalized Coxeter presentation
    rather than a Coxeter one.

    The expected kernel is the Artin group, but conjugation by ``r_i``
    inverts ``a_i`` alone, so the kernel is the Artin group modulo the
    braid relators with ``a_i`` sign-flipped; for a finite label ``>= 3``
    these are not consequences of the plain ones.  The kernel equals the
    Artin group only when every label is 2 or ``inf``.  See
    :func:`build_artin_inversion_instance` for an ambient whose kernel is
    exactly the Artin group."""
    n = matrix.n
    commuting = _double_commuting(n)
    _check_letters(4 * n + 4 * len(commuting), ("label m", matrix.pairs(), 4))
    a = lambda i: (letter(n + i), letter(i))
    rels = (
        _squares(2 * n)
        + [commutator((letter(x),), (letter(y),)) for x, y in commuting]
        + _braid_relators(matrix, a)
    )
    return _double_instance(
        "artin", matrix, None, rels, tuple(1 << i for i in range(n)) * 2,
        artin_presentation(matrix), tuple(a(i) for i in range(n)),
    )


def build_artin_inversion_instance(matrix: CoxeterMatrix) -> EmbeddingInstance:
    """Artin group extended by ``Z_2`` acting as global inversion:
    involutions ``r, s_1..s_n`` with braid relators in ``a_i = s_i r``,
    every generator mapping onto ``Z_2``.  Conjugation by ``r`` inverts
    every ``a_i`` at once, which is an automorphism of every Artin group,
    so the kernel is exactly the Artin group of the matrix."""
    n = matrix.n
    _check_letters(2 * n + 2, ("label m", matrix.pairs(), 4))
    a = lambda i: (letter(1 + i), letter(0))
    return EmbeddingInstance(
        family="artin-inversion",
        ambient=Presentation(
            ("r",) + _names("s", n), tuple(_squares(n + 1) + _braid_relators(matrix, a))
        ),
        hom=HomZ2n(1, (1,) * (n + 1)),
        transversal_gens=(0,),
        commuting=frozenset(),
        expected_kernel=artin_presentation(matrix),
        expected_words=tuple(a(i) for i in range(n)),
        params=_matrix_params(matrix),
    )
