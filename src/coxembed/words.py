"""Free-group words over an indexed alphabet.

A letter is a nonzero integer: ``g + 1`` stands for generator ``g``
(0-based) and ``-(g + 1)`` for its inverse.  A word is a tuple of letters
that is freely reduced; the empty tuple is the identity.  Generator
display names live at the presentation level, so everything here is pure
index arithmetic and all values are immutable.

Words are ordered lexicographically by letters, and letters by generator
index ascending, each generator before its inverse.  Relator normal
forms are computed on *code strings* (:func:`encode`), one character per
letter, whose code point order is that letter order, so code strings
compare natively in the word order, and substituting, deleting or
inverting letters is a single :class:`str` operation.  A proper power
``u^k`` of a primitive word ``u`` has the normal form of ``u`` repeated
``k`` times, so it is normalized through its root (:func:`rotation_nf`).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

Word = Tuple[int, ...]
# a word as a string of letter codes, see encode()
Code = str


def letter(gen: int) -> int:
    """The letter of generator index ``gen``; its inverse is the negative.

    >>> letter(0), -letter(2)
    (1, -3)
    """
    if gen < 0:
        raise ValueError("generator index must be >= 0")
    return gen + 1


def free_reduce(letters: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs to a fixpoint.

    The single-stack pass resolves nested cancellations:

    >>> free_reduce([1, 2, -2, -1, 3])
    (3,)
    """
    out: list[int] = []
    for let in letters:
        if let == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -let:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def invert(w: Sequence[int]) -> Word:
    """Reverse the word and flip every sign."""
    return tuple(-l for l in reversed(w))


def concat(*words: Sequence[int]) -> Word:
    """Freely reduced juxtaposition of any number of words."""
    joined: list[int] = []
    for w in words:
        joined.extend(w)
    return free_reduce(joined)


def power(w: Sequence[int], k: int) -> Word:
    """k-fold concatenation, ``k >= 0``.  ``power(w, 0)`` is the identity."""
    if k < 0:
        raise ValueError("negative exponent; invert first")
    return free_reduce(tuple(free_reduce(w)) * k)


def commutator(x: Sequence[int], y: Sequence[int]) -> Word:
    """The commutator x y x^-1 y^-1."""
    return concat(x, y, invert(x), invert(y))


def cyclic_reduce(w: Sequence[int]) -> Word:
    """Strip matching first/last letter pairs after free reduction.

    >>> cyclic_reduce([-2, 1, 2])
    (1,)
    """
    return cyclic_trim(free_reduce(w))


def cyclic_trim(v: Word) -> Word:
    """:func:`cyclic_reduce` of a freely reduced word ``v``."""
    i, j = 0, len(v) - 1
    while i < j and v[i] == -v[j]:
        i += 1
        j -= 1
    return v[i : j + 1]


def expand_kernel_word(w: Sequence[int], defining: Sequence[Sequence[int]]) -> Word:
    """Substitute ``defining[g]`` for each letter of generator ``g`` in ``w``
    (its inverse for an inverse letter), freely reduced.

    >>> expand_kernel_word((1, -2), [(1, 2), (3,)])
    (1, 2, -3)
    """
    parts: list[int] = []
    for l in w:
        d = defining[abs(l) - 1]
        parts.extend(d if l > 0 else invert(d))
    return free_reduce(parts)


class _Memo(dict):
    """The values of ``f``, each computed on first use.  ``map`` and
    :meth:`str.translate` look them up at C speed; the values do not
    depend on what was looked up before."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, x):
        self[x] = y = self.f(x)
        return y


def _code_of(l: int) -> str:
    if l == 0:
        raise ValueError("0 is not a letter")
    return chr(2 * l - 2) if l > 0 else chr(-2 * l - 1)


_CODE = _Memo(_code_of)
_LETTER = _Memo(lambda x: -(ord(x) >> 1) - 1 if ord(x) & 1 else (ord(x) >> 1) + 1)
# ord(x) -> ord(x) ^ 1, the inverse letter
_FLIP = _Memo(lambda x: x ^ 1)


def encode(w: Sequence[int]) -> Code:
    """Code string of a word: the character ``chr(2g)`` for generator
    ``g``, ``chr(2g + 1)`` for its inverse.  Codes compare in the letter
    order (generator index ascending, each generator before its inverse),
    so code strings compare natively in the word order of the module
    docstring, and ``x ^ 1`` is the inverse of code ``x``.

    >>> encode((1, -1, -3))
    '\\x00\\x01\\x05'
    """
    return "".join(map(_CODE.__getitem__, w))


def decode(c: Iterable[str]) -> Word:
    """Inverse of :func:`encode`."""
    return tuple(map(_LETTER.__getitem__, c))


def _least_rotation(c: Code, m: str) -> Code:
    """Lexicographically least rotation of a code string whose least letter
    is ``m``.

    A least rotation starts with ``m``.  While ``m`` is at most one more
    than a quarter of the letters, and at most ``_FEW`` of them, the
    rotations starting there are compared as slices, each a copy of the
    word in C.  Otherwise the scan is linear time, the bound of Booth (IPL
    10, 1980), here by Duval's Lyndon factorization of ``c c``: the least
    rotation starts at the last Lyndon factor that begins in the first
    copy.  ``i`` is the start of the current factor, ``j`` the letter under
    comparison and ``k`` its counterpart one period back.
    """
    k = c.find(m)
    best = c[k:] + c[:k]
    k = c.find(m, k + 1)
    if k < 0:
        return best
    if c.count(m) <= min((len(c) >> 2) + 1, _FEW):
        while k >= 0:
            best = min(best, c[k:] + c[:k])
            k = c.find(m, k + 1)
        return best
    n = len(c)
    cc = list(map(ord, c)) * 2
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and cc[k] <= cc[j]:
            k = i if cc[k] < cc[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return c[start:] + c[:start]


# a slice comparison costs about as much as four letters of the scan in
# Python, and for long words its copy comes to dominate
_FEW = 256


def _reduce(c: str) -> list[int]:
    """The codes of ``c`` freely reduced."""
    out: list[int] = []
    for x in map(ord, c):
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return out


def code_reduce(c: str) -> Code:
    """:func:`free_reduce` on code strings."""
    out = _reduce(c)
    return c if len(out) == len(c) else "".join(map(chr, out))


def code_invert(c: str) -> Code:
    """:func:`invert` on code strings."""
    return c[::-1].translate(_FLIP)


def code_nf(c: str) -> Code:
    """:func:`relator_nf` on code strings: free and cyclic reduction, then
    :func:`rotation_nf`."""
    # a word of two letters is freely reduced once it is cyclically reduced
    v = list(map(ord, c)) if len(c) < 3 else _reduce(c)
    i, j = 0, len(v) - 1
    while i < j and v[i] == v[j] ^ 1:
        i += 1
        j -= 1
    if i > j:
        return ""
    if j - i + 1 != len(c):
        c = "".join(map(chr, v[i : j + 1]))
    return rotation_nf(c)


def rotation_nf(c: Code) -> Code:
    """The least rotation of a nonempty, cyclically reduced code string or
    of its inverse, whichever is less: :func:`code_nf` of a word that
    needs no reduction.

    A least rotation starts with the least letter, so the least letter
    ``m`` of the word often settles the side: if ``m`` is an inverse
    letter, the inverse word holds ``m ^ 1 < m`` and wins; if ``m ^ 1`` is
    absent, every letter of the inverse exceeds ``m`` and the word wins.
    Only otherwise are both sides rotated.  Words of one or two letters
    are written out.

    A proper power ``u^k`` is normalized through its primitive root ``u``,
    which is unique (Lyndon and Schützenberger, Michigan Math. J. 9,
    1962): its form is ``rotation_nf(u) * k``.  The first place ``p > 0``
    where ``c`` recurs in ``c c`` is the least rotation fixing ``c``, so it
    divides ``len(c)`` and ``u = c[:p]``.  The rule keeps the form, because the root of a nonempty, cyclically
    reduced word is itself cyclically reduced; the rotations of ``u^k``
    are the ``k``-th powers of the rotations of ``u``; the inverse of
    ``u^k`` is ``(u^-1)^k``; and two ``k``-th powers of words of equal
    length compare as their roots do."""
    n = len(c)
    if n > 2:
        p = (c + c).find(c, 1)
        if p < n:
            return rotation_nf(c[:p]) * (n // p)
        m = min(c)
        if ord(m) & 1:
            return _least_rotation(code_invert(c), chr(ord(m) ^ 1))
        if chr(ord(m) + 1) not in c:
            return _least_rotation(c, m)
        return min(_least_rotation(c, m), _least_rotation(code_invert(c), m))
    if n == 1:
        return chr(ord(c) & ~1)
    # the least letter is the positive letter of the lesser generator
    a, b = map(ord, c)
    if a >> 1 > b >> 1:
        a, b = b, a
    elif a >> 1 == b >> 1:
        return chr(a & ~1) * 2
    return chr(a ^ 1) + chr(b ^ 1) if a & 1 else chr(a) + chr(b)


def relator_nf(w: Sequence[int]) -> Word:
    """Canonical form of a relator up to rotation and inversion.

    Cyclically reduces ``w``, then returns the minimum over all rotations
    of the result and of its inverse in the word order of the module
    docstring, found on letter codes in linear time by
    :func:`code_nf`.  Constant on the orbit of a word under rotation,
    inversion and free conjugation.
    """
    return decode(code_nf(encode(w)))
