"""Free-group words over an indexed alphabet.

A letter is a nonzero integer: ``g + 1`` stands for generator ``g``
(0-based) and ``-(g + 1)`` for its inverse.  A word is a tuple of letters
that is freely reduced; the empty tuple is the identity.  Generator
display names live at the presentation level, so everything here is pure
index arithmetic and all values are immutable.

Relator normal forms are computed on *letter codes* (:func:`encode`),
whose native integer order is the :func:`letter_key` order, so tuples of
codes compare as :func:`word_key` orders words without building keys.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

Word = Tuple[int, ...]
# a word in letter codes, see encode()
Code = Tuple[int, ...]


def letter(gen: int, sign: int = 1) -> int:
    """Encode generator index ``gen`` with the given sign.

    >>> letter(0), letter(2, -1)
    (1, -3)
    """
    if gen < 0:
        raise ValueError("generator index must be >= 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return (gen + 1) * sign


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


def relabel(w: Sequence[int], mapping: Sequence[int]) -> Word:
    """Substitute letter ``mapping[g]`` for generator ``g`` (0-based) and
    its inverse for ``g``'s inverse; a negative entry maps ``g`` to an
    inverted generator."""
    return tuple(mapping[l - 1] if l > 0 else -mapping[-l - 1] for l in w)


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
    v = free_reduce(w)
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


def letter_key(let: int) -> Tuple[int, int]:
    """Total order on letters: generator index ascending, + before -."""
    return (abs(let), 0 if let > 0 else 1)


def word_key(w: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    return tuple(letter_key(l) for l in w)


def encode(w: Sequence[int]) -> Code:
    """Letter codes of a word: ``2g`` for generator ``g``, ``2g + 1`` for
    its inverse.  Codes compare as :func:`letter_key` does, so code tuples
    compare natively in the :func:`word_key` order, and ``c ^ 1`` is the
    inverse of code ``c``.

    >>> encode((1, -1, -3))
    (0, 1, 5)
    """
    if 0 in w:
        raise ValueError("0 is not a letter")
    return tuple(2 * l - 2 if l > 0 else -2 * l - 1 for l in w)


def decode(c: Sequence[int]) -> Word:
    """Inverse of :func:`encode`."""
    return tuple(-(x >> 1) - 1 if x & 1 else (x >> 1) + 1 for x in c)


def _least_rotation(c: Code) -> Code:
    """Lexicographically least rotation of a nonempty code word.

    Linear time, the bound of Booth (IPL 10, 1980), here by Duval's Lyndon
    factorization of ``c c``: the least rotation starts at the last Lyndon
    factor that begins in the first copy.  ``i`` is the start of the
    current factor, ``j`` the letter under comparison and ``k`` its
    counterpart one period back.
    """
    n = len(c)
    cc = c + c
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and cc[k] <= cc[j]:
            k = i if cc[k] < cc[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return cc[start : start + n]


def code_reduce(c: Iterable[int]) -> Code:
    """:func:`free_reduce` on letter codes."""
    out: list[int] = []
    for x in c:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def code_invert(c: Sequence[int]) -> Code:
    """:func:`invert` on letter codes."""
    return tuple(x ^ 1 for x in reversed(c))


def code_nf(c: Iterable[int]) -> Code:
    """:func:`relator_nf` on letter codes: cyclically reduce, then take
    the least of the least rotations of the word and of its inverse."""
    v = code_reduce(c)
    i, j = 0, len(v) - 1
    while i < j and v[i] == v[j] ^ 1:
        i += 1
        j -= 1
    if i > j:
        return ()
    v = v[i : j + 1]
    return min(_least_rotation(v), _least_rotation(code_invert(v)))


def relator_nf(w: Sequence[int]) -> Word:
    """Canonical form of a relator up to rotation and inversion.

    Cyclically reduces ``w``, then returns the minimum over all rotations
    of the result and of its inverse under the letter order of
    :func:`letter_key`, found on letter codes in linear time by
    :func:`code_nf`.  Constant on the orbit of a word under rotation,
    inversion and free conjugation.
    """
    return decode(code_nf(encode(w)))
