"""Symmetric-group combinatorics: lengths, cycles, Young subgroups,
the longest distinguished coset representative, shifts.

Permutations use one-line notation with 1-based mathematical indices:
word[i-1] = sigma(i).  Composition is (pi * sigma)(i) = pi(sigma(i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _itertools_perms
from typing import Iterator, List, Tuple

__all__ = [
    "Perm",
    "Composition",
    "identity",
    "transposition",
    "cycle",
    "longest_element",
    "longest_rho",
    "shift",
    "enumerate_perms",
    "MAX_ENUM_DEGREE",
]

MAX_ENUM_DEGREE = 8


class Perm:
    """A permutation of {1..n} in one-line notation."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError("not a permutation of 1..n: %r" % (word,))
        object.__setattr__(self, "word", word)

    def __setattr__(self, *args):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("mixed degrees %d and %d" % (self.degree, other.degree))
        return Perm(tuple(self.word[j - 1] for j in other.word))

    def inverse(self) -> "Perm":
        out = [0] * self.degree
        for i, v in enumerate(self.word):
            out[v - 1] = i + 1
        return Perm(out)

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        w = self.word
        n = len(w)
        return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.word))

    def descent_left(self) -> int:
        """Smallest i with length(tau_i * self) < length(self); 0 if none."""
        inv = [0] * self.degree
        for i, v in enumerate(self.word):
            inv[v - 1] = i + 1
        for i in range(1, self.degree):
            if inv[i - 1] > inv[i]:
                return i
        return 0

    def reduced_word(self) -> Tuple[int, ...]:
        """Indices (i1,...,iL) with self = tau_i1 * ... * tau_iL, L = length."""
        out = []
        cur = self
        while True:
            i = cur.descent_left()
            if not i:
                break
            out.append(i)
            cur = transposition(i, cur.degree) * cur
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return "Perm(%r)" % (self.word,)


def identity(n: int) -> Perm:
    return Perm(range(1, n + 1))


def transposition(i: int, n: int) -> Perm:
    """The basic transposition tau_i = (i, i+1) in S_n."""
    if not 1 <= i < n:
        raise ValueError("tau_%d is not defined in S_%d" % (i, n))
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return Perm(w)


def cycle(i: int, j: int, n: int) -> Perm:
    """The cycle (i, i+-1, ..., j); identity when i = j.

    For i < j this is tau_i tau_(i+1) ... tau_(j-1); for i > j it is
    tau_(i-1) ... tau_(j+1) tau_j.  Its length is |j - i|.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("cycle endpoints out of range")
    w = list(range(1, n + 1))
    if i < j:
        for k in range(i, j):
            w[k - 1] = k + 1
        w[j - 1] = i
    elif i > j:
        for k in range(j + 1, i + 1):
            w[k - 1] = k - 1
        w[j - 1] = i
    return Perm(w)


def longest_element(n: int) -> Perm:
    return Perm(range(n, 0, -1))


def longest_rho(k: int, n: int) -> Perm:
    """The longest distinguished representative for S_(k+n) over S_(k,n).

    Equals ((1+n) cycled to 1)((2+n) cycled to 2)...((k+n) cycled to k);
    it sends {1..k} onto {n+1..n+k} and {k+1..k+n} onto {1..n}, order
    preserved on both, and has length k*n.
    """
    if k < 0 or n < 0:
        raise ValueError("nonnegative block sizes required")
    m = k + n
    out = identity(m)
    for r in range(1, k + 1):
        out = out * cycle(r + n, r, m)
    return out


def shift(p: Perm, k: int, m: int = 0) -> Perm:
    """The image of p under tau_i -> tau_(k+i), landing in S_(k+n+m).

    Fixes 1..k (and any padding above k + degree) and permutes the middle
    block the way p permutes 1..n.
    """
    if k < 0 or m < 0:
        raise ValueError("shift amounts must be nonnegative")
    word = list(range(1, k + 1))
    word += [k + v for v in p.word]
    word += list(range(k + p.degree + 1, k + p.degree + m + 1))
    return Perm(word)


def enumerate_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    if n > MAX_ENUM_DEGREE:
        raise ValueError("degree %d exceeds the enumeration bound %d" % (n, MAX_ENUM_DEGREE))
    for w in _itertools_perms(range(1, n + 1)):
        yield Perm(w)


@dataclass(frozen=True)
class Composition:
    """Ordered parts of positive integers; indexes a Young subgroup."""

    parts: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts or any(p <= 0 for p in self.parts):
            raise ValueError("composition parts must be positive")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def block_bounds(self) -> List[Tuple[int, int]]:
        """Inclusive 1-based (start, end) per block."""
        out = []
        start = 1
        for p in self.parts:
            out.append((start, start + p - 1))
            start += p
        return out

    def internal_generators(self) -> List[int]:
        """Indices i with tau_i inside the Young subgroup."""
        out = []
        for start, end in self.block_bounds():
            out.extend(range(start, end))
        return out

    def longest_length(self) -> int:
        """Length of the longest element of the Young subgroup."""
        return sum(p * (p - 1) // 2 for p in self.parts)
