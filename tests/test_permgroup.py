import pytest

from heckesym.heckealg import partial_y
from heckesym.permgroup import (
    Composition,
    Perm,
    cycle,
    enumerate_perms,
    identity,
    longest_element,
    longest_rho,
    shift,
    transposition,
)


def coset_reps(n, comp, side="left"):
    """The distinguished coset representatives, in the order of partial_y's sum over them."""
    return [p for p, _word, _c in partial_y(n, comp, side).field_terms()]


def young_elements(n, comp):
    """The Young subgroup, in the order of partial_y's sum over it."""
    return [p for p, _word, _c in partial_y(n, comp, "subgroup").field_terms()]


def test_lengths():
    assert identity(4).length() == 0
    for n in range(2, 7):
        assert longest_element(n).length() == n * (n - 1) // 2
    assert cycle(3, 1, 3).length() == 2
    for n in range(2, 6):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert cycle(i, j, n).length() == abs(j - i)


def test_cycle_one_line():
    assert cycle(1, 3, 3).word == (2, 3, 1)
    assert cycle(i := 2, i, 4) == identity(4)
    # tau_1 tau_2 as a product
    assert cycle(1, 3, 3) == transposition(1, 3) * transposition(2, 3)


def test_cycle_composition_law():
    for n in range(2, 6):
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                for j in range(1, n + 1):
                    if i <= k <= j or i >= k >= j:
                        assert cycle(i, k, n) * cycle(k, j, n) == cycle(i, j, n)


def test_cycle_bounds():
    with pytest.raises(ValueError):
        cycle(0, 2, 3)
    with pytest.raises(ValueError):
        cycle(1, 4, 3)


def test_coset_reps_one_row():
    for n in range(2, 6):
        reps = coset_reps(n, Composition((n - 1, 1)))
        assert set(reps) == {cycle(i, n, n) for i in range(1, n + 1)}
    assert coset_reps(3, Composition((3,))) == [identity(3)]


def test_coset_reps_two_two():
    reps = coset_reps(4, Composition((2, 2)))
    assert len(reps) == 6
    assert max(p.length() for p in reps) == 4
    # sorted by (length, word)
    keys = [(p.length(), p.word) for p in reps]
    assert keys == sorted(keys)


def test_right_cosets_are_inverses():
    left = coset_reps(4, Composition((2, 2)), "left")
    right = coset_reps(4, Composition((2, 2)), "right")
    assert {p.inverse() for p in left} == set(right)


def test_length_additivity_on_cosets():
    for n in range(2, 6):
        for k in range(1, n):
            comp = Composition((k, n - k))
            D = coset_reps(n, comp)
            sub = young_elements(n, comp)
            for d in D:
                for s in sub:
                    assert (d * s).length() == d.length() + s.length()


def test_unique_coset_factorization():
    for n in range(2, 6):
        for k in range(1, n):
            comp = Composition((k, n - k))
            D = coset_reps(n, comp)
            sub = young_elements(n, comp)
            seen = {}
            for d in D:
                for s in sub:
                    w = d * s
                    assert w not in seen
                    seen[w] = (d, s)
            assert len(seen) == sum(1 for _ in enumerate_perms(n))


def test_length_subadditivity_pairs():
    perms = list(enumerate_perms(4))
    for p in perms:
        for s in perms:
            assert (p * s).length() <= p.length() + s.length()


def test_longest_rho():
    assert longest_rho(1, 3) == cycle(4, 1, 4)
    assert longest_rho(2, 1).word == (2, 3, 1)
    for k in range(5):
        for n in range(5):
            rho = longest_rho(k, n)
            assert rho.length() == k * n
    # rho is the longest distinguished representative
    for k in range(1, 4):
        for n in range(1, 4):
            reps = coset_reps(k + n, Composition((k, n)))
            assert longest_rho(k, n) == max(reps, key=lambda p: (p.length(), p.word))


def test_shift():
    assert shift(identity(3), 2) == identity(5)
    for i in range(1, 3):
        assert shift(transposition(i, 3), 2) == transposition(i + 2, 5)
    for p in enumerate_perms(3):
        for k in range(4):
            assert shift(p, k).length() == p.length()


def test_enumeration():
    assert len(list(enumerate_perms(3))) == 6
    assert list(enumerate_perms(1)) == [identity(1)]
    words = [p.word for p in enumerate_perms(3)]
    assert words == sorted(words)
    with pytest.raises(ValueError):
        list(enumerate_perms(9))


def test_reduced_words():
    for p in enumerate_perms(4):
        word = p.reduced_word()
        assert len(word) == p.length()
        acc = identity(4)
        for i in word:
            acc = acc * transposition(i, 4)
        assert acc == p


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((1, 1, 2))
    with pytest.raises(ValueError):
        Composition((2, 0))
