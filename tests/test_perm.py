import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gelfand import perm
from gelfand.errors import CapacityError
from references import cycle_notation, cycles


def windows(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


def _telephone(n):
    # I(n) = I(n-1) + (n-1) I(n-2)
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def _cycle_type(p):
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def test_compose_examples():
    assert perm.compose((2, 1, 3), (2, 1, 3)) == (1, 2, 3)
    p = (3, 1, 4, 2)
    assert perm.compose(p, perm.identity(4)) == p
    assert perm.compose((2, 3, 1), (2, 3, 1)) == (3, 1, 2)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        perm.compose((1, 2), (1, 2, 3))


@given(windows())
def test_inverse_is_involutive(p):
    assert perm.inverse(perm.inverse(p)) == p
    assert perm.compose(p, perm.inverse(p)) == perm.identity(len(p))


def test_bfs_paths_are_shortest_and_least():
    # From a: c by (1,) and by the longer but smaller (0, 0, 0); d by (0, 1)
    # and (1, 0); e by (0, 0) and (1, 1).
    graph = {"a": "bc", "b": "ed", "c": "de", "d": "", "e": "cb"}
    paths = perm.bfs("a", lambda v: graph[v])
    assert paths == {"a": (), "b": (0,), "c": (1,), "e": (0, 0), "d": (0, 1)}
    assert list(paths) == ["a", "b", "c", "e", "d"]


@pytest.mark.parametrize("n", range(1, 7))
def test_length_matches_word_length_oracle(n):
    # The word length in S_n is the inversion count.
    oracle = perm.bfs_word_lengths(n)
    assert len(oracle) == math.factorial(n)
    for p, d in oracle.items():
        assert sum(1 for i, j in itertools.combinations(range(n), 2) if p[i] > p[j]) == d


@pytest.mark.parametrize("n", range(2, 7))
def test_descents_match_length_drop(n):
    length = perm.bfs_word_lengths(n)
    for p in length:
        drop = {i for i in range(1, n) if length[perm.compose(p, perm.generator(n, i))] < length[p]}
        assert perm.descent_set(p) == drop


def test_descent_examples():
    assert perm.descent_set((2, 1, 3)) == {1}
    assert perm.descent_set((1, 3, 2)) == {2}


def test_cycle_notation():
    assert cycle_notation(perm.identity(3)) == "e"
    assert cycle_notation((2, 1, 4, 3)) == "(1 2)(3 4)"


@pytest.mark.parametrize("n", range(1, 10))
def test_involution_count_recurrence(n):
    assert sum(1 for _ in perm.involution_walk(n)) == _telephone(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_involutions_from_brute_force(n):
    brute = sorted(
        p
        for p in itertools.permutations(range(1, n + 1))
        if perm.compose(p, p) == perm.identity(n)
    )
    listed = [w for w, _, _ in perm.involution_walk(n)]
    assert list(listed) == brute
    assert all(perm.is_involution(w) for w in listed)


@pytest.mark.parametrize("n", [0, -1])
def test_involution_walk_refuses_nonpositive_n(n):
    with pytest.raises(ValueError, match="n must be positive"):
        list(perm.involution_walk(n))


def test_involution_pairs_partition_everything():
    w = (2, 1, 3, 5, 4)
    assert perm.involution_pairs(w) == ((1, 2), (4, 5))
    assert perm.fixed_points(w) == (3,)


def test_square_roots_examples():
    assert perm.square_roots_count(perm.identity(4)) == 10
    assert perm.square_roots_count((2, 1)) == 0
    assert perm.square_roots_count((2, 3, 1)) == 1


def test_square_roots_is_class_function():
    rng = random.Random(7)
    for n in range(2, 6):
        for _ in range(5):
            p = perm.random_window(n, rng)
            g = perm.random_window(n, rng)
            assert perm.square_roots_count(p) == perm.square_roots_count(
                perm.conjugate(g, p)
            )


def test_square_roots_match_per_element_exhaustion():
    perms = list(itertools.permutations(range(1, 6)))
    for p in perms:
        expected = sum(1 for u in perms if perm.compose(u, u) == p)
        assert perm.square_roots_count(p) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_square_root_counts_match_per_element_exhaustion(n):
    perms = list(itertools.permutations(range(1, n + 1)))
    counts = perm.square_root_counts(iter(perms), perm.compose, perms)
    assert counts == {p: sum(1 for u in perms if perm.compose(u, u) == p) for p in perms}


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.permutations(list(range(1, n + 1))).map(tuple), max_size=8)
    )
)
@example([(2, 1), (2, 1), (1, 2)])
def test_square_root_counts_of_any_targets(targets):
    # Non-squares count 0 and a repeated target is one key; n is taken from
    # the first target, so an empty list sweeps S_1.
    n = len(targets[0]) if targets else 1
    perms = list(itertools.permutations(range(1, n + 1)))
    counts = perm.square_root_counts(iter(perms), perm.compose, targets)
    assert counts == {p: sum(1 for u in perms if perm.compose(u, u) == p) for p in targets}


def test_square_roots_cap():
    with pytest.raises(CapacityError):
        perm.square_roots_count(perm.identity(10))


def test_mu_unimodal_examples():
    assert perm.is_mu_unimodal(perm.identity(4), (2, 2))
    assert not perm.is_mu_unimodal((2, 1, 3), (3,))
    assert perm.is_mu_unimodal((1, 3, 2), (3,))


def _is_mu_unimodal_by_slices(p, mu):
    """Each mu-block sliced into a new tuple and scanned: the body the in-place scan replaced."""
    pos = 0
    for part in mu:
        block = p[pos : pos + part]
        k = 1
        while k < part and block[k] > block[k - 1]:
            k += 1
        while k < part and block[k] < block[k - 1]:
            k += 1
        if k < part:
            return False
        pos += part
    return True


@pytest.mark.parametrize("n", range(1, 9))
def test_mu_unimodal_scan_in_place_is_the_sliced_scan(n):
    types = list(perm.partitions(n))
    for w, _, _ in perm.involution_walk(n):
        for mu in types:
            assert perm.is_mu_unimodal(w, mu) == _is_mu_unimodal_by_slices(w, mu), (w, mu)


@given(windows())
def test_single_blocks_always_unimodal(p):
    assert perm.is_mu_unimodal(p, (1,) * len(p))


@pytest.mark.parametrize("n", range(1, 7))
def test_partitions_match_observed_cycle_types(n):
    types = {
        _cycle_type(p) for p in itertools.permutations(range(1, n + 1))
    }
    parts = list(perm.partitions(n))
    assert len(parts) == len(set(parts))
    assert set(parts) == types
    assert parts == sorted(parts, reverse=True)


def test_class_reps_examples():
    assert dict(perm.conjugacy_class_reps(2)) == {
        (1, 1): (1, 2),
        (2,): (2, 1),
    }
    assert dict(perm.conjugacy_class_reps(3))[(3,)] == (2, 3, 1)
    assert dict(perm.conjugacy_class_reps(4))[(2, 2)] == (2, 1, 4, 3)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_reps_have_their_type(n):
    for ct, rep in perm.conjugacy_class_reps(n):
        assert _cycle_type(rep) == ct


def test_multiplicities():
    assert perm.multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
