import itertools

import pytest

from gelfand import perm, typeb
from gelfand.errors import CapacityError
from gelfand.typeb import (
    b_compose,
    b_conjugacy_class_reps,
    b_elements,
    b_generator,
    b_inverse,
    b_involutions,
    b_model_basis,
    b_reduced_word,
    b_shortest_words,
    b_square_roots_count,
    is_signed_window,
    pairs_of_partitions_count,
    rho_b_generator,
    rho_b_of_element,
    signed_sort_key,
    verify_b_model,
)
from references import (
    b_bfs_words, b_class_representative, b_class_reps_by_sorted_sweep, b_signed_conjugation,
    b_square_root_formula, signed_cycle_type,
)


def test_compose_examples():
    assert b_compose((-1,), (-1,)) == (1,)
    w, w_inv = (-2, 1), (2, -1)
    assert b_compose(w, w_inv) == (1, 2)
    assert b_compose(w_inv, w) == (1, 2)
    assert b_inverse(w) == w_inv


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_laws(n):
    import math

    ident = perm.identity(n)
    els = list(b_elements(n))
    assert len(els) == len(set(els)) == 2**n * math.factorial(n)
    for w in els:
        assert is_signed_window(w)
        assert b_compose(w, b_inverse(w)) == ident


def test_generator_windows():
    assert b_generator(3, 0) == (-1, 2, 3)
    assert b_generator(3, 2) == (1, 3, 2)
    for n in range(1, 6):
        for i in range(1, n):
            assert b_generator(n, i) == perm.generator(n, i)
    for i in (-1, 3):
        with pytest.raises(ValueError) as err:
            b_generator(3, i)
        assert str(err.value) == f"generator index {i} out of range for n=3"


@pytest.mark.parametrize("w", [(1, -1), (0, 1), (3, 1)])
def test_signed_window_rejections(w):
    assert not is_signed_window(w)


def test_involution_enumeration():
    assert b_involutions(1) == ((1,), (-1,))
    assert len(b_involutions(2)) == 6
    assert len(b_involutions(3)) == 20


@pytest.mark.parametrize("n", range(1, 7))
def test_involutions_from_brute_force(n):
    brute = [w for w in b_elements(n) if b_compose(w, w) == perm.identity(n)]
    assert b_involutions(n) == tuple(sorted(brute, key=signed_sort_key))


@pytest.mark.parametrize("n", [1, 4, 6])
def test_involutions_read_the_sn_basis_without_sweeping_b_n(monkeypatch, fresh_caches, n):
    def refuse(*args):
        raise AssertionError("b_involutions swept B_n")

    expected = b_involutions(n)
    b_involutions.cache_clear()
    monkeypatch.setattr(typeb, "b_elements", refuse)
    monkeypatch.setattr(typeb, "b_compose", refuse)
    assert b_involutions(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_order_starts_at_identity(n):
    assert b_involutions(n)[0] == perm.identity(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shortest_words_are_least_among_shortest(n):
    # Words by length, then lexicographically: the first word reaching an
    # element is its lexicographically least shortest word.
    expected = {perm.identity(n): ()}
    size = len(list(b_elements(n)))
    length = 0
    while len(expected) < size:
        length += 1
        for word in itertools.product(range(n), repeat=length):
            g = perm.identity(n)
            for i in word:
                g = b_compose(g, b_generator(n, i))
            expected.setdefault(g, word)
    assert b_shortest_words(n) == expected
    assert b_bfs_words(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_smallest_left_descent_words_are_the_bfs_words(n):
    # The BFS word of every element of B_n, read off its left descents with no
    # search: the element action multiplies the generators the BFS word names.
    words = b_bfs_words(n)
    assert len(words) == len(list(b_elements(n)))
    for g, word in words.items():
        assert b_reduced_word(g) == word, g
    assert b_shortest_words(n) == words


@pytest.mark.parametrize("n", range(1, 5))
def test_generators_match_the_windowed_construction(n):
    # The reference construction: conjugate every involution's window by s
    # with b_compose, and sign -1 where s fixes it at a descent.
    basis = b_model_basis(n)
    for i in range(n):
        s = b_generator(n, i)
        images = [b_compose(s, b_compose(w, s)) for w in basis.involutions]
        descents = [w[0] < 0 if i == 0 else abs(w[i - 1]) > abs(w[i]) for w in basis.involutions]
        m = rho_b_generator(i, basis)
        assert m.rows == tuple(basis.index[v] for v in images)
        assert m.signs == tuple(
            -1 if v == w and d else 1 for v, w, d in zip(images, basis.involutions, descents)
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_element_action_is_signed_conjugation_with_a_closed_sign(n):
    # The word products of rho_b_of_element equal a rule that needs no word.
    basis = b_model_basis(n)
    gens = {i: rho_b_generator(i, basis) for i in range(n)}
    for g in b_elements(n):
        m = rho_b_of_element(g, basis, gens)
        assert (m.rows, m.signs) == b_signed_conjugation(g, basis), g


@pytest.mark.parametrize(
    "g, message",
    [((1, -2), "size mismatch: 2 vs n=3"), ((1, -1, 2), "(1, -1, 2) is not a signed window")],
    ids=["short", "repeated-letter"],
)
def test_element_action_refuses_a_malformed_element(monkeypatch, g, message):
    basis = b_model_basis(3)
    gens = {i: rho_b_generator(i, basis) for i in range(3)}

    def refuse(g):
        raise AssertionError("the descent loop ran")

    monkeypatch.setattr(typeb, "b_reduced_word", refuse)
    with pytest.raises(ValueError) as err:
        rho_b_of_element(g, basis, gens)
    assert str(err.value) == message


def test_sign_flip_generator_action():
    basis = b_model_basis(1)
    m = rho_b_generator(0, basis)
    assert m.rows == (0, 1)
    assert m.signs == (1, -1)


def test_fixed_descent_action_n2():
    basis = b_model_basis(2)
    m = rho_b_generator(1, basis)
    # (-1, -2) has the signed descent at 1 but not the unsigned one, so no sign.
    for w, sign in (((2, 1), -1), ((-1, -2), 1)):
        col = basis.index[w]
        assert m.rows[col] == col
        assert m.signs[col] == sign


def test_character_vector_n1():
    basis = b_model_basis(1)
    gens = {0: rho_b_generator(0, basis)}
    assert rho_b_of_element((1,), basis, gens).trace() == 2
    assert rho_b_of_element((-1,), basis, gens).trace() == 0
    assert b_square_roots_count((1,)) == 2
    assert b_square_roots_count((-1,)) == 0


def test_class_reps_count():
    for n in (1, 2, 3):
        assert len(b_conjugacy_class_reps(n)) == pairs_of_partitions_count(n)


def test_b_square_roots_match_per_element_exhaustion():
    elements = list(b_elements(3))
    for g in elements:
        expected = sum(1 for u in elements if b_compose(u, u) == g)
        assert b_square_roots_count(g) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b_square_root_counts_match_per_element_exhaustion(n):
    elements = list(b_elements(n))
    counts = perm.square_root_counts(iter(elements), b_compose, elements)
    assert counts == {g: sum(1 for u in elements if b_compose(u, u) == g) for g in elements}


@pytest.mark.parametrize("n", [4, 5])
def test_verify_b_model_sweeps_once_and_searches_classes_once(monkeypatch, n):
    calls = {"square_root_counts": 0, "b_conjugacy_class_reps": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(perm, "square_root_counts")
    counted(typeb, "b_conjugacy_class_reps")
    assert verify_b_model(n).passed
    assert calls == {"square_root_counts": 1, "b_conjugacy_class_reps": 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_reps_match_conjugation_by_every_element(n):
    elements = list(b_elements(n))
    seen = set()
    expected = []
    for g in sorted(elements, key=signed_sort_key):
        if g not in seen:
            seen.update(b_compose(h, b_compose(g, b_inverse(h))) for h in elements)
            expected.append(g)
    assert b_conjugacy_class_reps(n) == tuple(expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_class_reps_equal_the_sorted_sweep(n):
    assert b_conjugacy_class_reps(n) == b_class_reps_by_sorted_sweep(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_square_root_product_formula_matches_one_sweep_of_b_n(n):
    elements = list(b_elements(n))
    roots = perm.square_root_counts(iter(elements), b_compose, elements)
    assert {g: b_square_root_formula(g) for g in elements} == roots


def test_signed_cycle_type_and_class_representative_examples():
    assert signed_cycle_type((2, 1, 3)) == ((2, 1), ())
    assert signed_cycle_type((-2, 1, -3)) == ((), (2, 1))
    assert signed_cycle_type((-2, -1, 3)) == ((2, 1), ())
    assert b_class_representative((2,), (1, 1)) == (2, 1, -3, -4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_written_down_class_reps_hit_every_orbit_once(n):
    gens = [b_generator(n, i) for i in range(n)]
    orbit_of, orbit_types = {}, []
    for k, rep in enumerate(b_conjugacy_class_reps(n)):
        orbit = perm.bfs(rep, lambda h: [b_compose(s, b_compose(h, s)) for s in gens])
        types = {signed_cycle_type(h) for h in orbit}
        assert len(types) == 1, rep
        orbit_types.append(types.pop())
        orbit_of.update(dict.fromkeys(orbit, k))
    assert len(set(orbit_types)) == len(orbit_types)
    parts = [list(perm.partitions(k)) for k in range(n + 1)]
    pairs = [(a, b) for k in range(n + 1) for a in parts[k] for b in parts[n - k]]
    built = [b_class_representative(alpha, beta) for alpha, beta in pairs]
    assert [signed_cycle_type(g) for g in built] == pairs
    assert sorted(orbit_of[g] for g in built) == list(range(len(orbit_types)))
    assert len(built) == pairs_of_partitions_count(n)


def test_pairs_of_partitions_count():
    assert pairs_of_partitions_count(1) == 2
    assert pairs_of_partitions_count(2) == 5
    assert pairs_of_partitions_count(4) == 20


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_b_model_passes(n):
    report = verify_b_model(n)
    assert report.passed, report.text()


def test_verify_b_cap():
    with pytest.raises(CapacityError):
        verify_b_model(6)
