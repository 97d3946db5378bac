import io
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gelfand import model_sn, perm, typeb
from gelfand.errors import CapacityError
from gelfand.model_sn import (
    SignedPermMatrix,
    class_traces,
    conjugates,
    fs_count_formula,
    inv_w,
    model_basis,
    orbit_checks,
    orbit_walk,
    pair_orbits,
    rho_character,
    rho_generator_matrix,
    rho_matrix,
    sign_cocycle_witness,
    verify_sn_model,
)
from gelfand.qpoly import QPoly, write_matrix


def test_inv_w_examples():
    assert inv_w((2, 1), (2, 1)) == 1
    assert inv_w(perm.identity(4), (2, 1, 4, 3)) == 0
    # Inv(s_1) = {(1,2)} is disjoint from the pair (1,3)
    assert inv_w((2, 1, 3), (3, 2, 1)) == 0


def test_sign_of_generator_examples():
    b2, b3 = model_basis(2), model_basis(3)
    assert rho_generator_matrix(1, b2).signs[b2.index[(2, 1)]] == -1
    assert rho_generator_matrix(1, b3).signs[b3.index[(1, 2, 3)]] == 1
    # s_2 moves (1 2) to (1 3), so no sign
    assert rho_generator_matrix(2, b3).signs[b3.index[(2, 1, 3)]] == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_sign_rule_equals_inversion_parity(n):
    basis = model_basis(n)
    for i in range(1, n):
        s = perm.generator(n, i)
        signs = rho_generator_matrix(i, basis).signs
        for c, w in enumerate(basis.involutions):
            assert signs[c] == (-1) ** inv_w(s, w)


def test_identity_acts_trivially():
    basis = model_basis(3)
    assert rho_matrix(perm.identity(3), basis) == SignedPermMatrix.identity(basis.dim)


def test_transposition_action_n2():
    m = rho_matrix((2, 1), model_basis(2))
    assert m.rows == (0, 1)
    assert m.signs == (1, -1)


def test_conjugation_moves_pairs_n3():
    basis = model_basis(3)
    m = rho_matrix(perm.generator(3, 1), basis)
    col = basis.index[(1, 3, 2)]  # the involution (2 3)
    assert m.rows[col] == basis.index[(3, 2, 1)]  # lands on (1 3)
    assert m.signs[col] == 1


@pytest.mark.parametrize("n", range(2, 8))
def test_generator_routes_agree(n):
    basis = model_basis(n)
    for i in range(1, n):
        assert rho_generator_matrix(i, basis) == rho_matrix(
            perm.generator(n, i), basis
        )


@settings(deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )
)
@example((1,))
@example((1, 2))
@example((2, 1))
def test_rho_matrix_matches_naive_construction(p):
    basis = model_basis(len(p))
    rows = tuple(basis.index[perm.conjugate(p, w)] for w in basis.involutions)
    signs = tuple(-1 if inv_w(p, w) % 2 else 1 for w in basis.involutions)
    assert rho_matrix(p, basis) == SignedPermMatrix(basis.dim, rows, signs)
    # The window construction: p w p^-1 read off position by position, and
    # the sign from the 2-cycles of w that p inverts.
    p_inv = perm.inverse(p)
    image = (0, *p)
    windows = tuple(tuple(image[w[j - 1]] for j in p_inv) for w in basis.involutions)
    signs = tuple(
        (-1) ** sum(image[a] > image[b] for a, b in perm.involution_pairs(w))
        for w in basis.involutions
    )
    assert rho_matrix(p, basis) == SignedPermMatrix(
        basis.dim, tuple(basis.index[v] for v in windows), signs
    )


def test_character_examples():
    assert rho_character(perm.identity(4), model_basis(4)) == 10
    assert rho_character((2, 1), model_basis(2)) == 0
    assert rho_character((2, 3, 1), model_basis(3)) == 1


def test_character_equals_matrix_trace():
    basis = model_basis(4)
    for p in itertools.permutations(range(1, 5)):
        assert rho_character(p, basis) == rho_matrix(p, basis).trace()


def test_character_is_class_function():
    rng = random.Random(3)
    for n in range(2, 6):
        basis = model_basis(n)
        for _ in range(5):
            p = perm.random_window(n, rng)
            g = perm.random_window(n, rng)
            assert rho_character(p, basis) == rho_character(
                perm.conjugate(g, p), basis
            )


@pytest.mark.parametrize("n", range(1, 9))
def test_fixed_point_factor_counts_involutions(n):
    assert fs_count_formula({1: n}) == model_basis(n).dim


def test_even_cycle_with_odd_multiplicity_has_no_roots():
    assert fs_count_formula({2: 1}) == 0
    assert fs_count_formula({4: 1, 1: 1}) == 0


def test_zero_multiplicity_factor_is_one():
    assert fs_count_formula({}) == 1
    assert fs_count_formula({3: 0, 1: 3}) == fs_count_formula({1: 3})


def test_two_two_class_value():
    assert fs_count_formula(perm.multiplicities((2, 2))) == 2


@pytest.mark.parametrize("n", range(2, 6))
def test_trace_equals_roots_equals_formula(n):
    basis = model_basis(n)
    for ct, rep in perm.conjugacy_class_reps(n):
        tr = rho_character(rep, basis)
        assert tr == perm.square_roots_count(rep)
        assert tr == fs_count_formula(perm.multiplicities(ct))


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("all_classes", [True, False])
def test_class_traces_sweep_once(monkeypatch, n, all_classes):
    original = perm.square_root_counts
    calls = []
    monkeypatch.setattr(
        perm, "square_root_counts", lambda *args: calls.append(1) or original(*args)
    )
    rows = list(class_traces(n) if all_classes else class_traces(n, (2,) + (1,) * (n - 2)))
    assert calls == [1]
    assert len(rows) == (len(list(perm.partitions(n))) if all_classes else 1)


def test_class_traces_keep_no_square_table():
    # Counting every square of S_8 peaked at 2.14 MB here; counting only the
    # 22 class representatives keeps the peak near what the traces need.
    model_basis(8)
    model_sn._pair_codes(8)
    tracemalloc.start()
    try:
        rows = list(class_traces(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(tr == roots == formula for _, tr, roots, formula in rows)
    assert peak < 500_000


@pytest.mark.parametrize("n", range(2, 5))
def test_action_is_multiplicative_on_all_pairs(n):
    basis = model_basis(n)
    mats = {
        p: rho_matrix(p, basis) for p in itertools.permutations(range(1, n + 1))
    }
    for s, ms in mats.items():
        for p, mp in mats.items():
            assert mats[perm.compose(s, p)] == ms @ mp


@pytest.mark.parametrize("n", range(2, 6))
def test_sign_cocycle_random_triples(n):
    assert sign_cocycle_witness(n, 300, random.Random(11)) is None


def test_orbit_size_examples():
    # support away from the acted letters
    assert orbit_walk(1, (1, 2, 3, 5, 4)) == (((1, 2, 3, 5, 4),), (2, 1))
    walk, ends = orbit_walk(1, perm.generator(3, 1))
    assert (len(walk), ends) == (3, (2, 1))
    walk, ends = orbit_walk(1, (4, 5, 3, 1, 2))  # (1 4)(2 5)
    assert (len(walk), ends) == (6, None)


def test_model_basis_refuses_n_zero():
    with pytest.raises(ValueError, match="n must be positive"):
        model_basis(0)


@pytest.mark.parametrize("i", [0, 3])
def test_orbit_walk_refuses_a_pair_outside_the_generators(i):
    with pytest.raises(ValueError):
        orbit_walk(i, (1, 2, 3, 4))


@pytest.mark.parametrize("n", range(3, 7))
def test_pair_orbits_cover_the_basis_once(n):
    basis = model_basis(n)
    found = {}
    for i, walk, ends in pair_orbits(n):
        assert orbit_walk(i, min(walk)) == (walk, ends)
        found.setdefault(i, []).append(walk)
    assert sorted(found) == list(range(1, n - 1))
    for orbits in found.values():
        covered = [v for walk in orbits for v in walk]
        assert sorted(covered) == list(basis.involutions)


def _conj(s, v):
    return perm.compose(s, perm.compose(v, s))


@pytest.mark.parametrize("n", range(1, 9))
def test_conjugates_table_is_window_conjugation(n):
    basis = model_basis(n)
    for i in range(1, n):
        s = perm.generator(n, i)
        assert conjugates(n, i) == tuple(basis.index[_conj(s, w)] for w in basis.involutions)


def test_broken_conjugates_row_fails_the_sign_rule_check(monkeypatch):
    # Send two involutions fixed by s_2 to each other: the row stays an
    # involution of the basis, so every walk ends, but it is no longer
    # conjugation by s_2, and rho_matrix(s_2) disagrees with it.
    n = 5
    row = list(conjugates(n, 2))
    a, b = [c for c, r in enumerate(row) if r == c][:2]
    row[a], row[b] = row[b], row[a]
    original = model_sn.conjugates
    monkeypatch.setattr(
        model_sn, "conjugates", lambda m, i: tuple(row) if i == 2 else original(m, i)
    )
    checks = {c.name: c for c in verify_sn_model(n).checks}
    check = checks["sign rule and inversion count give the same generator action"]
    assert (check.passed, check.detail) == (False, "disagree at i=2")


@pytest.mark.parametrize("n", range(3, 8))
def test_orbit_walk_is_the_bfs_orbit_walked_by_alternating_generators(n):
    for i in range(1, n - 1):
        gens = {i: perm.generator(n, i), i + 1: perm.generator(n, i + 1)}
        for w in model_basis(n).involutions:
            walk, ends = orbit_walk(i, w)
            reference = perm.bfs(w, lambda v: [_conj(s, v) for s in gens.values()])
            assert len(set(walk)) == len(walk) and set(walk) == set(reference)
            steps = list(zip(walk, walk[1:]))
            if ends is None:
                steps.append((walk[-1], walk[0]))
            else:
                assert _conj(gens[ends[0]], walk[0]) == walk[0]
                assert _conj(gens[ends[1]], walk[-1]) == walk[-1]
            used = [[g for g, s in gens.items() if _conj(s, a) == b] for a, b in steps]
            assert all(len(u) == 1 for u in used)
            used = [u[0] for u in used]
            assert all(g != h for g, h in zip(used, used[1:]))
            if ends is None:
                assert w == walk[0] and used[0] == i and used[-1] != used[0]
            elif used:
                assert used[0] != ends[0] and used[-1] != ends[1]


@pytest.mark.parametrize("n", range(3, 7))
def test_orbit_sizes_and_descent_equivalence(n):
    checks = orbit_checks(n)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_wrong_descent_rule_fails_the_descent_equivalence(monkeypatch):
    # Odd descents only: the two ends of a size-3 orbit are fixed by s_a and
    # s_{a-1} or s_{a+1}, which differ in parity, so the equivalence breaks.
    monkeypatch.setattr(
        perm, "descent_set", lambda p: {i for i in range(1, len(p), 2) if p[i - 1] > p[i]}
    )
    checks = {c.name: c for c in verify_sn_model(4).checks}
    check = checks["descent equivalence in size-3 orbits"]
    assert not check.passed
    assert check.detail.startswith("fails at i=")


@pytest.mark.parametrize("n,r", [(3, 3), (5, 5), (6, 3)])
def test_odd_cycle_classes_have_positive_summands(n, r):
    rep = dict(perm.conjugacy_class_reps(n))[(r,) * (n // r)]
    for w in model_basis(n).involutions:
        if perm.conjugate(rep, w) == w:
            assert inv_w(rep, w) % 2 == 0


@pytest.mark.parametrize("n,r", [(2, 2), (4, 4), (6, 2)])
def test_even_cycle_classes_with_odd_count_vanish(n, r):
    assert (n // r) % 2 == 1
    rep = dict(perm.conjugacy_class_reps(n))[(r,) * (n // r)]
    assert rho_character(rep, model_basis(n)) == 0


@pytest.mark.parametrize("n", range(2, 6))
def test_verify_sn_model_passes(n):
    report = verify_sn_model(n)
    assert report.passed, report.text()


def test_verify_sn_cap():
    with pytest.raises(CapacityError):
        verify_sn_model(10)
    with pytest.raises(CapacityError):
        verify_sn_model(1)


@pytest.mark.parametrize("n", range(1, 7))
def test_class_traces_for_one_class_are_its_filtered_rows(n):
    rows = list(class_traces(n))
    assert [row[0] for row in rows] == list(perm.partitions(n))
    for mu in perm.partitions(n):
        assert list(class_traces(n, mu)) == [row for row in rows if row[0] == mu]


def _monomial_cases(kind, n):
    """Every generator matrix and 50 seeded element matrices of S_n or B_n."""
    rng = random.Random(n)
    if kind == "sn":
        basis = model_basis(n)
        gens = [rho_generator_matrix(i, basis) for i in range(1, n)]
        elements = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(50)]
        return gens + [rho_matrix(p, basis) for p in elements]
    basis = typeb.b_model_basis(n)
    gens = {i: typeb.rho_b_generator(i, basis) for i in range(n)}
    elements = [
        tuple(x * rng.choice((1, -1)) for x in rng.sample(range(1, n + 1), n)) for _ in range(50)
    ]
    return list(gens.values()) + [typeb.rho_b_of_element(g, basis, gens) for g in elements]


@pytest.mark.parametrize(
    "kind, n", [("sn", n) for n in range(1, 7)] + [("typeb", n) for n in range(1, 5)]
)
def test_monomial_writers_match_a_dict_reference(kind, n):
    for m in _monomial_cases(kind, n):
        entries = sorted(m.entry_dict().items())
        assert list(m.cells()) == [(r, c, [s]) for (r, c), s in entries]
        as_json, as_text = io.StringIO(), io.StringIO()
        write_matrix(as_json, "json", m.dim, m.cells())
        write_matrix(as_text, "text", m.dim, m.cells())
        assert as_json.getvalue() == json.dumps(
            {"dim": m.dim, "entries": [[r, c, [s]] for (r, c), s in entries]}, sort_keys=True
        ) + "\n"
        assert as_text.getvalue() == f"dim {m.dim}\n" + "".join(
            f"({r},{c}) {QPoly.constant(s)}\n" for (r, c), s in entries
        )
