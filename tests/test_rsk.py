import itertools
import math

import pytest

from gelfand import model_hecke, perm, rsk
from gelfand.model_hecke import mu_descent_number, rho_q_generator, rho_q_trace, t_mu_word
from gelfand.model_sn import model_basis, rho_character, rho_matrix
from gelfand.qpoly import QPoly, ZERO, minus_q_power, unpack
from gelfand.rsk import (
    conjugate_partition,
    enumerate_syt,
    involution_fixedpoint_vs_oddcolumns,
    irreducible_hecke_character,
    is_standard,
    lambda_traces,
    mn_character,
    odd_columns,
    rs_insert,
    rs_inverse,
    shape,
    superstandard_tableau,
    tableau_descent_set,
    verify_rsk,
)


def _hook_count(lam):
    conj = conjugate_partition(lam)
    prod = 1
    for r, part in enumerate(lam):
        for c in range(part):
            prod *= (part - c) + (conj[c] - r) - 1
    return math.factorial(sum(lam)) // prod


def test_insert_identity():
    p, q = rs_insert(perm.identity(4))
    assert p == q == ((1, 2, 3, 4),)


def test_insert_single_bump():
    assert rs_insert((2, 1)) == (((1,), (2,)), ((1,), (2,)))


@pytest.mark.parametrize("n", range(1, 6))
def test_inverse_symmetry(n):
    for w in itertools.permutations(range(1, n + 1)):
        p, q = rs_insert(w)
        assert rs_insert(perm.inverse(w)) == (q, p)


@pytest.mark.parametrize("n", range(1, 6))
def test_involution_iff_symmetric_pair(n):
    for w in itertools.permutations(range(1, n + 1)):
        p, q = rs_insert(w)
        assert shape(p) == shape(q)
        assert is_standard(p) and is_standard(q)
        assert perm.is_involution(w) == (p == q)


@pytest.mark.parametrize("n", range(1, 6))
def test_descent_compatibility(n):
    for w in itertools.permutations(range(1, n + 1)):
        _, q = rs_insert(w)
        assert perm.descent_set(w) == tableau_descent_set(q)


@pytest.mark.parametrize("n", range(1, 8))
def test_rs_inverse_undoes_insertion(n):
    for w in itertools.permutations(range(1, n + 1)):
        assert rs_inverse(*rs_insert(w)) == w


@pytest.mark.parametrize("n", range(1, 7))
def test_insertion_undoes_rs_inverse(n):
    for lam in perm.partitions(n):
        tabs = enumerate_syt(lam)
        for p in tabs:
            for q in tabs:
                assert rs_insert(rs_inverse(p, q)) == (p, q)


def test_rs_inverse_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        rs_inverse(((1, 2),), ((1,), (2,)))


def test_tableau_descent_examples():
    assert tableau_descent_set(((1, 2, 3),)) == set()
    assert tableau_descent_set(((1,), (2,), (3,))) == {1, 2}
    assert tableau_descent_set(((1, 3), (2,))) == {1}


def test_enumerate_syt_examples():
    assert len(enumerate_syt((4,))) == 1
    assert len(enumerate_syt((2, 1))) == 2
    assert all(is_standard(t) for t in enumerate_syt((3, 2)))


@pytest.mark.parametrize("n", range(1, 8))
def test_syt_counts_match_hook_formula(n):
    for lam in perm.partitions(n):
        assert len(enumerate_syt(lam)) == _hook_count(lam)


@pytest.mark.parametrize("n", range(1, 9))
def test_syt_total_equals_involution_count(n):
    total = sum(len(enumerate_syt(lam)) for lam in perm.partitions(n))
    assert total == model_basis(n).dim


def test_odd_columns_examples():
    assert odd_columns((2, 2)) == 0
    assert odd_columns((1,)) == 1
    assert odd_columns((3, 1)) == 2


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()


def test_superstandard_tableau():
    assert superstandard_tableau((3, 2)) == ((1, 2, 3), (4, 5))


def test_irreducible_character_examples():
    for mu in perm.partitions(4):
        assert irreducible_hecke_character((4,), mu) == QPoly.constant(1)
    assert irreducible_hecke_character((1, 1, 1), (1, 1, 1)) == QPoly.constant(1)
    assert irreducible_hecke_character((1, 1), (2,)) == QPoly({1: -1})


def _filtered_character(table, lam, mu, p0=None):
    """The definition the RS fibre replaces: filter all of S_n by insertion tableau."""
    p0 = p0 or superstandard_tableau(lam)
    total = ZERO
    for w, ptab in table:
        if ptab == p0 and perm.is_mu_unimodal(w, mu):
            total = total + minus_q_power(mu_descent_number(w, mu))
    return total


def _insert_all(n):
    return [(w, rs_insert(w)[0]) for w in itertools.permutations(range(1, n + 1))]


@pytest.mark.parametrize("n", range(1, 7))
def test_character_matches_filter_over_all_permutations(n):
    table = _insert_all(n)
    for lam in perm.partitions(n):
        for mu in perm.partitions(n):
            assert irreducible_hecke_character(lam, mu) == _filtered_character(
                table, lam, mu
            )


@pytest.mark.parametrize("n", range(1, 6))
def test_character_matches_filter_for_every_tableau(n):
    table = _insert_all(n)
    for lam in perm.partitions(n):
        for t in enumerate_syt(lam):
            for mu in perm.partitions(n):
                assert irreducible_hecke_character(
                    lam, mu, t
                ) == _filtered_character(table, lam, mu, t)


def test_character_builds_one_qpoly(monkeypatch):
    built = []
    original = QPoly.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(QPoly, "__init__", counted)
    irreducible_hecke_character((3, 2, 1), (2, 2, 1, 1))
    assert len(built) == 1


def test_character_rejects_a_tableau_of_another_shape():
    with pytest.raises(ValueError):
        irreducible_hecke_character((2, 1), (3,), ((1, 2, 3),))
    with pytest.raises(ValueError):
        irreducible_hecke_character((2, 1), (3,), ((1, 2), (4,)))


@pytest.mark.parametrize("n", range(2, 5))
def test_character_independent_of_tableau(n):
    for lam in perm.partitions(n):
        tabs = enumerate_syt(lam)
        for mu in perm.partitions(n):
            vals = {irreducible_hecke_character(lam, mu, t) for t in tabs}
            assert len(vals) == 1


@pytest.mark.parametrize("n", range(2, 5))
def test_q1_values_match_border_strip_recursion(n):
    for lam in perm.partitions(n):
        for mu in perm.partitions(n):
            assert irreducible_hecke_character(lam, mu).evaluate(1) == mn_character(
                lam, mu
            )


@pytest.mark.parametrize("n", range(2, 5))
def test_characters_sum_to_model_trace(n):
    from gelfand.model_hecke import hecke_model_character, rho_q_generator

    basis = model_basis(n)
    gens = {i: rho_q_generator(i, basis) for i in range(1, n)}
    lams = list(perm.partitions(n))
    for mu in lams:
        total = ZERO
        for lam in lams:
            total = total + irreducible_hecke_character(lam, mu)
        assert total == hecke_model_character(mu, basis, gens)


def test_mn_character_examples():
    for n in range(1, 6):
        for mu in perm.partitions(n):
            assert mn_character((n,), mu) == 1
        assert mn_character((1,) * n, (n,)) == (-1) ** (n - 1)
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((2, 1), (2, 1)) == 0
    assert mn_character((2, 1), (1, 1, 1)) == 2


@pytest.mark.parametrize("n", range(1, 7))
def test_mn_regular_representation(n):
    total = sum(
        mn_character(lam, (1,) * n) * len(enumerate_syt(lam))
        for lam in perm.partitions(n)
    )
    assert total == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_mn_dimensions_match_tableau_counts(n):
    for lam in perm.partitions(n):
        assert mn_character(lam, (1,) * n) == len(enumerate_syt(lam))


@pytest.mark.parametrize("n", range(2, 6))
def test_mn_sum_counts_square_roots(n):
    lams = list(perm.partitions(n))
    for mu, rep in perm.conjugacy_class_reps(n):
        total = sum(mn_character(lam, mu) for lam in lams)
        assert total == perm.square_roots_count(rep)


def test_fixedpoint_report_examples():
    rep = involution_fixedpoint_vs_oddcolumns(4)
    assert rep.passed
    # six involutions of S_4 have two fixed points
    two_fixed = [
        w
        for w in model_basis(4).involutions
        if len(perm.fixed_points(w)) == 2
    ]
    assert len(two_fixed) == 6
    with_two_odd = [
        lam for lam in perm.partitions(4) if odd_columns(lam) == 2
    ]
    assert sum(len(enumerate_syt(lam)) for lam in with_two_odd) == 6


@pytest.mark.parametrize("n", range(1, 9))
def test_fixedpoint_vs_oddcolumns_passes(n):
    assert involution_fixedpoint_vs_oddcolumns(n).passed


@pytest.mark.parametrize("n", range(2, 8))
def test_verify_rsk_passes(n):
    report = verify_rsk(n)
    assert report.passed, report.text()


def test_verify_rsk_sweeps_s_n_once_and_builds_no_unimodal_sum(monkeypatch):
    # One sweep of S_5 serves all seven classes, and the unimodal sums, which no
    # rsk check reads, are not built (a sweep per class and seven sums make 7 and 7).
    calls = {perm.square_root_counts: 0, model_hecke.mu_unimodal_character: 0}

    def counted(module, fn):
        def wrapper(*args):
            calls[fn] += 1
            return fn(*args)

        monkeypatch.setattr(module, fn.__name__, wrapper)

    counted(perm, perm.square_root_counts)
    counted(model_hecke, model_hecke.mu_unimodal_character)
    report = verify_rsk(5)
    assert report.passed and len(report.checks) == 7
    assert list(calls.values()) == [1, 0]


# Each branch of the insertion sweep can fail: one broken property on one
# permutation of S_4 fails the first check with that branch's witness, the
# first in lex order, and leaves the other six checks passing.


def _insertion_check_after(monkeypatch, module, name, target, fake):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda x: fake(real(x)) if x == target else real(x))
    report = verify_rsk(4)
    assert [c.passed for c in report.checks] == [False] + [True] * 6
    return report.checks[0].detail


def test_malformed_insertion_output_is_reported(monkeypatch):
    # Reversed rows leave the recording tableau's rows growing downward.
    detail = _insertion_check_after(
        monkeypatch, rsk, "rs_insert", (2, 1, 3, 4), lambda pq: (pq[0], pq[1][::-1])
    )
    assert detail == "malformed output at w=(2, 1, 3, 4)"


def test_insertion_collision_is_reported(monkeypatch):
    identity_pair = rs_insert(perm.identity(4))
    detail = _insertion_check_after(
        monkeypatch, rsk, "rs_insert", (1, 2, 4, 3), lambda _: identity_pair
    )
    assert detail == "collision between w=(1, 2, 3, 4) and w=(1, 2, 4, 3)"


def test_broken_inverse_symmetry_is_reported(monkeypatch):
    # (1, 4, 2, 3) is first inserted as the inverse of (1, 3, 4, 2); a swapped
    # pair for it no longer transposes that permutation's pair.
    detail = _insertion_check_after(
        monkeypatch, rsk, "rs_insert", (1, 4, 2, 3), lambda pq: pq[::-1]
    )
    assert detail == "inverse symmetry fails at w=(1, 3, 4, 2)"


def test_broken_involution_criterion_is_reported(monkeypatch):
    detail = _insertion_check_after(
        monkeypatch, perm, "is_involution", (2, 3, 1, 4), lambda _: True
    )
    assert detail == "involution criterion fails at w=(2, 3, 1, 4)"


def test_broken_descent_compatibility_is_reported(monkeypatch):
    # (1, 3, 2, 4) is the first permutation with recording tableau 124/3.
    q = rs_insert((1, 3, 2, 4))[1]
    assert q == ((1, 2, 4), (3,))
    detail = _insertion_check_after(
        monkeypatch, rsk, "tableau_descent_set", q, lambda d: d | {1}
    )
    assert detail == "descent compatibility fails at w=(1, 3, 2, 4)"


@pytest.mark.parametrize("n", range(1, 6))
def test_lambda_traces_for_one_type_are_its_filtered_rows(n):
    for lam in perm.partitions(n):
        rows = list(lambda_traces(lam))
        assert [row[0] for row in rows] == list(perm.partitions(n))
        for mu in perm.partitions(n):
            assert list(lambda_traces(lam, mu)) == [row for row in rows if row[0] == mu]


# The refined decomposition: conjugation keeps the number k of 2-cycles, so the
# span V_k of the basis involutions with k 2-cycles is invariant, and V_k carries
# exactly the irreducibles whose shape has n - 2k odd columns (Inglis, Richardson
# and Saxl for S_n; the source paper for H_n(q)).


def _two_cycles(basis):
    return [len(perm.involution_pairs(w)) for w in basis.involutions]


def _sn_block_traces(n):
    """(class, k) -> the signed diagonal of rho_matrix(rep) summed over the involutions with k
    2-cycles."""
    basis = model_basis(n)
    ks = _two_cycles(basis)
    cells = {}
    for ct, rep in perm.conjugacy_class_reps(n):
        m = rho_matrix(rep, basis)
        traces = [0] * (n // 2 + 1)
        for c, (r, s) in enumerate(zip(m.rows, m.signs)):
            if r == c:
                traces[ks[c]] += s
        cells.update(((ct, k), t) for k, t in enumerate(traces))
        assert sum(traces) == rho_character(rep, basis)
    return cells


def _hecke_block_traces(n):
    """(mu, k) -> the column-action trace of T_{w_mu}, as ``rho_q_trace`` takes it, summed over
    the basis vectors with k 2-cycles."""
    basis = model_basis(n)
    ks = _two_cycles(basis)
    gens = {i: rho_q_generator(i, basis) for i in range(1, n)}
    cells = {}
    for mu in perm.partitions(n):
        word = t_mu_word(mu)
        totals = [0] * (n // 2 + 1)
        for c in range(basis.dim):
            vec = {c: 1}
            for i in reversed(word):
                vec = gens[i].apply(vec)
            totals[ks[c]] += vec.get(c, 0)
        traces = [QPoly(enumerate(coeffs)) for coeffs in unpack(totals)]
        cells.update(((mu, k), t) for k, t in enumerate(traces))
        assert sum(traces) == rho_q_trace(word, basis, gens)
    return cells


def _irreducible_cells(n, character, odd):
    """(type, k) -> the sum of character(lam, type) over the lam with odd(lam) == n - 2k."""
    lams = list(perm.partitions(n))
    return {
        (mu, k): sum(character(lam, mu) for lam in lams if odd(lam) == n - 2 * k)
        for mu in lams
        for k in range(n // 2 + 1)
    }


def _odd_rows(lam):
    return sum(part % 2 for part in lam)


@pytest.mark.parametrize("n", range(1, 8))
def test_sn_trace_on_each_two_cycle_block_is_its_odd_column_characters(n):
    assert _sn_block_traces(n) == _irreducible_cells(n, mn_character, odd_columns)


@pytest.mark.parametrize("n", range(1, 8))
def test_hecke_trace_on_each_two_cycle_block_is_its_odd_column_characters(n):
    cells = _irreducible_cells(n, irreducible_hecke_character, odd_columns)
    assert _hecke_block_traces(n) == cells


@pytest.mark.parametrize("n", range(2, 8))
def test_odd_rows_in_place_of_odd_columns_break_the_block_identity(n):
    traces = _sn_block_traces(n)
    rows = _irreducible_cells(n, mn_character, _odd_rows)
    assert any(traces[cell] != rows[cell] for cell in traces)
    hecke = _hecke_block_traces(n)
    rows = _irreducible_cells(n, irreducible_hecke_character, _odd_rows)
    assert any(hecke[cell] != rows[cell] for cell in hecke)
