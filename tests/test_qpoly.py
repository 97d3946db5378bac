import io
import json
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gelfand import qpoly
from gelfand.model_hecke import rho_q_rows
from gelfand.model_sn import model_basis
from gelfand.qpoly import (
    ONE, Q, SHIFT, ZERO, PolyMatrix, QPoly, minus_q_power, minus_q_sum, pack, unpack, write_matrix,
)
from references import poly_entries


def from_entries(dim, items):
    """A PolyMatrix from (row, col) -> QPoly or int entries; repeated keys add up."""
    pairs = items.items() if isinstance(items, Mapping) else items
    cols = [{} for _ in range(dim)]
    for (r, c), f in pairs:
        if not (0 <= r < dim and 0 <= c < dim):
            raise ValueError(f"entry ({r}, {c}) out of range for dim {dim}")
        cols[c][r] = cols[c].get(r, 0) + pack(f)
    return PolyMatrix(dim, tuple({r: v for r, v in col.items() if v} for col in cols))


def written(m, fmt="json"):
    buf = io.StringIO()
    write_matrix(buf, fmt, m.dim, m.cells())
    return buf.getvalue()


def polys(max_deg=4, max_coeff=6):
    return st.dictionaries(
        st.integers(0, max_deg), st.integers(-max_coeff, max_coeff), max_size=4
    ).map(QPoly)


def sparse_matrices(dim=8):
    keys = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return st.dictionaries(keys, polys(max_deg=2), max_size=10).map(
        lambda d: from_entries(dim, d)
    )


def test_basic_identities():
    assert (ONE - Q) + Q == ONE
    assert (-Q) * (-Q) == QPoly({2: 1})
    assert (ONE + Q) * (ONE - ONE) == ZERO


def test_evaluate():
    assert (ONE - Q).evaluate(1) == 0
    assert minus_q_power(2).evaluate(1) == 1
    assert QPoly({0: 1, 1: -1, 2: 1}).evaluate(1) == 1
    assert (ONE - Q).evaluate(Fraction(1, 2)) == Fraction(1, 2)


@given(st.lists(st.integers(0, 6), max_size=30))
def test_minus_q_sum_is_the_sum_of_the_powers(degrees):
    assert minus_q_sum(degrees) == sum((minus_q_power(d) for d in degrees), ZERO)


def test_minus_q_sum_examples():
    assert minus_q_sum([]) == ZERO
    assert minus_q_sum(iter([0, 1, 1, 2, 3, 3])) == QPoly({0: 1, 1: -2, 2: 1, 3: -2})


def test_canonical_form_drops_zeros():
    assert QPoly({3: 0, 1: 2, 0: 0}).coeffs == {1: 2}
    assert not QPoly({2: 1, 0: 1}) - QPoly({0: 1, 2: 1})


@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys(), polys())
def test_degree_of_product(f, g):
    if f and g:
        assert (f * g).degree() == f.degree() + g.degree()


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(ONE - Q) == "1 - q"
    assert str(QPoly({0: 1, 1: -1, 2: 1})) == "1 - q + q^2"
    assert str(QPoly({0: 2, 1: -2})) == "2 - 2 q"
    assert str(-Q) == "-q"


# The widest digits that unpack exactly, and a few small ones.
DIGIT = 2 ** (SHIFT - 1) - 1
coefficient_lists = st.lists(
    st.one_of(st.integers(-3, 3), st.sampled_from([DIGIT, -DIGIT])), max_size=6
)


@pytest.mark.parametrize(
    "coeffs",
    [[], [1], [-1], [0, 1], [0, 0, -5], [3, 0, 0, -2], [-1, -1, -1], [DIGIT], [-DIGIT],
     [DIGIT, -DIGIT, 0, DIGIT], [0, -DIGIT, DIGIT]],
)
def test_pack_and_unpack_round_trip(coeffs):
    f = QPoly(dict(enumerate(coeffs)))
    assert list(unpack([pack(f)])) == [coeffs]
    assert pack(f) == sum(c * 2 ** (SHIFT * d) for d, c in enumerate(coeffs))


def _coefficient_list(f):
    return [f.coeffs.get(d, 0) for d in range(f.degree() + 1)]


@given(coefficient_lists)
def test_unpack_inverts_pack(coeffs):
    f = QPoly(dict(enumerate(coeffs)))
    assert list(unpack([pack(f)])) == [_coefficient_list(f)]


@given(polys(), polys())
def test_packed_sum_and_product_unpack_to_the_qpoly_ones(f, g):
    packed = [pack(f) + pack(g), pack(f) * pack(g), pack(f) - pack(f)]
    assert list(unpack(packed)) == [_coefficient_list(f + g), _coefficient_list(f * g), []]


def test_matrix_identity_and_trace():
    m = from_entries(3, {(0, 1): Q, (2, 0): ONE - Q})
    assert PolyMatrix.identity(3) @ m == m
    assert m @ PolyMatrix.identity(3) == m
    assert PolyMatrix.identity(10).trace() == QPoly.constant(10)


def test_matrix_dim_mismatch():
    with pytest.raises(ValueError):
        PolyMatrix.identity(2) @ PolyMatrix.identity(3)


@pytest.mark.parametrize(
    "refused",
    [
        lambda: PolyMatrix.identity(2).add(PolyMatrix.identity(3)),
        lambda: from_entries(2, {(2, 0): ONE}),
        lambda: from_entries(2, [((0, -1), Q)]),
        lambda: rho_q_rows(1, model_basis(2)) @ rho_q_rows(1, model_basis(3)),
        lambda: rho_q_rows(1, model_basis(2)) == rho_q_rows(1, model_basis(3)),
    ],
)
def test_matrix_size_errors_are_refused(refused):
    with pytest.raises(ValueError, match="dim mismatch|out of range"):
        refused()


def matrix_cells(dim):
    """A dim x dim matrix as an (r, c) -> QPoly dict, with small coefficients."""
    keys = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return st.dictionaries(keys, polys(max_deg=2, max_coeff=2), max_size=dim * dim)


# Two matrices of dim <= 6 and a scalar; the small coefficients make sums
# and products often cancel.
matrix_cases = st.integers(1, 6).flatmap(
    lambda dim: st.tuples(
        st.just(dim), matrix_cells(dim), matrix_cells(dim), polys(max_deg=2, max_coeff=2)
    )
)


def _dense(dim, entries):
    return [[entries.get((r, c), ZERO) for c in range(dim)] for r in range(dim)]


def _nonzero(dense):
    return {(r, c): f for r, row in enumerate(dense) for c, f in enumerate(row) if f}


@given(matrix_cases)
def test_matrix_operations_match_a_dense_reference(case):
    dim, ea, eb, f = case
    a, b = from_entries(dim, ea), from_entries(dim, eb)
    da, db = _dense(dim, ea), _dense(dim, eb)
    product = [
        [sum((da[r][k] * db[k][c] for k in range(dim)), ZERO) for c in range(dim)]
        for r in range(dim)
    ]
    total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]
    scaled = [[f * x for x in row] for row in da]
    assert poly_entries(a) == _nonzero(da)
    assert poly_entries(a @ b) == _nonzero(product)
    assert a @ b == from_entries(dim, _nonzero(product))
    assert poly_entries(a.add(b)) == _nonzero(total)
    assert poly_entries(a.scale(f)) == _nonzero(scaled)
    assert a.trace() == sum((da[i][i] for i in range(dim)), ZERO)
    assert a.specialize(1) == {
        k: v for k, v in ((k, g.evaluate(1)) for k, g in _nonzero(da).items()) if v != 0
    }
    assert (a == b) == (_nonzero(da) == _nonzero(db))
    assert len(a.entries) == sum(len(g.coeffs) for g in _nonzero(da).values())
    expected = [
        [r, c, [g.coeffs.get(d, 0) for d in range(g.degree() + 1)]]
        for (r, c), g in sorted(_nonzero(da).items())
    ]
    assert written(a) == json.dumps({"dim": dim, "entries": expected}, sort_keys=True) + "\n"


@given(matrix_cases)
def test_matrix_cancellations_give_the_zero_matrix(case):
    dim, ea, eb, _ = case
    a, b = from_entries(dim, ea), from_entries(dim, eb)
    zero = from_entries(dim, {})
    minus_a = a.scale(-1)
    for m in (a.add(minus_a), a.scale(0), a @ zero, zero @ a, (a @ b).add(minus_a @ b)):
        assert m == zero and m.entries == {} and poly_entries(m) == {}
        assert m.trace() == ZERO and m.specialize(1) == {}
    assert from_entries(dim, [((0, 0), Q), ((0, 0), -Q)]) == zero


def test_matrix_products_that_cancel_to_zero():
    nilpotent = from_entries(2, {(0, 1): Q})
    zero = from_entries(2, {})
    assert nilpotent @ nilpotent == zero
    row = from_entries(2, {(0, 0): ONE - Q, (0, 1): ONE - Q})
    col = from_entries(2, {(0, 0): Q, (1, 0): -Q})
    assert row @ col == zero


@given(sparse_matrices(), sparse_matrices(), sparse_matrices())
def test_matrix_multiplication_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@given(sparse_matrices(), sparse_matrices())
def test_trace_of_product_commutes(a, b):
    assert (a @ b).trace() == (b @ a).trace()


def test_json_canonical():
    m = from_entries(2, {(1, 1): -Q, (0, 0): ONE})
    assert written(m) == '{"dim": 2, "entries": [[0, 0, [1]], [1, 1, [0, -1]]]}\n'
    assert written(m) == written(m)


# Entries as (row, col, q-degree, coefficient) terms: repeated keys add up and
# often cancel, and degrees up to 4 leave zeros inside a coefficient list.
matrix_terms = st.integers(1, 6).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(
            st.tuples(
                st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(0, 4),
                st.integers(-2, 2),
            ),
            max_size=3 * dim * dim,
        ),
    )
)


@given(matrix_terms)
def test_json_writer_matches_json_dumps(case):
    dim, terms = case
    m = from_entries(dim, [((r, c), QPoly({d: a})) for r, c, d, a in terms])
    acc = {}
    for r, c, d, a in terms:
        acc.setdefault((r, c), {})
        acc[r, c][d] = acc[r, c].get(d, 0) + a
    entries = []
    for (r, c), coeffs in sorted(acc.items()):
        top = max((d for d, a in coeffs.items() if a), default=-1)
        if top >= 0:
            entries.append([r, c, [coeffs.get(d, 0) for d in range(top + 1)]])
    assert written(m) == json.dumps({"dim": dim, "entries": entries}, sort_keys=True) + "\n"


@given(matrix_terms)
def test_text_writer_prints_each_entry_as_its_qpoly(case):
    # One-term coefficient lists print as their int, with no QPoly built.
    dim, terms = case
    m = from_entries(dim, [((r, c), QPoly({d: a})) for r, c, d, a in terms])
    entries = sorted(poly_entries(m).items())
    assert [(r, c) for r, c, _ in m.cells()] == [key for key, _ in entries]
    lines = "".join(f"({r},{c}) {f}\n" for (r, c), f in entries)
    assert written(m, "text") == f"dim {dim}\n" + lines


def test_text_writer_formats_coefficient_lists_with_no_qpoly(monkeypatch):
    m = from_entries(2, {(0, 0): QPoly({0: -1, 2: 3, 3: -1}), (0, 1): 5 * Q, (1, 1): -7})
    monkeypatch.setattr(qpoly, "QPoly", None)
    assert written(m, "text") == "dim 2\n(0,0) -1 + 3 q^2 - q^3\n(0,1) 5 q\n(1,1) -7\n"


def test_specialize_drops_zeros():
    m = from_entries(2, {(0, 0): ONE - Q, (1, 0): Q})
    assert m.specialize(1) == {(1, 0): 1}


def _canonical(pairs):
    """Reference canonical form: merge equal degrees, sort, drop zero coefficients."""
    acc = {}
    for d, c in pairs:
        acc[d] = acc.get(d, 0) + c
    return tuple(sorted((d, c) for d, c in acc.items() if c != 0))


# Term lists with repeated degrees and small coefficients, so sums and
# products often cancel, in part or to zero.
term_lists = st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=6)


@given(term_lists, term_lists)
def test_sum_and_product_keep_the_canonical_terms(a, b):
    f, g = QPoly(a), QPoly(b)
    assert f._terms == _canonical(a)
    assert QPoly(dict(_canonical(a)))._terms == f._terms
    assert (f + g)._terms == _canonical(a + b)
    assert (f - g)._terms == _canonical(a + [(d, -c) for d, c in b])
    assert (-f)._terms == _canonical((d, -c) for d, c in a)
    assert (f * g)._terms == _canonical(
        (d1 + d2, c1 * c2) for d1, c1 in a for d2, c2 in b
    )


@given(term_lists)
def test_cancellation_to_zero_is_the_zero_polynomial(a):
    f = QPoly(a)
    for zero in (f - f, f + (-f), f * ZERO, QPoly(a + [(d, -c) for d, c in a])):
        assert zero._terms == () and zero == ZERO and not zero


@pytest.mark.parametrize(
    "coeffs", [{-1: 1}, {-2: 0, 1: 1}, [(0, 1), (-1, 2)], [(-1, 1), (-1, -1)]]
)
def test_negative_degree_is_refused(coeffs):
    with pytest.raises(ValueError, match="negative degree"):
        QPoly(coeffs)
