import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand import cli, model_hecke, perm
from gelfand.errors import CapacityError
from gelfand.model_hecke import (
    cover_edges,
    hecke_model_character,
    involutive_length,
    involutive_length_oracle,
    involutive_order,
    minimal_involution,
    mu_descent_number,
    mu_unimodal_character,
    order_relation,
    poset_dot,
    rho_q_generator,
    rho_q_trace,
    rho_q_word_cells,
    row_times_generator,
    t_mu_word,
    type_traces,
    verify_hecke_model,
)
from gelfand.model_sn import conjugates, model_basis, orbit_walk, rho_generator_matrix
from gelfand.qpoly import ONE, Q, ZERO, PolyMatrix, QPoly, minus_q_power
from references import cycle_notation, poly_entries, rho_q_of_word


def test_minimal_involutions_have_length_zero():
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            assert involutive_length(minimal_involution(n, k)) == 0


def test_involutive_length_examples():
    assert involutive_length((2, 1, 4, 3)) == 0
    assert involutive_length((3, 4, 1, 2)) == 1  # (1 3)(2 4)
    assert involutive_length((4, 3, 2, 1)) == 2  # (1 4)(2 3)
    assert involutive_length((3, 2, 1)) == 1  # (1 3), conjugate of (1 2) by s_2
    assert involutive_length_oracle((3, 2, 1)) == 1
    assert involutive_length_oracle((4, 3, 2, 1)) == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_formula_matches_oracle(n):
    for w in model_basis(n).involutions:
        assert involutive_length(w) == involutive_length_oracle(w)


@pytest.mark.parametrize("n", range(1, 8))
def test_conjugation_distances_match_the_window_bfs(n):
    # The reference BFS: nodes are windows, and each move conjugates a window
    # by a generator.
    gens = [perm.generator(n, i) for i in range(1, n)]
    for k in range(n // 2 + 1):
        paths = perm.bfs(
            minimal_involution(n, k), lambda v: [perm.compose(s, perm.compose(v, s)) for s in gens]
        )
        expected = {w: len(path) for w, path in paths.items()}
        assert model_hecke._conjugation_distances(n, k) == expected


def _rank_dict_length(w):
    """The closed formula as first written: support ranks through a dict, one generator."""
    pairs = perm.involution_pairs(w)
    k = len(pairs)
    supp = [i for i in range(1, len(w) + 1) if w[i - 1] != i]
    base = sum(supp) - k * (2 * k + 1)
    rank = {t: j for j, t in enumerate(supp)}
    restricted = sum(
        1
        for x in range(2 * k)
        for y in range(x + 1, 2 * k)
        if rank[w[supp[x] - 1]] > rank[w[supp[y] - 1]]
    )
    half, rem = divmod(restricted - k, 2)
    assert rem == 0
    return base + half


@pytest.mark.parametrize("n", range(1, 10))
def test_formula_matches_the_rank_dict_body(n):
    for w in model_basis(n).involutions:
        assert involutive_length(w) == _rank_dict_length(w)


@pytest.mark.parametrize("n", range(1, 11))
def test_involution_walk_matches_the_slow_path(n):
    # The walk carries the cycle string and length down the involution tree;
    # the slow path reads both off each window, and the window order off a
    # brute-force filter of S_n.
    rows = list(perm.involution_walk(n))
    assert len(rows) == (1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496)[n - 1]  # telephone numbers
    if n <= 8:
        e = perm.identity(n)
        brute = sorted(p for p in itertools.permutations(e) if perm.compose(p, p) == e)
        assert [w for w, _, _ in rows] == brute
    for w, cycles, length in rows:
        assert cycles == cycle_notation(w)
        assert length == involutive_length(w)
        if n <= 8:
            assert length == involutive_length_oracle(w)


@pytest.mark.parametrize("n", range(1, 10))
def test_grading_is_keyed_by_the_basis_windows(n):
    # A tuple in basis order, so each window's basis index is its key.
    lengths = involutive_order(n)
    assert type(lengths) is tuple and all(type(length) is int for length in lengths)
    assert list(lengths) == [involutive_length(w) for w in model_basis(n).involutions]


def test_oracle_cap():
    with pytest.raises(CapacityError):
        involutive_length_oracle(perm.identity(9))


def test_order_relation_examples():
    assert order_relation((2, 1), 1) == "fixed_descent"
    assert order_relation(perm.identity(3), 2) == "fixed_nondescent"
    assert order_relation((3, 2, 1), 1) == "up"  # (1 3) climbs to (2 3)
    assert order_relation((1, 3, 2), 1) == "down"  # (2 3) drops to (1 3)


@pytest.mark.parametrize("n", range(2, 8))
def test_four_cases_exhaustive(n):
    tags = {"fixed_descent", "fixed_nondescent", "up", "down"}
    for w in model_basis(n).involutions:
        for i in range(1, n):
            assert order_relation(w, i) in tags


@pytest.mark.parametrize("n", range(2, 7))
def test_moved_involutions_shift_length_by_one(n):
    for w in model_basis(n).involutions:
        for i in range(1, n):
            s = perm.generator(n, i)
            v = perm.compose(s, perm.compose(w, s))
            if v != w:
                assert abs(involutive_length(v) - involutive_length(w)) == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_cover_edges_connect_each_cycle_type(n):
    invs = model_basis(n).involutions
    adj: dict = {}
    for c, _, r in cover_edges(n):
        w, v = invs[c], invs[r]
        adj.setdefault(w, set()).add(v)
        adj.setdefault(v, set()).add(w)
    by_type: dict = {}
    for w in model_basis(n).involutions:
        by_type.setdefault(len(perm.involution_pairs(w)), set()).add(w)
    for k, members in by_type.items():
        start = minimal_involution(n, k)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for w in frontier:
                for v in adj.get(w, ()):
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        assert seen == members


def test_generator_matrix_n2():
    m = rho_q_generator(1, model_basis(2))
    assert poly_entries(m) == {(0, 0): ONE, (1, 1): -Q}


def test_generator_columns_n3():
    basis = model_basis(3)
    m = poly_entries(rho_q_generator(1, basis))
    c23 = basis.index[(1, 3, 2)]
    c13 = basis.index[(3, 2, 1)]
    c12 = basis.index[(2, 1, 3)]
    # drop: C_(2 3) maps to C_(1 3) alone
    assert m[(c13, c23)] == ONE
    assert (c23, c23) not in m
    # climb: C_(1 3) maps to (1-q) C_(1 3) + q C_(2 3)
    assert m[(c13, c13)] == ONE - Q
    assert m[(c23, c13)] == Q
    assert m[(c12, c12)] == -Q


def test_word_product_and_quadratic():
    basis = model_basis(2)
    assert rho_q_of_word([], basis) == PolyMatrix.identity(2)
    m = rho_q_of_word([1], basis)
    assert m == rho_q_generator(1, basis)
    assert rho_q_of_word([1, 1], basis) == m.scale(ONE - Q).add(
        PolyMatrix.identity(2).scale(Q)
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_row_kernel_rows_are_the_generator_columns_read_across(n):
    basis = model_basis(n)
    for i in range(1, n):
        cols = rho_q_generator(i, basis).cols
        table, tags = conjugates(n, i), model_hecke._case_tags(i, basis)
        for k in range(basis.dim):
            row = {c: col[k] for c, col in enumerate(cols) if k in col}
            assert row_times_generator({k: 1}, table, tags) == row, (i, k)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, max(n - 1, 1)), max_size=7))
    )
)
def test_streamed_word_rows_are_the_matrix_product(case):
    # Any word, repeated and falling letters too: entries that cancel are dropped.
    n, word = case
    word = word if n > 1 else []
    basis = model_basis(n)
    assert list(rho_q_word_cells(word, basis)) == rho_q_of_word(word, basis).cells()


@pytest.mark.parametrize("n", range(2, 6))
def test_hecke_relations(n):
    basis = model_basis(n)
    gens = {i: rho_q_generator(i, basis) for i in range(1, n)}
    ident = PolyMatrix.identity(basis.dim)
    for m in gens.values():
        assert m @ m == m.scale(ONE - Q).add(ident.scale(Q))
    for i in gens:
        for j in gens:
            if j > i + 1:
                assert gens[i] @ gens[j] == gens[j] @ gens[i]
    for i in range(1, n - 1):
        assert gens[i] @ gens[i + 1] @ gens[i] == gens[i + 1] @ gens[i] @ gens[i + 1]


def test_t_mu_word_examples():
    assert t_mu_word((4,)) == [1, 2, 3]
    assert t_mu_word((1, 1, 1)) == []
    assert t_mu_word((2, 1)) == [1]


def _parent_type(mu):
    """Lower the last part of mu above 1 by one and append a part 1."""
    k = max(j for j, part in enumerate(mu) if part > 1)
    return (*mu[:k], mu[k] - 1, *mu[k + 1 :], 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_type_words_form_a_tree_under_the_parent_map(n):
    # Every nonempty t_mu_word extends its parent type's word by one letter, so
    # the words of all types of S_n form a prefix trie rooted at (1, ..., 1).
    types = set(perm.partitions(n))
    edges = 0
    for mu in types:
        word = t_mu_word(mu)
        if word:
            assert _parent_type(mu) in types, mu
            assert word[:-1] == t_mu_word(_parent_type(mu)), mu
            edges += 1
    assert edges == len(types) - 1


def test_mu_descent_number_examples():
    assert mu_descent_number(perm.identity(3), (2, 1)) == 0
    assert mu_descent_number((1, 3, 2), (2, 1)) == 0
    assert mu_descent_number((3, 2, 1), (2, 1)) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_mu_descent_number_is_the_descent_set_on_the_subproduct_word(n):
    for mu in perm.partitions(n):
        word = set(t_mu_word(mu))
        for w in itertools.permutations(range(1, n + 1)):
            assert mu_descent_number(w, mu) == len(perm.descent_set(w) & word), (w, mu)


def _gens(basis):
    return {i: rho_q_generator(i, basis) for i in range(1, basis.n)}


def test_character_table_n2():
    basis = model_basis(2)
    assert hecke_model_character((2,), basis, _gens(basis)) == ONE - Q
    assert hecke_model_character((1, 1), basis, _gens(basis)) == QPoly.constant(2)


def test_character_table_n3():
    basis = model_basis(3)
    gens = _gens(basis)
    assert hecke_model_character((2, 1), basis, gens) == QPoly({0: 2, 1: -2})
    assert hecke_model_character((3,), basis, gens) == QPoly({0: 1, 1: -1, 2: 1})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=7))
    )
)
def test_column_action_trace_equals_product_trace(case):
    n, word = case
    basis = model_basis(n)
    assert rho_q_trace(word, basis, _gens(basis)) == rho_q_of_word(word, basis).trace()


@pytest.mark.parametrize("word", [[], [1, 1], [2, 2, 2], [1, 2, 1, 2, 1], [3, 1, 3, 3]])
def test_column_action_trace_on_chosen_words(word):
    basis = model_basis(4)
    assert rho_q_trace(word, basis, _gens(basis)) == rho_q_of_word(word, basis).trace()


def _dense_generators(basis):
    """Each T_i as a list of rows of QPoly entries."""
    dense = {}
    for i, m in _gens(basis).items():
        entries = poly_entries(m)
        dense[i] = [[entries.get((r, c), ZERO) for c in range(basis.dim)] for r in range(basis.dim)]
    return dense


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n - 1), max_size=6))
    )
)
def test_packed_trace_equals_the_dense_qpoly_product_trace(case):
    n, word = case
    basis = model_basis(n)
    dense, dim = _dense_generators(basis), basis.dim
    product = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
    for i in word:
        g = dense[i]
        product = [
            [sum((row[k] * g[k][c] for k in range(dim) if row[k]), ZERO) for c in range(dim)]
            for row in product
        ]
    assert rho_q_trace(word, basis, _gens(basis)) == sum((product[c][c] for c in range(dim)), ZERO)


def test_words_beyond_the_packed_bound_are_refused_before_any_work(monkeypatch):
    # dim 4 * 3^38 < 2^63 <= 4 * 3^39: the bound covers 38 letters at n=3, not 39
    basis = model_basis(3)
    longest = [1, 2] * 19
    assert rho_q_trace(longest, basis, _gens(basis)) == rho_q_of_word(longest, basis).trace()
    assert list(rho_q_word_cells(longest, basis)) == rho_q_of_word(longest, basis).cells()
    monkeypatch.setattr(model_hecke, "rho_q_generator", None)
    monkeypatch.setattr(model_hecke, "_case_tags", None)
    for word in ([1] * 39, [1, 2] * 20):
        with pytest.raises(CapacityError, match=f"word of {len(word)} letters at dim 4 is past"):
            rho_q_trace(word, basis, {})
        with pytest.raises(CapacityError, match=f"word of {len(word)} letters at dim 4 is past"):
            rho_q_of_word(word, basis)
        with pytest.raises(CapacityError, match=f"word of {len(word)} letters at dim 4 is past"):
            rho_q_word_cells(word, basis)


def test_column_action_trace_reads_any_column_shape():
    # T_2 T_3 in the place of T_2, as in test_relation_checks: its columns
    # have up to four nonzeros, which the trace must still follow exactly
    basis = model_basis(5)
    gens = _gens(basis)
    gens[2] = gens[2] @ gens[3]
    entries = poly_entries(gens[2])
    assert max(sum(1 for (_, c) in entries if c == k) for k in range(basis.dim)) > 2
    for word in ([1, 2, 3, 4], [2, 2], [4, 2, 1, 2]):
        product = PolyMatrix.identity(basis.dim)
        for i in word:
            product = product @ gens[i]
        assert rho_q_trace(word, basis, gens) == product.trace()


def test_generator_arithmetic_builds_no_qpoly(monkeypatch):
    gens = _gens(model_basis(6))
    built = []
    original = QPoly.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(QPoly, "__init__", counted)
    for m in gens.values():
        assert m @ m != m.add(m)
        assert m == m and len(m.entries) >= m.dim
    assert built == []
    gens[1].trace()
    assert len(built) == 1


def _count_generator_builds(monkeypatch):
    calls = []
    original = model_hecke.rho_q_generator

    def counted(i, basis):
        calls.append(i)
        return original(i, basis)

    monkeypatch.setattr(model_hecke, "rho_q_generator", counted)
    return calls


@pytest.mark.parametrize("n", [2, 4, 6])
def test_verify_builds_each_generator_once(n, monkeypatch):
    calls = _count_generator_builds(monkeypatch)
    assert verify_hecke_model(n).passed
    assert len(calls) <= n - 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_characters_builds_each_generator_once(n, monkeypatch):
    calls = _count_generator_builds(monkeypatch)
    assert cli.main(["characters", "--kind", "hecke", "--n", str(n)]) == 0
    assert len(calls) <= n - 1


def test_unimodal_sum_examples():
    assert mu_unimodal_character((1, 1)) == QPoly.constant(2)
    assert mu_unimodal_character((2, 1)) == QPoly({0: 2, 1: -2})
    assert mu_unimodal_character((3,)) == QPoly({0: 1, 1: -1, 2: 1})


@pytest.mark.parametrize("n", range(2, 6))
def test_trace_identity_all_types(n):
    basis = model_basis(n)
    gens = _gens(basis)
    for mu in perm.partitions(n):
        assert hecke_model_character(mu, basis, gens) == mu_unimodal_character(mu)


def test_block_boundary_exclusion_is_essential():
    # counting every descent would give 1 - q at the finest type, not the
    # model trace 2, so the boundary positions must be left out
    basis = model_basis(2)
    global_sum = ZERO
    for w in basis.involutions:
        global_sum = global_sum + minus_q_power(len(perm.descent_set(w)))
    assert global_sum == ONE - Q
    assert global_sum != hecke_model_character((1, 1), basis, _gens(basis))


@pytest.mark.parametrize("n", range(2, 7))
def test_q1_specialization_matches_group_model(n):
    basis = model_basis(n)
    for i in range(1, n):
        assert (
            rho_q_generator(i, basis).specialize(1)
            == rho_generator_matrix(i, basis).entry_dict()
        )


def _conj(s, v):
    return perm.compose(s, perm.compose(v, s))


@pytest.mark.parametrize("n", range(1, 8))
def test_cover_edges_match_the_window_covers(n):
    # From windows alone: conjugate by perm.compose, grade by the closed formula.
    basis = model_basis(n)
    expected = []
    for w in basis.involutions:
        for i in range(1, n):
            v = _conj(perm.generator(n, i), w)
            if involutive_length(v) == involutive_length(w) + 1:
                expected.append((basis.index[w], i, basis.index[v]))
    edges = list(cover_edges(n))
    assert edges == expected
    assert edges == sorted(edges)  # poset_dot writes them in this order


HEX_LOW = [
    ["1-q", "1", "0", "0", "0", "0"],
    ["q", "0", "0", "0", "0", "0"],
    ["0", "0", "1-q", "1", "0", "0"],
    ["0", "0", "q", "0", "0", "0"],
    ["0", "0", "0", "0", "1-q", "1"],
    ["0", "0", "0", "0", "q", "0"],
]

HEX_HIGH = [
    ["1-q", "0", "0", "0", "1", "0"],
    ["0", "1-q", "1", "0", "0", "0"],
    ["0", "q", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "q"],
    ["q", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1", "0", "1-q"],
]

_CELL = {"0": ZERO, "1": ONE, "q": Q, "1-q": ONE - Q}


def _block(mat, ordered, basis):
    idx = [basis.index[w] for w in ordered]
    entries = poly_entries(mat)
    return [[entries.get((r, c), ZERO) for c in idx] for r in idx]


def test_hexagonal_orbit_blocks_match_known_matrices():
    n, i = 5, 1
    basis = model_basis(n)
    lengths = involutive_order(n)
    walk, ends = orbit_walk(i, (4, 5, 3, 1, 2))  # (1 4)(2 5)
    assert len(walk) == 6 and ends is None
    bottom = min(walk, key=lambda v: lengths[basis.index[v]])
    s1 = perm.generator(n, i)
    s2 = perm.generator(n, i + 1)
    a = _conj(s1, bottom)
    ab = _conj(s2, a)
    top = _conj(s1, ab)
    b = _conj(s2, bottom)
    ba = _conj(s1, b)
    ordered = [bottom, a, ab, top, b, ba]
    assert sorted(ordered) == sorted(walk)
    k = walk.index(bottom)
    assert list(walk[k + 1:] + walk[:k]) in ([a, ab, top, ba, b], [b, ba, top, ab, a])
    low = _block(rho_q_generator(i, basis), ordered, basis)
    high = _block(rho_q_generator(i + 1, basis), ordered, basis)
    assert low == [[_CELL[x] for x in row] for row in HEX_LOW]
    assert high == [[_CELL[x] for x in row] for row in HEX_HIGH]


def _hexagon_swapped_grading(n):
    # Swap the lengths of the second and third involutions round the i=1
    # hexagon of (1 4)(2 5) from its bottom: the sorted levels stay those of
    # a hexagon, but the cycle no longer climbs lo, lo+1, lo+2, lo+3.
    index = model_basis(n).index
    lengths = list(involutive_order(n))
    walk, _ = orbit_walk(1, (4, 5, 3, 1, 2))
    ring = [index[v] for v in walk]
    k = min(range(6), key=lambda j: lengths[ring[j]])
    a, ab = ring[(k + 1) % 6], ring[(k + 2) % 6]
    lengths[a], lengths[ab] = lengths[ab], lengths[a]
    return tuple(lengths), f"size-6 orbit lacks the hexagon structure: i=1, w={walk[k]}"


def _cycle_count_grading(n):
    # Constant on every orbit, so no size-3 orbit is a chain.
    lengths = tuple(len(perm.involution_pairs(w)) for w in model_basis(n).involutions)
    return lengths, "size-3 orbit not a chain: i=1, levels=[1, 1, 1]"


@pytest.mark.parametrize("wrong", [_hexagon_swapped_grading, _cycle_count_grading])
def test_wrong_grading_fails_the_orbit_interval_check(monkeypatch, wrong):
    lengths, witness = wrong(5)
    monkeypatch.setattr(model_hecke, "involutive_order", lambda n: lengths)
    assert witness in list(model_hecke._orbit_interval_witnesses(5))


def test_wrong_grading_is_reported_not_raised(monkeypatch, capsys):
    lengths, orbit_witness = _cycle_count_grading(5)
    names = [c.name for c in verify_hecke_model(5).checks]
    monkeypatch.setattr(model_hecke, "involutive_order", lambda n: lengths)
    assert cli.main(["verify", "--scope", "hecke", "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("verify hecke n=5: FAIL (9 checks)\n")
    report = verify_hecke_model(5)
    assert [c.name for c in report.checks] == names
    detail = {c.name: c.detail for c in report.checks if not c.passed}
    moved = "conjugation by s_3 changes the involutive length of (1, 2, 3, 5, 4) by 0"
    # The oracle check reads the grading that the T_i are built from.
    assert detail.pop(names[0]) == "fails at w=(1, 2, 3, 5, 4)"
    assert detail.pop(names[1]) == moved
    assert detail.pop(names[2]) == "fails at w=(1, 2, 3, 5, 4)"
    assert detail.pop(names[3]) == orbit_witness
    # Every check that needs the T_i matrices fails on the grading that built none.
    assert list(detail) == names[4:]
    assert all(d.startswith("T_i not built: conjugation by s_1") for d in detail.values())


def test_poset_dot_small():
    d2 = "".join(poset_dot(2))
    assert " -> " not in d2
    assert d2.count("label=") >= 2
    d3 = "".join(poset_dot(3))
    assert d3.count(" -> ") == 2
    assert 'v2 -> v3 [label="s2"]' in d3  # (1 2) climbs to (1 3)
    assert 'v3 -> v1 [label="s1"]' in d3  # (1 3) climbs to (2 3)
    assert "".join(poset_dot(4)) == "".join(poset_dot(4))


@pytest.mark.parametrize("n", range(2, 7))
def test_verify_hecke_model_passes(n):
    report = verify_hecke_model(n)
    assert report.passed, report.text()


def test_verify_hecke_cap():
    with pytest.raises(CapacityError):
        verify_hecke_model(9)


@pytest.mark.parametrize("n", range(1, 7))
def test_type_traces_for_one_type_are_its_filtered_rows(n):
    basis = model_basis(n)
    gens = _gens(basis)
    rows = list(type_traces(basis, gens))
    assert [row[0] for row in rows] == list(perm.partitions(n))
    for mu in perm.partitions(n):
        assert list(type_traces(basis, gens, mu)) == [row for row in rows if row[0] == mu]
