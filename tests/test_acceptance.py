"""End-to-end acceptance sweep: one test per exit criterion.

Every check is an exact identity (integers or polynomials over Z), so the
tolerances are all zero.  Each test prints one PASS line when it completes;
the n=8 class sweep and the n=8 length-oracle sweep run only with --runslow.
"""

import itertools
import random

import pytest

from gelfand import model_hecke, model_sn, perm, rsk, typeb
from gelfand.cli import main
from gelfand.model_sn import SignedPermMatrix, model_basis
from gelfand.qpoly import ONE, Q, PolyMatrix, QPoly, ZERO


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_01_group_model_relations():
    for n in range(2, 8):
        basis = model_basis(n)
        gens = {i: model_sn.rho_generator_matrix(i, basis) for i in range(1, n)}
        ident = SignedPermMatrix.identity(basis.dim)
        for i, m in gens.items():
            assert m @ m == ident, f"square fails at n={n}, i={i}"
        for i in gens:
            for j in gens:
                if j > i + 1:
                    assert gens[i] @ gens[j] == gens[j] @ gens[i], f"n={n}, ({i},{j})"
        for i in range(1, n - 1):
            assert (
                gens[i] @ gens[i + 1] @ gens[i]
                == gens[i + 1] @ gens[i] @ gens[i + 1]
            ), f"braid fails at n={n}, i={i}"
    _ok(1, "group relations hold exactly for n=2..7 (dims up to 232)")


def test_02_gelfand_property_characters():
    for n in range(2, 8):
        basis = model_basis(n)
        for ct, rep in perm.conjugacy_class_reps(n):
            tr = model_sn.rho_character(rep, basis)
            assert tr == perm.square_roots_count(rep), f"n={n}, class {ct}"
            assert tr == model_sn.fs_count_formula(
                perm.multiplicities(ct)
            ), f"n={n}, class {ct}"
    _ok(2, "trace = square-root count = product formula on every class, n=2..7")


@pytest.mark.slow
def test_02_gelfand_property_characters_n8():
    basis = model_basis(8)
    for ct, rep in perm.conjugacy_class_reps(8):
        tr = model_sn.rho_character(rep, basis)
        assert tr == perm.square_roots_count(rep), f"class {ct}"
        assert tr == model_sn.fs_count_formula(perm.multiplicities(ct)), f"class {ct}"
    _ok(2, "n=8 class sweep (slow)")


def test_03_sign_cocycle():
    for n in range(2, 6):
        witness = model_sn.sign_cocycle_witness(n, 1000, random.Random(2024 + n))
        assert witness is None, f"n={n}: {witness}"
    _ok(3, "sign cocycle holds on 1000 seeded random triples per n, n<=5")


def test_04_orbit_taxonomy():
    for n in range(3, 7):
        checks = model_sn.orbit_checks(n)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    _ok(4, "orbit sizes in {1,3,6} and descent equivalence in size-3 orbits, n<=6")


def test_05_involutive_length_and_cases():
    for n in range(1, 8):
        for w in model_basis(n).involutions:
            assert model_hecke.involutive_length(w) == model_hecke.involutive_length_oracle(
                w
            ), f"n={n}, w={w}"
    for n in range(1, 9):
        for w in model_basis(n).involutions:
            for i in range(1, n):
                model_hecke.order_relation(w, i)  # raises on any fifth case
    _ok(5, "closed formula = BFS oracle (n<=7); four cases exhaustive (n<=8)")


@pytest.mark.slow
def test_05_involutive_length_n8():
    for w in model_basis(8).involutions:
        assert model_hecke.involutive_length(w) == model_hecke.involutive_length_oracle(w)
    _ok(5, "n=8 length oracle sweep (slow)")


def test_06_hecke_relations():
    for n in range(2, 7):
        basis = model_basis(n)
        gens = {i: model_hecke.rho_q_generator(i, basis) for i in range(1, n)}
        ident = PolyMatrix.identity(basis.dim)
        for i, m in gens.items():
            assert m @ m == m.scale(ONE - Q).add(ident.scale(Q)), f"n={n}, i={i}"
        for i in gens:
            for j in gens:
                if j > i + 1:
                    assert gens[i] @ gens[j] == gens[j] @ gens[i], f"n={n}, ({i},{j})"
        for i in range(1, n - 1):
            assert (
                gens[i] @ gens[i + 1] @ gens[i]
                == gens[i + 1] @ gens[i] @ gens[i + 1]
            ), f"n={n}, i={i}"
    _ok(6, "Hecke quadratic, commutation and braid relations exact over Z[q], n=2..6")


def test_07_specialization_at_one():
    for n in range(2, 8):
        basis = model_basis(n)
        for i in range(1, n):
            assert (
                model_hecke.rho_q_generator(i, basis).specialize(1)
                == model_sn.rho_generator_matrix(i, basis).entry_dict()
            ), f"n={n}, i={i}"
    _ok(7, "q=1 specialization equals the group model entrywise, n<=7")


def _hecke_trace(mu):
    basis = model_basis(sum(mu))
    gens = {i: model_hecke.rho_q_generator(i, basis) for i in range(1, basis.n)}
    return model_hecke.hecke_model_character(mu, basis, gens)


def test_08_trace_identity():
    for n in range(2, 7):
        for mu in perm.partitions(n):
            assert _hecke_trace(mu) == model_hecke.mu_unimodal_character(mu), f"n={n}, mu={mu}"
    assert _hecke_trace((2,)) == ONE - Q
    assert _hecke_trace((1, 1)) == QPoly.constant(2)
    assert _hecke_trace((3,)) == QPoly({0: 1, 1: -1, 2: 1})
    _ok(8, "trace = signed mu-unimodal involution sum for every mu, n<=6")


def test_09_irreducible_sum_identity():
    for n in range(2, 6):
        lams = list(perm.partitions(n))
        for mu in lams:
            total = ZERO
            for lam in lams:
                total = total + rsk.irreducible_hecke_character(lam, mu)
            assert total == _hecke_trace(mu), f"n={n}, mu={mu}"
        for lam in lams:
            tabs = rsk.enumerate_syt(lam)
            for mu in lams:
                vals = {rsk.irreducible_hecke_character(lam, mu, t) for t in tabs}
                assert len(vals) == 1, f"n={n}, lam={lam}, mu={mu}"
                assert vals.pop().evaluate(1) == rsk.mn_character(
                    lam, mu
                ), f"n={n}, lam={lam}, mu={mu}"
    _ok(9, "irreducible characters sum to the model trace, tableau-independent, n<=5")


def test_10_insertion_properties():
    for n in range(1, 7):
        seen = set()
        for w in itertools.permutations(range(1, n + 1)):
            p, q = rsk.rs_insert(w)
            assert rsk.shape(p) == rsk.shape(q)
            assert (p, q) not in seen
            seen.add((p, q))
            assert rsk.rs_insert(perm.inverse(w)) == (q, p)
            assert perm.is_involution(w) == (p == q)
            assert perm.descent_set(w) == rsk.tableau_descent_set(q)
        total = sum(len(rsk.enumerate_syt(lam)) for lam in perm.partitions(n))
        assert total == model_basis(n).dim
    _ok(10, "insertion bijectivity, symmetry, descents and tableau counts, n<=6")


def test_11_fixed_points_vs_odd_columns():
    for n in range(1, 9):
        report = rsk.involution_fixedpoint_vs_oddcolumns(n)
        assert report.passed, report.text()
    _ok(11, "fixed-point counts equal odd-column tableau counts, n<=8")


def test_12_type_b_model():
    for n in (1, 2, 3, 4):
        report = typeb.verify_b_model(n)
        assert report.passed, report.text()
    _ok(12, "type-B relations and square-root traces (all elements n<=3, classes n=4)")


def test_13_deterministic_output(capsys):
    def capture(args):
        code = main(args)
        out, err = capsys.readouterr()
        return code, out

    invocations = [
        ["matrix", "--kind", "hecke", "--n", "4", "--generator", "2"],
        ["verify", "--scope", "all", "--n", "3", "--format", "json", "--seed", "5"],
        ["poset", "--n", "5"],
        ["characters", "--kind", "sn", "--n", "5", "--format", "csv"],
        ["involutions", "--n", "6", "--format", "json"],
    ]
    for args in invocations:
        first = capture(args)
        second = capture(args)
        assert first == second
        assert first[0] == 0
    _ok(13, "byte-identical output across repeated runs")
