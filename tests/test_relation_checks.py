"""Failure witnesses of the relation checks shared by the three verify suites.

Every suite passes on the real models, so these tests break one generator on
purpose: generator k is replaced by the product of generators k and k+1.
That product is not an involution, fails to commute with generator k+2, and
breaks the braid relation with generator k-1 (or k+1), and each failed check
must name the first index where it fails.
"""

from gelfand import model_hecke, model_sn, typeb


def _break_generator(monkeypatch, module, name, k):
    original = getattr(module, name)

    def broken(i, basis):
        if i == k:
            return original(i, basis) @ original(i + 1, basis)
        return original(i, basis)

    monkeypatch.setattr(module, name, broken)


def _failures(report):
    return [(c.name, c.detail) for c in report.checks if not c.passed]


def test_sn_relation_failures_name_their_witness(monkeypatch):
    _break_generator(monkeypatch, model_sn, "rho_generator_matrix", 2)
    assert _failures(model_sn.verify_sn_model(5)) == [
        ("sign rule and inversion count give the same generator action", "disagree at i=2"),
        ("generator squares are the identity", "fails at i=2"),
        ("distant generators commute", "fails at (2, 4)"),
        ("braid relation for adjacent generators", "fails at i=1"),
    ]


def test_hecke_relation_failures_name_their_witness(monkeypatch):
    _break_generator(monkeypatch, model_hecke, "rho_q_rows", 2)
    assert _failures(model_hecke.verify_hecke_model(5)) == [
        ("quadratic relation (T + q)(T - 1) = 0 per generator", "fails at i=2"),
        ("distant generators commute", "fails at (2, 4)"),
        ("braid relation for adjacent generators", "fails at i=1"),
        ("q=1 specialization equals the group model generators", "fails at i=2"),
        (
            "trace equals the signed unimodal-involution sum for every type",
            "mu=(5,): trace=1 + q - 4 q^2 + 4 q^3 - q^4 - q^5 sum=1 - q + q^2 - q^3 + q^4",
        ),
    ]


def test_typeb_relation_failures_name_their_witness(monkeypatch):
    _break_generator(monkeypatch, typeb, "rho_b_generator", 1)
    assert _failures(typeb.verify_b_model(4)) == [
        ("generator squares are the identity", "fails at i=1"),
        ("s0 s1 has order four", ""),
        ("braid relation for adjacent transpositions", "fails at i=1"),
        ("distant generators commute", "fails at (1, 3)"),
        ("trace counts square roots", "g=(1, 2, -3, -4): trace=4 roots=12"),
    ]
