"""Signed-conjugation model for the hyperoctahedral group B_n.

Elements are signed windows: tuples of nonzero integers whose absolute
values form a permutation of {1..n}.  The generator s_0 negates position 1;
s_1..s_{n-1} are the adjacent transpositions.  The sign rule for s_0 uses
the signed descent set (w(1) < 0), while the rule for s_i uses the descents
of the underlying unsigned permutation.  The involution basis is read off
``model_sn.model_basis``: w(a) = s*b forces w(b) = s*a, one sign per orbit.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Mapping

from . import model_sn, perm
from .errors import require, require_suite
from .model_sn import ModelBasis, SignedPermMatrix, relation_checks, signed_conjugation
from .report import Check, Report, first_failure

SignedWindow = tuple[int, ...]


def is_signed_window(w) -> bool:
    return all(isinstance(x, int) and x != 0 for x in w) and perm.is_window([abs(x) for x in w])


def b_compose(u: SignedWindow, v: SignedWindow) -> SignedWindow:
    """Product acting as b_compose(u, v)(i) = u(v(i)), with u(-j) = -u(j)."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in v])


def b_generator(n: int, i: int) -> SignedWindow:
    """s_0 negates position 1; s_i (i >= 1) is ``perm.generator(n, i)``."""
    if i == 0 and n >= 1:
        return (-1, *range(2, n + 1))
    return perm.generator(n, i)


def b_elements(n: int) -> Iterator[SignedWindow]:
    for p in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * x for s, x in zip(signs, p))


def signed_sort_key(w: SignedWindow) -> tuple[tuple[int, int], ...]:
    """Orders values 1 < -1 < 2 < -2 < ..., so the identity sorts first."""
    return tuple((abs(x), 0 if x > 0 else 1) for x in w)


@lru_cache(maxsize=None)
def b_involutions(n: int) -> tuple[SignedWindow, ...]:
    """The involutions of B_n in canonical order: those of S_n with a sign on each orbit.

    >>> b_involutions(1)
    ((1,), (-1,))
    """
    signed = []
    for w in model_sn.model_basis(n).involutions:
        firsts = [a for a, b in enumerate(w, 1) if a <= b]
        for signs in itertools.product((1, -1), repeat=len(firsts)):
            sign = dict(zip(firsts, signs))
            signed.append(tuple([sign[min(a, b)] * b for a, b in enumerate(w, 1)]))
    return tuple(sorted(signed, key=signed_sort_key))


@lru_cache(maxsize=None)
def b_model_basis(n: int) -> ModelBasis:
    invs = b_involutions(n)
    return ModelBasis(n=n, involutions=invs, index={w: i for i, w in enumerate(invs)})


@lru_cache(maxsize=None)
def b_shortest_words(n: int) -> dict[SignedWindow, tuple[int, ...]]:
    """A shortest generator word per element (lexicographically least one)."""
    gens = [b_generator(n, i) for i in range(n)]
    return perm.bfs(perm.identity(n), lambda g: [b_compose(g, s) for s in gens])


def rho_b_generator(i: int, basis: ModelBasis) -> SignedPermMatrix:
    """Signed conjugation by a generator on the involution basis."""
    s = b_generator(basis.n, i)
    rows = [basis.index[b_compose(s, b_compose(w, s))] for w in basis.involutions]
    descent = (lambda w: w[0] < 0) if i == 0 else (lambda w: abs(w[i - 1]) > abs(w[i]))
    return signed_conjugation(basis, rows, descent)


def rho_b_of_element(
    g: SignedWindow, basis: ModelBasis, gens: Mapping[int, SignedPermMatrix]
) -> SignedPermMatrix:
    """Matrix of an arbitrary element, via a shortest generator word.

    ``gens`` maps each generator index to its ``rho_b_generator`` matrix, so
    a caller acting by many elements builds each generator once.
    """
    out = SignedPermMatrix.identity(basis.dim)
    for i in b_shortest_words(basis.n)[g]:
        out = out @ gens[i]
    return out


def b_square_roots_count(g: SignedWindow) -> int:
    """Number of u in B_n with u*u = g, by exhaustion, within the ``b_square_roots`` cap.

    Each call sweeps B_n once, for g alone.
    """
    require("b_square_roots", len(g))
    return perm.square_root_counts(b_elements(len(g)), b_compose, [g])[g]


def b_conjugacy_class_reps(n: int) -> tuple[SignedWindow, ...]:
    """Canonical (sort-key minimal) representative per conjugacy class.

    One sweep of B_n in sort-key order per call: each element not yet seen
    opens a new class, whose whole orbit is then found by conjugating with
    the generators.
    """
    gens = [b_generator(n, i) for i in range(n)]
    seen: set[SignedWindow] = set()
    reps = []
    for g in sorted(b_elements(n), key=signed_sort_key):
        if g not in seen:
            reps.append(g)
            seen.update(perm.bfs(g, lambda h: [b_compose(s, b_compose(h, s)) for s in gens]))
    return tuple(reps)


def pairs_of_partitions_count(n: int) -> int:
    """Number of pairs of partitions with total size n (the B_n class count)."""
    p = [len(list(perm.partitions(k))) for k in range(n + 1)]
    return sum(p[k] * p[n - k] for k in range(n + 1))


def verify_b_model(n: int) -> Report:
    """Check the type-B relations and the square-root trace identity.

    The class representatives come from one orbit search over B_n, and the
    square-root counts of the checked elements and the identity from one
    exhaustive sweep of B_n that counts those alone.
    """
    require_suite("typeb", n)
    basis = b_model_basis(n)
    checks: list[Check] = []
    gens = {i: rho_b_generator(i, basis) for i in range(n)}
    ident = SignedPermMatrix.identity(basis.dim)

    squares, commute, braid = relation_checks(
        gens,
        lambda m: m @ m == ident,
        "generator squares are the identity",
        "braid relation for adjacent transpositions",
    )
    checks.append(squares)
    if n >= 2:
        m01 = gens[0] @ gens[1]
        checks.append(Check("s0 s1 has order four", m01 @ m01 @ m01 @ m01 == ident, ""))
    checks += [braid, commute]

    reps = b_conjugacy_class_reps(n)
    elements = sorted(b_elements(n), key=signed_sort_key) if n <= 3 else reps
    e = perm.identity(n)
    roots = perm.square_root_counts(b_elements(n), b_compose, [*elements, e])
    traces = ((g, rho_b_of_element(g, basis, gens).trace(), roots[g]) for g in elements)
    checks.append(
        first_failure(
            "trace counts square roots",
            (f"g={g}: trace={tr} roots={roots}" for g, tr, roots in traces if tr != roots),
            f"{len(elements)} {'elements' if n <= 3 else 'class representatives'}",
        )
    )

    dim = basis.dim
    roots_of_id = roots[e]
    tr_id = rho_b_of_element(e, basis, gens).trace()
    checks.append(
        Check(
            "dimension equals the square-root count of the identity",
            dim == roots_of_id == tr_id,
            f"dim={dim}, roots={roots_of_id}, trace={tr_id}",
        )
    )

    class_count = pairs_of_partitions_count(n)
    found_classes = len(reps)
    checks.append(
        Check(
            "class count equals the pairs-of-partitions count",
            found_classes == class_count,
            f"{found_classes} classes, {class_count} partition pairs",
        )
    )

    return Report("typeb", n, tuple(checks))
