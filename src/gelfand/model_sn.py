"""Signed-conjugation model for S_n on the basis of involutions.

A permutation p acts on the basis vector C_w by sending it to
(-1)^(inv_w(p)) * C_{p w p^-1}, where inv_w counts inversions of p that are
2-cycles of w.  On an adjacent transposition s this sign is -1 exactly when
s fixes w by conjugation and is a descent of w.  The trace of the action
equals both the number of square roots (by exhaustive search) and a product
formula over the cycle type, which is what ``verify_sn_model`` checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Any, Callable, Iterator, Mapping

from . import perm
from .errors import CapacityError, cap, require
from .perm import Window
from .report import Check, Report

ALL_PAIRS_CAP = 5
SAMPLED_PAIRS = 200
SAMPLED_TRIPLES = 200


@dataclass(frozen=True)
class ModelBasis:
    """Involutions of S_n in canonical (lexicographic window) order."""

    n: int
    involutions: tuple[Window, ...]
    index: Mapping[Window, int]

    @property
    def dim(self) -> int:
        return len(self.involutions)


@lru_cache(maxsize=None)
def model_basis(n: int) -> ModelBasis:
    invs = perm.enumerate_involutions(n)
    return ModelBasis(n=n, involutions=invs, index={w: i for i, w in enumerate(invs)})


@dataclass(frozen=True)
class SignedPermMatrix:
    """Matrix with one +-1 entry per row and column, stored column-wise."""

    dim: int
    rows: tuple[int, ...]
    signs: tuple[int, ...]

    @staticmethod
    def identity(dim: int) -> "SignedPermMatrix":
        return SignedPermMatrix(dim, tuple(range(dim)), (1,) * dim)

    def __matmul__(self, other: "SignedPermMatrix") -> "SignedPermMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        rows = tuple(self.rows[r] for r in other.rows)
        signs = tuple(
            self.signs[other.rows[c]] * other.signs[c] for c in range(self.dim)
        )
        return SignedPermMatrix(self.dim, rows, signs)

    def trace(self) -> int:
        return sum(s for c, (r, s) in enumerate(zip(self.rows, self.signs)) if r == c)

    def entry_dict(self) -> dict[tuple[int, int], int]:
        return {(r, c): s for c, (r, s) in enumerate(zip(self.rows, self.signs))}

    def to_poly_matrix(self):
        from .qpoly import PolyMatrix, QPoly

        return PolyMatrix.from_entries(
            self.dim, {k: QPoly.constant(v) for k, v in self.entry_dict().items()}
        )


def inv_w(p: Window, w: Window) -> int:
    """Number of 2-cycles of the involution w that p inverts."""
    if len(p) != len(w):
        raise ValueError(f"size mismatch: {len(p)} vs {len(w)}")
    return sum(1 for a, b in perm.involution_pairs(w) if p[a - 1] > p[b - 1])


def signed_conjugation(
    basis: ModelBasis,
    s: tuple[int, ...],
    compose: Callable[[Any, Any], Any],
    descent: Callable[[Any], bool],
) -> SignedPermMatrix:
    """Action of the involutive generator s: C_w goes to -C_w or to C_{s w s}.

    The sign is -1 exactly when s fixes w by conjugation and ``descent(w)``
    holds.  S_n and B_n both build their generator matrices here.
    """
    rows = []
    signs = []
    for w in basis.involutions:
        sws = compose(s, compose(w, s))
        rows.append(basis.index[sws])
        signs.append(-1 if sws == w and descent(w) else 1)
    return SignedPermMatrix(basis.dim, tuple(rows), tuple(signs))


def rho_generator_matrix(i: int, basis: ModelBasis) -> SignedPermMatrix:
    """Action of s_i from the two-case sign rule (no inversion counting)."""
    s = perm.generator(basis.n, i)
    return signed_conjugation(basis, s, perm.compose, lambda w: w[i - 1] > w[i])


@lru_cache(maxsize=None)
def _basis_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 2-cycles of every involution of model_basis(n), in basis order."""
    return tuple(perm.involution_pairs(w) for w in model_basis(n).involutions)


def rho_matrix(p: Window, basis: ModelBasis) -> SignedPermMatrix:
    """Action of an arbitrary permutation via the inversion-count sign.

    Computed for each basis element on its own, never as a product over a
    generator word, so that the multiplicativity check compares two
    independent constructions.
    """
    n = basis.n
    if len(p) != n:
        raise ValueError(f"size mismatch: {len(p)} vs n={n}")
    p_inv = perm.inverse(p)
    image = (0, *p)  # image[i] = p(i), indexed from 1
    rows = []
    signs = []
    for w, pairs in zip(basis.involutions, _basis_pairs(n)):
        # p w p^-1, read off position by position.
        rows.append(basis.index[tuple([image[w[j - 1]] for j in p_inv])])
        sign = 1
        for a, b in pairs:
            if image[a] > image[b]:
                sign = -sign
        signs.append(sign)
    return SignedPermMatrix(basis.dim, tuple(rows), tuple(signs))


def rho_character(p: Window, basis: ModelBasis) -> int:
    """Trace of the action: signed count of involutions centralizing p."""
    total = 0
    for w in basis.involutions:
        if perm.conjugate(p, w) == w:
            total += -1 if inv_w(p, w) % 2 else 1
    return total


def _pair_partitions(d: int, k: int) -> int:
    """Ways to choose k disjoint unordered pairs from d labeled items."""
    return factorial(d) // (factorial(d - 2 * k) * 2**k * factorial(k))


def square_root_factor(r: int, d: int) -> int:
    """Square roots of a product of d disjoint r-cycles, confined to its letters.

    Roots either pair two r-cycles into a 2r-cycle (r ways per pair) or, for
    odd r only, fix a cycle and take its unique internal root.
    """
    if d == 0:
        return 1
    if r % 2 == 0 and d % 2 == 1:
        return 0
    if r % 2 == 0:
        return _pair_partitions(d, d // 2) * r ** (d // 2)
    return sum(_pair_partitions(d, k) * r**k for k in range(d // 2 + 1))


def fs_count_formula(mult: Mapping[int, int]) -> int:
    """Product formula for the square-root count of a cycle type.

    ``mult`` maps cycle length r to its multiplicity d_r.
    """
    total = 1
    for r, d in sorted(mult.items()):
        total *= square_root_factor(r, d)
    return total


def orbit_under_pair(i: int, w: Window) -> frozenset[Window]:
    """Conjugation orbit of the involution w under <s_i, s_{i+1}>."""
    n = len(w)
    if not 1 <= i <= n - 2:
        raise ValueError(f"need 1 <= i <= n-2, got i={i} for n={n}")
    gens = [perm.generator(n, i), perm.generator(n, i + 1)]
    return frozenset(perm.bfs(w, lambda v: [perm.compose(s, perm.compose(v, s)) for s in gens]))


def pair_orbits(n: int) -> Iterator[tuple[int, Window, frozenset[Window]]]:
    """Every distinct <s_i, s_{i+1}> orbit of the basis once, for i = 1..n-2.

    Yields (i, w, orbit), with w the orbit's first involution in basis order.
    """
    for i in range(1, n - 1):
        seen: set[Window] = set()
        for w in model_basis(n).involutions:
            if w not in seen:
                orbit = orbit_under_pair(i, w)
                seen |= orbit
                yield i, w, orbit


def sign_cocycle_witness(
    n: int, trials: int, rng: random.Random
) -> tuple[Window, Window, Window] | None:
    """Search for a failure of the multiplicativity of (-1)^inv_w.

    Returns a violating (sigma, pi, w) triple, or None after ``trials``
    random triples.
    """
    basis = model_basis(n)
    for _ in range(trials):
        sigma = perm.random_window(n, rng)
        pi = perm.random_window(n, rng)
        w = rng.choice(basis.involutions)
        lhs = (-1) ** inv_w(perm.compose(sigma, pi), w)
        rhs = (-1) ** inv_w(pi, w) * (-1) ** inv_w(sigma, perm.conjugate(pi, w))
        if lhs != rhs:
            return sigma, pi, w
    return None


def _descent_equivalence_holds(i: int, orbit: frozenset[Window]) -> bool:
    """Check the end-to-end descent equivalence in a size-3 orbit.

    One end v of the chain is fixed by one of the two generators a; the other
    end u = a b v b a is fixed by b, and a is a descent of v exactly when b is
    a descent of u.
    """
    n = len(next(iter(orbit)))
    found = False
    for a, b in ((i, i + 1), (i + 1, i)):
        sa = perm.generator(n, a)
        sb = perm.generator(n, b)
        for v in orbit:
            if perm.compose(sa, perm.compose(v, sa)) != v:
                continue
            m = perm.compose(sb, perm.compose(v, sb))
            u = perm.compose(sa, perm.compose(m, sa))
            if len({v, m, u}) != 3 or perm.compose(sb, perm.compose(u, sb)) != u:
                continue
            found = True
            if (a in perm.descent_set(v)) != (b in perm.descent_set(u)):
                return False
    return found


def orbit_checks(n: int) -> list[Check]:
    """Orbit sizes are 1, 3 or 6; size-3 orbits satisfy the descent equivalence."""
    sizes_seen: dict[int, int] = {}
    bad_size = None
    bad_equiv = None
    for i, w, orbit in pair_orbits(n):
        sizes_seen[len(orbit)] = sizes_seen.get(len(orbit), 0) + 1
        if len(orbit) not in (1, 3, 6):
            bad_size = (i, w, len(orbit))
        elif len(orbit) == 3 and not _descent_equivalence_holds(i, orbit):
            bad_equiv = (i, w)
    size_detail = (
        f"orbit size counts {dict(sorted(sizes_seen.items()))}"
        if bad_size is None
        else f"orbit of size {bad_size[2]} at i={bad_size[0]}, w={bad_size[1]}"
    )
    equiv_detail = (
        f"{sizes_seen.get(3, 0)} size-3 orbits checked"
        if bad_equiv is None
        else f"fails at i={bad_equiv[0]}, orbit of {bad_equiv[1]}"
    )
    return [
        Check("orbit sizes in {1, 3, 6}", bad_size is None, size_detail),
        Check("descent equivalence in size-3 orbits", bad_equiv is None, equiv_detail),
    ]


def relation_checks(
    gens: Mapping[int, Any],
    square_holds: Callable[[Any], bool],
    square_name: str,
    braid_name: str = "braid relation for adjacent generators",
) -> tuple[Check, ...]:
    """The square (or quadratic), commute and braid checks on generator matrices.

    ``gens`` maps each generator index to its matrix and ``square_holds``
    tests one generator.  Generators i and j > i + 1 must commute; the braid
    relation is checked for s_i, s_{i+1} with 1 <= i < max(gens), which
    leaves out the pair s_0, s_1 of type B.
    """
    squares = [f"i={i}" for i, m in gens.items() if not square_holds(m)]
    commute = [
        f"{(i, j)}"
        for i in gens
        for j in gens
        if j > i + 1 and gens[i] @ gens[j] != gens[j] @ gens[i]
    ]
    braid = [
        f"i={i}"
        for i in range(1, max(gens))
        if gens[i] @ gens[i + 1] @ gens[i] != gens[i + 1] @ gens[i] @ gens[i + 1]
    ]
    named = ((square_name, squares), ("distant generators commute", commute), (braid_name, braid))
    return tuple(Check(name, not bad, f"fails at {bad[0]}" if bad else "") for name, bad in named)


def check_verify_caps(n: int, slow: bool = False) -> None:
    """Refuse an n that verify_sn_model or its square-root oracle would reject."""
    name = "verify_sn_slow" if slow else "verify_sn"
    require(name, n)
    if n < 2:
        raise CapacityError(f"verify_sn_model needs 2 <= n <= {cap(name)}, got {n}")
    require("square_roots", n)


def verify_sn_model(n: int, *, seed: int = 0, slow: bool = False) -> Report:
    """Check the defining relations, homomorphy and the character identities.

    ``slow`` raises the size cap from ``verify_sn`` to ``verify_sn_slow``.
    The square-root counts on every class come from one shared exhaustive
    sweep of S_n (see ``perm.square_roots_count``).
    """
    check_verify_caps(n, slow)
    basis = model_basis(n)
    rng = random.Random(seed)
    checks: list[Check] = []
    gens = {i: rho_generator_matrix(i, basis) for i in range(1, n)}
    ident = SignedPermMatrix.identity(basis.dim)

    agree = [i for i in gens if gens[i] != rho_matrix(perm.generator(n, i), basis)]
    checks.append(
        Check(
            "sign rule and inversion count give the same generator action",
            not agree,
            f"generators s_1..s_{n - 1}" if not agree else f"disagree at i={agree[0]}",
        )
    )

    checks.extend(
        relation_checks(gens, lambda m: m @ m == ident, "generator squares are the identity")
    )

    if n <= ALL_PAIRS_CAP:
        import itertools

        mats = {
            p: rho_matrix(p, basis)
            for p in map(tuple, itertools.permutations(range(1, n + 1)))
        }
        hom_bad = None
        for sigma, ms in mats.items():
            for pi, mp in mats.items():
                if mats[perm.compose(sigma, pi)] != ms @ mp:
                    hom_bad = (sigma, pi)
                    break
            if hom_bad:
                break
        hom_detail = f"all {len(mats) ** 2} pairs"
    else:
        hom_bad = None
        for _ in range(SAMPLED_PAIRS):
            sigma = perm.random_window(n, rng)
            pi = perm.random_window(n, rng)
            lhs = rho_matrix(perm.compose(sigma, pi), basis)
            if lhs != rho_matrix(sigma, basis) @ rho_matrix(pi, basis):
                hom_bad = (sigma, pi)
                break
        hom_detail = f"{SAMPLED_PAIRS} seeded random pairs"
    checks.append(
        Check(
            "action is multiplicative",
            hom_bad is None,
            hom_detail if hom_bad is None else f"fails at sigma={hom_bad[0]}, pi={hom_bad[1]}",
        )
    )

    witness = sign_cocycle_witness(n, SAMPLED_TRIPLES, rng)
    checks.append(
        Check(
            "sign cocycle identity",
            witness is None,
            f"{SAMPLED_TRIPLES} seeded random triples"
            if witness is None
            else f"fails at sigma={witness[0]}, pi={witness[1]}, w={witness[2]}",
        )
    )

    checks.extend(orbit_checks(n))

    char_bad = None
    for ct, rep in perm.conjugacy_class_reps(n):
        tr = rho_character(rep, basis)
        brute = perm.square_roots_count(rep)
        formula = fs_count_formula(perm.multiplicities(ct))
        if not tr == brute == formula:
            char_bad = (ct, tr, brute, formula)
            break
    checks.append(
        Check(
            "trace = square-root count = product formula on every class",
            char_bad is None,
            f"{len(list(perm.partitions(n)))} classes checked"
            if char_bad is None
            else "class {}: trace={} square_roots={} formula={}".format(*char_bad),
        )
    )

    return Report("sn", n, tuple(checks))
