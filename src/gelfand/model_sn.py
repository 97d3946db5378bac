"""Signed-conjugation model for S_n on the basis of involutions.

A permutation p acts on the basis vector C_w by sending it to
(-1)^(inv_w(p)) * C_{p w p^-1}, where inv_w counts inversions of p that are
2-cycles of w.  On an adjacent transposition s this sign is -1 exactly when
s fixes w by conjugation and is a descent of w.  The trace of the action
equals both the number of square roots (by exhaustive search) and a product
formula over the cycle type, which is what ``verify_sn_model`` checks.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache, partial
from math import factorial
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

from . import perm
from .errors import require, require_suite
from .perm import Partition, Window
from .report import Check, Report, first_failure

ALL_PAIRS_CAP = 5
SAMPLED_PAIRS = 200
SAMPLED_TRIPLES = 200


class ModelBasis(NamedTuple):
    """Involutions of S_n in canonical (lexicographic window) order."""

    n: int
    involutions: tuple[Window, ...]
    index: Mapping[Window, int]

    @property
    def dim(self) -> int:
        return len(self.involutions)


@lru_cache(maxsize=None)
def model_basis(n: int) -> ModelBasis:
    invs = tuple([w for w, _, _ in perm.involution_walk(n)])
    return ModelBasis(n=n, involutions=invs, index={w: i for i, w in enumerate(invs)})


@lru_cache(maxsize=None)
def conjugates(n: int, i: int) -> tuple[int, ...]:
    """The basis index of s_i w s_i for each w of ``model_basis(n)``, conjugated as windows.

    Every reader of conjugation by s_i on the basis reads this table: the
    generator matrices and row kernel, the orbit walks, the Hecke cases and
    covers, and the length BFS.  w s_i swaps the positions i and i+1 of w;
    s_i then swaps the values i and i+1, which w s_i holds at the positions
    s_i(w(i)) and s_i(w(i+1)), as w is an involution.  An i outside 1..n-1
    raises ValueError.
    """
    if not 1 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    basis = model_basis(n)
    index = basis.index
    swap = {i: i + 1, i + 1: i}
    out = []
    for w in basis.involutions:
        v = list(w)
        a, b = v[i - 1], v[i]
        v[i - 1], v[i] = b, a
        v[swap.get(a, a) - 1], v[swap.get(b, b) - 1] = i + 1, i
        out.append(index[tuple(v)])
    return tuple(out)


class SignedPermMatrix(NamedTuple):
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
        rows = tuple([self.rows[r] for r in other.rows])
        signs = tuple([self.signs[r] * s for r, s in zip(other.rows, other.signs)])
        return SignedPermMatrix(self.dim, rows, signs)

    def trace(self) -> int:
        return sum(s for c, (r, s) in enumerate(zip(self.rows, self.signs)) if r == c)

    def entry_dict(self) -> dict[tuple[int, int], int]:
        return {(r, c): s for c, (r, s) in enumerate(zip(self.rows, self.signs))}

    def cells(self) -> Iterator[tuple[int, int, list[int]]]:
        """(row, col, [sign]) for every entry, made one at a time in (row, col) order."""
        col_of_row = sorted(range(self.dim), key=self.rows.__getitem__)
        return ((r, c, [self.signs[c]]) for r, c in enumerate(col_of_row))


def inv_w(p: Window, w: Window) -> int:
    """Number of 2-cycles of the involution w that p inverts."""
    if len(p) != len(w):
        raise ValueError(f"size mismatch: {len(p)} vs {len(w)}")
    return sum(1 for a, b in perm.involution_pairs(w) if p[a - 1] > p[b - 1])


def signed_conjugation(
    basis: ModelBasis, rows: Sequence[int], descent: Callable[[Any], bool]
) -> SignedPermMatrix:
    """Action of an involutive generator s: C_w goes to -C_w or to C_{s w s}.

    ``rows[c]`` is the basis index of s w s for w = basis.involutions[c].
    The sign is -1 exactly when s fixes w by conjugation and ``descent(w)``
    holds.  S_n passes its ``conjugates`` table and B_n its own rows, so both
    build their generator matrices here.
    """
    invs = basis.involutions
    signs = [-1 if r == c and descent(invs[c]) else 1 for c, r in enumerate(rows)]
    return SignedPermMatrix(basis.dim, tuple(rows), tuple(signs))


def rho_generator_matrix(i: int, basis: ModelBasis) -> SignedPermMatrix:
    """Action of s_i from the two-case sign rule (no inversion counting)."""
    return signed_conjugation(basis, conjugates(basis.n, i), lambda w: w[i - 1] > w[i])


@lru_cache(maxsize=None)
def _pair_codes(n: int) -> tuple[dict[tuple[int, int], int], list[tuple[int, int]], dict[int, int]]:
    """Index k of each pair a < b; (parent index, k of the last 2-cycle) for each basis
    involution after the identity; and the basis index of each involution keyed by its
    bitmask, sum of 2^k.  The parent, w without its last 2-cycle, is lexicographically
    smaller than w, so it comes earlier in the basis."""
    pair_index = {ab: k for k, ab in enumerate(itertools.combinations(range(1, n + 1), 2))}
    code_index: dict[int, int] = {}
    tree = []
    for j, w in enumerate(model_basis(n).involutions):
        ks = [pair_index[a, x] for a, x in enumerate(w, 1) if x > a]
        code = sum(1 << k for k in ks)
        code_index[code] = j
        if ks:
            tree.append((code_index[code - (1 << ks[-1])], ks[-1]))
    return pair_index, tree, code_index


def rho_matrix(p: Window, basis: ModelBasis) -> SignedPermMatrix:
    """Action of an arbitrary permutation via the inversion-count sign.

    The 2-cycles of p w p^-1 are the (p(a) p(b)) for the 2-cycles (a b) of w,
    and the sign counts the (a b) that p inverts.  So each pair a < b gets the
    step (bit of its image pair) << 4 | inverted, and the sum of the steps of
    w's 2-cycles gives the row by its bitmask and the sign by its parity (the
    four low bits hold the at most n/2 inversions while n < 32).  The sums
    are taken along the basis tree of ``_pair_codes``: w's sum is its parent's
    plus the step of its last 2-cycle, one addition per element.  Each element
    is computed on its own, never as a product over a generator word, so that
    the multiplicativity check compares two independent constructions.
    """
    n = basis.n
    if len(p) != n:
        raise ValueError(f"size mismatch: {len(p)} vs n={n}")
    pair_index, tree, code_index = _pair_codes(n)
    step = []
    for a, b in pair_index:
        x, y = p[a - 1], p[b - 1]
        step.append(1 << pair_index[min(x, y), max(x, y)] << 4 | (x > y))
    sums = [0]
    for parent, k in tree:
        sums.append(sums[parent] + step[k])
    rows = tuple([code_index[s >> 4] for s in sums])
    return SignedPermMatrix(basis.dim, rows, tuple([-1 if s & 1 else 1 for s in sums]))


def rho_character(p: Window, basis: ModelBasis) -> int:
    """Trace of the action: signed count of involutions centralizing p."""
    return rho_matrix(p, basis).trace()


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


def class_traces(n: int, mu: Partition | None = None) -> Iterator[tuple[Partition, int, int, int]]:
    """(class, trace, square-root count, product formula) per cycle type, or for ``mu`` alone.

    The ``square_roots`` cap is checked before the basis is built.  The
    square-root counts of all the rows come from one exhaustive sweep of S_n
    that counts only their representatives.

    >>> list(class_traces(3))
    [((3,), 1, 1, 1), ((2, 1), 0, 0, 0), ((1, 1, 1), 4, 4, 4)]
    """
    require("square_roots", n)
    basis = model_basis(n)
    reps = [(ct, rep) for ct, rep in perm.conjugacy_class_reps(n) if mu is None or ct == mu]
    roots = perm.square_root_counts(
        itertools.permutations(range(1, n + 1)), perm.compose, [rep for _, rep in reps]
    )
    for ct, rep in reps:
        yield ct, rho_character(rep, basis), roots[rep], fs_count_formula(perm.multiplicities(ct))


def orbit_walk(i: int, w: Window) -> tuple[tuple[Window, ...], tuple[int, int] | None]:
    """The conjugation orbit of the involution w under <s_i, s_{i+1}>, as (walk, ends).

    Conjugation by s_i and by s_{i+1} are involutions of the basis, so the
    orbit is a path or a cycle whose steps alternate between them.  A path
    is walked end to end, and ``ends`` names the generators fixing walk[0]
    and walk[-1].  A cycle has no fixed end: it is walked from w, s_i first,
    and ``ends`` is None.  The steps are read off the ``conjugates`` tables of
    s_i and s_{i+1} by basis index.  An i outside 1..n-2 raises ValueError.

    >>> orbit_walk(1, (2, 1, 3))
    (((1, 3, 2), (3, 2, 1), (2, 1, 3)), (2, 1))
    """
    basis = model_basis(len(w))
    tables = (conjugates(basis.n, i), conjugates(basis.n, i + 1))
    invs, start = basis.involutions, basis.index[w]
    walk, ends, k = [start], [], 0
    while len(ends) < 2:
        v = tables[k][walk[-1]]
        if v == walk[-1]:
            # An end, fixed by s_{i+k}: turn round and walk on from w by s_{i+1}.
            ends.insert(0, i + k)
            walk.reverse()
            k = 1
        elif v == start:
            return tuple([invs[c] for c in walk]), None
        else:
            walk.append(v)
            k = 1 - k
    return tuple([invs[c] for c in walk]), (ends[0], ends[1])


def pair_orbits(n: int) -> Iterator[tuple[int, tuple[Window, ...], tuple[int, int] | None]]:
    """Each distinct <s_i, s_{i+1}> orbit of the basis once as (i, walk, ends), i = 1..n-2."""
    for i in range(1, n - 1):
        seen: set[Window] = set()
        for w in model_basis(n).involutions:
            if w not in seen:
                walk, ends = orbit_walk(i, w)
                seen.update(walk)
                yield i, walk, ends


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


def orbit_checks(n: int) -> list[Check]:
    """Orbit sizes are 1, 3 or 6; size-3 orbits satisfy the descent equivalence.

    A size-3 orbit is a path v - m - u with v fixed by s_a and u by s_b, and
    a is a descent of v exactly when b is a descent of u.
    """
    orbits = list(pair_orbits(n))
    sizes = Counter(len(walk) for _, walk, _ in orbits)
    return [
        first_failure(
            "orbit sizes in {1, 3, 6}",
            (
                f"orbit of size {len(walk)} at i={i}, w={min(walk)}"
                for i, walk, _ in orbits
                if len(walk) not in (1, 3, 6)
            ),
            f"orbit size counts {dict(sorted(sizes.items()))}",
        ),
        first_failure(
            "descent equivalence in size-3 orbits",
            (
                f"fails at i={i}, orbit of {min(walk)}"
                for i, walk, ends in orbits
                if len(walk) == 3
                and (ends[0] in perm.descent_set(walk[0]))
                != (ends[1] in perm.descent_set(walk[-1]))
            ),
            f"{sizes[3]} size-3 orbits checked",
        ),
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
    squares = (f"fails at i={i}" for i, m in gens.items() if not square_holds(m))
    commute = (
        f"fails at {(i, j)}"
        for i in gens
        for j in gens
        if j > i + 1 and gens[i] @ gens[j] != gens[j] @ gens[i]
    )
    braid = (
        f"fails at i={i}"
        for i in range(1, max(gens))
        if gens[i] @ gens[i + 1] @ gens[i] != gens[i + 1] @ gens[i] @ gens[i + 1]
    )
    return (
        first_failure(square_name, squares),
        first_failure("distant generators commute", commute),
        first_failure(braid_name, braid),
    )


def verify_sn_model(n: int, *, seed: int = 0) -> Report:
    """Check the defining relations, homomorphy and the character identities.

    ``seed`` drives the sampled homomorphy pairs.  The square-root counts on
    every class come from one exhaustive sweep of S_n that counts the class
    representatives alone (see ``class_traces``).
    """
    require_suite("sn", n)
    basis = model_basis(n)
    rng = random.Random(seed)
    gens = {i: rho_generator_matrix(i, basis) for i in range(1, n)}
    ident = SignedPermMatrix.identity(basis.dim)
    checks = [
        first_failure(
            "sign rule and inversion count give the same generator action",
            (
                f"disagree at i={i}"
                for i, m in gens.items()
                if m != rho_matrix(perm.generator(n, i), basis)
            ),
            f"generators s_1..s_{n - 1}",
        ),
        *relation_checks(gens, lambda m: m @ m == ident, "generator squares are the identity"),
    ]

    if n <= ALL_PAIRS_CAP:
        mats = {p: rho_matrix(p, basis) for p in itertools.permutations(range(1, n + 1))}
        rho = mats.__getitem__
        pairs = itertools.product(mats, repeat=2)
        hom_detail = f"all {len(mats) ** 2} pairs"
    else:
        rho = partial(rho_matrix, basis=basis)
        pairs = (
            (perm.random_window(n, rng), perm.random_window(n, rng)) for _ in range(SAMPLED_PAIRS)
        )
        hom_detail = f"{SAMPLED_PAIRS} seeded random pairs"
    checks.append(
        first_failure(
            "action is multiplicative",
            (
                f"fails at sigma={sigma}, pi={pi}"
                for sigma, pi in pairs
                if rho(perm.compose(sigma, pi)) != rho(sigma) @ rho(pi)
            ),
            hom_detail,
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

    rows = list(class_traces(n))
    checks.append(
        first_failure(
            "trace = square-root count = product formula on every class",
            (
                f"class {ct}: trace={tr} square_roots={roots} formula={formula}"
                for ct, tr, roots, formula in rows
                if not tr == roots == formula
            ),
            f"{len(rows)} classes checked",
        )
    )

    return Report("sn", n, tuple(checks))
