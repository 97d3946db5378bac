"""q-deformation of the signed-conjugation model, acting on involutions.

The generator T_i acts on C_w through four cases: -q C_w or C_w when s_i
fixes w by conjugation (descent or not), and (1-q) C_w + q C_{s w s} or
C_{s w s} when conjugation moves w up or down in the involutive weak order.
The case of each (s_i, w) is read once per generator; the columns of T_i and
its rows are both built from that reading and the ``conjugates`` table.
The weak order is graded by the involutive length, read off
``perm.involution_walk`` as a tuple in basis order, and so indexed as
``model_sn.conjugates`` is; a closed formula and a BFS oracle check it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterator, Literal, Mapping, Sequence

from . import perm
from .errors import CapacityError, InternalConsistencyError, require, require_suite
from .model_sn import (
    ModelBasis, conjugates, model_basis, pair_orbits, relation_checks, rho_generator_matrix
)
from .perm import Partition, Window
from .qpoly import ONE, Q, SHIFT, PolyMatrix, QPoly, minus_q_sum, pack, unpack
from .qpoly import minus_q_power  # noqa: F401 (perfbench probes it)
from .report import Check, Report, first_failure

CaseTag = Literal["fixed_descent", "fixed_nondescent", "up", "down"]


def minimal_involution(n: int, k: int) -> Window:
    """s_1 s_3 ... s_{2k-1}: the base point of the involutions with k 2-cycles."""
    w = list(range(1, n + 1))
    for i in range(k):
        w[2 * i], w[2 * i + 1] = w[2 * i + 1], w[2 * i]
    return tuple(w)


def involutive_length(w: Window) -> int:
    """Closed formula: excess support sum plus half the excess inversions.

    The reference that the tests compare ``perm.involution_walk``'s lengths
    and the BFS oracle against; the model's grading reads the walk.

    >>> involutive_length((2, 1, 4, 3))
    0
    >>> involutive_length((4, 3, 2, 1))
    2
    """
    # w permutes its support, so the values on the support sum to the support
    # and compare as their ranks do.
    vals = [x for i, x in enumerate(w, 1) if x != i]
    restricted = 0
    seen: list[int] = []
    for b in vals:
        for a in seen:
            if a > b:
                restricted += 1
        seen.append(b)
    k = len(vals) // 2
    half, rem = divmod(restricted - k, 2)
    if rem:
        raise InternalConsistencyError(f"odd inversion excess for {w}")
    return sum(vals) - k * (2 * k + 1) + half


@lru_cache(maxsize=None)
def _conjugation_distances(n: int, k: int) -> dict[Window, int]:
    """BFS distances from the minimal involution in the conjugation graph.

    The distance to w equals the minimum length of a conjugator carrying the
    base point to w: a reduced word for any conjugator walks the graph one
    generator at a time, and any walk yields a conjugator of its length.
    """
    basis = model_basis(n)
    tables = [conjugates(n, i) for i in range(1, n)]
    paths = perm.bfs(basis.index[minimal_involution(n, k)], lambda c: [t[c] for t in tables])
    return {basis.involutions[c]: len(path) for c, path in paths.items()}


def involutive_length_oracle(w: Window) -> int:
    """Shortest-conjugator length of an involution by BFS, within the ``length_oracle`` cap."""
    n = len(w)
    require("length_oracle", n)
    if not perm.is_involution(w):
        raise ValueError(f"{w} is not an involution")
    return _conjugation_distances(n, len(perm.involution_pairs(w)))[w]


@lru_cache(maxsize=None)
def involutive_order(n: int) -> tuple[int, ...]:
    """The grading of the involutive weak order on I_n: each basis involution's
    length, in basis order, read off ``perm.involution_walk``."""
    return tuple([length for _, _, length in perm.involution_walk(n)])


def cover_edges(n: int) -> Iterator[tuple[int, int, int]]:
    """The covers (c, i, r) of the involutive weak order, as basis indices: r holds
    s_i w s_i one length above the w at c.  Yielded c-outer, then i, so sorted."""
    lengths = involutive_order(n)
    tables = [conjugates(n, i) for i in range(1, n)]
    return (
        (c, i, t[c])
        for c, length in enumerate(lengths)
        for i, t in enumerate(tables, 1)
        if lengths[t[c]] == length + 1
    )


def _case(c: int, r: int, i: int, invs: Sequence[Window], lengths: Sequence[int]) -> CaseTag:
    """The action case of s_i on the basis involution at c, whose conjugate is at r."""
    if r == c:
        w = invs[c]
        return "fixed_descent" if w[i - 1] > w[i] else "fixed_nondescent"
    delta = lengths[r] - lengths[c]
    if delta == 1:
        return "up"
    if delta == -1:
        return "down"
    raise InternalConsistencyError(
        f"conjugation by s_{i} changes the involutive length of {invs[c]} by {delta}"
    )


def order_relation(w: Window, i: int) -> CaseTag:
    """Which of the four action cases applies to (s_i, w)."""
    basis = model_basis(len(w))
    c = basis.index[w]
    return _case(c, conjugates(basis.n, i)[c], i, basis.involutions, involutive_order(basis.n))


def _case_tags(i: int, basis: ModelBasis) -> tuple[CaseTag, ...]:
    """The action case of s_i on every basis involution, in basis order.

    The one reading of the four cases per generator: ``rho_q_generator``
    builds T_i's columns from it and ``row_times_generator`` T_i's rows.
    """
    lengths = involutive_order(basis.n)
    invs = basis.involutions
    return tuple([_case(c, r, i, invs, lengths) for c, r in enumerate(conjugates(basis.n, i))])


def rho_q_generator(i: int, basis: ModelBasis) -> PolyMatrix:
    """Matrix of T_i: at most two nonzero entries per column, of coefficient 1-norm <= 3."""
    q = pack(Q)
    cols = []
    for c, (r, tag) in enumerate(zip(conjugates(basis.n, i), _case_tags(i, basis))):
        if tag == "fixed_descent":
            cols.append({c: -q})
        elif tag == "fixed_nondescent":
            cols.append({c: 1})
        elif tag == "up":
            cols.append({c: 1 - q, r: q})
        else:
            cols.append({r: 1})
    return PolyMatrix(basis.dim, tuple(cols))


def row_times_generator(
    vec: Mapping[int, int], table: Sequence[int], tags: Sequence[CaseTag]
) -> dict[int, int]:
    """The row vector ``vec`` times T_i, given T_i's ``conjugates`` table and ``_case_tags``.

    Vectors are stored as index -> packed entry, as matrix columns are.  Row k
    of T_i is {k: -q} at a fixed descent, {k: 1} at a fixed non-descent,
    {k: 1 - q, r: 1} when k moves up to r = table[k] and {r: q} when it moves
    down to r: the columns of ``rho_q_generator`` read across.
    """
    acc: dict[int, int] = {}
    for k, b in vec.items():
        tag = tags[k]
        if tag == "fixed_descent":
            acc[k] = acc.get(k, 0) - (b << SHIFT)
        elif tag == "fixed_nondescent":
            acc[k] = acc.get(k, 0) + b
        elif tag == "up":
            r = table[k]
            acc[k] = acc.get(k, 0) + b - (b << SHIFT)
            acc[r] = acc.get(r, 0) + b
        else:
            r = table[k]
            acc[r] = acc.get(r, 0) + (b << SHIFT)
    return {c: v for c, v in acc.items() if v} if 0 in acc.values() else acc


def _require_exact(dim: int, word: list[int] | tuple[int, ...]) -> None:
    """Refuse a word whose trace bound dim * 3^len(word) leaves the packed digits (see SHIFT)."""
    if dim * 3 ** len(word) >= 1 << (SHIFT - 1):
        raise CapacityError(f"a word of {len(word)} letters at dim {dim} is past the packed bound")


def rho_q_word_cells(
    word: list[int] | tuple[int, ...], basis: ModelBasis
) -> Iterator[tuple[int, int, list[int]]]:
    """The nonzero cells (row, col, coefficient list) of the product T_{i1} ... T_{iL}.

    Row r is e_r^T T_{i1} ... T_{iL}, one ``row_times_generator`` step per
    letter; its cells come in column order, unpacked, before the next row is
    made, so no generator or product matrix is held.  The packed bound and
    every letter's case tags are checked here, before the first cell, so a
    refusal or a broken grading is raised before any output.
    """
    _require_exact(basis.dim, word)
    steps = {i: (conjugates(basis.n, i), _case_tags(i, basis)) for i in set(word)}
    letters = [steps[i] for i in word]

    def cells() -> Iterator[tuple[int, int, list[int]]]:
        for r in range(basis.dim):
            vec = {r: 1}
            for table, tags in letters:
                vec = row_times_generator(vec, table, tags)
            cols = sorted(vec)
            yield from zip(itertools.repeat(r), cols, unpack([vec[c] for c in cols]))

    return cells()


def t_mu_word(mu: Partition) -> list[int]:
    """Indices 1..n-1 with the partial sums of mu left out.

    >>> t_mu_word((2, 1))
    [1]
    """
    cuts = set(itertools.accumulate(mu))
    return [i for i in range(1, sum(mu)) if i not in cuts]


def mu_descent_number(w: Window, mu: Partition) -> int:
    """Descents of w that are not block boundaries of mu: the one count of mu-block descents."""
    cuts = set(itertools.accumulate(mu))
    return len([i for i in range(1, len(w)) if i not in cuts and w[i - 1] > w[i]])


def rho_q_trace(
    word: list[int] | tuple[int, ...], basis: ModelBasis, gens: Mapping[int, PolyMatrix]
) -> QPoly:
    """Trace of the word's product of ``gens`` matrices, by column action.

    ``gens`` maps each generator index to its matrix, built once by the
    caller.  For each basis vector e_c the word's generator columns act on
    e_c from right to left, on a vector stored as index -> packed entry; the
    coefficient of e_c is read off and summed over c into one packed total.
    No product matrix is formed, and each step touches only the nonzeros of
    the columns it reaches (at most two per column for the model's T_i).
    """
    _require_exact(basis.dim, word)
    total = 0
    for c in range(basis.dim):
        vec = {c: 1}
        for i in reversed(word):
            vec = gens[i].apply(vec)
        total += vec.get(c, 0)
    (coeffs,) = unpack([total])
    return QPoly(enumerate(coeffs))


def hecke_model_character(
    mu: Partition, basis: ModelBasis, gens: Mapping[int, PolyMatrix]
) -> QPoly:
    """Trace of the model at the subproduct element T_{w_mu}, from prebuilt ``gens``."""
    return rho_q_trace(t_mu_word(mu), basis, gens)


def mu_unimodal_character(mu: Partition) -> QPoly:
    """Signed generating function over mu-unimodal involutions.

    >>> mu_unimodal_character((3,))
    QPoly('1 - q + q^2')
    """
    invs = model_basis(sum(mu)).involutions
    return minus_q_sum(mu_descent_number(w, mu) for w in invs if perm.is_mu_unimodal(w, mu))


def type_traces(
    basis: ModelBasis, gens: Mapping[int, PolyMatrix], mu: Partition | None = None
) -> Iterator[tuple[Partition, QPoly, QPoly]]:
    """(mu, column-action trace at T_{w_mu}, signed unimodal sum) per type, or for ``mu`` alone.

    >>> basis = model_basis(3)
    >>> list(type_traces(basis, {i: rho_q_generator(i, basis) for i in (1, 2)}, (3,)))
    [((3,), QPoly('1 - q + q^2'), QPoly('1 - q + q^2'))]
    """
    for m in perm.partitions(basis.n) if mu is None else [mu]:
        yield m, hecke_model_character(m, basis, gens), mu_unimodal_character(m)


def _orbit_interval_witnesses(n: int) -> Iterator[str]:
    """A witness for every <s_i, s_{i+1}> orbit of the wrong shape in the weak order.

    Size-1 orbits are doubly fixed without descents, size-3 orbits are chains
    of consecutive lengths, and size-6 orbits are hexagons: cycles whose
    lengths, going round from the bottom, are lo, lo+1, lo+2, lo+3, lo+2, lo+1.
    """
    lengths = involutive_order(n)
    index = model_basis(n).index
    for i, walk, ends in pair_orbits(n):
        ring = [lengths[index[v]] for v in walk]
        levels = sorted(ring)
        lo = levels[0]
        if len(walk) == 1:
            w = walk[0]
            if {order_relation(w, i), order_relation(w, i + 1)} != {"fixed_nondescent"}:
                yield f"size-1 orbit with a descent: i={i}, w={w}"
        elif len(walk) == 3:
            if levels != [lo, lo + 1, lo + 2]:
                yield f"size-3 orbit not a chain: i={i}, levels={levels}"
        elif len(walk) == 6:
            k = ring.index(lo)
            if levels != [lo, lo + 1, lo + 1, lo + 2, lo + 2, lo + 3]:
                yield f"size-6 orbit not hexagonal: i={i}, levels={levels}"
            elif ends is not None or ring[k:] + ring[:k] != [lo + d for d in (0, 1, 2, 3, 2, 1)]:
                yield f"size-6 orbit lacks the hexagon structure: i={i}, w={walk[k]}"
        else:
            yield f"orbit of size {len(walk)} at i={i}, w={min(walk)}"


# The checks that read the T_i matrices, in report order.
_GENERATOR_CHECKS = (
    "quadratic relation (T + q)(T - 1) = 0 per generator",
    "distant generators commute",
    "braid relation for adjacent generators",
    "q=1 specialization equals the group model generators",
    "trace equals the signed unimodal-involution sum for every type",
)


def verify_hecke_model(n: int) -> Report:
    """Check the defining relations, the grading, and the trace identity."""
    require_suite("hecke", n)
    basis = model_basis(n)
    lengths = involutive_order(n)
    checks = [
        first_failure(
            "involutive length formula matches the BFS oracle",
            (
                f"fails at w={w}"
                for w, length in zip(basis.involutions, lengths)
                if length != involutive_length_oracle(w)
            ),
            f"{basis.dim} involutions",
        )
    ]

    invs = basis.involutions
    tables = [conjugates(n, i) for i in range(1, n)]
    case_bad = None
    try:
        tags = Counter(
            _case(c, t[c], i, invs, lengths)
            for c in range(basis.dim)
            for i, t in enumerate(tables, 1)
        )
    except InternalConsistencyError as exc:
        case_bad = str(exc)
    checks.append(
        Check(
            "every (generator, involution) pair falls in one of the four cases",
            case_bad is None,
            f"case counts {dict(sorted(tags.items()))}" if case_bad is None else case_bad,
        )
    )

    # Conjugation by s_i is an involution: the cover targets are those with a downward cover.
    covered = {r for _, _, r in cover_edges(n)}
    checks.append(
        first_failure(
            "every non-minimal involution has a downward cover",
            (f"fails at w={w}" for c, w in enumerate(invs) if lengths[c] > 0 and c not in covered),
        )
    )
    checks.append(
        first_failure(
            "orbit intervals are points, chains or hexagons", _orbit_interval_witnesses(n)
        )
    )

    try:
        gens = {i: rho_q_generator(i, basis) for i in range(1, n)}
    except InternalConsistencyError as exc:
        # No T_i without the grading, so every check below fails on it.
        checks.extend(Check(name, False, f"T_i not built: {exc}") for name in _GENERATOR_CHECKS)
        return Report("hecke", n, tuple(checks))
    ident = PolyMatrix.identity(basis.dim)
    checks.extend(
        relation_checks(
            gens,
            lambda m: m @ m == m.scale(ONE - Q).add(ident.scale(Q)),
            "quadratic relation (T + q)(T - 1) = 0 per generator",
        )
    )
    checks.append(
        first_failure(
            "q=1 specialization equals the group model generators",
            (
                f"fails at i={i}"
                for i, m in gens.items()
                if m.specialize(1) != rho_generator_matrix(i, basis).entry_dict()
            ),
        )
    )

    rows = list(type_traces(basis, gens))
    checks.append(
        first_failure(
            "trace equals the signed unimodal-involution sum for every type",
            (f"mu={mu}: trace={lhs} sum={rhs}" for mu, lhs, rhs in rows if lhs != rhs),
            f"{len(rows)} types checked",
        )
    )

    return Report("hecke", n, tuple(checks))


def poset_dot(n: int) -> Iterator[str]:
    """DOT rendering of the involutive weak order, clustered by cycle type, one line at a time.

    The node lines are grouped by cycle type before the first line; each edge
    line is made from its ``cover_edges`` triple as the covers are found.
    """
    by_type: dict[int, list[str]] = {}
    for idx, (_, cycles, length) in enumerate(perm.involution_walk(n)):
        by_type.setdefault(cycles.count("("), []).append(
            f'    v{idx} [label="{cycles}\\nlen={length}"];\n'
        )
    yield "digraph involutive_weak_order {\n"
    yield "  rankdir=BT;\n"
    yield "  node [shape=box];\n"
    for k in sorted(by_type):
        yield f"  subgraph cluster_{k} {{\n"
        yield f'    label="cycle type 2^{k} 1^{n - 2 * k}";\n'
        yield from by_type[k]
        yield "  }\n"
    for src, i, dst in cover_edges(n):
        yield f'  v{src} -> v{dst} [label="s{i}"];\n'
    yield "}\n"
