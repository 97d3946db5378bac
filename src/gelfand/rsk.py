"""Row insertion, standard tableaux, and classical character oracles.

Tableaux are tuples of strictly increasing row tuples.  The irreducible
Hecke character is assembled from mu-unimodal permutations with a fixed
insertion tableau, found by inverse insertion; the Murnaghan-Nakayama
recursion provides an independent integer oracle for its q=1 specialization.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterator

from . import model_hecke, model_sn, perm
from .errors import require, require_suite
from .model_hecke import model_basis, mu_descent_number
from .perm import Partition, Window
from .qpoly import ZERO, QPoly, minus_q_sum
from .report import Check, Report, first_failure

Tableau = tuple[tuple[int, ...], ...]


def shape(t: Tableau) -> Partition:
    return tuple(len(row) for row in t)


def is_standard(t: Tableau) -> bool:
    """Rows and columns strictly increase and the entries are exactly 1..n."""
    entries = [x for row in t for x in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in t:
        if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
            return False
    for r in range(1, len(t)):
        if len(t[r]) > len(t[r - 1]):
            return False
        if any(t[r][c] <= t[r - 1][c] for c in range(len(t[r]))):
            return False
    return True


def rs_insert(p: Window) -> tuple[Tableau, Tableau]:
    """Row insertion; returns the insertion and recording tableaux.

    >>> rs_insert((2, 1))
    (((1,), (2,)), ((1,), (2,)))
    """
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for step, x in enumerate(p, start=1):
        r = 0
        while True:
            if r == len(prows):
                prows.append([x])
                qrows.append([step])
                break
            row = prows[r]
            k = bisect.bisect_left(row, x)
            if k == len(row):
                row.append(x)
                qrows[r].append(step)
                break
            row[k], x = x, row[k]
            r += 1
    return tuple(map(tuple, prows)), tuple(map(tuple, qrows))


def rs_inverse(p: Tableau, q: Tableau) -> Window:
    """The permutation whose insertion and recording tableaux are p and q.

    Undoes row insertion one step at a time (Sagan, *The Symmetric Group*,
    section 3.1): the largest entry k left in q marks the cell that step k
    created; the entry of p in that cell is bumped back up through the rows
    above, each time displacing the largest smaller entry, and leaves the
    first row as the value w(k).

    >>> rs_inverse(((1, 3), (2,)), ((1, 2), (3,)))
    (2, 3, 1)
    """
    if shape(p) != shape(q):
        raise ValueError(f"shape mismatch: {shape(p)} vs {shape(q)}")
    prows = [list(row) for row in p]
    row_of = {x: r for r, row in enumerate(q) for x in row}
    w = [0] * len(row_of)
    for step in range(len(row_of), 0, -1):
        x = prows[row_of[step]].pop()
        for r in range(row_of[step] - 1, -1, -1):
            row = prows[r]
            k = bisect.bisect_left(row, x) - 1
            row[k], x = x, row[k]
        w[step - 1] = x
    return tuple(w)


def enumerate_syt(sh: Partition) -> list[Tableau]:
    """All standard tableaux of the shape, in placement order."""
    n = sum(sh)
    rows: list[list[int]] = [[] for _ in sh]
    out: list[Tableau] = []

    def place(v: int) -> None:
        if v > n:
            out.append(tuple(map(tuple, rows)))
            return
        for r, row in enumerate(rows):
            if len(row) < sh[r] and (r == 0 or len(rows[r - 1]) > len(row)):
                row.append(v)
                place(v + 1)
                row.pop()

    place(1)
    return out


def tableau_descent_set(q: Tableau) -> set[int]:
    """Indices i with i+1 strictly below i in the tableau."""
    row_of = {x: r for r, row in enumerate(q) for x in row}
    n = len(row_of)
    return {i for i in range(1, n) if row_of[i + 1] > row_of[i]}


def conjugate_partition(sh: Partition) -> Partition:
    if not sh:
        return ()
    return tuple(sum(1 for part in sh if part > c) for c in range(sh[0]))


def odd_columns(sh: Partition) -> int:
    """Number of columns of odd height.

    >>> odd_columns((3, 1))
    2
    """
    return sum(1 for h in conjugate_partition(sh) if h % 2)


def superstandard_tableau(sh: Partition) -> Tableau:
    """Rows filled consecutively left to right, top to bottom."""
    rows = []
    v = 1
    for part in sh:
        rows.append(tuple(range(v, v + part)))
        v += part
    return tuple(rows)


@lru_cache(maxsize=None)
def _insertion_table(p0: Tableau) -> tuple[Window, ...]:
    """The RS fibre of p0: every permutation whose insertion tableau is p0.

    By the RS bijection there is exactly one per recording tableau of the
    same shape, so the fibre is built by inverse insertion rather than by
    inserting all of S_n.
    """
    return tuple(rs_inverse(p0, q) for q in enumerate_syt(shape(p0)))


def irreducible_hecke_character(
    lam: Partition, mu: Partition, insertion_tableau: Tableau | None = None
) -> QPoly:
    """Signed sum of (-q)^(block descents) over mu-unimodal permutations
    whose insertion tableau is the chosen one of shape lam.

    The value does not depend on the choice of tableau.
    """
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("lam and mu must partition the same n")
    p0 = insertion_tableau if insertion_tableau is not None else superstandard_tableau(lam)
    if shape(p0) != tuple(lam) or not is_standard(p0):
        raise ValueError(f"{p0} is not a standard tableau of shape {lam}")
    return minus_q_sum(
        mu_descent_number(w, mu) for w in _insertion_table(p0) if perm.is_mu_unimodal(w, mu)
    )


def lambda_traces(
    lam: Partition, mu: Partition | None = None
) -> Iterator[tuple[Partition, QPoly, int]]:
    """(mu, character at T_{w_mu}, border-strip value at q=1) per type, or for ``mu`` alone.

    >>> list(lambda_traces((2, 1)))
    [((3,), QPoly('-q'), -1), ((2, 1), QPoly('1 - q'), 0), ((1, 1, 1), QPoly('2'), 2)]
    """
    for m in perm.partitions(sum(lam)) if mu is None else [mu]:
        yield m, irreducible_hecke_character(lam, m), mn_character(lam, m)


def _beta_to_partition(beta: tuple[int, ...]) -> Partition:
    m = len(beta)
    parts = tuple(beta[i] - (m - 1 - i) for i in range(m))
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric-group character value, by border-strip removal.

    >>> mn_character((2, 1), (3,))
    -1
    """
    if not mu:
        if lam:
            raise ValueError("size mismatch between lam and mu")
        return 1
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must partition the same n")
    k, rest = mu[0], mu[1:]
    m = len(lam)
    beta = tuple(lam[i] + (m - 1 - i) for i in range(m))
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b >= k and (b - k) not in beta_set:
            height = sum(1 for c in beta if b - k < c < b)
            new_beta = tuple(sorted([c for c in beta if c != b] + [b - k], reverse=True))
            total += (-1) ** height * mn_character(_beta_to_partition(new_beta), rest)
    return total


def involution_fixedpoint_vs_oddcolumns(n: int) -> Report:
    """Involutions with f fixed points are counted by tableaux with f odd columns."""
    require("fixedpoint_report", n)
    inv = Counter(len(perm.fixed_points(w)) for w in model_basis(n).involutions)
    syt = Counter(odd_columns(lam) for lam in perm.partitions(n) for _ in enumerate_syt(lam))
    checks = tuple(
        Check(
            f"{f} fixed points vs {f} odd columns",
            inv[f] == syt[f],
            f"{inv[f]} involutions, {syt[f]} tableaux",
        )
        for f in sorted(inv.keys() | syt.keys())
    )
    return Report("fixedpoints-vs-oddcolumns", n, checks)


def _insertion_witnesses(n: int) -> Iterator[str]:
    """A witness for every permutation of S_n on which row insertion fails:
    malformed or repeated output, inverse symmetry, the involution criterion
    or descent compatibility.
    """
    seen: dict[tuple[Tableau, Tableau], Window] = {}
    for w in itertools.permutations(range(1, n + 1)):
        p, q = rs_insert(w)
        if shape(p) != shape(q) or not is_standard(p) or not is_standard(q):
            yield f"malformed output at w={w}"
        elif (p, q) in seen:
            yield f"collision between w={seen[(p, q)]} and w={w}"
        elif rs_insert(perm.inverse(w)) != (q, p):
            yield f"inverse symmetry fails at w={w}"
        elif perm.is_involution(w) != (p == q):
            yield f"involution criterion fails at w={w}"
        elif perm.descent_set(w) != tableau_descent_set(q):
            yield f"descent compatibility fails at w={w}"
        seen.setdefault((p, q), w)


def verify_rsk(n: int) -> Report:
    """Insertion properties, the tableau-count identities, and the character
    cross-checks, each only at the n where its sweep stays cheap.

    All 7 checks run at n <= 5.  At n = 6, 7 and 8 three run: the insertion
    sweep over S_n, the tableau count and the fixed-point report.  The
    report does not yet mark the other four as skipped.
    """
    require_suite("rsk", n)
    checks = [
        first_failure(
            "insertion is injective with symmetric, descent-compatible output",
            _insertion_witnesses(n),
            f"all {factorial(n)} permutations",
        )
    ]
    # Built after the sweep, so they do not add to its peak memory.
    basis = model_basis(n)
    tableaux = {lam: enumerate_syt(lam) for lam in perm.partitions(n)}

    total_syt = sum(map(len, tableaux.values()))
    checks.append(
        Check(
            "tableau count equals involution count",
            total_syt == basis.dim,
            f"{total_syt} tableaux, {basis.dim} involutions",
        )
    )

    sub = involution_fixedpoint_vs_oddcolumns(n)
    checks.append(
        Check(
            "fixed-point counts match odd-column counts",
            sub.passed,
            "; ".join(f"{c.name}: {c.detail}" for c in sub.checks if not c.passed)
            or f"{len(sub.checks)} values of k",
        )
    )

    if n <= 5:
        gens = {i: model_hecke.rho_q_rows(i, basis) for i in range(1, n)}
        lams = list(tableaux)
        rows = [(lam, *row) for lam in lams for row in lambda_traces(lam)]
        checks += [
            first_failure(
                "irreducible characters sum to the model trace",
                (
                    f"mu={mu}"
                    for mu in lams
                    if sum((value for _, m, value, _ in rows if m == mu), ZERO)
                    != model_hecke.hecke_model_character(mu, basis, gens)
                ),
                f"{len(lams)} types checked",
            ),
            first_failure(
                "character value independent of the chosen tableau",
                (
                    f"lam={lam}, mu={mu}"
                    for lam, mu, *_ in rows
                    if len({irreducible_hecke_character(lam, mu, t) for t in tableaux[lam]}) != 1
                ),
            ),
            first_failure(
                "q=1 values match the border-strip recursion",
                (f"lam={lam}, mu={mu}" for lam, mu, value, mn in rows if value.evaluate(1) != mn),
            ),
            first_failure(
                "summed irreducible characters count square roots",
                (
                    f"mu={mu}"
                    for mu, _, roots, _ in model_sn.class_traces(n)
                    if sum(mn_character(lam, mu) for lam in lams) != roots
                ),
            ),
        ]

    return Report("rsk", n, tuple(checks))
