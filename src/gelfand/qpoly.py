"""Exact integer-coefficient polynomials in q and sparse square matrices over them.

The scalar ring is Z[q]; coefficients are Python ints.  A matrix column is a
dict row -> nonzero entry, each entry one int packed by Kronecker substitution
(see ``SHIFT``), so products, sums and comparisons are plain int arithmetic;
entries are unpacked only for output, into the coefficient lists that ``write_matrix`` prints.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, NamedTuple


class QPoly:
    """Polynomial in q, kept in canonical sparse form (no zero terms stored)."""

    __slots__ = ("_terms",)

    def __init__(self, coeffs: dict[int, int] | Iterable[tuple[int, int]] = ()):
        if not isinstance(coeffs, dict):
            acc: dict[int, int] = {}
            for deg, c in coeffs:
                acc[deg] = acc.get(deg, 0) + c
            coeffs = acc
        terms = sorted(coeffs.items())
        if terms and terms[0][0] < 0:
            raise ValueError("negative degree")
        self._terms = tuple(t for t in terms if t[1])

    @classmethod
    def constant(cls, c: int) -> "QPoly":
        return cls({0: c})

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._terms)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self._terms[-1][0] if self._terms else -1

    def evaluate(self, x):
        """Exact value at x; stays in int or Fraction arithmetic."""
        return sum((c * x**d for d, c in self._terms), x * 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for d, c in other._terms:
            acc[d] = acc.get(d, 0) + c
        return QPoly(acc)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({d: -c for d, c in self._terms})

    def __sub__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, int] = {}
        for d1, c1 in self._terms:
            for d2, c2 in other._terms:
                acc[d1 + d2] = acc.get(d1 + d2, 0) + c1 * c2
        return QPoly(acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _poly_text(self._terms)

    def __repr__(self) -> str:
        return f"QPoly('{self}')"


def _poly_text(terms: Iterable[tuple[int, int]]) -> str:
    """The text of sum c q^d over (degree d, coefficient c) terms in rising degree, such as
    ``1 - 2 q + q^3``; zero coefficients are skipped, and no term at all reads ``0``."""
    parts = []
    for d, c in terms:
        if not c:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        elif d == 1:
            body = "q" if mag == 1 else f"{mag} q"
        else:
            body = f"q^{d}" if mag == 1 else f"{mag} q^{d}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _coerce(x) -> "QPoly":
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly.constant(x)
    return NotImplemented


ZERO = QPoly()
ONE = QPoly.constant(1)
Q = QPoly({1: 1})


def minus_q_power(k: int) -> QPoly:
    """(-q)^k."""
    return QPoly({k: -1 if k % 2 else 1})


def minus_q_sum(degrees: Iterable[int]) -> QPoly:
    """The sum of (-q)^d over ``degrees``, repeats counted, built as one QPoly."""
    return QPoly({d: -m if d % 2 else m for d, m in Counter(degrees).items()})


# Kronecker substitution q = 2^SHIFT packs sum c_d q^d into the int sum c_d << SHIFT*d, a ring
# map Z[q] -> Z; unpacking (signed base-2^SHIFT digits) is exact while every |c_d| < 2^(SHIFT-1).
# Each Hecke T_i column has coefficient 1-norm at most 3, so a word of L letters gives entries
# below 3^L and a trace below dim * 3^L: at every cap (n <= 10 for ``matrix_hecke``) at most
# 9496 * 3^9 < 2^28.  ``model_hecke`` refuses any (dim, L) that this bound leaves above 2^63.
SHIFT = 64


def pack(f: QPoly | int) -> int:
    """f evaluated at q = 2^SHIFT."""
    return sum(c << SHIFT * d for d, c in _coerce(f)._terms)


def unpack(values: Iterable[int]) -> Iterator[list[int]]:
    """The coefficients [c_0, c_1, ..., c_degree] of each packed polynomial in ``values``."""
    half, base = 1 << SHIFT - 1, 1 << SHIFT
    for v in values:
        coeffs = []
        while v:
            c = (v + half) % base - half
            coeffs.append(c)
            v = (v - c) >> SHIFT
        yield coeffs


class PolyMatrix(NamedTuple):
    """Square matrix over Z[q]; column c maps each row to its nonzero entry, packed."""

    dim: int
    cols: tuple[dict[int, int], ...]

    @staticmethod
    def identity(dim: int) -> "PolyMatrix":
        return PolyMatrix(dim, tuple({i: 1} for i in range(dim)))

    @property
    def entries(self) -> dict[tuple[int, int, int], int]:
        """Flat view (row, col, q-degree) -> nonzero coefficient; builds no QPoly."""
        return {(r, c, d): a for r, c, coeffs in self.cells() for d, a in enumerate(coeffs) if a}

    def cells(self) -> list[tuple[int, int, list[int]]]:
        """(row, col, coefficient list) for every nonzero entry, in (row, col) order."""
        keys = [(r, c) for c, col in enumerate(self.cols) for r in col]
        values = unpack(v for col in self.cols for v in col.values())
        return sorted((r, c, coeffs) for (r, c), coeffs in zip(keys, values))

    def apply(self, vec: Mapping[int, int]) -> dict[int, int]:
        """This matrix times the column vector ``vec``, stored as the columns are."""
        cols = self.cols
        acc: dict[int, int] = {}
        for k, b in vec.items():
            for r, a in cols[k].items():
                acc[r] = acc.get(r, 0) + a * b
        return {r: v for r, v in acc.items() if v} if 0 in acc.values() else acc

    def _check_dim(self, other: "PolyMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_dim(other)
        return PolyMatrix(self.dim, tuple(self.apply(col) for col in other.cols))

    def add(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_dim(other)
        pairs = zip(self.cols, other.cols)
        sums = ({r: x.get(r, 0) + y.get(r, 0) for r in x | y} for x, y in pairs)
        return PolyMatrix(self.dim, tuple({r: v for r, v in col.items() if v} for col in sums))

    def scale(self, f) -> "PolyMatrix":
        s = pack(f)
        return PolyMatrix(
            self.dim, tuple({r: a * s for r, a in col.items()} if s else {} for col in self.cols)
        )

    def trace(self) -> QPoly:
        (coeffs,) = unpack([sum(col.get(c, 0) for c, col in enumerate(self.cols))])
        return QPoly(enumerate(coeffs))

    def specialize(self, x) -> dict[tuple[int, int], object]:
        """Evaluate every entry at x; zero results are dropped."""
        cells = self.cells()
        values = ((r, c, sum(a * x**d for d, a in enumerate(coeffs))) for r, c, coeffs in cells)
        return {(r, c): v for r, c, v in values if v != 0}


def write_matrix(out, fmt: str, dim: int, cells: Iterable[tuple[int, int, list[int]]]) -> None:
    """Stream a matrix over Z[q], given by its nonzero (row, col, [c0, c1, ...]) cells in
    (row, col) order: as ``json.dumps({"dim": d, "entries": [[row, col, [c0, ...]], ...]})`` and
    a newline, or for ``fmt`` "text" as ``dim d`` and one ``(row,col) polynomial`` line per entry.
    A one-term list prints from its int, which is also its ``QPoly`` string; a longer one prints
    through the formatter of ``QPoly.__str__``, with no ``QPoly`` built."""
    if fmt == "json":
        out.write(f'{{"dim": {dim}, "entries": [')
        out.writelines(
            f"{', ' if k else ''}[{r}, {c}, {f'[{a[0]}]' if len(a) == 1 else a}]"
            for k, (r, c, a) in enumerate(cells)
        )
        out.write("]}\n")
    else:
        out.write(f"dim {dim}\n")
        out.writelines(
            f"({r},{c}) {a[0] if len(a) == 1 else _poly_text(enumerate(a))}\n" for r, c, a in cells
        )
