"""Exact integer-coefficient polynomials in q and sparse square matrices over them.

The scalar ring is Z[q]; coefficients are Python ints, so arithmetic never
overflows.  A matrix stores each column as a dict (row, q-degree) -> nonzero
int, so its products, sums, comparisons and JSON run on plain ints; a QPoly
is built only for output, by ``trace``, ``poly_entries`` and ``write_text``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


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
        if not self._terms:
            return "0"
        parts = []
        for d, c in self._terms:
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
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly('{self}')"


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


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix over Z[q]; column c maps (row, q-degree) to a nonzero int."""

    dim: int
    cols: tuple[dict[tuple[int, int], int], ...]

    @staticmethod
    def identity(dim: int) -> "PolyMatrix":
        return PolyMatrix(dim, tuple({(i, 0): 1} for i in range(dim)))

    @property
    def entries(self) -> dict[tuple[int, int, int], int]:
        """Flat view (row, col, q-degree) -> coefficient; builds no QPoly."""
        return {(r, c, d): a for c, col in enumerate(self.cols) for (r, d), a in col.items()}

    def poly_entries(self) -> dict[tuple[int, int], QPoly]:
        """Every nonzero entry as a QPoly, keyed (row, col): the output boundary."""
        acc: dict[tuple[int, int], dict[int, int]] = {}
        for (r, c, d), a in self.entries.items():
            acc.setdefault((r, c), {})[d] = a
        return {k: QPoly(v) for k, v in acc.items()}

    def apply(self, vec: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
        """This matrix times the column vector ``vec``, stored as the columns are."""
        cols = self.cols
        return _combine([(cols[k], e, b) for (k, e), b in vec.items()])

    def _check_dim(self, other: "PolyMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_dim(other)
        return PolyMatrix(self.dim, tuple(self.apply(col) for col in other.cols))

    def add(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_dim(other)
        return PolyMatrix(
            self.dim, tuple(_combine([(x, 0, 1), (y, 0, 1)]) for x, y in zip(self.cols, other.cols))
        )

    def scale(self, f) -> "PolyMatrix":
        terms = _coerce(f)._terms
        return PolyMatrix(
            self.dim, tuple(_combine([(col, e, b) for e, b in terms]) for col in self.cols)
        )

    def trace(self) -> QPoly:
        total: dict[int, int] = {}
        for c, col in enumerate(self.cols):
            for (r, d), a in col.items():
                if r == c:
                    total[d] = total.get(d, 0) + a
        return QPoly(total)

    def specialize(self, x) -> dict[tuple[int, int], object]:
        """Evaluate every entry at x; zero results are dropped."""
        out: dict[tuple[int, int], object] = {}
        for (r, c, d), a in self.entries.items():
            out[(r, c)] = out.get((r, c), x * 0) + a * x**d
        return {k: v for k, v in out.items() if v != 0}

    def write_json(self, out) -> None:
        """Write ``json.dumps({"dim": d, "entries": [[row, col, [c0, ...]], ...]})`` and a newline
        off the integer columns, building no QPoly and no whole string (int lists print as JSON)."""
        by_row: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        for c, col in enumerate(self.cols):
            for (r, d), a in col.items():
                by_row[r].setdefault(c, {})[d] = a
        entries = ((r, c, t) for r, row in enumerate(by_row) for c, t in row.items())
        out.write(f'{{"dim": {self.dim}, "entries": [')
        out.writelines(
            f"{', ' if k else ''}[{r}, {c}, {[t.get(d, 0) for d in range(max(t) + 1)]}]"
            for k, (r, c, t) in enumerate(entries)
        )
        out.write("]}\n")

    def write_text(self, out) -> None:
        """Write ``dim d`` and one ``(row,col) polynomial`` line per entry, in (row, col) order."""
        polys = self.poly_entries()
        out.write(f"dim {self.dim}\n")
        out.writelines(f"({r},{c}) {polys[r, c]}\n" for r, c in sorted(polys))


def _combine(scaled) -> dict[tuple[int, int], int]:
    """Sum of b q^e col over the (col, e, b) in ``scaled``, with zero terms dropped."""
    acc: dict[tuple[int, int], int] = {}
    for col, e, b in scaled:
        for (r, d), a in col.items():
            key = (r, d + e)
            acc[key] = acc.get(key, 0) + a * b
    return {k: v for k, v in acc.items() if v} if 0 in acc.values() else acc
