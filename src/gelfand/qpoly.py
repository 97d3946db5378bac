"""Exact integer-coefficient polynomials in q and sparse square matrices over them.

The scalar ring is Z[q]; coefficients are Python ints, so arithmetic never
overflows.  Matrices store only nonzero entries, which suits representation
matrices with at most two nonzeros per column.
"""

from __future__ import annotations

import json
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

    def coeff_list(self) -> list[int]:
        """Dense [c0, c1, ...] up to the degree; empty for zero."""
        if not self._terms:
            return []
        out = [0] * (self._terms[-1][0] + 1)
        for d, c in self._terms:
            out[d] = c
        return out

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
    """Square matrix over QPoly; absent entries are zero, stored entries never are."""

    dim: int
    entries: Mapping[tuple[int, int], QPoly]

    @staticmethod
    def from_entries(dim: int, items) -> "PolyMatrix":
        pairs = items.items() if isinstance(items, Mapping) else items
        acc: dict[tuple[int, int], QPoly] = {}
        for (r, c), f in pairs:
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"entry ({r}, {c}) out of range for dim {dim}")
            f = _coerce(f)
            acc[(r, c)] = acc.get((r, c), ZERO) + f
        return PolyMatrix(dim, {k: v for k, v in acc.items() if v})

    @staticmethod
    def identity(dim: int) -> "PolyMatrix":
        return PolyMatrix(dim, {(i, i): ONE for i in range(dim)})

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        by_col: dict[int, list[tuple[int, QPoly]]] = {}
        for (r, k), f in self.entries.items():
            by_col.setdefault(k, []).append((r, f))
        acc: dict[tuple[int, int], QPoly] = {}
        for (k, c), g in other.entries.items():
            for r, f in by_col.get(k, ()):
                acc[(r, c)] = acc.get((r, c), ZERO) + f * g
        return PolyMatrix(self.dim, {k: v for k, v in acc.items() if v})

    def add(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        acc = dict(self.entries)
        for k, v in other.entries.items():
            acc[k] = acc.get(k, ZERO) + v
        return PolyMatrix(self.dim, {k: v for k, v in acc.items() if v})

    def scale(self, f) -> "PolyMatrix":
        f = _coerce(f)
        return PolyMatrix(
            self.dim, {k: v for k, v in ((k, f * v) for k, v in self.entries.items()) if v}
        )

    def trace(self) -> QPoly:
        return sum(
            (v for (r, c), v in self.entries.items() if r == c), ZERO
        )

    def specialize(self, x) -> dict[tuple[int, int], object]:
        """Evaluate every entry at x; zero results are dropped."""
        out = {}
        for k, v in self.entries.items():
            val = v.evaluate(x)
            if val != 0:
                out[k] = val
        return out

    def to_json_obj(self) -> dict:
        entries = [
            [r, c, self.entries[(r, c)].coeff_list()]
            for (r, c) in sorted(self.entries)
        ]
        return {"dim": self.dim, "entries": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)
