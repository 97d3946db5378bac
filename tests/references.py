"""Slow reference views that only the tests read: cycle notation and QPoly matrix entries."""

from gelfand.qpoly import PolyMatrix, QPoly, unpack


def cycles(p):
    """Disjoint cycles, each starting at its least element, ordered by that element."""
    seen = [False] * len(p)
    out = []
    for i in range(1, len(p) + 1):
        if seen[i - 1]:
            continue
        cyc = []
        j = i
        while not seen[j - 1]:
            seen[j - 1] = True
            cyc.append(j)
            j = p[j - 1]
        out.append(tuple(cyc))
    return out


def cycle_notation(p):
    """Cycle string omitting fixed points; "e" for the identity."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) or "e"


def poly_entries(m: PolyMatrix) -> dict[tuple[int, int], QPoly]:
    """Every nonzero entry of ``m`` as a QPoly, keyed (row, col)."""
    return {
        (r, c): QPoly(enumerate(coeffs))
        for c, col in enumerate(m.cols)
        for r, coeffs in zip(col, unpack(col.values()))
    }
