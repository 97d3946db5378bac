"""Slow reference views that only the tests read: cycle notation, QPoly matrix entries, and the
signed inverse and closed signed-conjugation rule of the B_n model."""

from gelfand.qpoly import PolyMatrix, QPoly, unpack
from gelfand.typeb import b_compose


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


def b_inverse(w):
    """The window sends i to w[i-1], so its inverse sends |w[i-1]| to i with that sign."""
    inv = [0] * len(w)
    for i, x in enumerate(w, 1):
        inv[abs(x) - 1] = i if x > 0 else -i
    return tuple(inv)


def b_signed_conjugation(g, basis):
    """(rows, signs) of the B_n model at the element g, column by column, by the closed rule.

    C_w goes to (-1)^k C_{g w g^-1}, where k counts the 2-cycles {a < b} of |w|
    with |g(a)| > |g(b)| (the S_n sign on absolute values) and the negative
    fixed points a of w (w(a) = -a) with g(a) < 0.  No generator word is used.
    """
    g_inv = b_inverse(g)
    rows, signs = [], []
    for w in basis.involutions:
        k = 0
        for a, x in enumerate(w, 1):
            k += a < abs(x) and abs(g[a - 1]) > abs(g[abs(x) - 1])
            k += x == -a and g[a - 1] < 0
        rows.append(basis.index[b_compose(g, b_compose(w, g_inv))])
        signs.append(-1 if k % 2 else 1)
    return tuple(rows), tuple(signs)
