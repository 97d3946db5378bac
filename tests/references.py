"""Slow reference views that only the tests read: cycle notation, QPoly matrix entries, the Hecke
word product by full matrix products, and for the B_n model the shortest words by a BFS of B_n,
the class representatives by a sorted sweep, the closed signed-conjugation rule, the signed cycle
type, the square-root product formula and the written-down class representatives."""

from gelfand import model_hecke, perm
from gelfand.model_sn import _pair_partitions
from gelfand.qpoly import PolyMatrix, QPoly, unpack
from gelfand.typeb import b_compose, b_elements, b_generator, b_inverse, signed_sort_key


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


def rho_q_of_word(word, basis):
    """Ordered product of the generator matrices of ``word``; the empty word is the identity.

    Every letter builds its generator afresh and every step is a full sparse product: the slow
    path that ``model_hecke.rho_q_word_cells`` and ``rho_q_trace`` are checked against.  It
    refuses a word past the packed bound as they do.
    """
    model_hecke._require_exact(basis.dim, word)
    out = PolyMatrix.identity(basis.dim)
    for i in word:
        out = out @ model_hecke.rho_q_generator(i, basis)
    return out


def b_bfs_words(n):
    """The first word found to every element of B_n by a BFS that extends words on the right, one
    generator at a time in index order: its lexicographically least shortest word.  This is the
    search that ``typeb.b_reduced_word`` replaces."""
    queue = [perm.identity(n)]
    words = {queue[0]: ()}
    for g in queue:
        for i in range(n):
            h = b_compose(g, b_generator(n, i))
            if h not in words:
                words[h] = words[g] + (i,)
                queue.append(h)
    return words


def b_class_reps_by_sorted_sweep(n):
    """The sort-key least element of every conjugacy class of B_n: a sweep of all of B_n in
    sort-key order, where each element not yet seen opens a class and its orbit under
    conjugation by the generators is marked seen."""
    gens = [b_generator(n, i) for i in range(n)]
    seen, reps = set(), []
    for g in sorted(b_elements(n), key=signed_sort_key):
        if g not in seen:
            reps.append(g)
            seen.update(perm.bfs(g, lambda h: [b_compose(s, b_compose(h, s)) for s in gens]))
    return tuple(reps)


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


def signed_cycle_type(g):
    """(alpha, beta): the lengths of the positive and of the negative cycles of |g|, each sorted
    descending.  A cycle is negative when following g with signs takes its first letter i to -i,
    that is when an odd number of its letters carry a minus sign in g."""
    alpha, beta = [], []
    for cyc in cycles([abs(x) for x in g]):
        (beta if sum(g[a - 1] < 0 for a in cyc) % 2 else alpha).append(len(cyc))
    return tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True))


def b_square_root_formula(g):
    """Square roots of g in B_n by the product formula over its signed cycle type.

    With a_r positive and b_r negative r-cycles, roots(g) = prod_r P(r, a_r) N(r, b_r), where
    P(r, a) = sum_{k <= a/2} pairs(a, k) (2r)^k c_r^(a-2k), c_r = 2 for odd r and 0 for even r,
    and N(r, b) = pairs(b, b/2) (2r)^(b/2) for even b and 0 for odd b.
    """
    alpha, beta = signed_cycle_type(g)
    total = 1
    for r in set(alpha) | set(beta):
        a, b, c = alpha.count(r), beta.count(r), 2 if r % 2 else 0
        pos = (_pair_partitions(a, k) * (2 * r) ** k * c ** (a - 2 * k) for k in range(a // 2 + 1))
        total *= sum(pos)
        total *= 0 if b % 2 else _pair_partitions(b, b // 2) * (2 * r) ** (b // 2)
    return total


def b_class_representative(alpha, beta):
    """The parts of alpha, then of beta, laid on consecutive blocks [s, e] of letters: each block
    maps s -> s+1 -> ... -> e, and e to s for a part of alpha, to -s for a part of beta."""
    g, s = [], 1
    for part, sign in [(p, 1) for p in alpha] + [(p, -1) for p in beta]:
        g += [*range(s + 1, s + part), sign * s]
        s += part
    return tuple(g)
