"""Permutations of {1..n} in window (one-line) notation.

A permutation ``p`` is a tuple with ``p[i-1]`` the image of ``i``; positions
and values are 1-based throughout.  Everything here is a pure function on
immutable tuples, so results may be shared freely across threads.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from .errors import require

Window = tuple[int, ...]
Partition = tuple[int, ...]


def identity(n: int) -> Window:
    return tuple(range(1, n + 1))


def is_window(p: Sequence[int]) -> bool:
    """True when p is a bijection of {1..len(p)}."""
    return sorted(p) == list(range(1, len(p) + 1))


def compose(p: Window, r: Window) -> Window:
    """Product acting as compose(p, r)(i) = p(r(i)).

    >>> compose((2, 3, 1), (2, 3, 1))
    (3, 1, 2)
    """
    if len(p) != len(r):
        raise ValueError(f"size mismatch: {len(p)} vs {len(r)}")
    return tuple([p[x - 1] for x in r])


def inverse(p: Window) -> Window:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x - 1] = i + 1
    return tuple(inv)


def conjugate(p: Window, w: Window) -> Window:
    """p w p^-1."""
    return compose(compose(p, w), inverse(p))


def generator(n: int, i: int) -> Window:
    """The adjacent transposition s_i = (i, i+1), for 1 <= i <= n-1."""
    if not 1 <= i < n:
        raise ValueError(f"generator index {i} out of range for n={n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def descent_set(p: Window) -> set[int]:
    """Generator indices i with p(i) > p(i+1)."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def multiplicities(ct: Partition) -> Counter[int]:
    """Cycle-type multiplicity vector: part length -> number of occurrences."""
    return Counter(ct)


def is_involution(p: Window) -> bool:
    return all(p[x - 1] == i + 1 for i, x in enumerate(p))


def involution_pairs(p: Window) -> tuple[tuple[int, int], ...]:
    """The 2-cycles of an involution as (a, b) pairs with a < b, sorted."""
    return tuple((i, p[i - 1]) for i in range(1, len(p) + 1) if p[i - 1] > i)


def fixed_points(p: Window) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(p) + 1) if p[i - 1] == i)


def involution_walk(n: int) -> Iterator[tuple[Window, str, int]]:
    """(window, cycle notation, involutive length) of every involution of S_n, in lex window order.

    A depth-first walk of the involution tree: a node fixes its smallest open
    letter a, or pairs it with a later open letter b, in that order, so the
    leaves come in lex window order.  Each child extends its parent's cycle
    string by "(a b)" and carries the length along.  Within the support each
    2-cycle gives 1 inversion, a crossing pair of 2-cycles 2 and a nesting
    pair 4, so ``model_hecke.involutive_length`` of w with k 2-cycles is
    sum(a + b) - k(2k + 1) + crossings + 2 nestings.  Pairs come in rising a,
    so adding (a b) as the k-th 2-cycle crosses each earlier b' in (a, b) and
    nests in each earlier b' > b.  With f fixed points below a and j open
    letters between a and b, it adds a + b + crossings + 2 nestings
    = 4k - 1 + 2f + j, and 4k - 1 is the step of k(2k + 1): the walk adds 2f + j.

    >>> [(w, c, l) for w, c, l in involution_walk(3) if l]
    [((1, 3, 2), '(2 3)', 2), ((3, 2, 1), '(1 3)', 1)]
    >>> list(involution_walk(4))[-1]
    ((4, 3, 2, 1), '(1 4)(2 3)', 2)
    """
    if n < 1:
        raise ValueError("n must be positive")
    image = [0] * n
    stack = []
    avail, cycles, length, fixed = tuple(range(1, n + 1)), "", 0, 0
    while True:
        if avail:
            a, rest = avail[0], avail[1:]
            # Pushed last, popped first: fixing a, then the partners b in rising order.
            for j in range(len(rest) - 1, -1, -1):
                b = rest[j]
                cyc = f"{cycles}({a} {b})"
                stack.append((a, b, rest[:j] + rest[j + 1 :], cyc, length + 2 * fixed + j, fixed))
            stack.append((a, a, rest, cycles, length, fixed + 1))
        else:
            yield tuple(image), cycles or "e", length
            if not stack:
                return
        # Every open letter is set again below this node, so what a sibling
        # wrote into image never reaches a leaf.
        a, b, avail, cycles, length, fixed = stack.pop()
        image[a - 1] = b
        image[b - 1] = a


def square_root_counts(
    elements: Iterable[Window],
    compose: Callable[[Window, Window], Window],
    targets: Iterable[Window],
) -> dict[Window, int]:
    """How many u among ``elements`` have compose(u, u) = g, for each g in ``targets``.

    One sweep that visits every u but keeps a count only for the asked g; a g
    that is no square counts 0.  Keyed by the element g itself, not by its
    class, so an oracle built on it does not presume that the count is a
    class function.
    """
    counts = dict.fromkeys(targets, 0)
    for u in elements:
        sq = compose(u, u)
        if sq in counts:
            counts[sq] += 1
    return counts


def square_roots_count(p: Window) -> int:
    """Number of u with u*u = p, found by exhausting S_n.

    Deliberately brute force so it can serve as an oracle for closed-form
    counts: each call sweeps S_n once, for p alone.  Refuses n beyond the
    ``square_roots`` cap.
    """
    require("square_roots", len(p))
    return square_root_counts(itertools.permutations(range(1, len(p) + 1)), compose, [p])[p]


def is_partition(parts: Sequence[int]) -> bool:
    return all(x >= 1 for x in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of n in descending lexicographic order, (n) first."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def is_mu_unimodal(p: Window, mu: Partition) -> bool:
    """True when every mu-block of the window strictly rises then strictly falls.

    >>> is_mu_unimodal((1, 3, 2), (3,))
    True
    >>> is_mu_unimodal((2, 1, 3), (3,))
    False
    """
    if sum(mu) != len(p):
        raise ValueError("mu must be a partition of len(p)")
    end = 0
    for part in mu:
        k, end = end + 1, end + part
        while k < end and p[k] > p[k - 1]:
            k += 1
        while k < end and p[k] < p[k - 1]:
            k += 1
        if k < end:
            return False
    return True


def conjugacy_class_reps(n: int) -> list[tuple[Partition, Window]]:
    """One representative per cycle type, built from consecutive-block cycles.

    >>> dict(conjugacy_class_reps(3))[(3,)]
    (2, 3, 1)
    """
    out = []
    for ct in partitions(n):
        image = list(range(1, n + 1))
        start = 1
        for part in ct:
            for j in range(start, start + part - 1):
                image[j - 1] = j + 1
            image[start + part - 2] = start
            start += part
        out.append((ct, tuple(image)))
    return out


def bfs(start: Hashable, moves: Callable[[Any], Sequence[Any]]) -> dict[Any, int]:
    """Breadth-first walk from ``start``; ``moves(v)`` lists v's neighbours in a fixed order.

    Maps every node reached, in the order reached, to its distance from ``start``.

    >>> bfs(0, lambda v: [(v + 1) % 4, (v + 3) % 4])
    {0: 0, 1: 1, 3: 1, 2: 2}
    """
    depth = {start: 0}
    queue = [start]
    for v in queue:
        for u in moves(v):
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    return depth


def bfs_word_lengths(n: int) -> dict[Window, int]:
    """Minimal generator word length of every element, by BFS on the Cayley graph.

    Oracle for the descent criterion (s_i is a descent of p exactly when p s_i
    is shorter); exponential in n.
    """
    gens = [generator(n, i) for i in range(1, n)]
    return bfs(identity(n), lambda p: [compose(p, g) for g in gens])


def random_window(n: int, rng: random.Random) -> Window:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return tuple(vals)
