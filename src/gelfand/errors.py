"""Shared exception types, the size caps with their refusals, and the verify suite guards."""

from typing import NamedTuple


class CapacityError(RuntimeError):
    """A brute-force computation was requested beyond its size cap."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant that should be unbreakable failed."""


# Largest n of each capped computation, and what its refusal names.  The
# command caps are read by the CLI alone.  Each is the largest n whose slowest
# call shape runs cold in under 10 s at under 500 MB peak RSS on a 2-CPU host,
# the median of 3 alternating runs (BENCH_15.json).  The oracle caps bound the exhaustive
# sweeps of S_9 and B_5, the length BFS and the fixed-point report; each verify
# suite runs under one of them.  ``fixedpoint_report`` also bounds
# verify_rsk's insertion sweep of S_n.  No cap can be raised from outside.
CAPS: dict[str, tuple[int, str]] = {
    "involutions": (12, "involution listing"),
    "matrix_sn": (12, "sn matrices"),
    "matrix_hecke": (10, "hecke matrices"),
    "matrix_typeb": (6, "typeb matrices"),
    "poset": (11, "poset export"),
    "characters_hecke": (9, "hecke character table"),
    "characters_lambda": (13, "irreducible character table"),
    "square_roots": (9, "square root enumeration in S_n"),
    "b_square_roots": (5, "square root enumeration in B_n"),
    "length_oracle": (8, "involutive length oracle"),
    "fixedpoint_report": (8, "fixed-point report"),
}


def require(name: str, n: int) -> None:
    """Refuse an n beyond the cap of ``name``."""
    largest, what = CAPS[name]
    if n > largest:
        raise CapacityError(f"{what} is capped at n={largest} (got n={n})")


class Suite(NamedTuple):
    """The guard of one verify suite: its smallest n and the oracle cap it runs under."""

    function: str  # the verify function: ``cli.run_suite`` calls it, refusals name it
    smallest: int
    cap: str


# The verify suites in the order ``verify --scope all`` runs them.
SUITES: dict[str, Suite] = {
    "sn": Suite("verify_sn_model", 2, "square_roots"),
    "hecke": Suite("verify_hecke_model", 2, "length_oracle"),
    "rsk": Suite("verify_rsk", 1, "fixedpoint_report"),
    "typeb": Suite("verify_b_model", 1, "b_square_roots"),
}


def require_suite(scope: str, n: int) -> None:
    """Refuse an n below the verify suite ``scope`` or beyond its oracle cap."""
    suite = SUITES[scope]
    if n < suite.smallest:
        largest = CAPS[suite.cap][0]
        raise CapacityError(f"{suite.function} needs {suite.smallest} <= n <= {largest}, got {n}")
    require(suite.cap, n)
