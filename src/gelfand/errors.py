"""Shared exception types, the size caps with their refusals, and the verify suite guards."""

import os
from typing import NamedTuple


class CapacityError(RuntimeError):
    """A brute-force computation was requested beyond its size cap."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant that should be unbreakable failed."""


_RUNTIME = " is capped at n={cap} (got n={n}); set GELFAND_CAP to raise"

# Largest n of each capped computation, and the text that refuses a larger
# one.  The runtime caps keep every command sub-minute, so GELFAND_CAP may
# raise them (their text says so).  The oracle caps bound exhaustive sweeps
# of S_9, B_5 and the length BFS, and the fixed-point report, and stay fixed.
CAPS: dict[str, tuple[int, str]] = {
    "involutions": (9, "involution listing" + _RUNTIME),
    "matrix_sn": (8, "sn matrices" + _RUNTIME),
    "matrix_hecke": (8, "hecke matrices" + _RUNTIME),
    "matrix_typeb": (5, "typeb matrices" + _RUNTIME),
    "poset": (8, "poset export" + _RUNTIME),
    "verify_sn": (8, "sn verification" + _RUNTIME),
    "verify_hecke": (6, "hecke verification" + _RUNTIME),
    "verify_typeb": (5, "typeb verification" + _RUNTIME),
    "verify_rsk": (8, "rsk verification" + _RUNTIME),
    "characters_sn": (7, "sn character table" + _RUNTIME),
    "characters_hecke": (6, "hecke character table" + _RUNTIME),
    "characters_lambda": (5, "irreducible character table" + _RUNTIME),
    "square_roots": (9, "square root enumeration capped at n={cap}, got {n}"),
    "b_square_roots": (5, "square root enumeration capped at n={cap}"),
    "length_oracle": (8, "involutive length oracle capped at n={cap}"),
    "fixedpoint_report": (8, "report capped at n={cap}, got {n}"),
}


def cap(name: str) -> int:
    """Largest n allowed for ``name``: GELFAND_CAP raises a runtime cap."""
    largest, text = CAPS[name]
    raised = os.environ.get("GELFAND_CAP")
    if raised is None or not text.endswith(_RUNTIME):
        return largest
    try:
        return max(largest, int(raised))
    except ValueError:
        raise CapacityError(f"GELFAND_CAP must be an integer, got {raised!r}") from None


def require(name: str, n: int) -> None:
    """Refuse an n beyond the cap of ``name``."""
    largest = cap(name)
    if n > largest:
        raise CapacityError(CAPS[name][1].format(cap=largest, n=n))


class Suite(NamedTuple):
    """The guard of one verify suite: its sizes and the oracle it runs."""

    function: str  # the verify function: ``cli.run_suite`` calls it, refusals name it
    smallest: int
    cap: str
    oracle: str


# The verify suites in the order ``verify --scope all`` runs them.
SUITES: dict[str, Suite] = {
    "sn": Suite("verify_sn_model", 2, "verify_sn", "square_roots"),
    "hecke": Suite("verify_hecke_model", 2, "verify_hecke", "length_oracle"),
    "rsk": Suite("verify_rsk", 1, "verify_rsk", "fixedpoint_report"),
    "typeb": Suite("verify_b_model", 1, "verify_typeb", "b_square_roots"),
}


def require_suite(scope: str, n: int) -> None:
    """Refuse an n that the verify suite ``scope`` or its oracle would reject."""
    suite = SUITES[scope]
    require(suite.cap, n)
    if n < suite.smallest:
        largest = cap(suite.cap)
        raise CapacityError(f"{suite.function} needs {suite.smallest} <= n <= {largest}, got {n}")
    require(suite.oracle, n)
