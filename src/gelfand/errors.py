"""Shared exception types, the size caps with their refusals, and the verify suite guards."""

import os
from typing import NamedTuple


class CapacityError(RuntimeError):
    """A brute-force computation was requested beyond its size cap."""


class InternalConsistencyError(RuntimeError):
    """A structural invariant that should be unbreakable failed."""


_CAPPED = " is capped at n={cap} (got n={n})"
_RUNTIME = _CAPPED + "; set GELFAND_CAP to raise"

# Largest n of each capped computation, and the text that refuses a larger
# one.  The runtime caps keep every command sub-minute, so GELFAND_CAP may
# raise them (their text says so); only the CLI reads them.  The oracle caps
# bound the exhaustive sweeps of S_9 and B_5, the length BFS and the
# fixed-point report, and stay fixed; each verify suite runs under one of
# them.  ``fixedpoint_report`` also bounds verify_rsk's insertion sweep of S_n.
CAPS: dict[str, tuple[int, str]] = {
    "involutions": (9, "involution listing" + _RUNTIME),
    "matrix_sn": (8, "sn matrices" + _RUNTIME),
    "matrix_hecke": (8, "hecke matrices" + _RUNTIME),
    "matrix_typeb": (5, "typeb matrices" + _RUNTIME),
    "poset": (8, "poset export" + _RUNTIME),
    "characters_hecke": (6, "hecke character table" + _RUNTIME),
    "characters_lambda": (5, "irreducible character table" + _RUNTIME),
    "square_roots": (9, "square root enumeration in S_n" + _CAPPED),
    "b_square_roots": (5, "square root enumeration in B_n" + _CAPPED),
    "length_oracle": (8, "involutive length oracle" + _CAPPED),
    "fixedpoint_report": (8, "fixed-point report" + _CAPPED),
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
        largest = cap(suite.cap)
        raise CapacityError(f"{suite.function} needs {suite.smallest} <= n <= {largest}, got {n}")
    require(suite.cap, n)
