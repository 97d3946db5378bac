"""Command-line front end: listings, matrices, verification suites, exports.

Exit codes: 0 on success, 1 when a verification or identity check fails,
2 on usage errors (including requests beyond the size caps).  All payload
output goes to stdout, diagnostics to stderr.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from typing import Iterable

from . import model_hecke, model_sn, perm, qpoly, rsk, typeb
from .errors import CAPS, SUITES, CapacityError, InternalConsistencyError, require, require_suite
from .perm import Partition
from .report import Report


class UsageError(Exception):
    pass


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be comma-separated integers, got {text!r}")


def _parse_partition(text: str | None, n: int, flag: str) -> Partition | None:
    """The partition given as ``flag``, or None when the flag is absent."""
    if text is None:
        return None
    parts = _parse_ints(text, flag)
    if any(x < 1 for x in parts):
        raise UsageError(f"{flag} parts must be positive, got {text!r}")
    if sum(parts) != n:
        raise UsageError(f"{flag}={text} does not sum to n={n}")
    if not perm.is_partition(parts):
        print(f"warning: sorting {flag}={text} into weakly decreasing order", file=sys.stderr)
        parts = tuple(sorted(parts, reverse=True))
    return parts


def _parse_element(text: str | None, n: int, signed: bool) -> tuple[int, ...] | None:
    """The window given as ``--element``, or None when the flag is absent."""
    if text is None:
        return None
    vals = _parse_ints(text, "--element")
    if len(vals) != n:
        raise UsageError(f"--element has {len(vals)} entries, expected n={n}")
    if signed:
        if not typeb.is_signed_window(vals):
            raise UsageError(f"--element {text} is not a signed window")
    elif not perm.is_window(vals):
        raise UsageError(f"--element {text} is not a window of 1..{n}")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gelfand",
        description="Exact involution models for S_n, its Hecke algebra, and B_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
        p.add_argument("--n", type=int, required=True, help="rank of the group")
        p.add_argument("--format", dest="fmt", choices=formats, default=default)

    p = sub.add_parser("involutions", help="list the involution basis")
    common(p, ("text", "json", "csv"), "text")

    p = sub.add_parser("matrix", help="emit one representation matrix")
    common(p, ("json", "text"), "json")
    p.add_argument("--kind", choices=("sn", "hecke", "typeb"), required=True)
    p.add_argument("--generator", type=int, default=None)
    p.add_argument("--element", type=str, default=None)
    p.add_argument("--mu", type=str, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, ("text", "json"), "text")
    p.add_argument("--scope", choices=(*SUITES, "all"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slow", action="store_true", help="no effect; each suite has one cap")

    p = sub.add_parser("characters", help="character table with independent cross-checks")
    common(p, ("text", "json", "csv"), "text")
    p.add_argument("--kind", choices=("sn", "hecke"), required=True)
    p.add_argument("--mu", type=str, default=None)
    p.add_argument("--lambda", dest="lam", type=str, default=None)

    p = sub.add_parser("poset", help="DOT export of the involutive weak order")
    common(p, ("dot",), "dot")

    return parser


def _cell(key: str, value) -> str:
    """Text and csv rendering of one ``characters`` field."""
    if key == "match":
        return "ok" if value else "MISMATCH"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def _emit_rows(fmt: str, header: list[str], rows: Iterable[list[str]], widths: list[int]) -> None:
    """Print a header and rows of cells, row by row: as csv, or as a text table of ``widths``."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    sys.stdout.writelines(
        "  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip() + "\n"
        for r in itertools.chain([header], rows)
    )


def _emit_table(fmt: str, records: Iterable[dict]) -> None:
    """Print the records as JSON, or one table row each with their keys as header."""
    records = list(records)
    if fmt == "json":
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        header = list(records[0])
        rows = [[_cell(k, r[k]) for k in header] for r in records]
        widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(header)]
        _emit_rows(fmt, header, rows, widths)


def _listing_row(index: int, w: tuple[int, ...], cycles: str, length: int) -> list[str]:
    """The text and csv cells of one listing row: index, window, cycles, length, descents, pairs."""
    return [
        str(index),
        ",".join(map(str, w)),
        cycles,
        str(length),
        " ".join([str(i) for i in range(1, len(w)) if w[i - 1] > w[i]]) or "-",
        cycles.replace(" ", ",") if cycles != "e" else "-",  # each "(a b)" as "(a,b)"
    ]


def _json_list(items, pad: str) -> str:
    """``str`` of each item, in a list as ``json.dumps(indent=2)`` lays it out, items at ``pad``."""
    return f"[{pad}{(',' + pad).join(map(str, items))}{pad[:-2]}]" if items else "[]"


def _listing_json(index: int, w: tuple[int, ...], cycles: str, length: int) -> str:
    """``[`` or ``,``, then one row laid out as by ``json.dumps(indent=2, sort_keys=True)``."""
    pad = "\n      "
    descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
    pairs = ["[\n        %d,\n        %d\n      ]" % (i, b) for i, b in enumerate(w, 1) if b > i]
    return (
        '%s\n  {\n    "cycles": "%s",\n    "descents": %s,\n    "index": %d,\n    "length": %d,\n'
        '    "pairs": %s,\n    "window": %s\n  }'
    ) % (
        "," if index else "[", cycles, _json_list(descents, pad), index, length,
        _json_list(pairs, pad), _json_list(w, pad),
    )


_LISTING_HEADER = ["index", "window", "cycles", "length", "descents", "pairs"]


def _listing_widths(n: int) -> list[int]:
    """The text listing's column widths, from n alone, each at least its header's.

    Every window holds 1..n and n - 1 commas.  The widest cycles and pairs
    cells have the most 2-cycles, on the largest letters, 3 characters of
    brackets and separator each.  w0 has every descent.  The longest
    involutions have k 2-cycles nested on the 2k largest letters, of length
    k(2n - 3k - 1).  The index runs below the involution count, which is the
    number of square roots of the identity.
    """
    digits = [len(str(a)) for a in range(1, n + 1)]
    pairs = sum(digits[n % 2 :]) + 3 * (n // 2)
    longest = max(k * (2 * n - 3 * k - 1) for k in range(n // 2 + 1))
    cells = [
        len(str(model_sn.square_root_factor(1, n) - 1)),
        sum(digits) + n - 1,
        pairs,
        len(str(longest)),
        sum(digits[:-1]) + n - 2,
        pairs,
    ]
    return [max(len(h), w) for h, w in zip(_LISTING_HEADER, cells)]


def cmd_involutions(args: argparse.Namespace) -> int:
    require("involutions", args.n)
    walk = perm.involution_walk(args.n)
    if args.fmt == "json":
        # S_n always has the identity, so the list is never empty.
        sys.stdout.writelines(_listing_json(i, *row) for i, row in enumerate(walk))
        sys.stdout.write("\n]\n")
    else:
        rows = (_listing_row(i, *row) for i, row in enumerate(walk))
        _emit_rows(args.fmt, _LISTING_HEADER, rows, _listing_widths(args.n))
    return 0


def _matrix_cells(args: argparse.Namespace) -> tuple[int, Iterable[tuple[int, int, list[int]]]]:
    """The dimension and the (row, col, coefficient list) cells of the requested matrix."""
    n = args.n
    given = [x for x in (args.generator, args.element, args.mu) if x is not None]
    if args.kind == "sn":
        require("matrix_sn", n)
        if len(given) != 1 or args.mu is not None:
            raise UsageError("matrix --kind sn needs exactly one of --generator/--element")
        basis = model_sn.model_basis(n)
        p = perm.generator(n, args.generator) if args.generator is not None else args.element
        mat = model_sn.rho_matrix(p, basis)
        return mat.dim, mat.cells()
    if args.kind == "hecke":
        require("matrix_hecke", n)
        if len(given) != 1 or args.element is not None:
            raise UsageError("matrix --kind hecke needs exactly one of --generator/--mu")
        basis = model_sn.model_basis(n)
        if args.generator is not None:
            mat = model_hecke.rho_q_generator(args.generator, basis)
            return mat.dim, mat.cells()
        return basis.dim, model_hecke.rho_q_word_cells(model_hecke.t_mu_word(args.mu), basis)
    require("matrix_typeb", n)
    if len(given) != 1 or args.mu is not None:
        raise UsageError("matrix --kind typeb needs exactly one of --generator/--element")
    basis = typeb.b_model_basis(n)
    if args.generator is not None:
        mat = typeb.rho_b_generator(args.generator, basis)
    else:
        gens = {i: typeb.rho_b_generator(i, basis) for i in range(n)}
        mat = typeb.rho_b_of_element(args.element, basis, gens)
    return mat.dim, mat.cells()


def cmd_matrix(args: argparse.Namespace) -> int:
    if args.generator is not None:
        first = 0 if args.kind == "typeb" else 1
        if first > args.n - 1:
            raise UsageError("S_1 has no generators; --generator needs n >= 2")
        if not first <= args.generator <= args.n - 1:
            raise UsageError(f"--generator must be in {first}..{args.n - 1}")
    dim, cells = _matrix_cells(args)
    qpoly.write_matrix(sys.stdout, args.fmt, dim, cells)
    return 0


_SUITE_MODULES = {"sn": model_sn, "hecke": model_hecke, "rsk": rsk, "typeb": typeb}


def run_suite(scope: str, n: int, seed: int = 0) -> Report:
    """Run the verify suite ``scope`` of ``errors.SUITES`` at n; only sn takes the seed."""
    verify = getattr(_SUITE_MODULES[scope], SUITES[scope].function)
    return verify(n, seed=seed) if scope == "sn" else verify(n)


def _verify_reports(args: argparse.Namespace) -> list[Report]:
    """Check the guard of every requested suite, then run the suites in order.

    Under ``--scope all`` each suite runs at the smaller of n and its oracle
    cap.  Every guard is checked in the first pass, so a refused request does
    no work.
    """
    suites = SUITES if args.scope == "all" else {args.scope: SUITES[args.scope]}
    size = {}
    for s, suite in suites.items():
        size[s] = args.n if s == args.scope else min(args.n, CAPS[suite.cap][0])
        require_suite(s, size[s])
    return [run_suite(s, size[s], args.seed) for s in suites]


def cmd_verify(args: argparse.Namespace) -> int:
    reports = _verify_reports(args)
    if args.fmt == "json":
        payload = [r.as_dict() for r in reports]
        print(json.dumps(payload if len(payload) > 1 else payload[0], indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.text())
    return 0 if all(r.passed for r in reports) else 1


def _character_rows(args: argparse.Namespace) -> list[dict]:
    """One ``characters`` row per class, read from the model's trace table, with a match column."""
    if args.kind == "sn":
        if args.lam is not None:
            raise UsageError("--lambda needs --kind hecke")
        return [
            {
                "class": list(ct),
                "trace": tr,
                "square_roots": roots,
                "formula": formula,
                "match": tr == roots == formula,
            }
            for ct, tr, roots, formula in model_sn.class_traces(args.n, args.mu)
        ]
    if args.lam is not None:
        require("characters_lambda", args.n)
        return [
            {
                "mu": list(mu),
                "value": str(val),
                "value_at_1": val.evaluate(1),
                "classical_oracle": oracle,
                "match": val.evaluate(1) == oracle,
            }
            for mu, val, oracle in rsk.lambda_traces(args.lam, args.mu)
        ]
    require("characters_hecke", args.n)
    basis = model_sn.model_basis(args.n)
    gens = {i: model_hecke.rho_q_generator(i, basis) for i in range(1, args.n)}
    return [
        {"mu": list(mu), "trace": str(tr), "unimodal_sum": str(um), "match": tr == um}
        for mu, tr, um in model_hecke.type_traces(basis, gens, args.mu)
    ]


def cmd_characters(args: argparse.Namespace) -> int:
    records = _character_rows(args)
    _emit_table(args.fmt, records)
    return 0 if all(r["match"] for r in records) else 1


def cmd_poset(args: argparse.Namespace) -> int:
    require("poset", args.n)
    sys.stdout.writelines(model_hecke.poset_dot(args.n))
    return 0


_DISPATCH = {
    "involutions": cmd_involutions,
    "matrix": cmd_matrix,
    "verify": cmd_verify,
    "characters": cmd_characters,
    "poset": cmd_poset,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "mu"):
            args.mu = _parse_partition(args.mu, args.n, "--mu")
        if hasattr(args, "lam"):
            args.lam = _parse_partition(args.lam, args.n, "--lambda")
        if hasattr(args, "element"):
            args.element = _parse_element(args.element, args.n, signed=args.kind == "typeb")
        if args.n < 1:
            raise UsageError(f"--n must be positive, got {args.n}")
        return _DISPATCH[args.command](args)
    except (UsageError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    import signal

    # A reader that stops early (``gelfand ... | head``) ends the process
    # quietly, as for any filter, instead of raising BrokenPipeError.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
