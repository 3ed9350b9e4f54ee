"""Command line front end.

Four subcommands: ``count`` prints face/flat count rows by a chosen method,
``enumerate`` streams the objects themselves as JSON lines or text,
``graph`` emits the chamber adjacency graph, and ``verify`` runs the
cross-checks (table consistency plus errata, the geometric oracle, or the
degenerate weight-system certificates).

Every value printed to stdout is exact and deterministic; anything that
depends on the clock goes to stderr.  Exit codes: 0 success, 2 usage or
refused request, 3 a cross-check disagreed, 4 stdout or the ``--out`` file
could not be written.  A refusal is raised as ``UsageError`` (or the oracle's
``CapExceeded``) wherever it is decided; ``main`` alone reports it.  Every
subcommand writes its stdout through ``_emit``.

An oracle cap is its flag, else the default, ``CELL_CAP`` or ``FLAT_CAP``
of the oracle modules; a cap flag is refused (exit 2) where its oracle does
not run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import counting as ct
from . import incidence as inc
from .chambers import all_chambers, extreme_rays
from .oracle import (
    CapExceeded,
    check_weights_proportional_to_roots,
    chamber_cell_counts,
    enumerate_cells,
    enumerate_flats_geometric,
    simplex_counts,
    weight_system,
)
from .oracle import weightsystems as wsys
from .oracle.cells import CELL_CAP
from .oracle.flats import FLAT_CAP
from .poset import INF, enumerate_chains, enumerate_ensembles

ENUMERATION_BOUND = 10  # largest rank where count --method enumerate walks objects
GRAPH_BOUND = 12
RECORD_LIMIT = 100000

# the computing paths of count, in the order --method all runs them
_METHODS = ("recurrence", "series", "closed-form", "enumerate", "oracle")

_PROVENANCE_BY_METHOD = {
    "recurrence": "recurrence",
    "series": "rational-expansion",
    "closed-form": "closed-form",
    "enumerate": "enumeration",
    "oracle": "oracle",
    "all": "recurrence",
}


class UsageError(Exception):
    """A refused request; main prints its message and exits 2."""


# table -> (flag destination, default) of its oracle cap
_ORACLE_CAPS = {
    "faces": ("oracle_cap_cells", CELL_CAP),
    "flats": ("oracle_cap_flats", FLAT_CAP),
}


def _oracle_cap(args: argparse.Namespace, table: str) -> int:
    """Cap of the oracle behind one table: its flag, else the default."""
    dest, default = _ORACLE_CAPS[table]
    cap = getattr(args, dest)
    return default if cap is None else cap


def _paths(table: str):
    """Recurrence, series, object enumerator and oracle of one table.

    The names are looked up at each call, so a rebinding of the module
    attributes (perfbench's tracer makes one) is seen here."""
    if table == "faces":
        return ct.g_recurrence, ct.g_series, enumerate_chains, enumerate_cells
    return ct.h_recurrence, ct.h_series, enumerate_ensembles, enumerate_flats_geometric


def _emit(text: str, out: Optional[str]) -> int:
    """Write text to stdout or to the --out file; 4 when it cannot be written."""
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"cannot write {'stdout' if out is None else out}: {exc}", file=sys.stderr)
        return 4
    return 0


def _jsonline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _check_k(k: Optional[int], n: int) -> None:
    if k is not None and not 0 <= k <= n:
        raise UsageError(f"k must be between 0 and {n}")


# --- count -------------------------------------------------------------------


def _count_row(table: str, n: int, method: str, args: argparse.Namespace) -> list[int]:
    """One table row by one method; raises UsageError when the method does
    not apply at this rank (or at all), CapExceeded beyond an oracle cap."""
    recurrence, series, objects, oracle = _paths(table)
    if method == "recurrence":
        return [recurrence(n, k) for k in range(n + 1)]
    if method == "series":
        expansion = series(n)
        return [expansion.coeff(n, k) for k in range(n + 1)]
    if method == "closed-form":
        if table == "flats":
            raise UsageError("no closed form is implemented for the flat table")
        return [ct.g_closed_form(n, k) for k in range(n + 1)]
    if method == "enumerate":
        if n > ENUMERATION_BOUND:
            raise UsageError(
                f"object enumeration is limited to n <= {ENUMERATION_BOUND}"
            )
        return [sum(1 for _ in objects(n, k)) for k in range(n + 1)]
    if n < 1:
        raise UsageError("needs n >= 1")
    return oracle(n, cap=_oracle_cap(args, table)).counts


def cmd_count(args: argparse.Namespace) -> int:
    table, n = args.table, args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    _check_k(args.k, n)
    # a cap flag is read only by its own table's oracle
    for own, (dest, _) in _ORACLE_CAPS.items():
        if getattr(args, dest) is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if table != own:
            raise UsageError(f"count {flag} needs --{own}")
        if args.method not in ("oracle", "all"):
            raise UsageError(f"count {flag} needs --method oracle or all")

    if args.method == "all":
        rows = {}
        for method in _METHODS:
            try:
                rows[method] = _count_row(table, n, method, args)
            except UsageError as exc:
                print(f"skipped: {method} ({exc})", file=sys.stderr)
            except CapExceeded:
                print(f"skipped: {method} (cap {_oracle_cap(args, table)})", file=sys.stderr)
        row = rows["recurrence"]
        for method, other in rows.items():
            if other != row:
                print(
                    f"method disagreement on {table} n={n}: "
                    f"recurrence gives {row}, {method} gives {other}",
                    file=sys.stderr,
                )
                return 3
        print(f"cross-checked: {', '.join(rows)}", file=sys.stderr)
    else:
        row = _count_row(table, n, args.method, args)

    provenance = _PROVENANCE_BY_METHOD[args.method]
    if args.k is None:
        entries = tuple((n, k, v, provenance) for k, v in enumerate(row))
    else:
        entries = ((n, args.k, row[args.k], provenance),)
    result = ct.CountTable(table, entries)

    if args.format == "text":
        text = " ".join(str(v) for (_, _, v, _) in entries) + "\n"
    elif args.format == "json":
        text = result.to_json() + "\n"
    else:
        text = result.to_csv()
    return _emit(text, args.out)


# --- enumerate ---------------------------------------------------------------


def _point_pair(p) -> list[int]:
    return [p.a, p.b]


def _interval_json(iv) -> list:
    hi = None if iv.hi is INF else _point_pair(iv.hi)
    return [_point_pair(iv.lo), hi]


def _chamber_records(n):
    for i, c in enumerate(all_chambers(n)):
        yield {
            "index": i,
            "signs": c.char_string(),
            "subset": sorted(c.subset),
            "rays": [list(r) for r in extreme_rays(c)],
        }


def _face_records(n, dims):
    for k in dims:
        for chain in enumerate_chains(n, k):
            face = inc.face_from_chain(n, chain)
            yield {
                "dim": k,
                "chain": [_point_pair(p) for p in chain],
                "rays": [list(r) for r in face.rays()],
            }


def _flat_records(n, dims):
    for k in dims:
        for flat in inc.flats_of(n, k):
            yield {
                "dim": k,
                "intervals": [_interval_json(iv) for iv in flat.ensemble.intervals],
                "points": [_point_pair(p) for p in flat.rays()],
                "hyperplanes": [list(idx) for idx in flat.hyperplanes],
            }


def _record_text(kind: str, rec: dict) -> str:
    if kind == "chambers":
        subset = ",".join(str(i) for i in rec["subset"]) or "-"
        return f"{rec['index']}\t{rec['signs']}\t{subset}"
    if kind == "faces":
        chain = " ".join(f"({a},{b})" for a, b in rec["chain"]) or "-"
        return f"{rec['dim']}\t{chain}"
    parts = []
    for lo, hi in rec["intervals"]:
        hi_text = "inf" if hi is None else f"({hi[0]},{hi[1]})"
        parts.append(f"({lo[0]},{lo[1]})..{hi_text}")
    return f"{rec['dim']}\t" + (" ".join(parts) or "-")


def cmd_enumerate(args: argparse.Namespace) -> int:
    kind, n = args.kind, args.n
    if n < 1:
        raise UsageError("n must be at least 1")
    if kind == "chambers":
        if args.k is not None:
            raise UsageError("chambers have no dimension filter; drop -k")
        estimate = 2**n
        records = _chamber_records(n)
    else:
        _check_k(args.k, n)
        dims = range(n + 1) if args.k is None else [args.k]
        recurrence = _paths(kind)[0]
        estimate = sum(recurrence(n, k) for k in dims)
        records = _face_records(n, dims) if kind == "faces" else _flat_records(n, dims)

    if estimate > args.limit:
        raise UsageError(
            f"refusing to enumerate {estimate} records (limit {args.limit}); "
            f"raise --limit to proceed"
        )

    if args.format == "json":
        lines = (_jsonline(rec) for rec in records)
    else:
        lines = (_record_text(kind, rec) for rec in records)
    return _emit("".join(line + "\n" for line in lines), args.out)


# --- graph -------------------------------------------------------------------


def cmd_graph(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise UsageError("n must be at least 1")
    if n > GRAPH_BOUND:
        raise UsageError(
            f"the adjacency graph has 2^{n} nodes; supported up to n = {GRAPH_BOUND}"
        )
    if args.format == "dot":
        text = inc.adjacency_dot(n)
    else:
        chambers, edges = inc.chamber_adjacency_graph(n)
        payload = {
            "nodes": [c.char_string() for c in chambers],
            "edges": [[a, b] for a, b in edges],
        }
        text = _jsonline(payload) + "\n"
    return _emit(text, args.out)


# --- verify ------------------------------------------------------------------


def _verify_tables() -> int:
    """Recompute both tables along every cheap path and report the bundled
    errata entries; any unexplained disagreement is an error."""
    top = 10
    paths_by_table = {
        "faces": {
            "recurrence": ct.g_recurrence,
            "linear recurrence": ct.g_linear_recurrence,
            "series": ct.g_series(top).coeff,
            "closed form": ct.g_closed_form,
        },
        "flats": {
            "mutual recursion": ct.h_recurrence,
            "linear recurrence": ct.h_linear_recurrence,
            "series": ct.h_series(top).coeff,
        },
    }
    lines = []
    for table, paths in paths_by_table.items():
        for n in range(top + 1):
            rows = {name: [fn(n, k) for k in range(n + 1)] for name, fn in paths.items()}
            if len({tuple(r) for r in rows.values()}) != 1:
                print(f"{table} n={n}: computing paths disagree: {rows}", file=sys.stderr)
                return 3
        lines.append(
            f"{table} n<={top}: {len(paths)} computing paths agree ({', '.join(paths)})"
        )

    for entry in ct.errata_entries():
        computed = _paths(entry["table"])[0](entry["n"], entry["k"])
        if computed != entry["adopted"]:
            print(
                f"errata entry {entry['id']} adopts {entry['adopted']} "
                f"but the package computes {computed}",
                file=sys.stderr,
            )
            return 3
        deviant = ", ".join(
            f"{reading}={value}"
            for reading, value in sorted(entry["printed"].items())
            if value != entry["adopted"]
        )
        lines.append(
            f"{entry['status']} {entry['table']}({entry['n']},{entry['k']}): "
            f"printed {deviant}; adopted {entry['adopted']}"
        )
    lines.append("ok")
    return _emit("".join(line + "\n" for line in lines), None)


def _verify_oracle(n: int, args: argparse.Namespace) -> int:
    report = {"n": n}
    elapsed = []
    for table, part in (("faces", "cells"), ("flats", "flats")):
        recurrence, _, _, oracle = _paths(table)
        started = time.monotonic()
        found = oracle(n, cap=_oracle_cap(args, table))
        elapsed.append(f"{part} {time.monotonic() - started:.2f}s")
        expected = [recurrence(n, k) for k in range(n + 1)]
        report[part] = {
            "counts": found.counts,
            "expected": expected,
            "match": found.counts == expected,
            "stats": found.stats,
        }
    report["match"] = report["cells"]["match"] and report["flats"]["match"]
    code = _emit(_jsonline(report) + "\n", None)
    print(f"elapsed: {' '.join(elapsed)}", file=sys.stderr)
    return code or (0 if report["match"] else 3)


def _verify_degenerate() -> int:
    def label(tag, n):
        return tag if n is None else f"{tag} n={n}"

    lines = []
    failures = 0
    classical = (wsys.TAG_SO_ODD_V, wsys.TAG_SP_V, wsys.TAG_SP_LAMBDA, wsys.TAG_SP_BOTH)
    for tag, n in [(tag, 2) for tag in classical] + [(wsys.TAG_F4, None), (wsys.TAG_G2, None)]:
        report = check_weights_proportional_to_roots(weight_system(tag, n))
        status = "proportional" if report.ok else "NOT proportional"
        failures += 0 if report.ok else 1
        lines.append(
            f"{label(tag, n)}: {status}, certificates={len(report.certificates)}, "
            f"zero-weights={report.zero_weights}"
        )
    gl = check_weights_proportional_to_roots(weight_system(wsys.TAG_GL, 2))
    if gl.ok:
        lines.append(f"{wsys.TAG_GL} n=2: proportional, which should not happen")
        failures += 1
    else:
        lines.append(
            f"{wsys.TAG_GL} n=2: not proportional "
            f"({len(gl.failures)} weights off the walls), as intended"
        )

    simplex_row = [simplex_counts(2, k) for k in range(3)]
    lines.append(f"simplex row n=2: {simplex_row}")
    for tag, n in ((wsys.TAG_SO_ODD_V, 2), (wsys.TAG_SP_BOTH, 2), (wsys.TAG_G2, None)):
        counts = chamber_cell_counts(tag, n)
        verdict = "matches" if counts == simplex_row else "MISMATCH"
        failures += 0 if counts == simplex_row else 1
        lines.append(f"{label(tag, n)} chamber cells: {counts} ({verdict})")
    lines.append("ok" if failures == 0 else f"{failures} check(s) failed")
    code = _emit("".join(line + "\n" for line in lines), None)
    return code or (0 if failures == 0 else 3)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.oracle:
        if args.n is None:
            raise UsageError("verify --oracle needs -n")
        if args.n < 1:
            raise UsageError("n must be at least 1")
        return _verify_oracle(args.n, args)
    # the rank and the caps are the oracle's; no other check takes them
    for flag, value in (
        ("-n", args.n),
        ("--oracle-cap-cells", args.oracle_cap_cells),
        ("--oracle-cap-flats", args.oracle_cap_flats),
    ):
        if value is not None:
            raise UsageError(f"verify {flag} needs --oracle")
    if args.non_simply_laced:
        return _verify_degenerate()
    return _verify_tables()


# --- wiring ------------------------------------------------------------------


def _add_cap_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--oracle-cap-cells", type=int, default=None)
    sub.add_argument("--oracle-cap-flats", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylfan",
        description="count, enumerate and cross-check the strata of the "
        "restricted weight arrangement",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    count = commands.add_parser("count", help="print a count row")
    table = count.add_mutually_exclusive_group(required=True)
    table.add_argument("--faces", dest="table", action="store_const", const="faces")
    table.add_argument("--flats", dest="table", action="store_const", const="flats")
    count.add_argument("-n", type=int, required=True)
    count.add_argument("-k", type=int, default=None)
    count.add_argument(
        "--method",
        choices=[*_METHODS, "all"],
        default="recurrence",
    )
    count.add_argument("--format", choices=["text", "json", "csv"], default="text")
    count.add_argument("--out", default=None)
    _add_cap_flags(count)
    count.set_defaults(func=cmd_count)

    enum = commands.add_parser("enumerate", help="stream objects, one per line")
    enum.add_argument("kind", choices=["chambers", "faces", "flats"])
    enum.add_argument("-n", type=int, required=True)
    enum.add_argument("-k", type=int, default=None)
    enum.add_argument("--format", choices=["json", "text"], default="json")
    enum.add_argument("--limit", type=int, default=RECORD_LIMIT)
    enum.add_argument("--out", default=None)
    enum.set_defaults(func=cmd_enumerate)

    graph = commands.add_parser("graph", help="chamber adjacency graph")
    graph.add_argument("-n", type=int, required=True)
    graph.add_argument("--format", choices=["dot", "json"], default="dot")
    graph.add_argument("--out", default=None)
    graph.set_defaults(func=cmd_graph)

    verify = commands.add_parser("verify", help="run cross-checks")
    check = verify.add_mutually_exclusive_group()
    check.add_argument("--oracle", action="store_true")
    check.add_argument("--non-simply-laced", action="store_true")
    verify.add_argument("-n", type=int, default=None)
    _add_cap_flags(verify)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, CapExceeded) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
