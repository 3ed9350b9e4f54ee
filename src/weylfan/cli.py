"""Command line front end.

Four subcommands: ``count`` prints face/flat count rows by a chosen method,
``enumerate`` streams the objects themselves as JSON lines or text,
``graph`` emits the chamber adjacency graph, and ``verify`` runs the
cross-checks (table consistency plus errata, the geometric oracle, or the
degenerate weight-system certificates).

Every value printed to stdout is exact and deterministic; anything that
depends on the clock goes to stderr.  Exit codes: 0 success, 2 usage or
refused request, 3 a cross-check disagreed, 4 output could not be written.

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

_PROVENANCE_BY_METHOD = {
    "recurrence": "recurrence",
    "series": "rational-expansion",
    "closed-form": "closed-form",
    "enumerate": "enumeration",
    "oracle": "oracle",
    "all": "recurrence",
}


class UsageError(Exception):
    pass


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


def _emit(text: str, out: Optional[str]) -> int:
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return 4
    return 0


def _jsonline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --- count -------------------------------------------------------------------


def _count_row(table: str, n: int, method: str, args: argparse.Namespace) -> list[int]:
    """One table row by one method; raises UsageError when the method does
    not apply at this rank (or at all)."""
    if method == "recurrence":
        fn = ct.g_recurrence if table == "faces" else ct.h_recurrence
        return [fn(n, k) for k in range(n + 1)]
    if method == "series":
        series = ct.g_series(n) if table == "faces" else ct.h_series(n)
        return [series.coeff(n, k) for k in range(n + 1)]
    if method == "closed-form":
        if table == "flats":
            raise UsageError("no closed form is implemented for the flat table")
        return [ct.g_closed_form(n, k) for k in range(n + 1)]
    if method == "enumerate":
        if n > ENUMERATION_BOUND:
            raise UsageError(
                f"object enumeration is limited to n <= {ENUMERATION_BOUND}"
            )
        if table == "faces":
            return [sum(1 for _ in enumerate_chains(n, k)) for k in range(n + 1)]
        return [sum(1 for _ in enumerate_ensembles(n, k)) for k in range(n + 1)]
    assert method == "oracle"
    if n < 1:
        raise UsageError("the geometric oracle needs n >= 1")
    cap = _oracle_cap(args, table)
    try:
        if table == "faces":
            return enumerate_cells(n, cap=cap).counts
        return enumerate_flats_geometric(n, cap=cap).counts
    except CapExceeded as exc:
        raise UsageError(str(exc)) from None


def cmd_count(args: argparse.Namespace) -> int:
    table, n = args.table, args.n
    if n < 0:
        print("n must be nonnegative", file=sys.stderr)
        return 2
    if args.k is not None and not 0 <= args.k <= n:
        print(f"k must be between 0 and {n}", file=sys.stderr)
        return 2
    # a cap flag is read only by its own table's oracle
    for own, (dest, _) in _ORACLE_CAPS.items():
        if getattr(args, dest) is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if table != own:
            print(f"count {flag} needs --{own}", file=sys.stderr)
            return 2
        if args.method not in ("oracle", "all"):
            print(f"count {flag} needs --method oracle or all", file=sys.stderr)
            return 2

    try:
        if args.method == "all":
            methods = ["recurrence", "series"]
            if table == "faces":
                methods.append("closed-form")
            if n <= ENUMERATION_BOUND:
                methods.append("enumerate")
            if n < 1:
                print("skipped: oracle (needs n >= 1)", file=sys.stderr)
            elif n <= (cap := _oracle_cap(args, table)):
                methods.append("oracle")
            else:
                print(f"skipped: oracle (cap {cap})", file=sys.stderr)
            rows = {m: _count_row(table, n, m, args) for m in methods}
            reference = rows["recurrence"]
            for m, row in rows.items():
                if row != reference:
                    print(
                        f"method disagreement on {table} n={n}: "
                        f"recurrence gives {reference}, {m} gives {row}",
                        file=sys.stderr,
                    )
                    return 3
            print(f"cross-checked: {', '.join(methods)}", file=sys.stderr)
            row = reference
        else:
            row = _count_row(table, n, args.method, args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2

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
        print("n must be at least 1", file=sys.stderr)
        return 2
    if kind == "chambers":
        if args.k is not None:
            print("chambers have no dimension filter; drop -k", file=sys.stderr)
            return 2
        estimate = 2**n
        records = _chamber_records(n)
    else:
        if args.k is not None and not 0 <= args.k <= n:
            print(f"k must be between 0 and {n}", file=sys.stderr)
            return 2
        dims = range(n + 1) if args.k is None else [args.k]
        count_fn = ct.g_recurrence if kind == "faces" else ct.h_recurrence
        estimate = sum(count_fn(n, k) for k in dims)
        records = _face_records(n, dims) if kind == "faces" else _flat_records(n, dims)

    if estimate > args.limit:
        print(
            f"refusing to enumerate {estimate} records (limit {args.limit}); "
            f"raise --limit to proceed",
            file=sys.stderr,
        )
        return 2

    if args.format == "json":
        lines = (_jsonline(rec) for rec in records)
    else:
        lines = (_record_text(kind, rec) for rec in records)
    return _emit("".join(line + "\n" for line in lines), args.out)


# --- graph -------------------------------------------------------------------


def cmd_graph(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        print("n must be at least 1", file=sys.stderr)
        return 2
    if n > GRAPH_BOUND:
        print(
            f"the adjacency graph has 2^{n} nodes; supported up to n = {GRAPH_BOUND}",
            file=sys.stderr,
        )
        return 2
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
        fn = ct.g_recurrence if entry["table"] == "faces" else ct.h_recurrence
        computed = fn(entry["n"], entry["k"])
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
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _verify_oracle(n: int, args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        cells = enumerate_cells(n, cap=_oracle_cap(args, "faces"))
        cells_done = time.monotonic()
        flats = enumerate_flats_geometric(n, cap=_oracle_cap(args, "flats"))
        flats_done = time.monotonic()
    except CapExceeded as exc:
        print(str(exc), file=sys.stderr)
        return 2

    expected_cells = [ct.g_recurrence(n, k) for k in range(n + 1)]
    expected_flats = [ct.h_recurrence(n, k) for k in range(n + 1)]
    report = {
        "n": n,
        "cells": {
            "counts": cells.counts,
            "expected": expected_cells,
            "match": cells.counts == expected_cells,
            "stats": cells.stats,
        },
        "flats": {
            "counts": flats.counts,
            "expected": expected_flats,
            "match": flats.counts == expected_flats,
            "stats": flats.stats,
        },
    }
    report["match"] = report["cells"]["match"] and report["flats"]["match"]
    sys.stdout.write(_jsonline(report) + "\n")
    print(
        f"elapsed: cells {cells_done - started:.2f}s "
        f"flats {flats_done - cells_done:.2f}s",
        file=sys.stderr,
    )
    return 0 if report["match"] else 3


def _verify_degenerate() -> int:
    def label(tag, n):
        return tag if n is None else f"{tag} n={n}"

    failures = 0
    classical = (wsys.TAG_SO_ODD_V, wsys.TAG_SP_V, wsys.TAG_SP_LAMBDA, wsys.TAG_SP_BOTH)
    for tag, n in [(tag, 2) for tag in classical] + [(wsys.TAG_F4, None), (wsys.TAG_G2, None)]:
        report = check_weights_proportional_to_roots(weight_system(tag, n))
        status = "proportional" if report.ok else "NOT proportional"
        failures += 0 if report.ok else 1
        print(
            f"{label(tag, n)}: {status}, certificates={len(report.certificates)}, "
            f"zero-weights={report.zero_weights}"
        )
    gl = check_weights_proportional_to_roots(weight_system(wsys.TAG_GL, 2))
    if gl.ok:
        print(f"{wsys.TAG_GL} n=2: proportional, which should not happen")
        failures += 1
    else:
        print(
            f"{wsys.TAG_GL} n=2: not proportional "
            f"({len(gl.failures)} weights off the walls), as intended"
        )

    simplex_row = [simplex_counts(2, k) for k in range(3)]
    print(f"simplex row n=2: {simplex_row}")
    for tag, n in ((wsys.TAG_SO_ODD_V, 2), (wsys.TAG_SP_BOTH, 2), (wsys.TAG_G2, None)):
        counts = chamber_cell_counts(tag, n)
        verdict = "matches" if counts == simplex_row else "MISMATCH"
        failures += 0 if counts == simplex_row else 1
        print(f"{label(tag, n)} chamber cells: {counts} ({verdict})")
    print("ok" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 3


def cmd_verify(args: argparse.Namespace) -> int:
    if args.oracle:
        if args.n is None:
            print("verify --oracle needs -n", file=sys.stderr)
            return 2
        if args.n < 1:
            print("n must be at least 1", file=sys.stderr)
            return 2
        return _verify_oracle(args.n, args)
    # the rank and the caps are the oracle's; no other check takes them
    for flag, value in (
        ("-n", args.n),
        ("--oracle-cap-cells", args.oracle_cap_cells),
        ("--oracle-cap-flats", args.oracle_cap_flats),
    ):
        if value is not None:
            print(f"verify {flag} needs --oracle", file=sys.stderr)
            return 2
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
        choices=["recurrence", "series", "closed-form", "enumerate", "oracle", "all"],
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
