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

This module renders every output (count rows as text, JSON or CSV, the
enumerate lines, the graph and the verify reports); the other modules only
compute.  ``main`` lifts the int-to-str digit limit for the whole run, since
a count row may be longer than CPython's default 4,300 digits.

``--oracle-cap`` caps every oracle search that a run makes: on ``count``
the one behind the chosen table, on ``verify --oracle`` both.  Without it
each search keeps the default cap of its own signature; it is refused
(exit 2) where no oracle runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Optional

from . import counting as ct
from . import incidence as inc
from .chambers import all_chambers, extreme_rays, ray_from_index
from .oracle.arrangement import CapExceeded
from .poset import INF, all_points, enumerate_chains, enumerate_ensembles

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


def _paths(table: str):
    """Recurrence, series and object enumerator of one table.

    The names are looked up at each call, so a rebinding of the module
    attributes (perfbench's tracer makes one) is seen here."""
    if table == "faces":
        return ct.g_recurrence, ct.g_series, enumerate_chains
    return ct.h_recurrence, ct.h_series, enumerate_ensembles


def _run_oracle(table: str, n: int, args: argparse.Namespace):
    """The oracle search of one table at rank n, capped by --oracle-cap when
    it is given.  The search is imported here, at its first run, since most
    runs make none; like _paths, it is looked up at each call."""
    if table == "faces":
        from .oracle.cells import enumerate_cells as oracle
    else:
        from .oracle.flats import enumerate_flats_geometric as oracle
    return oracle(n) if args.oracle_cap is None else oracle(n, cap=args.oracle_cap)


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


@contextmanager
def _no_digit_limit():
    """Lift the int-to-str digit limit of CPython 3.10.7+ for a block: a
    printed value may be longer than its default 4,300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _jsonline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _check_k(k: Optional[int], n: int) -> None:
    if k is not None and not 0 <= k <= n:
        raise UsageError(f"k must be between 0 and {n}")


# --- count -------------------------------------------------------------------


def _count_row(table: str, n: int, method: str, args: argparse.Namespace) -> list[int]:
    """One table row by one method; raises UsageError when the method does
    not apply at this rank (or at all), CapExceeded beyond an oracle cap."""
    recurrence, series, objects = _paths(table)
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
    return _run_oracle(table, n, args).counts


def cmd_count(args: argparse.Namespace) -> int:
    table, n = args.table, args.n
    if n < 0:
        raise UsageError("n must be nonnegative")
    _check_k(args.k, n)
    if args.oracle_cap is not None and args.method not in ("oracle", "all"):
        raise UsageError("count --oracle-cap needs --method oracle or all")

    if args.method == "all":
        rows = {}
        for method in _METHODS:
            try:
                rows[method] = _count_row(table, n, method, args)
            except UsageError as exc:
                print(f"skipped: {method} ({exc})", file=sys.stderr)
            except CapExceeded as exc:
                print(f"skipped: {method} (cap {exc.cap})", file=sys.stderr)
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
    ks = range(n + 1) if args.k is None else [args.k]
    if args.format == "text":
        text = " ".join(str(row[k]) for k in ks) + "\n"
    elif args.format == "json":
        entries = [{"n": n, "k": k, "value": row[k], "provenance": provenance} for k in ks]
        text = _jsonline({"table": table, "entries": entries}) + "\n"
    else:
        # the table names and provenances need no csv quoting
        text = "table,n,k,value,provenance\n" + "".join(
            f"{table},{n},{k},{row[k]},{provenance}\n" for k in ks
        )
    return _emit(text, args.out)


# --- enumerate ---------------------------------------------------------------


def _point_pair(p) -> list[int]:
    return [p.a, p.b]


def _point_text(p) -> str:
    return f"({p.a},{p.b})"


def _chamber_lines(n, fmt):
    """The lines of enumerate chambers; only json carries the rays."""
    for i, c in enumerate(all_chambers(n)):
        signs, subset = c.char_string(), sorted(c.subset)
        if fmt == "json":
            rays = [list(r) for r in extreme_rays(c)]
            yield _jsonline({"index": i, "signs": signs, "subset": subset, "rays": rays})
        else:
            yield f"{i}\t{signs}\t{','.join(map(str, subset)) or '-'}"


def _face_lines(n, dims, fmt):
    """The lines of enumerate faces, one per chain.  Each point's fragments
    are rendered once: in json its [a,b] and its ray, each through
    _jsonline, so a line equals _jsonline({"dim", "chain", "rays"}) of the
    face; in text its "(a,b)"."""
    frags = [[None] * (n + 1 - a) for a in range(n + 1)]  # frags[a][b]
    for p in all_points(n):
        if fmt == "json":
            frags[p.a][p.b] = (_jsonline(_point_pair(p)), _jsonline(list(ray_from_index(n, p))))
        else:
            frags[p.a][p.b] = _point_text(p)
    for k in dims:
        for chain in enumerate_chains(n, k):
            parts = [frags[p.a][p.b] for p in inc.face_from_chain(n, chain).chain]
            if fmt == "json":
                pairs = ",".join([pair for pair, _ in parts])
                rays = ",".join([ray for _, ray in parts])
                yield f'{{"chain":[{pairs}],"dim":{k},"rays":[{rays}]}}'
            else:
                yield f"{k}\t{' '.join(parts) or '-'}"


def _flat_lines(n, dims, fmt):
    """The lines of enumerate flats, one per ensemble; only json carries the
    points and hyperplanes.  An interval's top is null in json, inf in text."""
    for k in dims:
        for flat in inc.flats_of(n, k):
            intervals = flat.ensemble.intervals
            if fmt == "json":
                yield _jsonline({
                    "dim": k,
                    "intervals": [
                        [_point_pair(iv.lo), None if iv.hi is INF else _point_pair(iv.hi)]
                        for iv in intervals
                    ],
                    "points": [_point_pair(p) for p in flat.rays()],
                    "hyperplanes": [list(idx) for idx in flat.hyperplanes],
                })
            else:
                parts = [
                    f"{_point_text(iv.lo)}..{'inf' if iv.hi is INF else _point_text(iv.hi)}"
                    for iv in intervals
                ]
                yield f"{k}\t{' '.join(parts) or '-'}"


def cmd_enumerate(args: argparse.Namespace) -> int:
    kind, n = args.kind, args.n
    if n < 1:
        raise UsageError("n must be at least 1")
    if kind == "chambers":
        if args.k is not None:
            raise UsageError("chambers have no dimension filter; drop -k")
        estimate = 2**n
        lines = _chamber_lines(n, args.format)
    else:
        _check_k(args.k, n)
        dims = range(n + 1) if args.k is None else [args.k]
        recurrence = _paths(kind)[0]
        estimate = sum(recurrence(n, k) for k in dims)
        lines = (_face_lines if kind == "faces" else _flat_lines)(n, dims, args.format)

    if estimate > args.limit:
        raise UsageError(
            f"refusing to enumerate {estimate} records (limit {args.limit}); "
            f"raise --limit to proceed"
        )

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
        recurrence = _paths(table)[0]
        started = time.monotonic()
        found = _run_oracle(table, n, args)
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
    from .oracle import weightsystems as wsys  # here: no other check needs it

    def label(tag, n):
        return tag if n is None else f"{tag} n={n}"

    lines = []
    failures = 0
    classical = (wsys.TAG_SO_ODD_V, wsys.TAG_SP_V, wsys.TAG_SP_LAMBDA, wsys.TAG_SP_BOTH)
    for tag, n in [(tag, 2) for tag in classical] + [(wsys.TAG_F4, None), (wsys.TAG_G2, None)]:
        report = wsys.check_weights_proportional_to_roots(wsys.weight_system(tag, n))
        status = "proportional" if report.ok else "NOT proportional"
        failures += 0 if report.ok else 1
        lines.append(
            f"{label(tag, n)}: {status}, certificates={len(report.certificates)}, "
            f"zero-weights={report.zero_weights}"
        )
    gl = wsys.check_weights_proportional_to_roots(wsys.weight_system(wsys.TAG_GL, 2))
    if gl.ok:
        lines.append(f"{wsys.TAG_GL} n=2: proportional, which should not happen")
        failures += 1
    else:
        lines.append(
            f"{wsys.TAG_GL} n=2: not proportional "
            f"({len(gl.failures)} weights off the walls), as intended"
        )

    simplex_row = [wsys.simplex_counts(2, k) for k in range(3)]
    lines.append(f"simplex row n=2: {simplex_row}")
    for tag, n in ((wsys.TAG_SO_ODD_V, 2), (wsys.TAG_SP_BOTH, 2), (wsys.TAG_G2, None)):
        counts = wsys.chamber_cell_counts(tag, n)
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
    # the rank and the cap are the oracle's; no other check takes them
    for flag, value in (("-n", args.n), ("--oracle-cap", args.oracle_cap)):
        if value is not None:
            raise UsageError(f"verify {flag} needs --oracle")
    if args.non_simply_laced:
        return _verify_degenerate()
    return _verify_tables()


# --- wiring ------------------------------------------------------------------


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
    count.add_argument("--oracle-cap", type=int, default=None)
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
    verify.add_argument("--oracle-cap", type=int, default=None)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    with _no_digit_limit():
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
