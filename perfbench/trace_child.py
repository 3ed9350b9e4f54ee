"""Run one benchmark command in this process with its layer boundaries traced.

    PYTHONPATH=src python3 perfbench/trace_child.py OUT.json cli ARG...
    PYTHONPATH=src python3 perfbench/trace_child.py OUT.json rays

The public entry points of each layer are rebound, in every module that holds
them by name, to wrappers that record a span per call (per ``next()`` for
generators) and the counters the per-layer metrics need.  Then the command
runs: ``weylfan.cli.main(ARG...)`` or the ray-rank library call.  stdout
carries the command's own output unchanged, so the benchmark can compare its
digest with the untraced run.  Spans stay in memory and are written at exit:
aggregates to OUT.json, the spans themselves to OUT.json's ``.spans.json``
sibling.

Per-element helpers such as ``linalg.dot`` stay unwrapped on purpose; their
cost is part of the caller's self time.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# layer (module under weylfan) -> public entry points that are wrapped
LAYERS = {
    "cli": ("main",),
    "counting": (
        "g_recurrence",
        "h_recurrence",
        "rho",
        "g_linear_recurrence",
        "h_linear_recurrence",
        "g_closed_form",
        "g_near_top",
        "g_polynomial",
        "g_series",
        "h_series",
        "expand_rational",
        "series_product_coeff",
    ),
    "poset": (
        "enumerate_chains",
        "enumerate_ensembles",
        "enumerate_pseudo_ensembles",
        "chain_count",
    ),
    "chambers": ("all_chambers", "extreme_rays", "tableau_validate", "classify_point"),
    "incidence": (
        "weight_indices",
        "weight_functional",
        "face_from_chain",
        "flats_of",
        "chamber_adjacency_graph",
        "adjacency_dot",
    ),
    "oracle.linalg": ("rank_of", "kernel_basis"),
    "oracle.simplex": ("simplex_max", "strict_feasible", "cone_positive"),
    "oracle.cells": (
        "enumerate_cells",
        "enumerate_generic_cells",
        "cell_feasible",
        "rays_geometric",
        "adjacency_from_cells",
    ),
    "oracle.flats": ("enumerate_flats_geometric",),
    "oracle.weightsystems": (
        "weight_system",
        "check_weights_proportional_to_roots",
        "simplex_counts",
        "chamber_cell_counts",
        "dedupe_hyperplanes",
    ),
}

LP_ENTRIES = ("oracle.simplex.strict_feasible", "oracle.simplex.cone_positive")


class Tracer:
    """Spans and counters of one process, kept in memory until exit."""

    def __init__(self):
        self.keys = []  # function key per id
        self.layers = []  # layer per id
        self.calls = []
        self.self_ns = []
        self.spans = []  # [fid, start_ns, end_ns, parent span index]
        self.stack = []  # [span index, ns covered by child spans]
        self.counters = Counter()
        self.problems = []

    def register(self, layer, key):
        self.keys.append(key)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.keys) - 1

    def enter(self, fid):
        parent = self.stack[-1][0] if self.stack else -1
        span = [fid, 0, 0, parent]
        self.stack.append([len(self.spans), 0])
        self.spans.append(span)
        span[1] = time.perf_counter_ns()

    def leave(self):
        end = time.perf_counter_ns()
        idx, covered = self.stack.pop()
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        self.self_ns[span[0]] += duration - covered
        if self.stack:
            self.stack[-1][1] += duration

    def lp_calls(self):
        return self.counters["lp_calls"]

    # --- hooks: read counters at the boundary where the work happens ------

    def before(self, key, args, kwargs):
        if key == "oracle.simplex.simplex_max":
            stats = kwargs.get("stats")
            return None if stats is None else stats.get("pivots", 0)
        if key in ("oracle.cells.enumerate_cells", "oracle.flats.enumerate_flats_geometric"):
            return self.lp_calls(), self.counters["pivots"]
        return None

    def after(self, key, args, kwargs, result, snapshot):
        c = self.counters
        if key in LP_ENTRIES:
            c["lp_calls"] += 1
            c["lp_feasible"] += result is not None
        elif key == "oracle.simplex.simplex_max":
            if snapshot is None:
                c["lp_without_stats"] += 1
            else:
                c["pivots"] += kwargs["stats"].get("pivots", 0) - snapshot
        elif key == "oracle.cells.enumerate_cells":
            stats = result.stats
            c["cells.nodes"] += stats.get("nodes", 0)
            c["cells.witness_hits"] += stats.get("witness_hits", 0)
            c["cells.count"] += stats.get("cells", 0)
            self.check_stats(key, stats, snapshot)
        elif key == "oracle.flats.enumerate_flats_geometric":
            stats = result.stats
            c["flats.closures"] += stats.get("closures", 0)
            c["flats.count"] += stats.get("flats", 0)
            c["flats.lp_calls"] += self.lp_calls() - snapshot[0]
            self.check_stats(key, stats, snapshot)

    def check_stats(self, key, stats, snapshot):
        """The enumeration's own stats must equal what the simplex boundary
        saw inside it; a difference means an LP entry point was not rebound
        in the module that calls it."""
        seen = {
            "lp_calls": self.lp_calls() - snapshot[0],
            "pivots": self.counters["pivots"] - snapshot[1],
        }
        for name, value in seen.items():
            if stats.get(name, 0) != value:
                self.problems.append(
                    f"{key}: stats report {name}={stats.get(name, 0)}, "
                    f"the simplex boundary saw {value}"
                )

    # --- wrappers ------------------------------------------------------------

    def wrap(self, layer, key, fn):
        fid = self.register(layer, key)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                tracer.calls[fid] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer.enter(fid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave()
                    tracer.counters[layer + ".items"] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[fid] += 1
            snapshot = tracer.before(key, args, kwargs)
            tracer.enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            tracer.after(key, args, kwargs, result, snapshot)
            return result

        return traced

    def install(self, extra_modules=()):
        """Wrap every entry point and rebind it wherever it is bound by name."""
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module("weylfan." + layer)
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self.wrap(layer, f"{layer}.{name}", fn))
        holders = [
            m
            for name, m in list(sys.modules.items())
            if name == "weylfan" or name.startswith("weylfan.")
        ]
        holders += list(extra_modules)
        for module in holders:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def summary(self):
        functions = {
            key: {"layer": layer, "calls": calls, "self_s": ns / 1e9}
            for key, layer, calls, ns in zip(self.keys, self.layers, self.calls, self.self_ns)
        }
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "problems": self.problems,
            "spans": len(self.spans),
        }


def main(argv):
    out_path, mode, args = argv[0], argv[1], argv[2:]
    import weylfan.cli

    tracer = Tracer()
    if mode == "cli":
        tracer.install()
        entry = weylfan.cli.main
    elif mode == "rays":
        import ray_ranks

        tracer.install([ray_ranks])
        entry = tracer.wrap("library", "library.ray_ranks", ray_ranks.main)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        code = entry(args) if mode == "cli" else entry()
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh, sort_keys=True)
        with open(out_path[: -len(".json")] + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"keys": tracer.keys, "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
