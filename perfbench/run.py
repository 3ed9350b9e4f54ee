"""weylfan benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cells|flats|combinatorial \
        --seed N --seconds S --trace 0|1

Run from the root of a weylfan checkout; the package runs from ``src/``
(``PYTHONPATH=src``), it need not be installed.  Each command runs in a fresh
interpreter, one at a time (closed loop, one client), exactly as a user runs
it, and every output is checked (see workloads.py).

``--trace 0`` repeats the workload's command list for about ``--seconds``
seconds (at least once) and reports the end-to-end metrics: medians over the
passes of the list's wall and CPU time, the largest peak RSS of any command,
and the median of several interpreter start-ups to ``build_parser()``.

``--trace 1`` runs the list once untraced and once under trace_child.py, and
reports the per-layer metrics of the traced pass.  It fails loudly if a layer
boundary the workload must reach records no calls, or if tracing changed any
command's stdout.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run (metadata, per-command
samples, digests and counters) goes to ``.bench_results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = RESULTS / "tmp"

RUN_LIMIT_S = 170.0  # a run must end within 180 s; commands are killed past this
SETUP_STARTS = 3  # up front; one more follows each timed command
SETUP_CODE = "import weylfan.cli as cli; cli.build_parser()"


def child_env() -> dict:
    """The environment of every command: the package from src/, no
    WEYLFAN_* settings, and bytecode caching on so set-up runs warm."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("WEYLFAN_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


ENV = child_env()


def run_child(argv, deadline):
    """Run one child to completion; return wall, CPU, peak RSS and output."""
    out_path, err_path = SCRATCH / "stdout", SCRATCH / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=ENV
        )
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": proc.returncode,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes()[-2000:].decode(errors="replace"),
    }


def command_argv(cmd, trace_out=None):
    if trace_out is not None:
        return [sys.executable, str(BENCH / "trace_child.py"), str(trace_out), cmd.kind, *cmd.argv]
    if cmd.kind == "rays":
        return [sys.executable, str(BENCH / "ray_ranks.py")]
    return [sys.executable, "-m", "weylfan.cli", *cmd.argv]


def run_pass(commands, references, deadline, traced=False, setup_samples=None, fits=None):
    """One pass over the command list; checks run between commands, untimed.
    With ``setup_samples``, one set-up start follows each command, so the
    set-up samples spread over the whole run rather than one burst of it.
    With ``fits``, the pass stops before the first command i for which
    ``fits(i)`` is false, so a run can end on a partial pass."""
    records = []
    for i, cmd in enumerate(commands):
        if fits is not None and not fits(i):
            break
        trace_out = SCRATCH / f"trace-{i}.json" if traced else None
        if trace_out is not None and trace_out.exists():
            trace_out.unlink()
        res = run_child(command_argv(cmd, trace_out), deadline)
        stdout = res.pop("stdout")
        res["label"] = cmd.label
        res["stdout_bytes"] = len(stdout)
        res["sha256"] = W.sha256(stdout)
        res["problems"] = cmd.problems(res["returncode"], stdout, references)
        res["counters"] = command_counters(cmd, stdout, res["problems"])
        if not res["problems"]:
            del res["stderr"]
        if traced:
            if trace_out.exists():
                res["trace"] = json.loads(trace_out.read_text(encoding="utf-8"))
            else:
                res["problems"].append("the traced child wrote no trace")
        records.append(res)
        if setup_samples is not None:
            setup_samples.append(setup_start(deadline))
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "commands": records,
    }


def command_counters(cmd, stdout, problems):
    """Hardware-independent counters readable from the untraced output."""
    counters = {"stdout_bytes": len(stdout), "lines": stdout.count(b"\n")}
    if cmd.label.startswith("verify --oracle") and not problems:
        counters.update(W.oracle_stats(stdout))
    return counters


def setup_start(deadline):
    """One fresh interpreter start to build_parser(); wall seconds."""
    res = run_child([sys.executable, "-c", SETUP_CODE], deadline)
    if res["returncode"] != 0:
        raise RuntimeError(f"set-up start failed: {res['stderr']}")
    return res["wall_s"]


def timing_summary(samples):
    """Median plus the highest percentile with at least ten samples beyond it.
    Used for set-up starts; a run has too few samples of each command for a
    tail percentile, which repeated runs give instead."""
    out = {"median": statistics.median(samples), "samples": len(samples)}
    n = len(samples)
    if n >= 11:
        # percentile p leaves n*(1-p/100) samples above it; keep that >= 10
        p = max(q for q in range(1, 100) if n * (100 - q) / 100 >= 10)
        out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    else:
        out["tail"] = "fewer than 11 samples: no percentile has ten beyond it"
    return out


# --- per-layer metrics from the traced pass ---------------------------------

def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records):
    functions = {}
    counters = {}
    for rec in records:
        trace = rec.get("trace", {})
        for key, f in trace.get("functions", {}).items():
            agg = functions.setdefault(key, {"layer": f["layer"], "calls": 0, "self_s": 0.0})
            agg["calls"] += f["calls"]
            agg["self_s"] += f["self_s"]
        for key, v in trace.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + v

    def layer_s(layer):
        return sum(f["self_s"] for f in functions.values() if f["layer"] == layer)

    def layer_calls(layer):
        return sum(f["calls"] for f in functions.values() if f["layer"] == layer)

    def fn(key, field):
        return functions.get(key, {}).get(field, 0)

    c = counters.get
    lp, pivots = c("lp_calls", 0), c("pivots", 0)
    nodes, hits = c("cells.nodes", 0), c("cells.witness_hits", 0)
    closures = c("flats.closures", 0)
    values = {
        "simplex.lp_calls": (lp, "count"),
        "simplex.s": (layer_s("oracle.simplex"), "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.pivots_per_lp": (ratio(pivots, lp), "1"),
        "simplex.feasible_ratio": (ratio(c("lp_feasible", 0), lp), "1"),
        "linalg.rank.calls": (fn("oracle.linalg.rank_of", "calls"), "count"),
        "linalg.rank.s": (fn("oracle.linalg.rank_of", "self_s"), "s"),
        "linalg.kernel.calls": (fn("oracle.linalg.kernel_basis", "calls"), "count"),
        "linalg.kernel.s": (fn("oracle.linalg.kernel_basis", "self_s"), "s"),
        "cells.self_s": (layer_s("oracle.cells"), "s"),
        "cells.nodes": (nodes, "count"),
        "cells.witness_hits": (hits, "count"),
        "cells.witness_hit_ratio": (ratio(hits, hits + nodes), "1"),
        "cells.count": (c("cells.count", 0), "count"),
        "flats.self_s": (layer_s("oracle.flats"), "s"),
        "flats.closures": (closures, "count"),
        "flats.count": (c("flats.count", 0), "count"),
        "flats.flats_per_closure": (ratio(c("flats.count", 0), closures), "1"),
        "flats.lp_per_closure": (ratio(c("flats.lp_calls", 0), closures), "1"),
        "weightsystems.s": (layer_s("oracle.weightsystems"), "s"),
        "counting.calls": (layer_calls("counting"), "count"),
        "counting.s": (layer_s("counting"), "s"),
        "poset.items": (c("poset.items", 0), "count"),
        "poset.s": (layer_s("poset"), "s"),
        "chambers.calls": (layer_calls("chambers"), "count"),
        "chambers.s": (layer_s("chambers"), "s"),
        "incidence.calls": (layer_calls("incidence"), "count"),
        "incidence.s": (layer_s("incidence"), "s"),
        "cli.self_s": (layer_s("cli"), "s"),
        "cli.stdout_bytes": (
            sum(r["stdout_bytes"] for r in records if "cli.main" in r.get("trace", {}).get("functions", {})),
            "B",
        ),
    }
    return values, functions, counters


def coverage_problems(workload, functions, values, records):
    found = []
    for key in W.EXPECTED_BOUNDARIES[workload]:
        if functions.get(key, {}).get("calls", 0) == 0:
            found.append(f"boundary {key} recorded no calls")
    for name in W.EXPECTED_NONZERO[workload]:
        if values[name][0] == 0:
            found.append(f"per-layer metric {name} is zero")
    for rec in records:
        found += [f"{rec['label']}: {p}" for p in rec.get("trace", {}).get("problems", [])]
    return found


# --- metadata ----------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# --- main --------------------------------------------------------------------


def per_command_median(passes, field):
    """The list's typical time: each command's median over the passes that
    ran it, summed.  A burst of load on the shared machine then moves one
    sample of a few commands rather than the whole figure."""
    return sum(
        statistics.median(p["commands"][i][field] for p in passes if i < len(p["commands"]))
        for i in range(len(passes[0]["commands"]))
    )


def mark_unstable_digests(passes):
    """Every pass, traced or not, must print byte-identical stdout for each
    command; a later pass that does not counts as a failed command."""
    first = {rec["label"]: rec["sha256"] for rec in passes[0]["commands"]}
    for p in passes[1:]:
        for rec in p["commands"]:
            if rec["sha256"] != first[rec["label"]]:
                rec["problems"].append("stdout differs from the first pass")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "weylfan" / "cli.py").is_file():
        print(f"perfbench: no weylfan sources under {SRC}; run from a weylfan checkout", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {W.WORKLOADS}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))

    meta = metadata(args)
    commands = W.build(args.workload, args.seed)
    references = W.load_references()
    meta["commands"] = [c.label for c in commands]

    setup_start(deadline)  # compiles the bytecode cache if it is cold
    setup = [setup_start(deadline) for _ in range(SETUP_STARTS)]
    if args.trace:
        passes = [
            run_pass(commands, references, deadline),
            run_pass(commands, references, deadline, traced=True),
        ]
    else:
        # Full passes, then commands in list order for as long as the next
        # one is expected to end within --seconds of measuring.
        end = min(time.monotonic() + args.seconds, deadline - 10)
        passes = [run_pass(commands, references, deadline, setup_samples=setup)]
        cost = [r["wall_s"] + setup[-1] for r in passes[0]["commands"]]

        def fits(i):
            return time.monotonic() + cost[i] <= end

        while fits(0):
            passes.append(run_pass(commands, references, deadline, setup_samples=setup, fits=fits))

    mark_unstable_digests(passes)
    records = [rec for p in passes for rec in p["commands"]]
    problems = [f"{r['label']}: {p}" for r in records for p in r["problems"]]
    failed = sum(1 for r in records if r["problems"])
    attempted = len(records)

    result = {"meta": meta, "setup_s": timing_summary(setup), "problems": problems}
    trace_failures = []
    if args.trace:
        untraced, traced = passes
        values, functions, counters = layer_metrics(traced["commands"])
        trace_failures = coverage_problems(args.workload, functions, values, traced["commands"])
        trace_failures += [
            f"{a['label']}: tracing changed stdout"
            for a, b in zip(untraced["commands"], traced["commands"])
            if a["sha256"] != b["sha256"]
        ]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        result.update(
            tracing_overhead_s=traced["wall_s"] - untraced["wall_s"],
            untraced_wall_s=untraced["wall_s"],
            traced_wall_s=traced["wall_s"],
            functions=functions,
            counters=counters,
            trace_failures=trace_failures,
        )
    else:
        peak_mb = max(r["maxrss_kb"] for r in records) / 1024
        metrics = {
            "wall_s": {"value": per_command_median(passes, "wall_s"), "unit": "s"},
            "cpu_s": {"value": per_command_median(passes, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        result["samples_per_command"] = [
            sum(1 for p in passes if i < len(p["commands"])) for i in range(len(commands))
        ]
    result.update(
        metrics=metrics,
        error_rate={"value": failed / attempted, "unit": "1", "failed": failed, "attempted": attempted},
        passes=passes,
    )
    result["meta"]["loadavg_end"] = os.getloadavg()
    result["meta"]["run_s"] = time.monotonic() - started
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")

    for line in problems + trace_failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), record {out_file.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {failed}/{attempted}")
    if args.trace:
        print(f"  tracing overhead = {result['tracing_overhead_s']:.3f} s")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not trace_failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    if trace_failures:
        print("perfbench: TRACE FAILURE (see above)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
