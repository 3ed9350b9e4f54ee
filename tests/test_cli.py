import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import record_stdout
import weylfan
from weylfan import counting as ct
from weylfan.cli import _jsonline, main
from weylfan.chambers import all_chambers, extreme_rays
from weylfan.incidence import adjacency_dot, face_from_chain, flats_of
from weylfan.poset import INF, enumerate_chains


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, argv, line):
    """Exit 2, nothing on stdout, and exactly one line on stderr."""
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", line + "\n"), argv


def test_count_faces_row(capsys):
    code, out, _ = run(capsys, "count", "--faces", "-n", "7")
    assert code == 0
    assert out == "1 35 259 833 1408 1312 640 128\n"


def test_count_flats_row(capsys):
    code, out, _ = run(capsys, "count", "--flats", "-n", "8")
    assert code == 0
    assert out == "1 30 151 352 471 380 175 36 1\n"


def test_count_single_value(capsys):
    code, out, _ = run(capsys, "count", "--faces", "-n", "6", "-k", "1")
    assert code == 0 and out == "27\n"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--faces", "-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "table,n,k,value,provenance",
        "faces,2,0,1,recurrence",
        "faces,2,1,5,recurrence",
        "faces,2,2,4,recurrence",
    ]
    code, out, _ = run(
        capsys, "count", "--flats", "-n", "4", "-k", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1] == "flats,4,2,14,recurrence"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--faces", "-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == "faces"
    assert [e["value"] for e in payload["entries"]] == [1, 9, 16, 8]
    assert {e["provenance"] for e in payload["entries"]} == {"recurrence"}
    # one compact line with sorted keys
    argv = ("count", "--flats", "-n", "2", "-k", "1", "--method", "series", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (
        0,
        '{"entries":[{"k":1,"n":2,"provenance":"rational-expansion","value":3}],'
        '"table":"flats"}\n',
    )


def test_count_methods_agree(capsys):
    rows = {}
    for method in ("recurrence", "series", "closed-form", "enumerate", "oracle"):
        code, out, _ = run(
            capsys, "count", "--faces", "-n", "3", "--method", method
        )
        assert code == 0
        rows[method] = out
    assert len(set(rows.values())) == 1


def test_count_method_all(capsys):
    code, out, err = run(capsys, "count", "--flats", "-n", "3", "--method", "all")
    assert code == 0 and out == "1 5 6 1\n"
    assert "cross-checked" in err
    # beyond the flat-oracle cap the oracle leg is skipped, not attempted
    for n in (9, 169):
        code, out, err = run(capsys, "count", "--flats", "-n", str(n), "--method", "all")
        assert code == 0 and out.split() == [str(ct.h_recurrence(n, k)) for k in range(n + 1)]
        assert "skipped: oracle (cap 8)" in err
    # the oracle needs rank >= 1, so at n = 0 its leg is skipped too
    for table in ("--faces", "--flats"):
        code, out, err = run(capsys, "count", table, "-n", "0", "--method", "all")
        assert code == 0 and out == "1\n"
        assert "skipped: oracle (needs n >= 1)" in err
    # every method that does not apply gets its own line, in the method order
    code, out, err = run(capsys, "count", "--flats", "-n", "11", "--method", "all")
    assert code == 0 and out == " ".join(str(ct.h_recurrence(11, k)) for k in range(12)) + "\n"
    assert [line for line in err.splitlines() if line.startswith("skipped:")] == [
        "skipped: closed-form (no closed form is implemented for the flat table)",
        "skipped: enumerate (object enumeration is limited to n <= 10)",
        "skipped: oracle (cap 8)",
    ]
    assert err.splitlines()[-1] == "cross-checked: recurrence, series"
    code, out, err = run(capsys, "count", "--faces", "-n", "11", "--method", "all")
    assert code == 0
    assert "skipped: enumerate (object enumeration is limited to n <= 10)\n" in err
    assert err.splitlines()[-1] == "cross-checked: recurrence, series, closed-form"


def test_count_refusals(capsys):
    code, _, err = run(capsys, "count", "--faces", "-n", "9", "--method", "oracle")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "count", "-n", "3")
    assert code == 2  # neither --faces nor --flats
    for argv, line in (
        (("--flats", "-n", "3", "--method", "closed-form"),
         "no closed form is implemented for the flat table"),
        (("--faces", "-n", "0", "--method", "oracle"), "needs n >= 1"),
        (("--flats", "-n", "0", "--method", "oracle"), "needs n >= 1"),
        (("--faces", "-n", "-1"), "n must be nonnegative"),
        (("--flats", "-n", "-1"), "n must be nonnegative"),
        (("--faces", "-n", "3", "-k", "7"), "k must be between 0 and 3"),
        (("--flats", "-n", "3", "-k", "-1"), "k must be between 0 and 3"),
        (("--faces", "--method", "enumerate", "-n", "11"),
         "object enumeration is limited to n <= 10"),
        # a searched space of thousands of decimal digits is named by exponents
        (("--faces", "--method", "oracle", "-n", "134"),
         "cell enumeration at rank 134 walks 2^n = 2^134 chambers and their "
         "faces; the configured cap is 8"),
        (("--flats", "--method", "oracle", "-n", "169"),
         "flat enumeration at rank 169 ranges over 2^(n(n+1)/2) = "
         "2^14365 generator subsets; the configured cap is 8"),
    ):
        assert_refused(capsys, ("count", *argv), line)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_rows_longer_than_the_digit_limit(capsys):
    # a face row passes the default 4,300-digit limit near n = 8,240; under
    # a 640-digit limit n = 1,300 does the same
    value = ct.g_recurrence(1300, 650)
    limit = sys.get_int_max_str_digits()
    out = {}
    try:
        sys.set_int_max_str_digits(640)
        for fmt in ("text", "json", "csv"):
            argv = ("count", "--faces", "-n", "1300", "-k", "650", "--format", fmt)
            code, out[fmt], _ = run(capsys, *argv)
            assert code == 0, fmt
            assert sys.get_int_max_str_digits() == 640, "main restores the limit"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out["text"] == f"{value}\n"
    assert json.loads(out["json"])["entries"][0]["value"] == value
    assert out["csv"].splitlines()[1] == f"faces,1300,650,{value},recurrence"


def test_count_oracle_cap_override(capsys):
    code, _, err = run(
        capsys,
        "count", "--faces", "-n", "2", "--method", "oracle", "--oracle-cap", "1",
    )
    assert code == 2 and "cap is 1" in err
    code, out, _ = run(
        capsys,
        "count", "--faces", "-n", "2", "--method", "oracle", "--oracle-cap", "2",
    )
    assert code == 0 and out == "1 5 4\n"
    # --method all reports the cap that skipped the oracle
    code, out, err = run(
        capsys, "count", "--faces", "-n", "3", "--method", "all", "--oracle-cap", "2"
    )
    assert code == 0 and "skipped: oracle (cap 2)" in err
    assert out == "1 9 16 8\n"
    # verify --oracle caps both searches; the cell search refuses first
    code, out, err = run(capsys, "verify", "--oracle", "-n", "2", "--oracle-cap", "1")
    assert code == 2 and out == ""
    assert err == (
        "cell enumeration at rank 2 walks 2^n = 2^2 chambers and their faces; "
        "the configured cap is 1\n"
    )


def test_count_refuses_cap_flags_it_cannot_honour(capsys):
    # the cap is read only by an oracle search
    for argv in (
        ("--faces", "--oracle-cap", "9"),
        ("--flats", "--method", "series", "--oracle-cap", "9"),
    ):
        code, out, err = run(capsys, "count", "-n", "3", *argv)
        assert code == 2 and out == "" and "needs --method oracle or all" in err
    code, out, _ = run(
        capsys, "count", "--flats", "-n", "3", "--method", "all", "--oracle-cap", "3"
    )
    assert code == 0 and out == "1 5 6 1\n"


def test_removed_flags_are_unknown(capsys):
    code, _, err = run(capsys, "count", "--faces", "-n", "3", "--threads", "2")
    assert code == 2 and "--threads" in err
    code, _, err = run(capsys, "graph", "-n", "2", "--oracle-cap", "2")
    assert code == 2 and "--oracle-cap" in err
    # one --oracle-cap replaced the per-search cap flags
    for flag in ("--oracle-cap-cells", "--oracle-cap-flats"):
        for argv in (
            ("count", "--faces", "-n", "2", "--method", "oracle"),
            ("verify", "--oracle", "-n", "2"),
        ):
            code, out, err = run(capsys, *argv, flag, "2")
            assert code == 2 and out == "" and f"unrecognized arguments: {flag}" in err


def test_enumerate_chambers(capsys):
    code, out, _ = run(capsys, "enumerate", "chambers", "-n", "2")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["signs"] for r in records] == ["--", "-+", "+-", "++"]
    assert records[3]["subset"] == [1, 2]
    assert records[3]["rays"] == [[1, 0], [1, 1]]


def test_enumerate_faces_origin(capsys):
    code, out, _ = run(capsys, "enumerate", "faces", "-n", "3", "-k", "0")
    assert code == 0
    assert json.loads(out) == {"chain": [], "dim": 0, "rays": []}


def test_enumerate_faces_lines_equal_the_records(capsys):
    # each line is the canonical json of the face record, and the text
    # lines render the same chains; both outputs are pinned byte for byte
    n = 5
    records = [
        {
            "dim": k,
            "chain": [[p.a, p.b] for p in chain],
            "rays": [list(r) for r in face_from_chain(n, chain).rays()],
        }
        for k in range(n + 1)
        for chain in enumerate_chains(n, k)
    ]
    code, out, _ = run(capsys, "enumerate", "faces", "-n", str(n))
    assert code == 0
    assert out.splitlines() == [_jsonline(rec) for rec in records]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "955de2670139224ec368a2734f8305c4b4bf0a3eb4b5fa3d174633f7ea57461e"
    )
    code, out, _ = run(capsys, "enumerate", "faces", "-n", str(n), "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        f"{rec['dim']}\t" + (" ".join(f"({a},{b})" for a, b in rec["chain"]) or "-")
        for rec in records
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "26ca94898c6a94fc8236454866dea6cbfd63e91773810f690f4ff2dd16b5558b"
    )
    code, out, _ = run(capsys, "enumerate", "faces", "-n", str(n), "-k", "2")
    assert code == 0
    assert out.splitlines() == [_jsonline(rec) for rec in records if rec["dim"] == 2]


def test_enumerate_flats_lines_equal_the_records(capsys):
    # each json line is the canonical json of the flat record; each text
    # line renders its intervals, (a,b)..(c,d) or (a,b)..inf
    for n in range(1, 6):
        records = [
            {
                "dim": k,
                "intervals": [
                    [[iv.lo.a, iv.lo.b], None if iv.hi is INF else [iv.hi.a, iv.hi.b]]
                    for iv in flat.ensemble.intervals
                ],
                "points": [[p.a, p.b] for p in flat.rays()],
                "hyperplanes": [list(idx) for idx in flat.hyperplanes],
            }
            for k in range(n + 1)
            for flat in flats_of(n, k)
        ]
        code, out, _ = run(capsys, "enumerate", "flats", "-n", str(n))
        assert code == 0
        assert out.splitlines() == [_jsonline(rec) for rec in records]
        code, out, _ = run(capsys, "enumerate", "flats", "-n", str(n), "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            f"{rec['dim']}\t"
            + (
                " ".join(
                    f"({lo[0]},{lo[1]})..{'inf' if hi is None else f'({hi[0]},{hi[1]})'}"
                    for lo, hi in rec["intervals"]
                )
                or "-"
            )
            for rec in records
        ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "74e3c1fa3e8c89d6b908fbb15788a0f6fffdbba730e9b858dcc8936748c8c5a5"
    )


def test_enumerate_chambers_lines_equal_the_records(capsys):
    # each json line is the canonical json of the chamber record; each text
    # line is its index, signs and subset
    for n in range(1, 5):
        records = [
            {
                "index": i,
                "signs": c.char_string(),
                "subset": sorted(c.subset),
                "rays": [list(r) for r in extreme_rays(c)],
            }
            for i, c in enumerate(all_chambers(n))
        ]
        code, out, _ = run(capsys, "enumerate", "chambers", "-n", str(n))
        assert code == 0
        assert out.splitlines() == [_jsonline(rec) for rec in records]
        code, out, _ = run(capsys, "enumerate", "chambers", "-n", str(n), "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            f"{rec['index']}\t{rec['signs']}\t" + (",".join(map(str, rec["subset"])) or "-")
            for rec in records
        ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c6f71da07a2c9ee0d75c129657f764547aff7d74b0d724f4fa3f38c55cd96857"
    )


def test_enumerate_flats_matches_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "flats", "-n", "2", "-k", "1")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = run(capsys, "enumerate", "flats", "-n", "3")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    by_dim = [sum(1 for r in records if r["dim"] == k) for k in range(4)]
    assert by_dim == [1, 5, 6, 1]


def test_enumerate_text_format(capsys):
    code, out, _ = run(
        capsys, "enumerate", "chambers", "-n", "2", "--format", "text"
    )
    assert code == 0
    assert out.splitlines() == ["0\t--\t-", "1\t-+\t2", "2\t+-\t1", "3\t++\t1,2"]


def test_enumerate_refusal(capsys):
    total = sum(ct.g_recurrence(12, k) for k in range(13))
    assert total > 100000
    code, out, err = run(capsys, "enumerate", "faces", "-n", "12")
    assert code == 2 and out == ""
    assert str(total) in err and "--limit" in err
    assert_refused(
        capsys,
        ("enumerate", "chambers", "-n", "5", "--limit", "10"),
        "refusing to enumerate 32 records (limit 10); raise --limit to proceed",
    )


def test_enumerate_usage_errors(capsys):
    code, _, _ = run(capsys, "enumerate", "chambers", "-n", "2", "-k", "1")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "walls", "-n", "2")
    assert code == 2
    for argv, line in (
        (("faces", "-n", "0"), "n must be at least 1"),
        (("chambers", "-n", "2", "-k", "0"), "chambers have no dimension filter; drop -k"),
        (("faces", "-n", "3", "-k", "9"), "k must be between 0 and 3"),
        (("flats", "-n", "3", "-k", "-1"), "k must be between 0 and 3"),
    ):
        assert_refused(capsys, ("enumerate", *argv), line)


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "-n", "2")
    assert code == 0 and out == adjacency_dot(2)
    assert_refused(
        capsys, ("graph", "-n", "13"),
        "the adjacency graph has 2^13 nodes; supported up to n = 12",
    )
    assert_refused(capsys, ("graph", "-n", "0"), "n must be at least 1")


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == ["--", "-+", "+-", "++"]
    assert payload["edges"] == [[0, 2], [1, 2], [1, 3]]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run(
        capsys, "count", "--faces", "-n", "2", "--format", "csv", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1] == "faces,2,0,1,recurrence"
    code, _, err = run(
        capsys, "count", "--faces", "-n", "2", "--out", "/no-such-dir/row.txt"
    )
    assert code == 4 and "cannot write" in err


class FullDisk(io.TextIOBase):
    """A stdout whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_write_failure_exits_4(capsys, monkeypatch):
    for argv in (
        ("count", "--faces", "-n", "3"),
        ("enumerate", "flats", "-n", "3"),
        ("graph", "-n", "2", "--format", "json"),
        ("verify",),
        ("verify", "--non-simply-laced"),
        ("verify", "--oracle", "-n", "2"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", FullDisk())
            code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 4 and "cannot write stdout: " in err, argv
        assert os.strerror(errno.ENOSPC) in err


def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ok"
    assert sum(1 for l in lines if l.startswith("known-typo")) == 2
    assert sum(1 for l in lines if l.startswith("flagged-print")) == 1
    assert "faces(1,1)" in "".join(lines)


def test_verify_oracle_report(capsys):
    code, out, err = run(capsys, "verify", "--oracle", "-n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["match"] is True
    assert report["cells"]["counts"] == [1, 5, 4]
    assert report["flats"]["counts"] == [1, 3, 1]
    assert report["cells"]["stats"]["cells"] == 10
    assert "elapsed" in err
    assert_refused(capsys, ("verify", "--oracle"), "verify --oracle needs -n")
    assert_refused(capsys, ("verify", "--oracle", "-n", "0"), "n must be at least 1")
    assert_refused(
        capsys,
        ("verify", "--oracle", "-n", "200"),
        "cell enumeration at rank 200 walks 2^n = 2^200 chambers and their "
        "faces; the configured cap is 8",
    )


def test_verify_refuses_flags_it_cannot_honour(capsys):
    # the rank and the caps are the oracle's; no other check takes them
    for argv in (
        ("-n", "3"),
        ("--non-simply-laced", "-n", "2"),
        ("--oracle-cap", "9"),
        ("--non-simply-laced", "--oracle-cap", "2"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "needs --oracle" in err
    # one check per run
    code, out, err = run(capsys, "verify", "--oracle", "--non-simply-laced", "-n", "2")
    assert code == 2 and out == "" and "not allowed with" in err


def test_verify_degenerate(capsys):
    code, out, _ = run(capsys, "verify", "--non-simply-laced")
    assert code == 0
    assert out.count("(matches)") == 3
    assert "not proportional" in out and "as intended" in out
    assert out.splitlines()[-1] == "ok"


def test_repeat_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "enumerate", "flats", "-n", "3")
    _, second, _ = run(capsys, "enumerate", "flats", "-n", "3")
    assert first == second


def test_stdout_matches_the_golden_file():
    # every command of the recorded matrix writes the same bytes to stdout,
    # the same stderr up to its clock, and exits with the same code
    golden = json.loads(record_stdout.GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) >= 600
    moved = [command for command, want in golden.items() if record_stdout.outcome(command) != want]
    assert moved == []


def _child(*argv):
    """Run a fresh interpreter that imports the package from where this
    process found it."""
    root = str(Path(weylfan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = _child("-m", "weylfan.cli", "count", "--faces", "-n", "3")
    assert proc.returncode == 0 and proc.stdout == "1 9 16 8\n"


START_UP_PROBE = """
import contextlib, io, json, sys
import weylfan.cli as cli

HEAVY = ("dataclasses", "fractions", "weylfan.oracle.cells", "weylfan.oracle.flats",
         "weylfan.oracle.simplex", "weylfan.oracle.weightsystems")
cli.build_parser()
report = [["set-up", 0, [m for m in HEAVY if m in sys.modules]]]
for argv in (["count", "--faces", "-n", "5"], ["enumerate", "flats", "-n", "3"],
             ["graph", "-n", "4"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([" ".join(argv), code, [m for m in HEAVY if m in sys.modules]])
print(json.dumps(report))
"""


def test_commands_without_an_oracle_load_no_search():
    # a fresh process pays for every module it imports: the commands that
    # run no oracle search import none, nor dataclasses or fractions
    proc = _child("-c", START_UP_PROBE)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == [
        ["set-up", 0, []],
        ["count --faces -n 5", 0, []],
        ["enumerate flats -n 3", 0, []],
        ["graph -n 4", 0, []],
    ]
