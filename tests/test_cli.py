import json
import os
import subprocess
import sys
from pathlib import Path

import weylfan
from weylfan import counting as ct
from weylfan.cli import main
from weylfan.incidence import adjacency_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, err = run(capsys, "count", "--flats", "-n", "8", "--method", "all")
    assert code == 0 and out.startswith("1 30 151")
    assert "skipped: oracle (cap 7)" in err
    # the oracle needs rank >= 1, so at n = 0 its leg is skipped too
    for table in ("--faces", "--flats"):
        code, out, err = run(capsys, "count", table, "-n", "0", "--method", "all")
        assert code == 0 and out == "1\n"
        assert "skipped: oracle (needs n >= 1)" in err


def test_count_refusals(capsys):
    code, _, err = run(
        capsys, "count", "--flats", "-n", "3", "--method", "closed-form"
    )
    assert code == 2 and "closed form" in err
    code, _, err = run(capsys, "count", "--faces", "-n", "6", "--method", "oracle")
    assert code == 2 and "cap" in err
    for table in ("--faces", "--flats"):
        code, out, err = run(capsys, "count", table, "-n", "0", "--method", "oracle")
        assert code == 2 and out == "" and "needs n >= 1" in err
    code, _, err = run(capsys, "count", "--faces", "-n", "3", "-k", "7")
    assert code == 2
    code, _, err = run(capsys, "count", "-n", "3")
    assert code == 2  # neither --faces nor --flats


def test_count_oracle_cap_override(capsys):
    code, _, err = run(
        capsys,
        "count", "--faces", "-n", "2", "--method", "oracle",
        "--oracle-cap-cells", "1",
    )
    assert code == 2 and "cap is 1" in err
    code, out, _ = run(
        capsys,
        "count", "--faces", "-n", "2", "--method", "oracle",
        "--oracle-cap-cells", "2",
    )
    assert code == 0 and out == "1 5 4\n"


def test_count_refuses_cap_flags_it_cannot_honour(capsys):
    # a cap flag is read only by the oracle of its own table
    method = "needs --method oracle or all"
    for argv, needs in (
        (("--faces", "--oracle-cap-cells", "9"), method),
        (("--flats", "--method", "series", "--oracle-cap-flats", "9"), method),
        (("--faces", "--method", "all", "--oracle-cap-flats", "9"), "needs --flats"),
        (("--flats", "--method", "oracle", "--oracle-cap-cells", "9"), "needs --faces"),
    ):
        code, out, err = run(capsys, "count", "-n", "3", *argv)
        assert code == 2 and out == "" and needs in err
    code, out, _ = run(
        capsys, "count", "--flats", "-n", "3", "--method", "all", "--oracle-cap-flats", "3"
    )
    assert code == 0 and out == "1 5 6 1\n"


def test_removed_flags_are_unknown(capsys):
    code, _, err = run(capsys, "count", "--faces", "-n", "3", "--threads", "2")
    assert code == 2 and "--threads" in err
    code, _, err = run(capsys, "graph", "-n", "2", "--oracle-cap-cells", "2")
    assert code == 2 and "--oracle-cap-cells" in err


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
    code, _, err = run(capsys, "enumerate", "chambers", "-n", "5", "--limit", "10")
    assert code == 2 and "32 records" in err


def test_enumerate_usage_errors(capsys):
    code, _, _ = run(capsys, "enumerate", "chambers", "-n", "2", "-k", "1")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "walls", "-n", "2")
    assert code == 2


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "-n", "2")
    assert code == 0 and out == adjacency_dot(2)
    code, _, err = run(capsys, "graph", "-n", "13")
    assert code == 2 and "n = 12" in err


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
    code, _, _ = run(capsys, "verify", "--oracle")
    assert code == 2  # -n required


def test_verify_refuses_flags_it_cannot_honour(capsys):
    # the rank and the caps are the oracle's; no other check takes them
    for argv in (
        ("-n", "3"),
        ("--non-simply-laced", "-n", "2"),
        ("--oracle-cap-cells", "9"),
        ("--non-simply-laced", "--oracle-cap-flats", "2"),
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


def test_console_entry_point():
    # the child imports the package from where this process found it
    root = str(Path(weylfan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weylfan.cli", "count", "--faces", "-n", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0 and proc.stdout == "1 9 16 8\n"
