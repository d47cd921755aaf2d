import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import minvenn
from minvenn import builder, cli, export, plane_graph, runs, verify
from minvenn.bases import partition_cycles
from minvenn.cli import main
from minvenn.doubling import build_venn
from minvenn.export import dump_json, from_json, load_json, to_json
from minvenn.verify import verify_graph


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_n8_json(capsys):
    code, out, err = run(capsys, ["build", "--n", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["crossings"] == 40
    assert doc["report"]["passed"] is True
    assert "verdict: PASS" in err


def test_build_rejects_small_n(capsys):
    code, out, err = run(capsys, ["build", "--n", "7"])
    assert code == 2
    assert "need n >= 8, got 7" in err


def test_build_rejects_over_cap(capsys):
    code, _out, err = run(capsys, ["build", "--n", "17"])
    assert code == 2
    assert "cap" in err
    code, _out, err = run(capsys, ["build", "--n", "8", "--cap", "21"])
    assert code == 2
    assert "minvenn: error: cap=21 exceeds the largest cap 20" in err


def test_unknown_flag_and_command(capsys):
    assert run(capsys, ["build", "--n", "8", "--frobnicate"])[0] == 2
    assert run(capsys, ["bogus"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_build_is_deterministic(capsys):
    _, out1, _ = run(capsys, ["build", "--n", "8"])
    _, out2, _ = run(capsys, ["build", "--n", "8"])
    assert out1 == out2


def test_build_dot_and_svg(capsys):
    code, out, _ = run(capsys, ["build", "--n", "8", "--format", "dot"])
    assert code == 0 and out.startswith("graph venn_dual {")
    code, out, _ = run(capsys, ["build", "--n", "8", "--format", "svg-dual"])
    assert code == 0 and "<svg" in out
    code, out, _ = run(capsys, ["build", "--n", "8", "--format", "svg-primal"])
    assert code == 0 and "<svg" in out


def test_build_svg_primal_verifies_once(capsys, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return verify_graph(g)

    monkeypatch.setattr(cli, "verify_graph", counted)
    monkeypatch.setattr(export, "verify_graph", counted)
    code, out, _ = run(capsys, ["build", "--n", "8", "--format", "svg-primal"])
    assert code == 0 and "<svg" in out
    assert calls == [8]


def test_build_svg_needs_concentric_layout(capsys):
    code, _out, err = run(capsys, ["build", "--n", "9", "--format", "svg-dual"])
    assert code == 2
    assert "layout" in err


@pytest.mark.parametrize("fmt", ["json", "dot", "svg-dual", "svg-primal"])
def test_build_out_file(tmp_path, capsys, fmt):
    target = tmp_path / "venn8.out"
    code, out, _ = run(capsys, ["build", "--n", "8", "--format", fmt, "--out", str(target)])
    assert code == 0
    assert out == ""
    if fmt == "json":
        assert json.loads(target.read_text())["crossings"] == 40
    # The file takes the same bytes as stdout.
    assert run(capsys, ["build", "--n", "8", "--format", fmt])[1].encode() == target.read_bytes()


def test_stats_rows(capsys):
    code, out, _ = run(capsys, ["stats", "--n-max", "16"])
    assert code == 0
    lines = out.splitlines()
    row16 = next(l for l in lines if l.strip().startswith("16"))
    assert row16.split() == ["16", "4369", "5118", "12870"]
    row8 = next(l for l in lines if l.strip().startswith("8 ") or l.strip() == "8" or l.split()[0] == "8")
    assert row8.split() == ["8", "37", "40", "70"]
    row3 = next(l for l in lines if l.split() and l.split()[0] == "3")
    assert row3.split() == ["3", "3", "-", "3"]


def test_stats_refuses_n_max_past_the_dimension_cap(capsys):
    code, out, err = run(capsys, ["stats", "--n-max", "33"])
    assert code == 2 and out == ""
    assert "--n-max at most 32" in err
    assert run(capsys, ["stats", "--n-max", "32"])[0] == 0


def test_usage_errors_show_the_subcommand_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    code, _out, err = run(capsys, ["stats", "--n-max", "33"])
    assert code == 2
    assert err.splitlines() == [
        "usage: minvenn stats [-h] [--n-max N_MAX] [--out OUT]",
        "minvenn: error: --n-max at most 32",
    ]
    code, _out, err = run(capsys, ["gray", "--k", "1"])
    assert err.startswith("usage: minvenn gray [-h] --k K")
    assert err.endswith("minvenn: error: need k >= 2, got 1\n")


def test_gray_sequence_and_stats(capsys):
    code, out, _ = run(capsys, ["gray", "--k", "2", "--stats"])
    assert code == 0
    seq_line, stats_line = out.strip().splitlines()
    assert seq_line == "1 2 3 2 1 2 3 4 3 2 1 2 3 2 1"
    assert "nu=6" in stats_line and "lambda=8" in stats_line and "mu=14" in stats_line


def test_gray_scaled(capsys):
    code, out, _ = run(capsys, ["gray", "--k", "2", "--m", "1", "--stats"])
    assert code == 0
    assert "nu=12" in out and "lambda=16" in out


def test_gray_rejects_bad_k(capsys):
    assert run(capsys, ["gray", "--k", "1"])[0] == 2
    assert run(capsys, ["gray", "--k", "5"])[0] == 2


def test_gray_refuses_a_large_k_before_it_builds(capsys, monkeypatch):
    monkeypatch.setattr(runs, "_longrun_coefficient_order", lambda k: pytest.fail("built pairs"))
    code, _out, err = run(capsys, ["gray", "--k", "40"])
    assert code == 2
    assert "minvenn: error: ground set 2^40 exceeds the 32-bit mask model" in err


def test_partition_text(capsys):
    code, out, err = run(capsys, ["partition", "--k", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("x=0:")
    assert "partition check: PASS" in err


def test_partition_svg(capsys):
    code, out, _ = run(capsys, ["partition", "--k", "2", "--format", "svg-dual"])
    assert code == 0
    assert "<svg" in out


def test_partition_svg_builds_the_partition_once(monkeypatch, capsys):
    calls = []

    def counted(k):
        calls.append(k)
        return partition_cycles(k)

    # Every module that could build the partition for the drawing.
    for module in (cli, builder):
        if hasattr(module, "partition_cycles"):
            monkeypatch.setattr(module, "partition_cycles", counted)
    assert run(capsys, ["partition", "--k", "4", "--format", "svg-dual"])[0] == 0
    assert calls == [4]


def test_verify_round_trip(tmp_path, capsys):
    target = tmp_path / "venn8.json"
    run(capsys, ["build", "--n", "8", "--out", str(target)])
    code, out, err = run(capsys, ["verify", str(target)])
    assert code == 0
    assert out == ""
    assert "verdict: PASS" in err
    code, out, _ = run(capsys, ["verify", str(target), "--json"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_frees_the_document_before_it_verifies(tmp_path, capsys, monkeypatch, doc8_text):
    class Document(dict):
        """A parsed document that a weak reference can watch."""

    parsed = []

    def loading(text):
        doc = Document(load_json(text))
        parsed.append(weakref.ref(doc))
        return doc

    def verifying(g):
        assert parsed[0]() is None, "the parsed document is alive during verify_graph"
        return verify_graph(g)

    monkeypatch.setattr(cli, "load_json", loading)
    monkeypatch.setattr(cli, "verify_graph", verifying)
    target = tmp_path / "venn8.json"
    target.write_text(doc8_text)
    code, _out, err = run(capsys, ["verify", str(target)])
    assert code == 0
    assert "verdict: PASS" in err


def test_verify_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, ["verify", str(bad)])[0] == 2
    missing = tmp_path / "missing.json"
    assert run(capsys, ["verify", str(missing)])[0] == 2


def test_verify_failing_document(tmp_path, capsys):
    # a structurally consistent but invalid dual graph: bare partition rings
    from minvenn.builder import partition_preview_graph
    from minvenn.export import dump_json, to_json

    doc = dump_json(to_json(partition_preview_graph(partition_cycles(2))))
    target = tmp_path / "rings.json"
    target.write_text(doc)
    code, _out, err = run(capsys, ["verify", str(target)])
    assert code == 1
    assert "verdict: FAIL" in err


@pytest.mark.parametrize("n", [8, 16])
def test_verify_computes_each_fact_once(tmp_path, capsys, monkeypatch, dual8, dual16, n):
    # from_json traces the rotation, which also decides that it is
    # consistent; verify_graph reuses the trace and walks the whole graph
    # once for connectivity and the curves.  rotation_problems never runs.
    target = tmp_path / f"venn{n}.json"
    target.write_text(dump_json(to_json(dual8 if n == 8 else dual16)))
    calls = []

    def count(module, name, label):
        real = getattr(module, name)

        def counted(*args):
            calls.append(label(*args))
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    for module in (export, verify):
        count(module, "rotation_problems", lambda rotation, n: "rotation_problems")
    for module in (export, verify, plane_graph):
        count(module, "trace_faces", lambda g: "cached" if g._faces is not None else "trace")
    count(verify, "_component_roots", lambda rotation, skip_bit: f"walk {skip_bit}")
    code, _out, err = run(capsys, ["verify", str(target)])
    assert code == 0 and "verdict: PASS" in err
    assert [c for c in calls if c != "cached"] == ["trace", "walk 0"]


def assert_exits_2(*argv):
    """`minvenn *argv` in a fresh process is a usage error, not a traceback."""
    src = str(Path(minvenn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "minvenn.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 2
    assert "minvenn: error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


def test_verify_malformed_document_exits_2(tmp_path, malformed_doc):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(malformed_doc))
    assert_exits_2("verify", target)


def test_verify_rejects_repeated_vertex_key(tmp_path, doc8_text):
    # A plain JSON parser keeps the later, genuine row_of, so without the
    # check this document would verify PASS.
    text = doc8_text.replace("{", '{"row_of":[0,1,3,5,77],', 1)
    assert json.loads(text) == json.loads(doc8_text)
    target = tmp_path / "repeated.json"
    target.write_text(text)
    assert "key 'row_of' appears twice in one object" in assert_exits_2("verify", target)


def test_verify_deeply_nested_json_exits_2(tmp_path):
    target = tmp_path / "deep.json"
    target.write_text("[" * 100_000)
    assert "nests too deeply" in assert_exits_2("verify", target)


def test_build_out_in_a_missing_directory_exits_2_before_building(tmp_path, monkeypatch, capsys):
    target = tmp_path / "missing" / "x.json"
    assert "no directory" in assert_exits_2("build", "--n", "8", "--out", target)
    monkeypatch.setattr(cli, "build_venn", lambda *a, **k: pytest.fail("built before the check"))
    code, _out, err = run(capsys, ["build", "--n", "8", "--out", str(target)])
    assert code == 2 and "no directory" in err
    assert not target.parent.exists()


@pytest.mark.parametrize("command", [["build", "--n", "8"], ["stats"]])
def test_out_that_cannot_be_written_exits_2(tmp_path, command):
    # The directory exists, so the early --out check passes; opening the
    # file fails only after the work, with ENAMETOOLONG.
    target = tmp_path / ("x" * 300 + ".json")
    assert "cannot write --out" in assert_exits_2(*command, "--out", target)
    assert list(tmp_path.iterdir()) == []


class _FullDisk:
    """An --out file that takes 1024 characters, then fails as a full disk does."""

    def __init__(self, *args, **kwargs):
        self.fh, self.room = open(*args, **kwargs), 1024

    def write(self, text):
        taken = self.fh.write(text[: self.room])
        self.room -= taken
        if taken < len(text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return taken

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_build_out_failing_after_the_head_exits_2(tmp_path, monkeypatch, capsys):
    target = tmp_path / "v8.json"
    monkeypatch.setattr(cli, "open", _FullDisk, raising=False)
    code, out, err = run(capsys, ["build", "--n", "8", "--out", str(target)])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert err.splitlines()[-1] == f"minvenn: error: cannot write --out: {full}"
    assert target.read_text().startswith('{"construction":{"k":3,"m":0},"crossings":40,')


def test_verify_out_in_a_missing_directory_exits_2(tmp_path, capsys, doc8_text):
    doc = tmp_path / "venn8.json"
    doc.write_text(doc8_text)
    target = tmp_path / "missing" / "r.json"
    assert "no directory" in assert_exits_2("verify", doc, "--json", "--out", target)
    # without --json nothing goes to --out, so it is not checked
    code, _out, _err = run(capsys, ["verify", str(doc), "--out", str(target)])
    assert code == 0 and not target.parent.exists()


# SHA-256 of stdout for fixed invocations.  Output is byte-identical for a
# given input and format version, so a digest changes only with the format.
# DOC8 stands for the path of the n = 8 document.
DOC8 = "<venn8.json>"
PINNED_OUTPUTS = [
    (["build", "--n", "8"], "5d6a89fa956803a1aa2ef0169f8be282435a45258997caba955fc86137e9ac25"),
    # The one pinned document whose rows are each shared by many vertices.
    (["build", "--n", "16"], "18f698a55e718c8994a33ad9507c4461f4d06ebc95623ab1aacce9853a34ab5c"),
    (
        ["build", "--n", "8", "--format", "dot"],
        "bd0de48d9038259cd1c1d0ebe759e8627be5dc4103e5dcad1bc198abe43b99f8",
    ),
    (
        ["build", "--n", "8", "--format", "svg-dual"],
        "4be54cf3cfe7ac30b16376ec52fcd6c5ffffb5a837d696e4857beec2dd922ee1",
    ),
    (
        ["build", "--n", "8", "--format", "svg-primal"],
        "a323d1f7f57e336333667a501069f2f514cc28287b1e72fc32fce97045fdfa65",
    ),
    # The one pinned drawing whose curves each pass through hundreds of faces.
    (
        ["build", "--n", "16", "--format", "svg-primal"],
        "9d6aac9e239adaffdf6c722c9920c301a5a8f1ed1bbf4cf37461cf9bf5a71e21",
    ),
    (["verify", DOC8, "--json"], "a326d071ae98ddc27fb1b185fb272800170d2a817f594889661b699b662b74bd"),
    (["partition", "--k", "3"], "376957c65120631dd511d65df4a7ec708a4f301b696ad3f9a5a7d552bcf8f4da"),
    (
        ["gray", "--k", "3", "--m", "2", "--stats"],
        "036731990b6ab629badc95bf6c86493ada69aab2a2382723955fa4cb120c6cda",
    ),
    (["stats", "--n-max", "20"], "7dc4d5f14a220d38104f4ad7f962afb7d3f842548f79d4a033411e5750c71137"),
]


@pytest.mark.parametrize(
    "argv,digest",
    PINNED_OUTPUTS,
    ids=[
        "build-8",
        "build-16",
        "build-8-dot",
        "build-8-svg-dual",
        "build-8-svg-primal",
        "build-16-svg-primal",
        "verify-8-json",
        "partition-3",
        "gray-3-2",
        "stats-20",
    ],
)
def test_output_is_byte_identical(capsys, tmp_path, doc8_text, argv, digest):
    doc8 = tmp_path / "venn8.json"
    doc8.write_text(doc8_text)
    code, out, _err = run(capsys, [str(doc8) if a == DOC8 else a for a in argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_run_turns_the_collector_off(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda: 0 if not gc.isenabled() else 1)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
    finally:
        gc.enable()
    assert exc.value.code == 0


def test_library_pipeline_leaves_no_cyclic_garbage():
    # run() can turn the collector off only while the library makes no
    # reference cycles: nothing would ever free them.
    gc.disable()
    try:
        gc.collect()
        for n in (8, 9, 12, 13):
            g = build_venn(n)
            report = verify_graph(g)
            copy = from_json(load_json(dump_json(to_json(g, report=report))))
            assert verify_graph(copy).passed
        assert gc.collect() == 0
    finally:
        gc.enable()
