import json
import os
import subprocess
import sys
from pathlib import Path

import astriples as at
from astriples.cli import run

from conftest import fano_blocks


def test_version(capsys):
    code = run(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scheme format 1" in out


def test_construct_verify_params_flow(tmp_path, capsys):
    scheme_path = tmp_path / "s.json"
    assert run(["construct", "--group", "asl2:3",
                "--out", str(scheme_path)]) == 0
    out = capsys.readouterr().out
    assert "group order 216" in out
    assert scheme_path.exists()

    assert run(["verify", str(scheme_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("VALID")
    assert "nontrivial=3" in out

    tensor_path = tmp_path / "t.json"
    assert run(["params", str(scheme_path), "--tensor", str(tensor_path)]) == 0
    data = json.loads(tensor_path.read_text())
    assert data["classes"] == 7
    assert all(len(entry) == 5 for entry in data["nonzero"])


def test_construct_refuses_non_two_transitive(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("1 2 3 4 0\n", encoding="utf-8")
    code = run(["construct", "--group", f"file:{gens}"])
    err = capsys.readouterr().err
    assert code == 1
    assert "refused" in err


def test_verify_broken_scheme_exits_one(tmp_path, capsys):
    scheme_path = tmp_path / "s.json"
    assert run(["construct", "--group", "asl2:2",
                "--out", str(scheme_path)]) == 0
    capsys.readouterr()
    data = json.loads(scheme_path.read_text())
    # swap one triple between the nontrivial class and R_1
    moved = data["relations"][4].pop()
    data["relations"][1].append(moved)
    scheme_path.write_text(json.dumps(data), encoding="utf-8")
    code = run(["verify", str(scheme_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "INVALID" in out and "condition" in out


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert run(["verify", str(bad)]) == 2
    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_unknown_command_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_threads_exits_two(capsys):
    assert run(["--threads", "0", "oracle", "asl2", "--q", "2"]) == 2
    capsys.readouterr()


def test_fuse_and_fission_flow(tmp_path, capsys):
    fine_path = tmp_path / "fine.json"
    coarse_path = tmp_path / "coarse.json"
    assert run(["construct", "--group", "asl2:3", "--out", str(fine_path)]) == 0
    assert run(["construct", "--group", "agl2:3", "--out", str(coarse_path)]) == 0
    capsys.readouterr()

    grouping_path = tmp_path / "g.json"
    assert run(["fission-check", str(fine_path), str(coarse_path),
                "--out", str(grouping_path)]) == 0
    out = capsys.readouterr().out
    assert "fission grouping" in out

    fused_path = tmp_path / "fused.json"
    assert run(["fuse", str(fine_path), "--grouping", str(grouping_path),
                "--out", str(fused_path)]) == 0
    capsys.readouterr()
    assert fused_path.read_text() == coarse_path.read_text()


def test_fission_check_refusal(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["construct", "--group", "agl2:3", "--out", str(a)]) == 0
    assert run(["construct", "--group", "asl2:3", "--out", str(b)]) == 0
    capsys.readouterr()
    # coarse cannot be a fission of fine
    assert run(["fission-check", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "NOT A FISSION" in out


def test_oracle_command(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run(["oracle", "asl2", "--q", "3", "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    data = json.loads(report_path.read_text())
    assert data["passed"] is True and data["q"] == 3


def test_enumerate_command(tmp_path, capsys):
    outdir = tmp_path / "census"
    code = run(["enumerate", "--nu", "4", "--out", str(outdir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "schemes=2" in out
    census = json.loads((outdir / "census.json").read_text())
    assert census["count"] == 2
    for name in census["schemes"]:
        scheme = at.ensure_ast(at.partition_from_json(
            (outdir / name).read_text()))
        assert scheme.nu == 4


def test_enumerate_circulant_command(capsys):
    code = run(["enumerate", "--nu", "5", "--circulant"])
    out = capsys.readouterr().out
    assert code == 0
    assert "schemes=2" in out


def test_enumerate_rejects_conflicting_filters(capsys):
    assert run(["enumerate", "--nu", "5", "--circulant", "--symmetric"]) == 2
    capsys.readouterr()


def test_designs_commands(tmp_path, capsys):
    design_path = tmp_path / "fano.json"
    design_path.write_text(json.dumps(
        {"v": 7, "blocks": [list(b) for b in fano_blocks()]}), encoding="utf-8")
    assert run(["designs", "verify", str(design_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda=1" in out

    scheme_path = tmp_path / "fano_scheme.json"
    assert run(["designs", "to-ast", str(design_path),
                "--out", str(scheme_path)]) == 0
    capsys.readouterr()

    assert run(["designs", "from-ast", str(scheme_path), "--label", "5"]) == 0
    out = capsys.readouterr().out
    assert "lambda=4" in out


def test_designs_refusal_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"v": 4, "blocks": [[0, 1, 2], [0, 1, 3]]}),
                   encoding="utf-8")
    assert run(["designs", "verify", str(bad)]) == 1
    capsys.readouterr()


def test_twograph_commands(tmp_path, capsys):
    tg_path = tmp_path / "tg.json"
    code = run(["twograph", "find", "--nu", "6", "--out", str(tg_path)])
    out = capsys.readouterr().out
    assert code == 0 and "12" in out

    assert run(["twograph", "verify", str(tg_path)]) == 0
    out = capsys.readouterr().out
    assert "regular=True" in out

    scheme_path = tmp_path / "tg_scheme.json"
    assert run(["twograph", "to-ast", str(tg_path),
                "--out", str(scheme_path)]) == 0
    capsys.readouterr()

    back_path = tmp_path / "tg_back.json"
    assert run(["twograph", "from-ast", str(scheme_path), "--mode", "lenient",
                "--out", str(back_path)]) == 0
    capsys.readouterr()
    assert back_path.read_text() == tg_path.read_text()

    # strict mode refuses with exit 1, naming the nonzero entry
    assert run(["twograph", "from-ast", str(scheme_path),
                "--mode", "strict"]) == 1
    err = capsys.readouterr().err
    assert "p_554" in err


def _cli_process(*args):
    src = str(Path(at.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "astriples.cli", *args],
                          capture_output=True, text=True, env=env)


def test_twograph_without_path_exits_two():
    for action in ("verify", "to-ast", "from-ast"):
        proc = _cli_process("twograph", action)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "needs a PATH" in proc.stderr


def test_fuse_grouping_of_bare_labels_exits_two(tmp_path, capsys):
    scheme_path = tmp_path / "s.json"
    assert run(["construct", "--group", "asl2:2",
                "--out", str(scheme_path)]) == 0
    grouping_path = tmp_path / "g.json"
    grouping_path.write_text(json.dumps({"groups": [0, 1, 2]}),
                             encoding="utf-8")
    capsys.readouterr()
    assert run(["fuse", str(scheme_path),
                "--grouping", str(grouping_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "'groups'" in err


def test_design_loader_type_errors_exit_two(tmp_path, capsys):
    blocks = [list(b) for b in fano_blocks()]
    for payload in ({"v": "abc", "blocks": blocks},
                    {"v": 7, "blocks": [[0, 1, "x"]]},
                    {"v": 7, "blocks": [0, 1, 2]}):
        design_path = tmp_path / "d.json"
        design_path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(["designs", "verify", str(design_path)]) == 2, payload
        assert capsys.readouterr().err.startswith("usage error:")
    tg_path = tmp_path / "tg.json"
    tg_path.write_text(json.dumps({"v": None, "triples": []}),
                       encoding="utf-8")
    assert run(["twograph", "verify", str(tg_path)]) == 2
    assert "bad 'v'" in capsys.readouterr().err


def test_output_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["construct", "--group", "psl2:5", "--out", str(a)]) == 0
    assert run(["--threads", "4", "construct", "--group", "psl2:5",
                "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_tiny_file_with_huge_nu_exits_two(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nu": 1000000, "relations": [[[0, 0, 0]]]}),
                    encoding="utf-8")
    proc = _cli_process("verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "the cube has" in proc.stderr


def test_construct_refuses_degree_over_orbit_guard(tmp_path, capsys):
    cycle = tmp_path / "cycle300.txt"
    cycle.write_text(" ".join(str((i + 1) % 300) for i in range(300)) + "\n",
                     encoding="utf-8")
    for spec in ("agl1:257", f"file:{cycle}"):
        assert run(["construct", "--group", spec]) == 1
        err = capsys.readouterr().err
        assert "refused" in err and "degree <= 256" in err


def test_construct_asl2_9(capsys):
    assert run(["construct", "--group", "asl2:9"]) == 0
    out = capsys.readouterr().out
    assert "group order 58320 on 81 points" in out
    assert "nu=81 classes=19 " in out
