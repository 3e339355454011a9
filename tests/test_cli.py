import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import astriples as at
from astriples.cli import run
from astriples.constructions import grouping_from_json, grouping_to_json

from conftest import fano_blocks, m24_generators, verified


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


@pytest.mark.parametrize("spec, nu", [("asl2:5", 25), ("asl2:7", 49)])
def test_params_counts_condition_2_once(tmp_path, capsys, monkeypatch, spec,
                                        nu):
    import astriples.core as core
    scheme_path = tmp_path / "s.json"
    assert run(["construct", "--group", spec, "--out", str(scheme_path)]) == 0
    capsys.readouterr()
    count, calls = core._class_signatures, []
    monkeypatch.setattr(core, "_class_signatures", lambda *args: (
        calls.append(args[3]), count(*args))[1])
    outputs = []
    for flags in ([], ["--full-check"]):
        tensor_path = tmp_path / f"t{len(outputs)}.json"
        calls.clear()
        assert run(["params", str(scheme_path), "--tensor", str(tensor_path),
                    *flags]) == 0
        # one pass, full at nu <= 30 or when asked
        assert calls == [bool(flags) or nu <= core.FULL_CHECK_LIMIT], flags
        outputs.append((capsys.readouterr().out.replace(str(tensor_path), ""),
                        tensor_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_construct_refuses_non_two_transitive(tmp_path, capsys):
    gens = tmp_path / "gens.txt"
    gens.write_text("1 2 3 4 0\n", encoding="utf-8")
    code = run(["construct", "--group", f"file:{gens}"])
    err = capsys.readouterr().err
    assert code == 1
    assert "refused" in err


def _symmetric_generators(n):
    return [[1, 0, *range(2, n)], [*range(1, n), 0]]


def _generator_file(path, generators):
    path.write_text("".join(" ".join(map(str, g)) + "\n" for g in generators),
                    encoding="utf-8")
    return f"file:{path}"


@pytest.mark.parametrize("name, generators, order", [
    ("m24", m24_generators(), 244823040),
    ("s12", _symmetric_generators(12), 479001600)], ids=["m24", "s12"])
def test_construct_file_groups_past_ten_million_elements(tmp_path, capsys,
                                                         name, generators,
                                                         order):
    # both are four-transitive: R_0..R_3 and one class of distinct triples
    spec = _generator_file(tmp_path / f"{name}.txt", generators)
    assert run(["construct", "--group", spec]) == 0
    out = capsys.readouterr().out
    degree = len(generators[0])
    assert f"group order {order} on {degree} points" in out
    assert f"nu={degree} classes=5 " in out


def test_construct_refuses_a_group_past_the_work_budget(tmp_path, capsys,
                                                        monkeypatch):
    import astriples.permgroup as permgroup
    monkeypatch.setattr(permgroup, "CLOSE_WORK_BUDGET", 1000)
    spec = _generator_file(tmp_path / "s8.txt", _symmetric_generators(8))
    assert run(["construct", "--group", spec]) == 1
    err = capsys.readouterr().err
    assert err == "refused: group closure exceeds the work budget 1000\n"


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


def test_fuse_refuses_a_non_fusion_past_nu_30(tmp_path, capsys):
    # asl2:7 (nu = 49): {4, 6, 8} keeps condition 3 and breaks condition 2,
    # which a count at one cell per class does not see
    scheme_path = tmp_path / "S7.json"
    assert run(["construct", "--group", "asl2:7",
                "--out", str(scheme_path)]) == 0
    grouping_path = tmp_path / "g.json"
    groups = [[0], [1], [2], [3], [4, 6, 8]] + [
        [i] for i in range(5, 15) if i not in (6, 8)]
    grouping_path.write_text(json.dumps({"groups": groups}),
                             encoding="utf-8")
    fused_path = tmp_path / "F.json"
    capsys.readouterr()
    assert run(["fuse", str(scheme_path), "--grouping", str(grouping_path),
                "--out", str(fused_path)]) == 1
    assert capsys.readouterr().out == (
        "NOT A FUSION: condition 2: count for pattern (4, 4, 6) at "
        "(0, 1, 4) in relation 4 is 0, expected 1\n")
    assert not fused_path.exists()


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
        scheme = verified(at.partition_from_json(
            (outdir / name).read_text()))
        assert scheme.nu == 4


def test_enumerate_circulant_command(capsys):
    code = run(["enumerate", "--nu", "5", "--circulant"])
    out = capsys.readouterr().out
    assert code == 0
    assert "schemes=2" in out


def test_enumerate_circulant_max_classes(capsys):
    assert run(["enumerate", "--nu", "7", "--circulant",
                "--max-classes", "2"]) == 0
    assert capsys.readouterr().out == \
        'nu=7 schemes=2 by_nontrivial_classes={"1": 1, "2": 1}\n'


def test_enumerate_circulant_allow_large(monkeypatch, capsys):
    from astriples import enumeration
    monkeypatch.setattr(enumeration, "GROUP_NU_LIMIT", 6)
    assert run(["enumerate", "--nu", "7", "--circulant"]) == 1
    assert "nu is guarded to at most 6" in capsys.readouterr().err
    assert run(["enumerate", "--nu", "7", "--circulant", "--allow-large"]) == 0
    assert capsys.readouterr().out.startswith("nu=7 schemes=3 ")


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


def test_twograph_find_with_path_exits_two():
    proc = _cli_process("twograph", "find", "missing.json", "--nu", "4")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "usage error: twograph find takes no PATH\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("bound", ("-1", "0"))
@pytest.mark.parametrize("mode", ([], ["--circulant"]),
                         ids=["trivial", "circulant"])
def test_enumerate_max_classes_below_one_exits_two(bound, mode):
    proc = _cli_process("enumerate", "--nu", "6", *mode,
                        f"--max-classes={bound}")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "usage error: --max-classes must be at least 1\n"
    assert proc.stdout == ""


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


def test_loaders_read_only_json_integers(tmp_path, capsys):
    # "nu" and "v" must be JSON integers: int() read 3.9, "3" and " 3 " as 3
    six = at.find_regular_two_graphs(6)[0]
    files = [(["verify"], "nu",
              {"nu": 3, "relations": _three_point_relations()}),
             (["designs", "verify"], "v",
              {"v": 7, "blocks": [list(b) for b in fano_blocks()]}),
             (["twograph", "verify"], "v",
              {"v": 6, "triples": [list(t) for t in six.triples]})]
    path = tmp_path / "f.json"
    for argv, key, payload in files:
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert run(argv + [str(path)]) == 0, argv
        capsys.readouterr()
        good = payload[key]
        for value in (good + 0.9, float(good), str(good), f" {good} ", True):
            path.write_text(json.dumps(dict(payload, **{key: value})),
                            encoding="utf-8")
            assert run(argv + [str(path)]) == 2, (argv, value)
            err = capsys.readouterr().err
            assert err == f"usage error: bad {key!r}: {value!r}\n", err


def test_loaders_refuse_non_integer_entries(tmp_path, capsys):
    # blocks, triples and groups hold JSON integers only, as scheme triples
    # do: int() read 1.9 as 1, "2" as 2 and true as 1
    scheme_path = tmp_path / "s.json"
    assert run(["construct", "--group", "asl2:2",
                "--out", str(scheme_path)]) == 0
    blocks = [list(b) for b in fano_blocks()]
    six = [list(t) for t in at.find_regular_two_graphs(6)[0].triples]
    cases = [(["designs", "verify"], "block", {"v": 7}, "blocks", blocks,
              lambda entries: at.verify_design(7, entries)),
             (["twograph", "verify"], "triple", {"v": 6}, "triples", six,
              lambda entries: at.verify_two_graph(6, entries))]
    path = tmp_path / "f.json"
    for argv, what, head, key, good, load in cases:
        for bad in ([0, 1.9, "2"], [0, 1, 2.5], [0, 1, "2"], [0, True, 2]):
            entries = [bad] + good[1:]
            path.write_text(json.dumps(dict(head, **{key: entries})),
                            encoding="utf-8")
            assert run(argv + [str(path)]) == 2, (argv, bad)
            assert capsys.readouterr().err == \
                f"usage error: bad {what} entry: {bad!r}\n"
            with pytest.raises(at.StructuralError, match=f"bad {what} entry"):
                load(entries)
    for bad, entry in (([[0], [1], [2], [3], [4.9], ["5"]], [4.9]),
                       ([[0], [True], [2], [3], [4], [5]], [True]),
                       ([[0], [1], [2], [3], [-1, 4]], [-1, 4])):
        text = json.dumps({"groups": bad})
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["fuse", str(scheme_path), "--grouping", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"usage error: bad 'groups' entry: {entry!r}\n"
        with pytest.raises(at.StructuralError, match="bad 'groups' entry"):
            grouping_from_json(text)
    m = at.partition_from_json(scheme_path.read_text()).m
    path.write_text(grouping_to_json(at.FusionGrouping.identity(m)),
                    encoding="utf-8")
    assert run(["fuse", str(scheme_path), "--grouping", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("payload", ["[" * 100_000,
                                     '{"nu": ' + "7" * 5001 + "}"],
                         ids=["deep", "long_int"])
def test_loaders_refuse_unparsable_json(tmp_path, capsys, payload):
    # json.loads raises RecursionError on deep nesting and ValueError past
    # the int digit limit; every loader reports both as invalid JSON
    scheme_path = tmp_path / "s.json"
    assert run(["construct", "--group", "asl2:2",
                "--out", str(scheme_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(payload, encoding="utf-8")
    capsys.readouterr()
    for argv in (["verify", str(bad)], ["designs", "verify", str(bad)],
                 ["twograph", "verify", str(bad)],
                 ["fuse", str(scheme_path), "--grouping", str(bad)]):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith(
            "usage error: invalid JSON: "), argv


def test_loaders_refuse_non_utf8_files(tmp_path, capsys):
    scheme_path = tmp_path / "s.json"
    assert run(["construct", "--group", "asl2:2",
                "--out", str(scheme_path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"nu": 3, \xff\xfe}')
    capsys.readouterr()
    for argv in (["params", str(bad)], ["designs", "verify", str(bad)],
                 ["twograph", "verify", str(bad)],
                 ["fuse", str(scheme_path), "--grouping", str(bad)],
                 ["construct", "--group", f"file:{bad}"]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot read {str(bad)!r}: "
                              "'utf-8' codec can't decode byte 0xff"), argv


def test_group_spec_field_order_is_ascii_digits(capsys):
    # int() would read each of these as 16 or 4
    for arg in ("1_6", " 4", "+4", "\u0664"):
        assert run(["construct", "--group", f"asl2:{arg}"]) == 2, arg
        err = capsys.readouterr().err
        assert err == f"usage error: bad field order {arg!r}\n", arg
    assert run(["construct", "--group", "asl2:04"]) == 0


def test_construct_agl1_151_keeps_the_sparse_tensor(capsys):
    # 153 classes: a dense tensor would hold 153^4 = 548M entries
    assert run(["construct", "--group", "agl1:151"]) == 0
    out = capsys.readouterr().out
    assert "nu=151 classes=153 " in out


def test_output_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["construct", "--group", "psl2:5", "--out", str(a)]) == 0
    assert run(["construct", "--group", "psl2:5", "--out", str(b)]) == 0
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
    for spec in ("agl1:257", "agl1:3001", f"file:{cycle}"):
        assert run(["construct", "--group", spec]) == 1
        err = capsys.readouterr().err
        assert "refused" in err and "degree is guarded to at most 256" in err


def test_construct_asl2_9(capsys):
    assert run(["construct", "--group", "asl2:9"]) == 0
    out = capsys.readouterr().out
    assert "group order 58320 on 81 points" in out
    assert "nu=81 classes=19 " in out


def _three_point_relations():
    from conftest import THREE_POINT_RELATIONS
    return [[list(t) for t in rel] for rel in THREE_POINT_RELATIONS]


def _reader_cases():
    overlap = _three_point_relations()
    overlap[1].append([0, 1, 2])
    uncovered = _three_point_relations()
    uncovered[4].pop()
    out_of_range = _three_point_relations()
    out_of_range[4][0] = [0, 1, 3]
    short = _three_point_relations()
    short[4][0] = [0, 1]
    # 41^3 = 68921 singleton classes: a partition of the cube, but more
    # labels than the 16-bit cube holds
    singletons = [[[x, y, z]] for x in range(41) for y in range(41)
                  for z in range(41)]
    return [("overlap", {"nu": 3, "relations": overlap}, "lies in classes"),
            ("uncovered", {"nu": 3, "relations": uncovered}, "the cube has"),
            ("out_of_range", {"nu": 3, "relations": out_of_range},
             "out of range"),
            ("two_coordinates", {"nu": 3, "relations": short},
             "is not a triple"),
            ("too_many_labels", {"nu": 41, "relations": singletons},
             "at most 65535"),
            ("huge_nu", {"nu": 10**6, "relations": [[[0, 0, 0]]]},
             "the cube has"),
            # nu^3 is past the interpreter's digit limit for int to str
            ("nu_past_digit_limit", {"nu": 10**1500, "relations": []},
             "the cube has a 14949-bit int")]


@pytest.mark.parametrize("name, payload, message", _reader_cases(),
                         ids=[case[0] for case in _reader_cases()])
def test_scheme_reader_refuses_malformed_files(tmp_path, name, payload,
                                               message):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = _cli_process("verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error:") and message in proc.stderr


def test_unwritable_outputs_exit_two(tmp_path):
    # a missing directory, a directory in place of a file, and a file in
    # place of the census directory
    (tmp_path / "file").write_text("", encoding="utf-8")
    missing = str(tmp_path / "missing" / "x.json")
    cases = [("construct", "--group", "asl2:2", "--out", missing),
             ("construct", "--group", "asl2:2", "--out", str(tmp_path)),
             ("enumerate", "--nu", "4", "--out", str(tmp_path / "file")),
             ("oracle", "asl2", "--q", "2", "--report", missing),
             ("twograph", "find", "--nu", "6", "--out", missing)]
    for args in cases:
        proc = _cli_process(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage error: cannot "), proc.stderr
    assert not (tmp_path / "missing").exists()


def _bench_tracer():
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_bindings_resolve():
    # bench/tracer.py wraps module bindings by name; a rename in the
    # package must not silently break the traced benchmark run
    import importlib
    tracer = _bench_tracer()
    assert tracer.BINDINGS
    for module_name, attr, _name, _counter in tracer.BINDINGS:
        module = importlib.import_module(f"astriples.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_tracer_counts_orbit_classes():
    # the tracer's orbit counter reads the partition the orbit routine
    # returns; the asl2:3 orbit scheme has m + 1 = 7 classes
    tracer = _bench_tracer()
    collector = tracer.Collector()
    partition = at.orbits_on_triples(at.asl2_group(3))
    tracer._count_orbits(collector, (), partition)
    assert collector.counts == {"permgroup.orbit_classes": 7}
    assert partition.m + 1 == 7


def test_version_loads_no_oracle_or_group_modules(tmp_path):
    # the package resolves its public names on first use, and each command
    # imports the library modules it uses when it runs, --version none of
    # them; no command loads dataclasses (the records need no generated
    # code) or fractions (only the ternary-field certificate takes them).
    # Modules loaded at start-up, as by site hooks, are left out.
    scheme = str(tmp_path / "s.json")
    assert run(["construct", "--group", "asl2:2", "--out", scheme]) == 0
    src = str(Path(at.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    never = {"dataclasses", "fractions"}
    oracle = {"astriples.asl2", "astriples.finfield", "astriples.hypermatrix"}
    beyond_core = {"astriples.permgroup", "astriples.constructions",
                   "astriples.enumeration", "astriples.designs"}
    cases = [
        (["--version"], {"astriples.cli"}, {"astriples.core"} | oracle),
        (["params", scheme], {"astriples.core"}, beyond_core | oracle),
        (["verify", scheme], {"astriples.core"}, beyond_core | oracle),
        (["oracle", "asl2", "--q", "2"], {"astriples.asl2"},
         {"astriples.enumeration", "astriples.designs"}),
        (["construct", "--group", "asl2:2", "--out", str(tmp_path / "c.json")],
         {"astriples.constructions"},
         {"astriples.designs", "astriples.enumeration"}
         | oracle - {"astriples.finfield"}),
        (["enumerate", "--nu", "4"], {"astriples.enumeration"},
         {"astriples.constructions", "astriples.designs"} | oracle),
        (["twograph", "find", "--nu", "4"], {"astriples.designs"},
         {"astriples.core"} | beyond_core - {"astriples.designs"} | oracle),
    ]
    for args, present, absent in cases:
        probe = ("import json, sys\n"
                 "before = set(sys.modules)\n"
                 "from astriples.cli import run\n"
                 f"assert run({args!r}) == 0\n"
                 "print(json.dumps(sorted(set(sys.modules) - before)))\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        loaded = set(json.loads(lines[-1]))
        assert present <= loaded, args
        assert not loaded & (absent | never), (args, loaded & absent)
        if args == ["--version"]:
            assert lines[0] == (f"astriples {at.__version__} (scheme "
                                f"format {at.SCHEME_FORMAT_VERSION})")


OLD_EXPORTS = {
    "core": "AstScheme GroundSet IntersectionTensor TriplePartition "
            "ValencyTable ViolationReport is_symmetric_ast "
            "partition_from_json scheme_to_json verify_ast",
    "designs": "TwoDesign TwoGraph complement_two_graph "
               "find_regular_two_graphs is_regular pair_coverage "
               "two_graph_from_graph verify_design verify_two_graph",
    "enumeration": "AstIsomorphism EnumerationTask are_isomorphic "
                   "canonical_key enumerate_asts enumerate_circulant",
    "errors": "AstriplesError ConsistencyError PreconditionError "
              "RefusalError SizeGuardError StructuralError",
    "finfield": "FiniteField agl1_group agl2_group asl2_group "
                "field_from_order group_from_spec make_field point_index "
                "psl2_group",
    "hypermatrix": "AlgebraElement CubicHypermatrix adjacency "
                   "associativity_counterexample class_product_mismatch "
                   "commutativity_counterexample is_associative_subalgebra "
                   "is_commutative_subalgebra product_in_coefficients "
                   "ternary_field_certificate ternary_product "
                   "verify_structure_constants weak_associativity_check",
    "permgroup": "PermutationGroup close cycle_orbits_on_relation "
                 "find_invariant_cycle is_circulant_ast is_invariant is_thin "
                 "is_transitive is_two_transitive orbits_on_triples "
                 "pair_orbits perm_from_cycles thin_circulant_decomposition "
                 "two_point_stabilizer_orbits",
    "constructions": "FusionGrouping FusionTheoremReport "
                     "TwoGraphFusionResult ast_from_design ast_from_group "
                     "ast_from_two_graph design_from_symmetric_relation fuse "
                     "is_fission_of two_graph_from_ast two_graph_fusion "
                     "vanishing_report verify_fusion_theorem",
    "asl2": "check_asl2_nontrivial_products check_asl2_trivial_products "
            "check_asl2_valencies run_asl2_oracle",
}


def test_package_exports_resolve_to_their_modules():
    # the names the package imported eagerly before it loaded them on
    # first use: each is exported, listed by dir() and the module's object
    import importlib
    names = [name for names in OLD_EXPORTS.values() for name in names.split()]
    assert at.__all__ == names
    assert set(names) | set(OLD_EXPORTS) <= set(dir(at))
    for module_name, module_names in OLD_EXPORTS.items():
        module = importlib.import_module(f"astriples.{module_name}")
        assert getattr(at, module_name) is module
        for name in module_names.split():
            assert getattr(at, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        at.no_such_name
