"""Seeded fuzz of the JSON loaders and of the argument lists through
``cli.run``.

Valid scheme, design, two-graph and grouping files are mutated (wrong
types, missing keys, out-of-range points, dropped or repeated entries,
truncated text).  The commands that read no file (``construct``,
``enumerate``, ``oracle``, ``twograph find``) get small, bad or missing
specifiers, sizes and flags, and ``--out`` paths that cannot be written.
Every command must end with exit code 0, 1 or 2 and a typed error, never
an escaping exception.
"""

import json
import random

import pytest

import astriples as at
from astriples.cli import run
from astriples.constructions import FusionGrouping, grouping_to_json
from astriples.core import scheme_to_json
from astriples.designs import design_to_json, two_graph_to_json

from conftest import fano_blocks

WRONG = (None, True, "x", "7", 1.5, [], {}, [[]], {"v": 1})


def _bases():
    three = at.ast_from_group(at.agl1_group(3))
    five = at.ast_from_group(at.agl1_group(5))
    fano = at.verify_design(7, fano_blocks())
    six = at.find_regular_two_graphs(6)[0]
    return {
        "scheme3": (scheme_to_json(three), 3),
        "scheme5": (scheme_to_json(five), 5),
        "design": (design_to_json(fano), 7),
        "twograph": (two_graph_to_json(six), 6),
        "grouping": (grouping_to_json(
            FusionGrouping.all_nontrivial_into_one(five.m)), five.m),
    }


def _commands(kind, path, other):
    """The CLI calls that read a file of this kind at ``path``; ``other``
    holds valid companion files."""
    if kind.startswith("scheme"):
        return [["verify", path], ["verify", path, "--full-check"],
                ["params", path], ["fission-check", path, path],
                ["fuse", path, "--grouping", other["grouping"]],
                ["designs", "from-ast", path],
                ["twograph", "from-ast", path, "--mode", "lenient"]]
    if kind == "design":
        return [["designs", "verify", path], ["designs", "to-ast", path]]
    if kind == "twograph":
        return [["twograph", "verify", path], ["twograph", "to-ast", path]]
    return [["fuse", other["scheme5"], "--grouping", path]]


def _slots(node):
    """Every (container, key) position below ``node``."""
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


def _mutate(rng, text, bound):
    if rng.random() < 0.15:
        return text[:rng.randrange(len(text))]
    data = json.loads(text)
    container, key = rng.choice(list(_slots(data)))
    value = container[key]
    roll = rng.random()
    if roll < 0.2 and isinstance(container, dict):
        del container[key]
    elif roll < 0.35 and isinstance(container, list):
        if rng.random() < 0.5:
            del container[key]
        else:
            container.append(value)
    elif roll < 0.7 and isinstance(value, int):
        container[key] = rng.choice((-1, bound, bound + 1, 2**40, -(2**40)))
    else:
        container[key] = rng.choice(WRONG)
    return json.dumps(data)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_inputs_end_in_a_typed_exit(tmp_path, capsys, seed):
    bases = _bases()
    valid = {}
    for kind, (text, _bound) in bases.items():
        path = tmp_path / f"valid_{kind}.json"
        path.write_text(text, encoding="utf-8")
        valid[kind] = str(path)
    rng = random.Random(seed)
    codes = set()
    for _ in range(60):
        kind = rng.choice(sorted(bases))
        text, bound = bases[kind]
        mutated = _mutate(rng, text, bound)
        path = tmp_path / "mutated.json"
        path.write_text(mutated, encoding="utf-8")
        for argv in _commands(kind, str(path), valid):
            try:
                code = run(argv)
            except Exception as exc:  # report the input that escaped
                pytest.fail(f"{argv} on {mutated[:300]!r} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, mutated[:300], code)
            assert "Traceback" not in err
            codes.add(code)
    assert 2 in codes


SPECS = ("asl2:2", "asl2:3", "agl1:5", "agl1:9", "agl2:3", "psl2:5", "asl2:17",
         "agl1:257", "psl2:64", "agl1:1", "agl1:6", "asl2:0", "asl2:-3",
         "asl2:x", "asl2", "foo:3", ":", "", "file:")


def _argv(rng, tmp_path):
    """One small argument list for a command that reads no file."""
    ints = lambda *good: str(rng.choice(good + (-1, 0, 1, 9, "x", "")))
    command = rng.choice(("construct", "enumerate", "oracle", "twograph"))
    if command == "construct":
        argv = ["construct", "--group", rng.choice(SPECS + (
            f"file:{tmp_path}", f"file:{tmp_path / 'missing.json'}"))]
    elif command == "enumerate":
        argv = ["enumerate", "--nu", ints(3, 4, 5, 7)]
        if rng.random() < 0.3:
            argv += ["--group", rng.choice(SPECS[:6])]
        for flag in ("--symmetric", "--circulant"):
            if rng.random() < 0.3:
                argv.append(flag)
        if rng.random() < 0.3:
            argv += ["--max-classes", ints(1, 2)]
    elif command == "oracle":
        argv = ["oracle", rng.choice(("asl2", "asl3")), "--q", ints(2, 3, 6)]
    else:
        argv = ["twograph", "find", "--nu", ints(4, 5, 6, 7)]
    if rng.random() < 0.5:
        flag = "--report" if command == "oracle" else "--out"
        # a fresh file, an existing directory, a missing directory, and a
        # path below a file
        argv += [flag, str(rng.choice((
            tmp_path / f"out{rng.randrange(3)}", tmp_path,
            tmp_path / "missing" / "x.json", tmp_path / "file" / "x.json")))]
    if rng.random() < 0.1:
        argv.pop(rng.randrange(len(argv)))
    return argv


@pytest.mark.parametrize("seed", range(2))
def test_fuzzed_arguments_end_in_a_typed_exit(tmp_path, capsys, seed):
    (tmp_path / "file").write_text("", encoding="utf-8")
    rng = random.Random(seed)
    codes = set()
    for _ in range(80):
        argv = _argv(rng, tmp_path)
        try:
            code = run(argv)
        except Exception as exc:  # report the arguments that escaped
            pytest.fail(f"{argv} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        codes.add(code)
    assert codes == {0, 1, 2}
