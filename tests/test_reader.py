"""The scheme reader against the whole-text reader it replaced.

``core.partition_from_json`` places a file in the writer's exact spelling
run by run (``_bulk_cube``), with any number of classes, and parses any
other text whole, malformed input included.  For every input here it
must return the partition ``naive.naive_partition_from_json`` returns, in
the same typecode, or raise the same error with the same message; the
bulk path returns that cube or None.
"""

import json
import random
import tracemalloc

import pytest

import astriples as at
from astriples.core import _bulk_cube, scheme_to_json
from astriples.enumeration import EnumerationTask, enumerate_asts
from astriples.finfield import asl2_group

from naive import naive_partition_from_json
from test_cli import _reader_cases
from test_fuzz_cli import _bases, _mutate


def _outcome(read, text):
    try:
        part = read(text)
    except at.AstriplesError as exc:
        return type(exc), str(exc)
    return part.ground, part.labels.typecode, part.labels.tobytes()


def assert_same_reading(text):
    """Both readers agree on ``text``; returns whether it was valid."""
    want = _outcome(naive_partition_from_json, text)
    assert _outcome(at.partition_from_json, text) == want, text[:200]
    return isinstance(want[0], at.GroundSet)


def _relabelled(scheme, seed):
    """The scheme's file with its points shuffled, written as
    ``bench/relabel.py`` writes it."""
    data = json.loads(scheme_to_json(scheme))
    perm = list(range(data["nu"]))
    random.Random(seed).shuffle(perm)
    relations = [sorted([perm[x], perm[y], perm[z]] for x, y, z in rel)
                 for rel in data["relations"]]
    return json.dumps({"nu": data["nu"], "relations": relations},
                      sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def valid_texts():
    schemes = {f"asl2_{q}": at.ast_from_group(asl2_group(q))
               for q in (2, 3, 4, 5)}
    schemes["agl1_7"] = at.ast_from_group(at.agl1_group(7))
    for nu in (4, 5):
        for i, scheme in enumerate(enumerate_asts(
                EnumerationTask(ground=at.GroundSet(nu)))):
            schemes[f"census_{nu}_{i}"] = scheme
    for i, scheme in enumerate(at.enumerate_circulant(7)):
        schemes[f"circulant_7_{i}"] = scheme
    texts = {name: scheme_to_json(s) for name, s in schemes.items()}
    texts["relabelled_asl2_4"] = _relabelled(schemes["asl2_4"], 906)
    return texts


@pytest.fixture(scope="module")
def asl2_8_text():
    return scheme_to_json(at.ast_from_group(asl2_group(8)))


def test_bulk_path_reads_every_writer_file(valid_texts, asl2_8_text):
    texts = dict(valid_texts, asl2_8=asl2_8_text,
                 relabelled_asl2_8=_relabelled(
                     at.partition_from_json(asl2_8_text), 906))
    for name, text in texts.items():
        cube = _bulk_cube(text)
        want = naive_partition_from_json(text).labels
        assert cube is not None, name
        assert (cube.typecode, cube) == (want.typecode, want), name


def _writer_mutations(text):
    """Edits of the writer's nu=9 asl2:3 file: each one leaves the exact
    spelling, so the bulk path must return None for it."""
    return {
        "zero_padded_z": text.replace(", 1]", ", 01]", 1),
        "zero_padded_x": text.replace("[1, ", "[01, ", 1),
        "zero_padded_nu": text.replace('"nu": 9', '"nu": 09', 1),
        "minus_zero_x": text.replace("[0, 0, 0]", "[-0, 0, 0]", 1),
        "minus_zero_y": text.replace("[0, 0, 0]", "[0, -0, 0]", 1),
        "float_z": text.replace("[8, 8, 8]", "[8, 8, 8.0]", 1),
        "bool_z": text.replace("[1, 1, 1]", "[1, 1, true]", 1),
        "x_out_of_range": text.replace("[8, 8, 8]", "[9, 8, 8]", 1),
        "z_out_of_range": text.replace("[8, 8, 8]", "[8, 8, 9]", 1),
        "nu_too_small": text.replace('"nu": 9', '"nu": 8', 1),
        "nu_too_large": text.replace('"nu": 9', '"nu": 10', 1),
        "repeat_in_class": text.replace("[[0, 0, 0], ",
                                        "[[0, 0, 0], [0, 0, 0], ", 1),
        "repeat_across_classes": text.replace("]], [[", "]], [[0, 0, 0], [",
                                              1),
        # nu^3 triples, one cell twice and one never
        "repeat_for_missing": text.replace("]], [[0, 1, 1]",
                                           "]], [[0, 0, 0]", 1),
        "runs_out_of_order": text.replace("[[0, 0, 0], [1, 1, 1]",
                                          "[[1, 1, 1], [0, 0, 0]", 1),
        "missing_space_in_triple": text.replace("[1, 1, 1]", "[1, 1,1]", 1),
        "missing_space_between": text.replace("], [1, 1, 1]",
                                              "],[1, 1, 1]", 1),
        "newline_between_runs": text.replace("], [1, 1, 1]",
                                             "],\n[1, 1, 1]", 1),
        "unread_first_triple": text.replace("]], [[0, 1, 1]",
                                            "]], [[-0, 1, 1], [0, 1, 1]", 1),
        "bad_class_open": text.replace("]], [[", "]], ([", 1),
        "extra_space_in_triple": text.replace("[1, 1, 1]", "[1, 1, 1 ]", 1),
        "extra_space_in_header": text.replace('"nu": ', '"nu":  ', 1),
        "leading_space": " " + text,
        "trailing_space": text + " ",
        "trailing_newline": text + "\n",
        "trailing_bytes": text.rstrip() + "x",
        "trailing_object": text.rstrip() + "{}",
        "truncated_last_class": text[:-20],
        "last_triple_dropped": text[:text.rindex(", [")] + "]]}\n",
        "empty_last_class": text.rstrip()[:-2] + ", []]}",
    }


def test_bulk_path_leaves_every_other_spelling_to_the_reader(valid_texts):
    text = valid_texts["asl2_3"]
    for name, mutated in _writer_mutations(text).items():
        assert mutated != text, name
        assert _bulk_cube(mutated) is None, name
        assert_same_reading(mutated)


def test_bulk_path_class_counts():
    # nu=18 in one class for each (y, z) but the last few: every class
    # holds every x, and the bulk path widens the cube to 'H' at the 256th
    # class
    cells = range(18**3)
    for k in (254, 255, 256, 300):
        text = scheme_to_json(at.TriplePartition.from_labels(
            at.GroundSet(18), [min(c % 18**2, k - 1) for c in cells]))
        assert assert_same_reading(text)
        cube = _bulk_cube(text)
        want = naive_partition_from_json(text).labels
        assert cube is not None, k
        assert (cube.typecode, cube) == (want.typecode, want), k
        # nu^3 triples, (0, 0, 0) twice and (0, 0, 1) never
        twice = text.replace("]], [[0, 0, 1]", "]], [[0, 0, 0]", 1)
        assert twice != text and _bulk_cube(twice) is None, k
        assert not assert_same_reading(twice)


def test_bulk_path_needs_every_x_in_every_class():
    # one class for each x, and a discrete partition of the first 342
    # cells of nu=7 (343 classes, an 'H' cube)
    for nu, labels in ((9, [c // 81 for c in range(729)]),
                       (7, list(range(343)))):
        text = scheme_to_json(at.TriplePartition.from_labels(
            at.GroundSet(nu), labels))
        assert _bulk_cube(text) is None
        assert assert_same_reading(text)


def test_valid_files_are_read_one_class_at_a_time(valid_texts):
    for name, text in valid_texts.items():
        assert assert_same_reading(text), name
        assert _bulk_cube(text) is not None, name


def _variants(text):
    """Valid spellings of a scheme file other than the writer's."""
    data = json.loads(text)
    nu, rels = data["nu"], json.dumps(data["relations"])
    return [
        json.dumps(data, indent=2),
        json.dumps(data, indent="\t"),
        json.dumps(data, separators=(",", ":")),
        " \r\n\t" + text.replace(", ", " ,\r\n\t") + "\n \t",
        json.dumps({"relations": data["relations"], "nu": nu}),
        f'{{"format": "1", "nu": {nu}, "meta": {{"a": [1, 2.5, null]}}, '
        f'"relations": {rels}, "tail": "x"}}',
        # duplicate keys: the last one wins, as with json.loads
        f'{{"nu": 99, "nu": {nu}, "relations": {rels}}}',
        f'{{"nu": {nu}, "relations": [[]], "relations": {rels}}}',
    ]


def test_valid_variants(valid_texts):
    for name in ("asl2_2", "census_4_0", "circulant_7_1"):
        for text in _variants(valid_texts[name]):
            assert assert_same_reading(text), text[:200]
            assert _bulk_cube(text) is None, text[:200]


def test_invalid_variants(valid_texts):
    text = valid_texts["asl2_2"]
    data = json.loads(text)
    nu, rels = data["nu"], json.dumps(data["relations"])
    bad = [f'{{"nu": {nu}, "relations": {rels}, "nu": 5}}',
           f'{{"nu": {nu}, "relations": {rels}, "relations": [[]]}}',
           f'{{"nu": {nu}, "relations": {rels},}}',
           f'{{"nu": {nu} "relations": {rels}}}',
           f'{{"nu": {nu}, "relations": {rels[:-1]},]}}',
           f'{{"nu": {nu}, "relations": {{"0": {rels}}}}}',
           f'{{"nu": {nu}, "relations": [{rels}]}}',
           f'{{"nu": {nu}, "relations": [7]}}',
           f'{{"nu": {nu}, "relations": ["abc"]}}',
           f'{{"nu": {nu}, "relations": [""]}}',
           f'{{"nu": {nu}, "relations": []}}',
           f'{{"nu": {nu}, "relations": "{rels}"}}',
           f'{{"relations": {rels}}}',
           f'{{"nu": {nu}}}',
           "{}", "[]", "", "   ", "null", f'[{{"nu": {nu}}}]',
           "\ufeff" + text]
    bad += [text.replace(f'"nu": {nu}', f'"nu": {value}', 1)
            for value in ("3.9", '"3"', '" 3 "', "true", "2", "-1", "1e400",
                          "NaN", "[]", "null")]
    for text in bad:
        assert not assert_same_reading(text), text[:200]


@pytest.mark.parametrize("name, payload, message", _reader_cases(),
                         ids=[case[0] for case in _reader_cases()])
def test_malformed_payloads(name, payload, message):
    assert not assert_same_reading(json.dumps(payload))


def test_class_counts_across_the_byte_cube_limit():
    # nu=7 has 343 cells: one class for each of the first k - 1 cells and
    # one for the rest, so the cube widens to 'H' at the 256th class
    cells = [[x, y, z] for x in range(7) for y in range(7) for z in range(7)]
    for k in (254, 255, 256, 257, 343):
        rels = [[c] for c in cells[:k - 1]] + [cells[k - 1:]]
        text = json.dumps({"nu": 7, "relations": rels})
        assert assert_same_reading(text)
        part = at.partition_from_json(text)
        assert part.labels.typecode == at.core.cube_typecode(k)
        assert part.sizes == (1,) * (k - 1) + (344 - k,)


def test_truncations_and_trailing_data(valid_texts):
    text = valid_texts["census_4_0"]
    for end in range(len(text.rstrip())):
        assert not assert_same_reading(text[:end])
    assert assert_same_reading(text.rstrip() + " \r\n\t ")
    for tail in ("x", "{}", "]", ",", "\x00", "0", '"', "//"):
        assert not assert_same_reading(text + tail), tail


def test_fuzz_mutations_read_alike():
    bases = _bases()
    rng = random.Random(2024)
    for kind in ("scheme3", "scheme5"):
        text, bound = bases[kind]
        for _ in range(150):
            assert_same_reading(_mutate(rng, text, bound))


def _traced_peak(read, text):
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_peaks_far_below_the_whole_text_reader(asl2_8_text):
    # the whole-text reader holds every class's lists at once: 24.4 MiB for
    # the 3.4 MiB asl2:8 text; run by run, the reader peaks at 1.0 MiB
    text = asl2_8_text
    peak = _traced_peak(at.partition_from_json, text)
    whole = _traced_peak(naive_partition_from_json, text)
    assert 4 * peak < whole, (peak, whole)
