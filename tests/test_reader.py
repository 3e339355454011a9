"""The scheme reader against the whole-text reader it replaced.

``core.partition_from_json`` decodes one class at a time and falls back to
parsing the whole text only for malformed input and for files whose
``"relations"`` key comes before ``"nu"``.  For every input here it must
return the partition ``naive.naive_partition_from_json`` returns, in the
same typecode, or raise the same error with the same message.
"""

import json
import random
import tracemalloc

import pytest

import astriples as at
from astriples.core import _partition_by_class, scheme_to_json
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


def test_valid_files_are_read_one_class_at_a_time(valid_texts):
    for name, text in valid_texts.items():
        assert assert_same_reading(text), name
        assert _partition_by_class(text) is not None, name


def _variants(text):
    """Valid spellings of a scheme file, and whether ``"nu"`` comes before
    the classes in each."""
    data = json.loads(text)
    nu, rels = data["nu"], json.dumps(data["relations"])
    return [
        (json.dumps(data, indent=2), True),
        (json.dumps(data, indent="\t"), True),
        (json.dumps(data, separators=(",", ":")), True),
        (" \r\n\t" + text.replace(", ", " ,\r\n\t") + "\n \t", True),
        (json.dumps({"relations": data["relations"], "nu": nu}), False),
        (f'{{"format": "1", "nu": {nu}, "meta": {{"a": [1, 2.5, null]}}, '
         f'"relations": {rels}, "tail": "x"}}', True),
        # duplicate keys: the last one wins, as with json.loads
        (f'{{"nu": 99, "nu": {nu}, "relations": {rels}}}', True),
        (f'{{"nu": {nu}, "relations": [[]], "relations": {rels}}}', False),
    ]


def test_valid_variants(valid_texts):
    for name in ("asl2_2", "census_4_0", "circulant_7_1"):
        for text, streamed in _variants(valid_texts[name]):
            assert assert_same_reading(text), text[:200]
            assert (_partition_by_class(text) is not None) == streamed, \
                text[:200]


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


def test_reader_peaks_far_below_the_whole_text_reader():
    # the whole-text reader holds every class's lists at once: 24.4 MiB for
    # the 3.4 MiB asl2:8 text; one class at a time, the largest class
    # (32,256 triples) and the cube take 3.2 MiB
    text = scheme_to_json(at.ast_from_group(asl2_group(8)))
    peak = _traced_peak(at.partition_from_json, text)
    whole = _traced_peak(naive_partition_from_json, text)
    assert 4 * peak < whole, (peak, whole)
