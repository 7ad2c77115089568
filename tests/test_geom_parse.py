"""The geom payload parse (engine.geometry.parse_geom_payloads): one
pyarrow.json read per kernel run, equal bit for bit to a json.loads +
np.fromiter oracle on fuzzed payloads, and malformed geometry rejected with
an error that names the doc."""

import itertools
import json

import numpy as np
import pyarrow as pa
import pytest

import engine.geometry as geo
from engine.properties import _props_batch
from engine.schema import SPAN_TYPE


def _oracle(texts):
    """The per-object parse: json.loads, then np.fromiter over the nested
    lists -> (kept positions, origins, x, y, z, surf_len, obj_surf)."""
    flat = itertools.chain.from_iterable
    keep, origins, coords, surf_len, obj_surf = [], [], [np.zeros(0)], [], []
    for i, text in enumerate(texts):
        obj = json.loads(text)
        surfaces = obj["surfaces"]
        if len(surfaces) < geo.MIN_SURFACES_NUM:
            continue
        keep.append(i)
        origins.append(obj.get("origin", [0.0, 0.0]))
        lens = [len(s) for s in surfaces]
        surf_len.extend(lens)
        obj_surf.append(len(lens))
        coords.append(np.fromiter(flat(flat(surfaces)), dtype=np.float64,
                                  count=3 * sum(lens)))
    xyz = np.concatenate(coords).reshape(-1, 3)
    return (np.asarray(keep, dtype=np.int64),
            np.asarray(origins, dtype=np.float64).reshape(-1, 2),
            xyz[:, 0], xyz[:, 1], xyz[:, 2],
            np.asarray(surf_len, dtype=np.int64),
            np.asarray(obj_surf, dtype=np.int64))


def _number(r) -> str:
    """A JSON number token in one of several spellings (never ``-0``, the
    one token the two parses read differently; see below)."""
    form = int(r.integers(9))
    if form == 0:
        return str(int(r.integers(-10**6, 10**6)) or 1)
    if form == 1:
        return repr(float(r.normal() * 10.0 ** r.integers(-6, 7)))
    if form == 2:        # integers past int64 and past 2**53
        return str(int(r.integers(1, 10**9)) * 10 ** int(r.integers(10, 30)))
    if form == 3:
        return (f"{int(r.integers(1, 1000))}{'eE'[int(r.integers(2))]}"
                f"{['', '+', '-'][int(r.integers(3))]}{int(r.integers(0, 40))}")
    if form == 4:
        return f"-{int(r.integers(1, 99))}.{int(r.integers(0, 999)):03d}e-7"
    if form == 5:        # more digits than a double holds
        return "0." + "".join(str(d) for d in r.integers(0, 10, 25))
    if form == 6:
        return "-0.0"
    if form == 7:
        return str(float(np.round(r.uniform(-50, 50) * 64) / 64))
    return repr(float(np.spacing(1.0) * r.integers(1, 99)))


def _payload(r) -> str:
    """One payload: 0-14 surfaces of 0-6 vertices, with random whitespace
    and newlines between tokens, either key order, extra keys and an
    optional origin."""
    def ws():
        return "".join(r.choice([" ", "\n", "\t", "\r\n"])
                       for _ in range(int(r.integers(0, 3))))

    def arr(items):
        return "[" + ws() + ("," + ws()).join(items) + ws() + "]"

    surfaces = arr([arr([arr([ws() + _number(r) + ws() for _ in range(3)])
                         for _ in range(int(r.integers(0, 7)))])
                    for _ in range(int(r.integers(0, 15)))])
    members = [f'"surfaces"{ws()}:{ws()}{surfaces}']
    if r.random() < 0.8:
        members.append(f'"origin":{ws()}{arr([_number(r), _number(r)])}')
    if r.random() < 0.5:
        members.append('"extra": {"a": [1, "two", null, {"b": true}], '
                       '"c": "x\\ny \\"z\\""}')
    if r.random() < 0.3:
        members.append('"n": [123456789012345678901234567890, 1E-300]')
    order = r.permutation(len(members))
    return "{" + ws() + ("," + ws()).join(members[i] for i in order) + ws() \
        + "}"


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_parse_matches_the_json_oracle_bit_for_bit():
    r = np.random.default_rng(9)
    texts = [_payload(r) for _ in range(500)]
    keep, origin, m = geo.parse_geom_payloads(texts)
    want = _oracle(texts)
    assert 0 < len(keep) < len(texts)      # some payloads are dropped
    assert np.array_equal(keep, want[0])
    for got, exp in zip((origin, m.x, m.y, m.z), want[1:5]):
        assert np.array_equal(_bits(got), _bits(exp))
    assert np.array_equal(m.surf_len, want[5])
    assert np.array_equal(m.obj_surf, want[6])
    # an Arrow string array parses the same as a list
    again = geo.parse_geom_payloads(pa.array(texts))
    assert np.array_equal(_bits(again[2].x), _bits(m.x))


def test_parse_geom_payload_is_a_batch_of_one():
    r = np.random.default_rng(4)
    for text in (_payload(r) for _ in range(40)):
        keep, origin, m = geo.parse_geom_payloads([text])
        one = geo.parse_geom_payload(text)
        if not len(keep):
            assert one is None
            continue
        assert np.array_equal(one[0], origin[0])
        assert [len(s) for s in one[1]] == m.surf_len.tolist()
        assert np.array_equal(np.concatenate(one[1]),
                              np.column_stack([m.x, m.y, m.z]))


SQUARE = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]


def test_minus_zero_token_reads_as_negative_zero():
    """``-0`` is the one number token on which the Arrow read and json.loads
    differ: -0.0 here, +0.0 there.  The generators never write it (they
    write ``-0.0`` or ``0.0``, which both read alike)."""
    text = ('{"surfaces": ' + json.dumps([SQUARE] * 9)[:-1]
            + ', [[-0, 0, -0.0]]]}')
    _, _, m = geo.parse_geom_payloads([text])
    assert np.signbit([m.x[-1], m.y[-1], m.z[-1]]).tolist() == \
        [True, False, True]
    oracle = _oracle([text])
    assert np.signbit([oracle[2][-1], oracle[3][-1], oracle[4][-1]]) \
        .tolist() == [False, False, True]


def _with(vertex: str, origin: str = "[1, 2]") -> str:
    good = json.dumps([SQUARE] * 10)
    return (f'{{"origin": {origin}, "surfaces": '
            f'{good[:-1]}, [{vertex}, [1, 0, 0], [0, 1, 0]]]}}')


MALFORMED = {
    "four_numbers": _with("[0, 0, 0, 7]"),
    "two_numbers": _with("[0, 0]"),
    "nan": _with("[NaN, 0, 0]"),
    "infinity": _with("[0, Infinity, 0]"),
    "minus_infinity": _with("[0, 0, -Infinity]"),
    "overflow": _with("[1e400, 0, 0]"),
    "null_number": _with("[0, null, 0]"),
    "string_number": _with('[0, "1", 0]'),
    "bad_origin": _with("[0, 0, 0]", origin="[1, 2, 3]"),
    "nan_origin": _with("[0, 0, 0]", origin="[NaN, 2]"),
    "no_surfaces": '{"origin": [1, 2]}',
    "two_objects": _with("[0, 0, 0]") + _with("[0, 0, 0]"),
    "not_json": '{"surfaces": [[[0, 0, 0]]',
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_geometry_is_rejected_naming_the_doc(case):
    """Malformed geometry raises instead of being misread: the per-object
    parse this one replaced read a 4-number vertex, shifting every later
    coordinate ([[0,0,0,7], ...] gave x = [0, 7, 0, 0])."""
    good = _with("[0, 0, 0]")
    texts = [good, MALFORMED[case], good]
    with pytest.raises(ValueError, match="doc d-1"):
        geo.parse_geom_payloads(texts, ["d-0", "d-1", "d-2"])
    span = {"kind": "geom", "media_ref": "", "offset": 0}
    docs = pa.table({
        "doc_id": pa.array(["7", "8", "9"], type=pa.string()),
        "source": pa.array(["cands"] * 3, type=pa.string()),
        "spans": pa.array([[{**span, "text": t}] for t in texts],
                          type=pa.list_(SPAN_TYPE))})
    with pytest.raises(ValueError, match="doc 8"):
        _props_batch(docs, False)


def test_the_good_payload_of_the_reject_cases_parses():
    keep, origin, m = geo.parse_geom_payloads([_with("[0, 0, 0]")])
    assert keep.tolist() == [0] and origin.tolist() == [[1.0, 2.0]]
    assert m.obj_surf.tolist() == [11] and len(m.x) == 43
