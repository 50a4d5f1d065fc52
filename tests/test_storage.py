"""Structure and pattern files: round trips and integrity checking."""

import base64
import json
import random
import re

import numpy as np
import pytest

from ecds.bits import BitString
from ecds.cli import main
from ecds.errors import ParameterError
from ecds.hadamard import EqualityScheme, HadamardIp, RandomLinearCode
from ecds.harness import estimate_error
from ecds.inner_product import PolySharedIp, SubstringHadamard, TableIp
from ecds.membership import BlockCodedMembership, OneProbeMembership
from ecds.oracle import CorruptionPattern
from ecds.storage import (
    KINDS,
    load_pattern,
    load_structure,
    report_csv_text,
    save_pattern,
    save_structure,
)


def roundtrip(tmp_path, scheme):
    path = str(tmp_path / "structure.ecds")
    save_structure(path, scheme)
    back = load_structure(path)
    assert back.codeword == scheme.codeword
    assert back.name == scheme.name
    assert back.params() == scheme.params()
    return back


def test_roundtrip_hadamard_ip(tmp_path):
    roundtrip(tmp_path, HadamardIp(BitString.from01("10110")))


def test_roundtrip_hadamard_at_s_20(tmp_path):
    """had-ip and Hadamard equality files at s = 20 hold x's codeword by
    its per-position definition (parity(z & x) at 0-based position z, 128
    KiB packed); each loads back, re-encoded, and saves the same bytes."""
    x = BitString.random(20, random.Random(20))
    z = np.arange(1 << 20, dtype=np.uint64)
    expect = np.packbits(np.bitwise_count(z & np.uint64(x.value)) & 1).tobytes()
    path = tmp_path / "structure.ecds"
    for scheme in (HadamardIp(x), EqualityScheme(x)):
        back = roundtrip(tmp_path, scheme)
        saved = path.read_bytes()
        assert saved.split(b"\n", 1)[1] == expect
        save_structure(str(path), back)
        assert path.read_bytes() == saved


def test_roundtrip_equality_variants(tmp_path):
    x = BitString.from01("1011")
    roundtrip(tmp_path, EqualityScheme(x))
    roundtrip(tmp_path, EqualityScheme(x, balanced=False))
    code = RandomLinearCode(4, 18, rng=random.Random(2))
    back = roundtrip(tmp_path, EqualityScheme(x, code=code))
    assert back.code.rows == code.rows
    assert back.code.dmin == code.dmin
    assert back.gamma == code.gamma


def test_roundtrip_tables(tmp_path):
    x = BitString.from01("110100")
    roundtrip(tmp_path, TableIp(x, 3, 2))
    roundtrip(tmp_path, PolySharedIp(BitString.from01("1011"), 1, 3))
    roundtrip(tmp_path, SubstringHadamard(x, 3, t=3))


def test_roundtrip_membership(tmp_path):
    st = OneProbeMembership(
        n=2,
        s=1,
        eps=0.4,
        probe_sets=[(1, 2, 3, 4, 5), (4, 5, 6, 7, 8)],
        n_prime=8,
    )
    back = roundtrip(tmp_path, st.instance(BitString.from01("10")))
    assert back.structure.probe_set(2) == (4, 5, 6, 7, 8)


def test_roundtrip_composed(tmp_path):
    base = OneProbeMembership(
        n=4,
        s=1,
        eps=0.4,
        probe_sets=[(1, 3), (5, 7), (2, 4), (6, 8)],
        n_prime=8,
    )
    st = BlockCodedMembership(public_n=2, base=base, perm=list(range(8)), a=2)
    for decoder in ("block", "direct"):
        back = roundtrip(tmp_path, st.instance(BitString.from01("10"), decoder))
        assert back.decoder == decoder
        assert back.structure.good_indices == (1, 2)
        assert np.array_equal(back.structure.perm, st.perm)


def storable_schemes():
    """At least one scheme of every storable kind."""
    x = BitString.from01("110100")
    yield HadamardIp(BitString.from01("10110"))
    yield EqualityScheme(BitString.from01("1011"))
    yield EqualityScheme(BitString.from01("1011"), code=RandomLinearCode(4, 18, rng=random.Random(2)))
    yield TableIp(x, 3, 2)
    yield PolySharedIp(BitString.from01("1011"), 1, 3)
    yield SubstringHadamard(x, 3, t=3)
    yield OneProbeMembership.build(8, 1, 0.3).instance(BitString.from01("00100000"))
    composed = BlockCodedMembership.build(16, 1, 0.4, a=5, b=40)
    yield composed.instance(BitString.from_indices(16, [3]))
    yield composed.instance(BitString.from_indices(16, [3]), "direct")


def test_save_load_save_is_byte_identical(tmp_path):
    first, second = tmp_path / "first.ecds", tmp_path / "second.ecds"
    kinds = set()
    for scheme in storable_schemes():
        save_structure(str(first), scheme)
        save_structure(str(second), load_structure(str(first)))
        assert first.read_bytes() == second.read_bytes(), scheme.name
        kinds.add(scheme.kind)
    assert kinds == set(KINDS)


def test_version1_list_headers_still_load(tmp_path):
    """A version-1 file holds its integer arrays as JSON lists of ints: it
    loads to the same structure, and saves back as the version-2 file."""
    path = tmp_path / "structure.ecds"
    for scheme in storable_schemes():
        save_structure(str(path), scheme)
        packed = path.read_bytes()
        line, payload = packed.split(b"\n", 1)
        head = json.loads(line)
        assert head["version"] == 2
        for key, value in head.items():
            if isinstance(value, dict) and "array" in value:
                raw = base64.b64decode(value["data"])
                head[key] = np.frombuffer(raw, value["array"]).reshape(value["shape"]).tolist()
        head["version"] = 1
        path.write_bytes(json.dumps(head, sort_keys=True).encode() + b"\n" + payload)
        back = load_structure(str(path))
        assert back.codeword == scheme.codeword
        assert back.params() == scheme.params()
        save_structure(str(path), back)
        assert path.read_bytes() == packed


def test_membership_arrays_are_packed_small(tmp_path):
    """Probe sets and permutations are written in the smallest integer
    dtype that holds them, little-endian."""
    path = tmp_path / "structure.ecds"
    composed = BlockCodedMembership.build(16, 1, 0.4, a=5, b=40)
    save_structure(str(path), composed.instance(BitString.from_indices(16, [3])))
    head = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert head["probe_sets"]["array"] == "|u1"  # positions 1..200
    assert head["probe_sets"]["shape"] == [16, 40]
    assert head["perm"]["array"] == "|u1"
    st = OneProbeMembership(2, 1, 0.4, [(1, 2), (299, 300)], 300)
    save_structure(str(path), st.instance(BitString.from01("10")))
    head = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert head["probe_sets"] == {
        "array": "<u2",
        "data": base64.b64encode(np.array([[1, 2], [299, 300]], "<u2").tobytes()).decode(),
        "shape": [2, 2],
    }


def test_membership_headers_hand_over_narrow_sets(tmp_path, monkeypatch):
    """Both membership headers give their probe sets in the narrowest
    dtype that holds n', so saving makes no int64 copy, and the file is
    byte for byte the one the int64 sets write."""
    composed = BlockCodedMembership.build(16, 1, 0.4, a=5, b=40)
    st = OneProbeMembership(2, 1, 0.4, [(1, 2), (299, 300)], 300)
    cases = [
        (composed.instance(BitString.from_indices(16, [3])), np.uint8),
        (st.instance(BitString.from01("10")), np.uint16),
    ]
    path = tmp_path / "structure.ecds"
    saved = []
    for scheme, dtype in cases:
        assert scheme.header()["probe_sets"].dtype == dtype
        save_structure(str(path), scheme)
        saved.append(path.read_bytes())
    monkeypatch.setattr(OneProbeMembership, "header_sets", lambda self: self._sets0.astype(np.int64) + 1)
    for (scheme, _), want in zip(cases, saved):
        assert scheme.header()["probe_sets"].dtype == np.int64
        save_structure(str(path), scheme)
        assert path.read_bytes() == want


def test_tampered_payload_is_rejected(tmp_path):
    path = str(tmp_path / "structure.ecds")
    save_structure(path, HadamardIp(BitString.from01("101")))
    raw = bytearray(open(path, "rb").read())
    raw[-1] ^= 0x01
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ParameterError):
        load_structure(path)


def test_wrong_format_is_rejected(tmp_path):
    path = str(tmp_path / "other.json")
    open(path, "w").write('{"format": "something-else"}\n')
    with pytest.raises(ParameterError):
        load_structure(path)
    with pytest.raises(ParameterError):
        load_pattern(path)


def _without(head, key):
    return json.dumps({k: v for k, v in head.items() if k != key}).encode()


@pytest.mark.parametrize(
    "case",
    [
        "structure-not-json",
        "structure-not-utf8",
        "structure-no-kind",
        "structure-no-field",
        "structure-wrong-type",
        "structure-short-payload",
        "pattern-not-json",
        "pattern-not-utf8",
        "pattern-no-field",
        "pattern-wrong-type",
        "pattern-wrong-weight",
        "pattern-repeats",
    ],
)
def test_malformed_files_are_refused(tmp_path, case):
    good = str(tmp_path / "good.ecds")
    save_structure(good, TableIp(BitString.from01("110100"), 3, 2))
    line, payload = open(good, "rb").read().split(b"\n", 1)
    head = json.loads(line)
    pattern = {"format": "ecds-pattern", "n": 8, "weight": 1, "positions": [2]}
    broken = {
        "structure-not-json": line[:-1] + b"\n" + payload,
        "structure-not-utf8": b"\xff" + line + b"\n" + payload,
        "structure-no-kind": _without(head, "kind") + b"\n" + payload,
        "structure-no-field": _without(head, "r") + b"\n" + payload,
        "structure-wrong-type": json.dumps(dict(head, r="3")).encode() + b"\n" + payload,
        "structure-short-payload": line + b"\n" + payload[:-1],
        "pattern-not-json": json.dumps(pattern).encode()[:-1],
        "pattern-not-utf8": b"\xff" + json.dumps(pattern).encode(),
        "pattern-no-field": _without(pattern, "positions"),
        "pattern-wrong-type": json.dumps(dict(pattern, positions=2)).encode(),
        "pattern-wrong-weight": json.dumps(dict(pattern, positions=[2, 5, 7])).encode(),
        "pattern-repeats": json.dumps(dict(pattern, weight=2, positions=[2, 2])).encode(),
    }[case]
    path = str(tmp_path / "broken")
    open(path, "wb").write(broken)
    load = load_structure if case.startswith("structure") else load_pattern
    with pytest.raises(ParameterError, match=re.escape(path)):
        load(path)


def saved_with(tmp_path, scheme, **fields):
    """The file of `scheme`, its header's top-level fields replaced."""
    path = tmp_path / "structure.ecds"
    save_structure(str(path), scheme)
    line, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(dict(json.loads(line), **fields)).encode() + b"\n" + payload)
    return path


def assert_decode_refused(capsys, path, query, code, error):
    got = main(["decode", "--structure", str(path), "--query", query])
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("eps", [0, -1])
@pytest.mark.parametrize("kind", ["membership-1p", "membership-composed"])
def test_membership_header_eps_outside_0_1_is_refused(tmp_path, capsys, alarm, kind, eps):
    """A membership file whose eps is 0 or -1 exits 3 as a bad
    parameter, not 5 from a failed verification: the structure's
    constructor checks eps, as its build does."""
    scheme = next(s for s in storable_schemes() if s.kind == kind)
    assert_decode_refused(capsys, saved_with(tmp_path, scheme, eps=eps), "3", 3, "ParameterError")


@pytest.mark.parametrize(
    "code, exit_code, error",
    [({"s": 2**70}, 4, "InfeasibleSizeError"), ({"kind": "x"}, 3, "ParameterError")],
    ids=["s-2^70", "unknown-kind"],
)
def test_equality_header_code_is_checked(tmp_path, capsys, alarm, code, exit_code, error):
    """An equality file whose linear code claims s = 2^70 exits 4, where
    an OverflowError once escaped main, and one whose code kind is
    unknown exits 3, where it was read as linear."""
    scheme = EqualityScheme(BitString.from01("1011"), code=RandomLinearCode(4, 18, rng=random.Random(2)))
    path = saved_with(tmp_path, scheme, code=dict(scheme.header()["code"], **code))
    assert_decode_refused(capsys, path, "1011", exit_code, error)


def test_pattern_roundtrip(tmp_path):
    """Every file save_pattern writes loads back, its weight matching its
    positions."""
    path = str(tmp_path / "pattern.json")
    for positions in ([3, 9, 17], [], [32], range(1, 33, 2)):
        pattern = CorruptionPattern(positions)
        save_pattern(path, pattern, 32)
        back, n = load_pattern(path)
        assert back == pattern and n == 32


def test_report_csv_text():
    rep = estimate_error(HadamardIp(BitString.from01("10")), trials=10, seed=0)
    text = report_csv_text(rep)
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 4
    assert lines[0].startswith("scheme,")
    assert "hadamard-ip" in lines[1]
