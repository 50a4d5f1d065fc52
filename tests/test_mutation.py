"""Malformed files, one field at a time.

Every header field of a file of every stored kind, the fields of an
equality file's nested code object among them, and every field of a
pattern file, is replaced by each of twelve values.  A decode, run
in-process through `cli.main`, then either answers as it did on the
intact file or exits 3 or 4 with a JSON error line, within a per-case
alarm.  Each kind's length function runs on every path that loads a
file, so a value it refuses never reaches a loop or an allocation.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecds.cli import main
from ecds.storage import KINDS

VALUES = [None, "x", -1, 0, 1, 2**70, 1.5, [], {}, True, [1, 2], 10**6]

# per file: its data, its other build flags and a query; the decoder
# choices (balanced, decoder) keep their defaults, so no listed value
# picks the other valid decoder of the same stored word
BUILDS = {
    "had-ip": ("10110", ["--scheme", "had-ip"], "01101"),
    "equality": ("1011", ["--scheme", "equality"], "1011"),
    "equality-linear": ("1011", ["--scheme", "equality", "--code", "linear", "--code-length", "18"], "1011"),
    "ip-table": ("110100", ["--scheme", "ip-table", "--r", "3", "--p", "2"], "101100"),
    "ip-poly": ("1011", ["--scheme", "ip-poly", "--r", "1", "--p", "3"], "0100"),
    "substring": ("110100", ["--scheme", "substring", "--r", "3", "--t", "3"], "011010"),
    "mem-1p": ("00100000", ["--scheme", "mem-1p", "--s", "1", "--eps", "0.3"], "3"),
    "mem-composed": ("0010000000000000", ["--scheme", "mem-composed", "--s", "1", "--eps", "0.4", "--a", "5", "--b", "40"], "3"),
}

# a pattern of weight 3 on the had-ip file, so that no listed value of
# one field makes another well-formed pattern
PATTERN = {"format": "ecds-pattern", "n": 32, "weight": 3, "positions": [2, 7, 19]}


def call(*argv):
    """main(argv) in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def decode(path, query, pattern=None):
    return call("decode", "--structure", str(path), "--query", query, *(["--pattern", str(pattern)] if pattern else []))


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """Per file: its path, header, payload and intact answer."""
    root = tmp_path_factory.mktemp("stored")
    files = {}
    for label, (x, flags, query) in BUILDS.items():
        path = root / (label + ".ecds")
        code, out, err = call("build", *flags, "--n", str(len(x)), "--x", x, "--out-file", str(path))
        assert code == 0, err
        line, payload = path.read_bytes().split(b"\n", 1)
        files[label] = (path, json.loads(line), payload, answer(decode(path, query)))
    return files


def answer(result):
    code, out, err = result
    assert code == 0, err
    return json.loads(out)["answer"]


def assert_same_or_refused(result, intact):
    code, out, err = result
    if code == 0:
        assert json.loads(out)["answer"] == intact
    else:
        assert code in (3, 4), err
        assert out == ""
        assert json.loads(err)["code"] == code


FIELDS = [(label, (key,)) for label in BUILDS for key in ("format", "kind", "version", "length", "x")] + [
    *[(label, (key,)) for label in ("equality", "equality-linear") for key in ("balanced", "code")],
    *[(label, ("code", key)) for label in ("equality", "equality-linear") for key in ("kind", "s", "length")],
    ("equality-linear", ("rows",)),
    ("ip-table", ("r",)),
    ("ip-table", ("p",)),
    ("ip-poly", ("r",)),
    ("ip-poly", ("p",)),
    ("substring", ("r",)),
    ("substring", ("t",)),
    *[("mem-1p", (key,)) for key in ("n", "s", "eps", "n_prime", "probe_sets")],
    *[
        ("mem-composed", (key,))
        for key in ("decoder", "public_n", "universe", "s", "eps", "a", "b", "n_prime", "probe_sets", "perm")
    ],
]


def test_every_header_field_is_mutated(stored):
    """FIELDS names every top-level field of every file, and the files
    cover every kind storage knows, so a new kind or field cannot skip
    the mutation test."""
    assert {head["kind"] for _, head, _, _ in stored.values()} == set(KINDS)
    for label, (_, head, _, _) in stored.items():
        assert {path[0] for lab, path in FIELDS if lab == label} == set(head), label


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(VALUES))
def test_mutated_header_answers_as_before_or_is_refused(stored, tmp_path, alarm, field, value):
    alarm()
    label, (key, *inner) = field
    _, head, payload, intact = stored[label]
    head = dict(head)
    head[key] = dict(head[key], **{inner[0]: value}) if inner else value
    path = tmp_path / "mutated.ecds"
    path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
    assert_same_or_refused(decode(path, BUILDS[label][2]), intact)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(label=st.sampled_from(sorted(BUILDS)), cut=st.integers(0, 3))
def test_truncated_payload_is_refused(stored, tmp_path, alarm, label, cut):
    alarm()
    _, head, payload, _ = stored[label]
    path = tmp_path / "truncated.ecds"
    path.write_bytes(json.dumps(head).encode() + b"\n" + payload[: len(payload) * cut // 4])
    code, out, err = decode(path, BUILDS[label][2])
    assert (code, out, json.loads(err)["error"]) == (3, "", "ParameterError")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(PATTERN)), value=st.sampled_from(VALUES))
def test_mutated_pattern_answers_as_before_or_is_refused(stored, tmp_path, alarm, key, value):
    alarm()
    structure, query = stored["had-ip"][0], BUILDS["had-ip"][2]
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps(PATTERN))
    intact = answer(decode(structure, query, pattern))
    pattern.write_text(json.dumps(dict(PATTERN, **{key: value})))
    assert_same_or_refused(decode(structure, query, pattern), intact)
