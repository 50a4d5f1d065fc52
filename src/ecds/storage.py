"""File formats: structures, corruption patterns, reports.

A structure file is one JSON header line followed by the raw packed
codeword bytes.  The header carries everything needed to rebuild the
scheme deterministically; on load the scheme is rebuilt and its codeword
checked bit-for-bit against the payload, so silent drift between header
and payload cannot pass.

Integer arrays in a header (membership probe sets and permutations) are
written packed, as {"array": dtype, "shape": [...], "data": base64}: the
little-endian bytes of the smallest integer dtype that holds the values.
Files that do so are version 2.  Version-1 files, which hold the same
arrays as JSON lists of ints, are still read.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
from typing import Dict, Tuple

import numpy as np

from .bits import BitString
from .errors import ParameterError
from .hadamard import EqualityScheme, HadamardIp
from .inner_product import PolySharedIp, SubstringHadamard, TableIp
from .membership import ComposedInstance, MembershipInstance
from .oracle import CorruptionPattern

FORMAT = "ecds-structure"
PATTERN_FORMAT = "ecds-pattern"

KINDS = {
    cls.kind: cls
    for cls in (
        HadamardIp,
        EqualityScheme,
        TableIp,
        PolySharedIp,
        SubstringHadamard,
        MembershipInstance,
        ComposedInstance,
    )
}


def _pack(obj) -> Dict[str, object]:
    """An integer array as its packed header object (`json.dumps` default)."""
    if not isinstance(obj, np.ndarray) or obj.dtype.kind not in "iu":
        raise TypeError("cannot write %s into a header" % type(obj).__name__)
    lo, hi = (int(obj.min()), int(obj.max())) if obj.size else (0, 0)
    dtype = np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi)).newbyteorder("<")
    return {
        "array": dtype.str,
        "shape": list(obj.shape),
        "data": base64.b64encode(np.ascontiguousarray(obj, dtype)).decode("ascii"),
    }


def _unpack(obj: Dict) -> object:
    """A packed header object back as a read-only array (`json.loads`
    object hook); any other object is returned as it is."""
    if "array" not in obj:
        return obj
    try:
        dtype = np.dtype(obj["array"])
        shape, data = obj["shape"], obj["data"]
    except KeyError as exc:
        raise ParameterError("packed array has no field %s" % exc) from None
    except (TypeError, ValueError):
        raise ParameterError("packed array has an unknown dtype") from None
    if dtype.kind not in "iu":
        raise ParameterError("packed array is not of an integer dtype")
    if not isinstance(shape, list) or not all(type(v) is int and v >= 0 for v in shape):
        raise ParameterError("packed array shape must be a list of sizes")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError):  # also binascii.Error
        raise ParameterError("packed array data is not base64") from None
    if len(raw) != math.prod(shape) * dtype.itemsize:
        raise ParameterError("packed array data does not match its shape")
    return np.frombuffer(raw, dtype).reshape(shape)


def save_structure(path: str, scheme) -> None:
    head = scheme.header()
    bits = scheme.codeword.bits
    head.update(kind=scheme.kind, x=scheme.x.to01(), format=FORMAT, version=2, length=bits.n)
    with open(path, "wb") as fh:
        fh.write(json.dumps(head, sort_keys=True, default=_pack).encode())
        fh.write(b"\n")
        fh.write(bits._data)


def _parse_header(path: str, raw: bytes, fmt: str) -> Dict:
    try:
        head = json.loads(raw.decode(), object_hook=_unpack)
    except ParameterError as exc:
        raise ParameterError("malformed file %s: %s" % (path, exc)) from None
    except ValueError:  # also UnicodeDecodeError
        raise ParameterError("malformed file %s: header is not UTF-8 JSON" % path) from None
    if not isinstance(head, dict) or head.get("format") != fmt:
        raise ParameterError("not an %s file: %s" % (fmt, path))
    return head


def load_structure(path: str):
    with open(path, "rb") as fh:
        head = _parse_header(path, fh.readline(), FORMAT)
        payload = fh.read()
    try:
        scheme = KINDS[head["kind"]].from_header(head)
        stored = BitString(head["length"], payload)
    except KeyError as exc:
        raise ParameterError("malformed file %s: bad kind or no field %s" % (path, exc)) from None
    except (TypeError, ValueError) as exc:
        raise ParameterError("malformed file %s: %s" % (path, exc)) from None
    if scheme.codeword.bits != stored:
        raise ParameterError("stored codeword does not match its header: %s" % path)
    return scheme


def save_pattern(path: str, pattern: CorruptionPattern, n: int) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "format": PATTERN_FORMAT,
                "n": n,
                "weight": pattern.weight,
                "positions": list(pattern.positions),
            },
            fh,
            sort_keys=True,
        )


def load_pattern(path: str) -> Tuple[CorruptionPattern, int]:
    """A pattern file's positions and length; a file that repeats a
    position, or whose weight is not its number of positions, is
    refused."""
    with open(path, "rb") as fh:
        head = _parse_header(path, fh.read(), PATTERN_FORMAT)
    try:
        pattern = CorruptionPattern(head["positions"])
        if pattern.weight != len(head["positions"]):
            raise ParameterError("repeated positions")
        if head["weight"] != pattern.weight:
            raise ParameterError("weight %r but %d positions" % (head["weight"], pattern.weight))
        return pattern, head["n"]
    except KeyError as exc:
        raise ParameterError("malformed file %s: no header field %s" % (path, exc)) from None
    except ParameterError as exc:
        raise ParameterError("malformed file %s: %s" % (path, exc)) from None


def report_csv_text(report) -> str:
    rows = report.csv_rows()
    if not rows:
        return ""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()
