"""File formats: structures, corruption patterns, reports.

A structure file is one JSON header line followed by the raw packed
codeword bytes.  The header carries everything needed to rebuild the
scheme deterministically; on load the scheme is rebuilt and its codeword
checked bit-for-bit against the payload, so silent drift between header
and payload cannot pass.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Tuple

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


def save_structure(path: str, scheme) -> None:
    head = scheme.header()
    bits = scheme.codeword.bits
    head.update(kind=scheme.kind, x=scheme.x.to01(), format=FORMAT, version=1, length=bits.n)
    with open(path, "wb") as fh:
        fh.write(json.dumps(head, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(bits._data)


def _parse_header(path: str, raw: bytes, fmt: str) -> Dict:
    try:
        head = json.loads(raw.decode())
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
    with open(path, "rb") as fh:
        head = _parse_header(path, fh.read(), PATTERN_FORMAT)
    try:
        return CorruptionPattern(head["positions"]), head["n"]
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
