#!/usr/bin/env python3
"""Check a `dlosn serve` JSON body against an independent printer.

Usage: check_numbers.py RESPONSE_JSON

Parses the body and renders it again the way lib/serve/tiny_json.ml
does: no spaces, object keys in their order, strings escaped as
`Obs.json_escape_into` escapes them, and each number as C's '%.17g',
or '%.0f' for an integral value under 1e15 in magnitude.  The numbers
go through CPython's own correctly rounded conversion, not the C
library's printf, so the server's renderer is checked against code it
shares nothing with.  Fails (exit 1) on the first byte that differs.
"""
import json
import sys

numbers = 0

ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


class Object(list):
    """A JSON object as its (key, value) pairs, in order."""


def string(s):
    out = []
    for c in s:
        if c in ESCAPES:
            out.append(ESCAPES[c])
        elif ord(c) < 0x20:
            out.append("\\u%04x" % ord(c))
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def number(v):
    global numbers
    numbers += 1
    v = float(v)
    if v.is_integer() and abs(v) < 1e15:
        return "%.0f" % v
    return "%.17g" % v


def render(v):
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, (int, float)):
        return number(v)
    if isinstance(v, str):
        return string(v)
    if isinstance(v, Object):
        return "{" + ",".join(string(k) + ":" + render(x) for k, x in v) + "}"
    return "[" + ",".join(render(x) for x in v) + "]"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1], "rb") as f:
        body = f.read()
    doc = json.loads(body.decode("utf-8"), object_pairs_hook=Object)
    expected = render(doc).encode("utf-8")
    if body == expected:
        print("check_numbers: %d bytes, %d numbers match" % (len(body), numbers))
        return
    i = next(
        (k for k in range(min(len(body), len(expected))) if body[k] != expected[k]),
        min(len(body), len(expected)),
    )
    lo = max(0, i - 40)
    sys.exit(
        "check_numbers: byte %d differs\n  served:  %r\n  printed: %r"
        % (i, body[lo : i + 40], expected[lo : i + 40])
    )


if __name__ == "__main__":
    main()
