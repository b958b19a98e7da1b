"""graph6 / sparse6 text formats, byte-exact per the de-facto spec.

One graph per line; no ">>graph6<<" headers are written, but they are
accepted on input.  The eight-byte size field could hold n up to
68719476735, but both directions stop at `graph.MAX_ORDER` = 2^22
vertices, the cap that `Graph.from_json` applies too.  A larger size
field is rejected before anything is allocated.
Both formats put six bits into each printable byte 63..126.  `_pack` and
`_unpack` convert between such bytes and strings of "0"/"1"; only
`write_graph6` sets its bits in place, which keeps its O(n^2) body at one
byte, not six characters, per six bits.
"""

from __future__ import annotations

import os
from importlib import resources
from math import isqrt
from typing import Iterable, Optional

from .graph import MAX_ORDER, Graph, GraphError

_HEADER_G6 = ">>graph6<<"
_HEADER_S6 = ">>sparse6<<"
_ALPHABET = bytes(range(63, 127))
_SIX = [f"{v:06b}" for v in range(64)]
_BYTE = {six: v + 63 for v, six in enumerate(_SIX)}


class FormatError(GraphError):
    pass


def _unpack(data: bytes) -> str:
    """The six bits of each byte b - 63, most significant first."""
    return "".join([_SIX[b - 63] for b in data])


def _pack(bits: str) -> bytes:
    """Inverse of `_unpack`; len(bits) is a multiple of 6."""
    return bytes([_BYTE[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def _encode_n(n: int) -> bytes:
    if n <= 62:
        return _pack(f"{n:06b}")
    if n <= 258047:
        return b"~" + _pack(f"{n:018b}")
    if n <= MAX_ORDER:
        return b"~~" + _pack(f"{n:036b}")
    raise FormatError(f"vertex count {n} exceeds the limit {MAX_ORDER}")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise FormatError("empty token")
    if data[0] != 126:
        return int(_unpack(data[:1]), 2), 1
    start, used = (1, 4) if len(data) >= 2 and data[1] != 126 else (2, 8)
    if len(data) < used:
        raise FormatError("truncated size field")
    n = int(_unpack(data[start:used]), 2)
    if n > MAX_ORDER:
        raise FormatError(f"vertex count {n} exceeds the limit {MAX_ORDER}")
    return n, used


def _token_bytes(text: str, header: str, lead: str = "") -> bytes:
    """The token's bytes after the optional header and the lead."""
    s = text.strip()
    if s.startswith(header):
        s = s[len(header):]
    if not s.startswith(lead):
        raise FormatError(f"sparse6 token must start with {lead!r}")
    try:
        data = s[len(lead):].encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("non-ASCII character in a graph6/sparse6 token") from None
    bad = data.translate(None, _ALPHABET)
    if bad:
        raise FormatError(f"out-of-range byte {bad[0]}")
    return data


def write_graph6(g: Graph) -> str:
    """The upper triangle column by column, six bits to a byte; edge
    (i, j), i < j, is bit j(j-1)/2 + i, set straight from the edge list."""
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        pos = j * (j - 1) // 2 + i
        body[pos // 6] |= 32 >> pos % 6
    return (_encode_n(g.n) + bytes(b + 63 for b in body)).decode("ascii")


def parse_graph6(text: str) -> Graph:
    data = _token_bytes(text, _HEADER_G6)
    n, used = _decode_n(data)
    size = n * (n - 1) // 2
    need = (size + 5) // 6
    body = data[used:]
    if len(body) != need:
        raise FormatError(
            f"graph6 length mismatch: n={n} needs {need} body bytes, got {len(body)}")
    bits = _unpack(body)
    if "1" in bits[size:]:
        raise FormatError("nonzero padding bits")
    edges = []
    p = bits.find("1")
    while p >= 0:
        j = (isqrt(8 * p + 1) + 1) // 2
        edges.append((p - j * (j - 1) // 2, j))
        p = bits.find("1", p + 1)
    return Graph(n, tuple(edges))


def write_sparse6(g: Graph) -> str:
    n = g.n
    k = max(1, (n - 1).bit_length())
    parts = []
    v = 0
    for (u, w) in sorted(g.edges, key=lambda e: (e[1], e[0])):
        if w == v:
            parts.append(f"0{u:0{k}b}")
        elif w == v + 1:
            parts.append(f"1{u:0{k}b}")
        else:
            parts.append(f"1{w:0{k}b}0{u:0{k}b}")
        v = w
    bits = "".join(parts)
    if k < 6 and n == (1 << k) and (-len(bits)) % 6 >= k and v < n - 1:
        bits += "0"
    bits += "1" * (-len(bits) % 6)
    return ":" + (_encode_n(n) + _pack(bits)).decode("ascii")


def parse_sparse6(text: str) -> Graph:
    data = _token_bytes(text, _HEADER_S6, ":")
    n, used = _decode_n(data)
    bits = _unpack(data[used:])
    k = max(1, (n - 1).bit_length())
    edges = set()
    v = 0
    for pos in range(0, len(bits) - k, k + 1):
        x = int(bits[pos + 1:pos + 1 + k], 2)
        if bits[pos] == "1":
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            if x == v:
                raise FormatError("loop in sparse6 stream")
            edges.add((x, v))
    return Graph(n, tuple(sorted(edges)))


def parse_any(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER_S6) or s.startswith(":"):
        return parse_sparse6(s)
    return parse_graph6(s)


def write_auto(g: Graph) -> str:
    """graph6, or sparse6 when it is the shorter encoding.  The graph6
    length has a closed form, so the O(n^2) graph6 is built only if used."""
    s6 = write_sparse6(g)
    g6_len = len(_encode_n(g.n)) + (g.n * (g.n - 1) // 2 + 5) // 6
    return s6 if len(s6) < g6_len else write_graph6(g)


# ---------------------------------------------------------------------------
# corpus

CORPUS_ENV = "RAMSEY_CORPUS_DIR"
_BUNDLED = "connected_le6.g6"


def bundled_corpus_path() -> str:
    return str(resources.files("ramsey_gadgets").joinpath("data", _BUNDLED))


def default_corpus_path() -> str:
    env = os.environ.get(CORPUS_ENV)
    if env:
        return os.path.join(env, _BUNDLED)
    return bundled_corpus_path()


def read_graph_file(path: str) -> list[Graph]:
    out = []
    with open(path, errors="replace") as fh:     # the parsers reject U+FFFD
        for line in fh:
            line = line.strip()
            if line:
                out.append(parse_any(line))
    return out


def load_corpus(path: Optional[str] = None, max_order: Optional[int] = None) -> list[Graph]:
    graphs = read_graph_file(path or default_corpus_path())
    if max_order is not None:
        graphs = [g for g in graphs if g.n <= max_order]
    return graphs


def write_graph_file(path: str, graphs: Iterable[Graph]):
    """One graph a line, each in the shorter of graph6 and sparse6."""
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(write_auto(g) + "\n")
