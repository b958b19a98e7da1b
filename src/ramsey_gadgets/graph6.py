"""graph6 / sparse6 text formats, byte-exact per the de-facto spec.

One graph per line; no ">>graph6<<" headers are written, but they are
accepted on input.  Supports n up to 258047 (long size encoding).
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Iterable, Optional

from .graph import Graph, GraphError

_HEADER_G6 = ">>graph6<<"
_HEADER_S6 = ">>sparse6<<"


class FormatError(GraphError):
    pass


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise FormatError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126,
                      ((n >> 12) & 63) + 63,
                      ((n >> 6) & 63) + 63,
                      (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63
                                   for s in (30, 24, 18, 12, 6, 0)])
    raise FormatError("vertex count too large for graph6")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise FormatError("empty token")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise FormatError("truncated size field")
        n = 0
        for b in data[1:4]:
            n = (n << 6) | (b - 63)
        return n, 4
    if len(data) < 8:
        raise FormatError("truncated size field")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, 8


def _token_bytes(text: str) -> bytes:
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("non-ASCII character in a graph6/sparse6 token") from None
    for b in data:
        if not (63 <= b <= 126):
            raise FormatError(f"out-of-range byte {b}")
    return data


def write_graph6(g: Graph) -> str:
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    out = bytearray(_encode_n(g.n))
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return out.decode("ascii")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER_G6):
        s = s[len(_HEADER_G6):]
    data = _token_bytes(s)
    n, used = _decode_n(data)
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[used:]
    if len(body) != need:
        raise FormatError(
            f"graph6 length mismatch: n={n} needs {need} body bytes, got {len(body)}")
    bits = []
    for b in body:
        v = b - 63
        bits.extend(((v >> s) & 1) for s in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    for b in bits[idx:]:
        if b:
            raise FormatError("nonzero padding bits")
    return Graph(n, tuple(edges))


def write_sparse6(g: Graph) -> str:
    n = g.n
    k = max(1, (n - 1).bit_length())
    bits: list[int] = []

    def put(val: int, width: int):
        for s in range(width - 1, -1, -1):
            bits.append((val >> s) & 1)

    v = 0
    for (u, w) in sorted(g.edges, key=lambda e: (e[1], e[0])):
        if w == v:
            put(0, 1)
            put(u, k)
        elif w == v + 1:
            v += 1
            put(1, 1)
            put(u, k)
        else:
            v = w
            put(1, 1)
            put(w, k)
            put(0, 1)
            put(u, k)
    if k < 6 and n == (1 << k) and (-len(bits)) % 6 >= k and v < n - 1:
        bits.append(0)
    while len(bits) % 6:
        bits.append(1)
    out = bytearray(b":")
    out.extend(_encode_n(n))
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return out.decode("ascii")


def parse_sparse6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER_S6):
        s = s[len(_HEADER_S6):]
    if not s.startswith(":"):
        raise FormatError("sparse6 token must start with ':'")
    data = _token_bytes(s[1:])
    n, used = _decode_n(data)
    bits = []
    for b in data[used:]:
        v = b - 63
        bits.extend(((v >> sh) & 1) for sh in (5, 4, 3, 2, 1, 0))
    k = max(1, (n - 1).bit_length())
    edges = set()
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for bit in bits[pos + 1:pos + 1 + k]:
            x = (x << 1) | bit
        pos += 1 + k
        if b:
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
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(write_graph6(g) + "\n")
