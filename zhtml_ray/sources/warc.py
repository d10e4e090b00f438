"""Minimal WARC (ISO 28500) source → pages-shaped Dataset.

Common Crawl ships as WARC files: concatenated records of the form ::

    WARC/1.0\r\n
    <WARC headers, one per line>\r\n
    \r\n
    <Content-Length payload bytes>\r\n\r\n

``response`` records carry a full HTTP response (status line + headers
+ body); the HTML payload is the body after the first blank line. The
``.warc.gz`` layout is per-record gzip members concatenated into one
file; ``sources/files.gunzip`` recovers the plain stream in time linear
in the member count.

Scale shape: the FILE is the parallelism unit (a Common-Crawl shard is
~1 GB, the same granularity real crawl jobs schedule), so
``read_warc`` is a ``sources/files.read_files`` read: one task per
file, which opens, decodes and parses its own file. The parser is a
byte-cursor over the buffer (``find``-based, no regex backtracking,
no line-splitting of payload bytes); malformed records are skipped
per record and never fail the file, matching the extract pipeline's
per-row failure isolation. A truncated or corrupt ``.gz`` shard
yields no rows.

Output schema matches the parquet pages source (``url: string,
warc_ts: timestamp[us], html: binary``) so ``read_warc`` drops into
every pipeline ``read_pages`` feeds.
"""

from __future__ import annotations

import gzip
import zlib
from datetime import datetime

import pyarrow as pa

from zhtml_ray.sources.files import gunzip, read_files

_CRLF2 = b"\r\n\r\n"


def iter_warc_records(buf: bytes):
    """Yield ``(headers, payload)`` per well-formed record; headers is
    a dict with lowercased header names. Malformed tails stop cleanly;
    malformed records in the middle are skipped by resyncing on the
    next ``WARC/`` magic."""
    pos = 0
    n = len(buf)
    while pos < n:
        start = buf.find(b"WARC/", pos)
        if start == -1:
            return
        hdr_end = buf.find(_CRLF2, start)
        if hdr_end == -1:
            return
        headers: dict[str, str] = {}
        ok = True
        for line in buf[start:hdr_end].split(b"\r\n")[1:]:
            k, sep, v = line.partition(b":")
            if not sep:
                ok = False
                break
            try:
                headers[k.strip().lower().decode("ascii")] = \
                    v.strip().decode("utf-8", "replace")
            except UnicodeDecodeError:  # pragma: no cover - ascii never
                ok = False
                break
        body_at = hdr_end + len(_CRLF2)
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            ok = False
            length = 0
        if length < 0:
            # a negative length would move the cursor BACKWARDS and
            # loop forever on the same record (review-caught)
            ok = False
            length = 0
        end = body_at + length
        if ok and end <= n:
            yield headers, buf[body_at:end]
            pos = end
        else:
            # resync past this header block; find() locates the next
            # record magic even when Content-Length lied
            pos = body_at
    return


def http_payload(body: bytes) -> bytes:
    """Strip the HTTP response envelope (status line + headers) from a
    response record payload; a payload that isn't HTTP passes through
    (some producers store raw content)."""
    if body[:5] != b"HTTP/":
        return body
    cut = body.find(_CRLF2)
    return body if cut == -1 else body[cut + len(_CRLF2):]


def _warc_ts(value: str):
    """WARC-Date (ISO 8601 Zulu) → naive UTC datetime (the pages
    table's timestamp[us] convention); unparseable dates → None."""
    try:
        return datetime.strptime(value, "%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        return None


def warc_bytes_to_pages(buf: bytes) -> pa.Table:
    """Parse one WARC buffer (plain or multi-member gzip) into a
    pages-shaped Arrow table of its ``response`` records."""
    if buf[:2] == b"\x1f\x8b":
        # truncated streams raise EOFError and corrupt deflate bodies
        # raise zlib.error — neither is an OSError/BadGzipFile, and a
        # bad shard must yield 0 rows, not fail the read task
        try:
            buf = gunzip(buf)
        except (OSError, EOFError, zlib.error):
            buf = b""
    urls, tss, htmls = [], [], []
    for headers, body in iter_warc_records(buf):
        if headers.get("warc-type") != "response":
            continue
        urls.append(headers.get("warc-target-uri", ""))
        tss.append(_warc_ts(headers.get("warc-date", "")))
        htmls.append(http_payload(body))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
    })


def warc_file_to_pages(path: str) -> pa.Table:
    """One ``.warc`` / ``.warc.gz`` file → pages-shaped Arrow table."""
    with open(path, "rb") as f:
        return warc_bytes_to_pages(f.read())


def read_warc(paths_or_dir):
    """``.warc`` / ``.warc.gz`` shards → pages-shaped Dataset. One
    input file = one parse task (the crawl-native shard granularity);
    Ray fans files across the cluster and the streaming executor
    pipelines parse into downstream stages."""
    return read_files(paths_or_dir, (".warc", ".warc.gz"),
                      warc_file_to_pages)


def build_warc(records, per_record_gzip: bool = False) -> bytes:
    """Serialize ``(url, iso_date, html_bytes)`` triples into WARC
    bytes (deterministic synthetic shards for tests/benchmarks; also
    emits a leading ``warcinfo`` record like real crawler output)."""
    def record(rtype: str, headers: dict[str, str], payload: bytes) -> bytes:
        head = [b"WARC/1.0", f"WARC-Type: {rtype}".encode()]
        head += [f"{k}: {v}".encode() for k, v in headers.items()]
        head.append(f"Content-Length: {len(payload)}".encode())
        raw = b"\r\n".join(head) + _CRLF2 + payload + _CRLF2
        return gzip.compress(raw) if per_record_gzip else raw

    out = [record("warcinfo", {"WARC-Date": "2017-01-01T00:00:00Z"},
                  b"software: zhtml-ray-synth\r\n")]
    for url, date, html in records:
        http = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                b"Server: synth\r\n\r\n" + html)
        out.append(record("response",
                          {"WARC-Target-URI": url, "WARC-Date": date},
                          http))
    return b"".join(out)
