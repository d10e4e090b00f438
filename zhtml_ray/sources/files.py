"""File plumbing shared by every file source and sink in ``sources/``.

The FILE is the parallelism unit of every byte source (a crawl shard,
a JSONL/CSV/tar/IPC/ORC shard, a loose ``.html`` page): ``read_files``
fans the paths out one per block, so Ray runs one task per file, and
that task opens, decodes and parses its own file with the format's
``load(path) -> pa.Table``. The bytes never pass through the object
store on their way to the parser, and a loader is free to stream its
file (per-member WARC decoding is meant to go there).

The sinks are the mirror image: ``write_files`` writes one file per
block (``write_parquet``'s layout) under a uuid name, through a
``.tmp`` file and ``os.replace``, so a reader never sees a half-written
shard. The sinks are NOT resumable by themselves: a rerun into the
same directory adds fresh uuid-named shards; resumability belongs to
the job CLI's manifest layer.

``gunzip`` is the one decoder for ``.gz`` shards. Real ``.warc.gz``
files hold one gzip member per record, and ``gzip.decompress`` copies
the rest of the buffer once per member, which is quadratic in the
member count; ``gunzip`` feeds zlib fixed-size chunks instead, so its
time is linear, and it accepts and rejects exactly the inputs
``gzip.decompress`` does, with the same exception types.
"""

from __future__ import annotations

import os
import re
import struct
import uuid
import zlib
from gzip import BadGzipFile

import pyarrow as pa

_CHUNK = 1 << 16
_ZEROS = re.compile(rb"\0*")
_EOF_MSG = ("Compressed file ended before the end-of-stream marker was "
            "reached")


def expand(paths_or_dir, exts: tuple[str, ...]) -> list[str]:
    """A directory → its files ending in one of ``exts``, sorted; a
    path or a list of paths passes through unchanged. Raises
    ``FileNotFoundError`` when that leaves no file."""
    if isinstance(paths_or_dir, (str, os.PathLike)):
        p = os.fspath(paths_or_dir)
        files = (sorted(os.path.join(p, f) for f in os.listdir(p)
                        if f.endswith(exts))
                 if os.path.isdir(p) else [p])
    else:
        files = [os.fspath(p) for p in paths_or_dir]
    if not files:
        raise FileNotFoundError(
            f"no {'/'.join(exts)} files in {paths_or_dir!r}")
    return files


def read_files(paths_or_dir, exts: tuple[str, ...], load):
    """Files → Dataset, one block and one task per file; ``load(path)``
    returns the file's rows as an Arrow table (its format's typed empty
    table when the file has none)."""
    import ray.data as rd

    files = expand(paths_or_dir, exts)

    def load_block(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([load(p) for p in batch["path"].to_pylist()],
                                promote_options="default")

    return rd.from_items([{"path": p} for p in files],
                         override_num_blocks=len(files)).map_batches(
        load_block, batch_format="pyarrow")


def write_files(ds, out_dir: str, ext: str, write) -> int:
    """Dataset → one ``part-<uuid><ext>`` file per block under
    ``out_dir``; ``write(table, path)`` writes one file. Returns the
    number of files written."""
    os.makedirs(out_dir, exist_ok=True)

    def write_block(batch: pa.Table) -> pa.Table:
        name = f"part-{uuid.uuid4().hex[:12]}{ext}"
        tmp = os.path.join(out_dir, name + ".tmp")
        write(batch, tmp)
        os.replace(tmp, os.path.join(out_dir, name))
        return pa.table({"shard": [name]})

    return ds.map_batches(write_block, batch_format="pyarrow",
                          batch_size=None).count()


def _member_start(buf: bytes, pos: int) -> int:
    """Offset of the deflate data of the gzip member whose header
    starts at ``pos``. Raises where ``gzip.decompress`` does: a bad
    magic or method is ``BadGzipFile``, a cut fixed field ``EOFError``;
    an unterminated name or comment runs to the end of the buffer and
    the header CRC is not checked."""
    magic = buf[pos:pos + 2]
    if magic != b"\x1f\x8b":
        raise BadGzipFile(f"Not a gzipped file ({magic!r})")
    if len(buf) < pos + 10:
        raise EOFError(_EOF_MSG)
    method, flag = buf[pos + 2], buf[pos + 3]
    if method != 8:
        raise BadGzipFile("Unknown compression method")
    pos += 10
    if flag & 4:  # FEXTRA
        if len(buf) < pos + 2:
            raise EOFError(_EOF_MSG)
        pos += 2 + int.from_bytes(buf[pos:pos + 2], "little")
        if len(buf) < pos:
            raise EOFError(_EOF_MSG)
    for bit in (8, 16):  # FNAME, FCOMMENT: zero-terminated
        if flag & bit:
            end = buf.find(b"\0", pos)
            pos = len(buf) if end == -1 else end + 1
    if flag & 2:  # FHCRC
        pos += 2
        if len(buf) < pos:
            raise EOFError(_EOF_MSG)
    return pos


def gunzip(buf: bytes) -> bytes:
    """Decode a gzip stream of one or more members, as
    ``gzip.decompress`` does, in time linear in the member count: each
    member's deflate data is fed to zlib in ``_CHUNK``-byte views, so
    no call copies more than one chunk. Zero padding between and after
    members is skipped. A truncated member raises ``EOFError``, corrupt
    deflate data ``zlib.error``, and a bad header, CRC, length or
    trailing non-gzip bytes ``BadGzipFile``."""
    view = memoryview(buf)
    n = len(buf)
    out = []
    pos = 0
    while pos < n:
        pos = _member_start(buf, pos)
        d = zlib.decompressobj(-zlib.MAX_WBITS)
        crc = size = 0
        while not d.eof and pos < n:
            chunk = view[pos:pos + _CHUNK]
            part = d.decompress(chunk)
            pos += len(chunk) - len(d.unused_data)
            crc = zlib.crc32(part, crc)
            size += len(part)
            out.append(part)
        if n < pos + 8:  # cut in the deflate data or the trailer
            raise EOFError(_EOF_MSG)
        want_crc, want_size = struct.unpack_from("<II", buf, pos)
        if want_crc != crc:
            raise BadGzipFile("CRC check failed")
        if want_size != size & 0xFFFFFFFF:
            raise BadGzipFile("Incorrect length of data produced")
        pos = _ZEROS.match(buf, pos + 8).end()
    return b"".join(out)
