"""File plumbing shared by the sources (sources/files.py): the path
lister, one block per file on read, one file per block on write, and
a differential test of the gzip decoder against ``gzip.decompress``."""

import gzip
import os
import random
import struct
import zlib

import pyarrow as pa
import pytest

from zhtml_ray.sources import files
from zhtml_ray.sources.files import expand, gunzip, read_files, write_files


def test_expand(tmp_path):
    for name in ("b.warc", "a.warc.gz", "c.txt", "d.warc.gz.tmp"):
        (tmp_path / name).write_bytes(b"")
    exts = (".warc", ".warc.gz")
    assert expand(tmp_path, exts) == [str(tmp_path / "a.warc.gz"),
                                      str(tmp_path / "b.warc")]
    # a path or a list passes through, whatever its extension
    assert expand(str(tmp_path / "c.txt"), exts) == [str(tmp_path / "c.txt")]
    assert expand([tmp_path / "c.txt"], exts) == [str(tmp_path / "c.txt")]
    with pytest.raises(FileNotFoundError):
        expand(tmp_path, (".orc",))
    with pytest.raises(FileNotFoundError):
        expand([], exts)


def test_read_files_one_block_per_file_and_write_files(ray_session,
                                                       tmp_path):
    import ray.data as rd

    src = tmp_path / "src"
    src.mkdir()
    for i in range(3):
        (src / f"f{i}.txt").write_text("x" * i)

    def load(path):
        return pa.table({"path": [path],
                         "size": [os.path.getsize(path)]})

    ds = read_files(str(src), (".txt",), load).materialize()
    assert ds.num_blocks() == 3
    assert sorted(r["size"] for r in ds.take_all()) == [0, 1, 2]

    def write(table, path):
        with open(path, "w") as f:
            f.write(f"{table.num_rows}\n")

    out = tmp_path / "out"
    n = write_files(rd.from_arrow(pa.table({"v": range(10)})).repartition(4),
                    str(out), ".txt", write)
    assert n == 4
    names = os.listdir(out)
    assert len(names) == 4 and all(
        f.startswith("part-") and f.endswith(".txt") for f in names)
    assert sum(int((out / f).read_text()) for f in names) == 10


def _member(data: bytes, flag: int) -> bytes:
    """One gzip member with the optional header fields ``flag`` names
    (FHCRC 2, FEXTRA 4, FNAME 8, FCOMMENT 16)."""
    head = b"\x1f\x8b\x08" + bytes([flag]) + b"\0\0\0\0\0\xff"
    if flag & 4:
        head += struct.pack("<H", 3) + b"xyz"
    if flag & 8:
        head += b"name\0"
    if flag & 16:
        head += b"comment\0"
    if flag & 2:
        head += b"\x12\x34"
    c = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
    return (head + c.compress(data) + c.flush()
            + struct.pack("<II", zlib.crc32(data), len(data)))


def _outcome(fn, buf):
    try:
        return fn(buf)
    except (OSError, EOFError, zlib.error) as e:
        return type(e)


def _stream(rng) -> bytes:
    parts = []
    for _ in range(rng.randint(0, 4)):
        size = rng.choice([0, 1, 50, 3000, 70_000, 140_000])
        # incompressible members straddle the decoder's chunk edges
        data = (rng.randbytes(size) if rng.random() < 0.5
                else bytes(rng.choice(b"ab") for _ in range(size // 20)))
        parts.append(_member(data, rng.choice([0, 0, 2, 4, 8, 16, 30])))
        if rng.random() < 0.3:
            parts.append(b"\0" * rng.randint(1, 5))
    return b"".join(parts)


def test_gunzip_matches_gzip_decompress():
    assert files._CHUNK == 1 << 16  # the straddle sizes below assume it
    rng = random.Random(0)
    outcomes = set()
    for _ in range(600):
        buf = _stream(rng)
        mutate = rng.random()
        if buf and mutate < 0.3:  # truncation
            buf = buf[:rng.randrange(len(buf))]
        elif buf and mutate < 0.6:  # one flipped bit anywhere
            b = bytearray(buf)
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
            buf = bytes(b)
        elif mutate < 0.7:  # trailing garbage
            buf += rng.choice([b"x", b"\x1f", b"\x1f\x8b", b"\x1f\x8b\x08",
                               b"not gzip"])
        elif mutate < 0.75:  # leading zeros are not padding
            buf = b"\0" + buf
        want = _outcome(gzip.decompress, buf)
        assert _outcome(gunzip, buf) == want
        outcomes.add(want if isinstance(want, type) else bytes)
    # the sweep reached every outcome, not just the happy path
    assert outcomes == {bytes, EOFError, zlib.error, gzip.BadGzipFile}


def test_gunzip_named_cases():
    big = random.Random(1).randbytes(200_000)
    member = gzip.compress(big)
    two = member + gzip.compress(b"")  # second member starts mid-chunk
    assert gunzip(two) == big
    assert gunzip(b"") == b""
    assert gunzip(gzip.compress(b"") * 3) == b""
    assert gunzip(member + b"\0" * 7) == big  # trailing zero padding
    with pytest.raises(gzip.BadGzipFile):
        gunzip(member + b"trailing")
    with pytest.raises(EOFError):
        gunzip(member[:-1])  # cut inside the trailer
    with pytest.raises(EOFError):
        gunzip(member[:100_000])  # cut inside the deflate data
    corrupt = bytearray(gzip.compress(b"abc" * 1000))
    corrupt[10] = 0xFF  # deflate block type 3 is invalid
    with pytest.raises(zlib.error):
        gunzip(bytes(corrupt))
    with pytest.raises(gzip.BadGzipFile):
        gunzip(member[:-8] + b"\0\0\0\0" + member[-4:])  # CRC mismatch
