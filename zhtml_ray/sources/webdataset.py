"""WebDataset-style tar source + sink (stdlib ``tarfile`` only).

Training pipelines increasingly ship multimodal corpora as "WebDataset"
shards: plain ``.tar`` files whose members are named ``<key>.<ext>``,
where every member sharing a key is one sample and the extension names
the field (``txt``, ``json``, ``png``, ``cls``, …). The format is just
POSIX tar — readable/writable with the standard library — and its unit
of parallelism is the SHARD: ``read_webdataset`` is a
``sources/files.read_files`` read, one task per shard that opens and
parses its own tar.

Source: ``read_webdataset(paths)`` → Dataset rows
``{"__key__", "__shard__", <ext>: binary, …}`` — one row per sample,
fields as opaque binary columns (decode downstream; text convenience
via ``text_fields=`` utf-8-decodes chosen extensions). Member order
inside a shard follows the WebDataset contract (all files of a sample
adjacent), but the reader groups by key per shard, so shuffled tars
still parse correctly.

Sink: ``write_webdataset(ds, out_dir, …)`` — one ``.tar`` shard per
input BLOCK (``sources/files.write_files``), rows → members in column
order.

At 100 TB: shards stream through the object store one block at a time
(no full-dataset materialization on either side); a corrupt member
isolates to its sample, a corrupt shard to that shard.
"""

from __future__ import annotations

import contextlib
import io
import os
import tarfile

import pyarrow as pa

from zhtml_ray.sources.files import read_files, write_files


def parse_webdataset_bytes(buf: bytes, shard: str,
                           fields: list[str] | None = None) -> pa.Table:
    """One tar shard's bytes → one-row-per-sample Arrow table.

    ``fields`` pins the emitted extension columns (recommended across
    shards — otherwise the union of extensions present in THIS shard
    is used, and ragged shards would drift schemas). Unknown
    extensions are ignored when ``fields`` is given; missing fields
    are null. Key/extension split follows the official webdataset
    convention — the FIRST dot after the last slash: ``a/b.seg.txt``
    → key ``a/b``, field ``seg.txt``."""
    samples: dict[str, dict[str, bytes]] = {}
    order: list[str] = []
    try:
        tf = tarfile.open(fileobj=io.BytesIO(buf))
    except tarfile.TarError:  # a corrupt shard isolates to itself
        tf = contextlib.nullcontext(())
    with tf as members:
        for m in members:
            if not m.isfile():
                continue
            base = m.name
            slash = base.rfind("/")
            dot = base.find(".", slash + 1)
            if dot < 0:
                continue  # extension-less member: not a sample field
            key, ext = base[:dot], base[dot + 1:]
            if fields is not None and ext not in fields:
                continue
            try:
                data = tf.extractfile(m).read()
            except (tarfile.TarError, OSError):
                continue  # corrupt member isolates to its sample field
            if key not in samples:
                samples[key] = {}
                order.append(key)
            samples[key][ext] = data
    if fields is None:
        seen: list[str] = []
        for s in samples.values():
            for e in s:
                if e not in seen:
                    seen.append(e)
        fields = sorted(seen)
    cols: dict[str, list] = {"__key__": order,
                             "__shard__": [shard] * len(order)}
    for e in fields:
        cols[e] = [samples[k].get(e) for k in order]
    return pa.table({
        "__key__": pa.array(cols["__key__"], pa.string()),
        "__shard__": pa.array(cols["__shard__"], pa.string()),
        **{e: pa.array(cols[e], pa.binary()) for e in fields}})


def read_webdataset(paths_or_dir, fields: list[str] | None = None,
                    text_fields: tuple[str, ...] = ()):
    """WebDataset tar shards → Dataset (one row per sample). ``fields``
    pins the schema across shards; ``text_fields`` utf-8-decodes those
    extensions to string columns (errors="replace" — lossy members
    must not kill the shard)."""
    def load(path: str) -> pa.Table:
        with open(path, "rb") as f:
            t = parse_webdataset_bytes(f.read(), os.path.basename(path),
                                       fields=fields)
        for tfld in text_fields:
            if tfld in t.column_names:
                vals = [None if v is None
                        else v.decode("utf-8", errors="replace")
                        for v in t[tfld].to_pylist()]
                i = t.schema.get_field_index(tfld)
                t = t.set_column(i, tfld, pa.array(vals, pa.string()))
        return t

    return read_files(paths_or_dir, (".tar",), load)


def write_webdataset(ds, out_dir: str, key_col: str,
                     field_cols: dict[str, str]) -> int:
    """Dataset → WebDataset tar shards, one per block. ``field_cols``
    maps column name → member extension (string columns utf-8-encode,
    binary pass through). Returns the number of shards written.
    NOT resumable by itself: shard names carry a uuid, so a rerun
    into the same directory duplicates data — the resumable-job path
    for tar output is the job CLI's manifest layer; this sink is just
    the format writer."""
    def write(batch: pa.Table, path: str) -> None:
        with tarfile.open(path, "w") as tf:
            keys = batch[key_col].to_pylist()
            data = {c: batch[c].to_pylist() for c in field_cols}
            for i, k in enumerate(keys):
                for col, ext in field_cols.items():
                    v = data[col][i]
                    if v is None:
                        continue
                    if isinstance(v, str):
                        v = v.encode("utf-8")
                    info = tarfile.TarInfo(name=f"{k}.{ext}")
                    info.size = len(v)
                    tf.addfile(info, io.BytesIO(v))

    return write_files(ds, out_dir, ".tar", write)
