"""Arrow IPC / Feather V2 source — the fourth columnar on-ramp.

Embedding dumps and intermediate training artifacts frequently ship as
Arrow IPC files (a.k.a. Feather V2: the streaming or random-access
file format produced by ``pyarrow.ipc`` / polars / DuckDB ``COPY TO
(FORMAT ARROW)``). Zero new dependencies — pyarrow reads both framings
natively. The FILE is the parallelism unit, as for every source in
``sources/files.py``, and column projection happens at the READ for
the random-access format (record-batch field selection), so a 2-column
scan of a wide embedding dump doesn't ship the other columns.
"""

from __future__ import annotations

import pyarrow as pa

from zhtml_ray.sources.files import read_files, write_files

_EXTS = (".arrow", ".feather", ".ipc", ".arrows")


def ipc_file_to_table(path: str,
                      columns: list[str] | None = None) -> pa.Table:
    """One IPC file → Arrow table. Tries the random-access (file)
    framing first — which supports column projection without reading
    the other columns — then falls back to the streaming framing."""
    from pyarrow import ipc

    try:
        with pa.memory_map(path) as src:
            reader = ipc.open_file(src)
            t = reader.read_all()
    except pa.ArrowInvalid:
        with open(path, "rb") as f:
            t = ipc.open_stream(f).read_all()
    if columns is not None:
        t = t.select(columns)
    return t.combine_chunks()


def read_arrow_ipc(paths_or_dir, columns: list[str] | None = None):
    """Arrow IPC / Feather shards → Dataset, one task per file; each
    task memory-maps its own file."""
    return read_files(paths_or_dir, _EXTS,
                      lambda p: ipc_file_to_table(p, columns=columns))


def _write_ipc_file(table: pa.Table, path: str) -> None:
    from pyarrow import ipc

    with pa.OSFile(path, "wb") as f, ipc.new_file(f, table.schema) as w:
        w.write_table(table)


def write_arrow_ipc(ds, out_dir: str) -> int:
    """Dataset → one Feather-V2 (random-access IPC) file per block."""
    return write_files(ds, out_dir, ".arrow", _write_ipc_file)
