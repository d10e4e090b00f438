"""Apache ORC source + sink — the data-lake columnar on-ramp (r5).

Hive/Trino-era lakes and many Hadoop-exported corpora ship as ORC;
pyarrow carries a native reader/writer (``pyarrow.orc``), so this is
zero new dependencies. The FILE is the parallelism unit, as for every
source in ``sources/files.py``: each task opens its own file, and
column projection happens AT THE READ —
``pyarrow.orc.ORCFile.read(columns=…)`` decodes only the requested
stripes' columns, so a 2-column scan of a wide table never
materializes the rest.

Sink: ``write_orc(ds, out_dir)`` — one ``.orc`` file per block
(``sources/files.write_files``).
"""

from __future__ import annotations

import pyarrow as pa

from zhtml_ray.sources.files import read_files, write_files


def orc_file_to_table(path: str,
                      columns: list[str] | None = None) -> pa.Table:
    """One ORC file → Arrow table, with read-level column pruning."""
    from pyarrow import orc

    f = orc.ORCFile(path)
    return f.read(columns=columns).combine_chunks()


def read_orc(paths_or_dir, columns: list[str] | None = None):
    """ORC shards → Dataset. Paths fan out as items; each task decodes
    its own file with projection pushed to the ORC reader."""
    return read_files(paths_or_dir, (".orc",),
                      lambda p: orc_file_to_table(p, columns))


def write_orc(ds, out_dir: str) -> int:
    """Dataset → one ORC file per block. Returns shards written."""
    from pyarrow import orc

    return write_files(ds, out_dir, ".orc", orc.write_table)
