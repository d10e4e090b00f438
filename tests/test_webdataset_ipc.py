"""WebDataset tar + Arrow IPC source/sink tests (r4 source formats)."""

import io
import os
import tarfile

import numpy as np
import pyarrow as pa
import pytest


def _sample_table(n=40):
    rng = np.random.RandomState(7)
    return pa.table({
        "key": pa.array([f"doc{i:05d}" for i in range(n)], pa.string()),
        "text": pa.array([f"text {i} " + "x" * (i % 17) for i in range(n)],
                         pa.string()),
        "blob": pa.array([rng.bytes(16 + i % 50) for i in range(n)],
                         pa.binary()),
    })


def test_webdataset_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    from zhtml_ray.sources.webdataset import (read_webdataset,
                                              write_webdataset)

    t = _sample_table()
    nshards = write_webdataset(
        rd.from_arrow(t).repartition(4), str(tmp_path), key_col="key",
        field_cols={"text": "txt", "blob": "bin"})
    assert nshards == 4
    assert sorted(os.listdir(tmp_path)) == sorted(
        f for f in os.listdir(tmp_path) if f.endswith(".tar"))

    back = read_webdataset(str(tmp_path), fields=["txt", "bin"],
                           text_fields=("txt",)).to_pandas() \
        .sort_values("__key__").reset_index(drop=True)
    assert len(back) == t.num_rows
    assert back["__key__"].tolist() == t["key"].to_pylist()
    assert back["txt"].tolist() == t["text"].to_pylist()
    assert [bytes(b) for b in back["bin"]] == t["blob"].to_pylist()


def test_webdataset_shuffled_members_ragged_and_corrupt(ray_session,
                                                        tmp_path):
    """Members of one sample NOT adjacent (shuffled tar) must still
    group by key; samples missing a field get null; a truncated tar
    shard isolates (other shards parse)."""
    from zhtml_ray.sources.webdataset import read_webdataset

    def member(tf, name, data):
        info = tarfile.TarInfo(name=name)
        info.size = len(data)
        tf.addfile(info, io.BytesIO(data))

    good = tmp_path / "good.tar"
    with tarfile.open(good, "w") as tf:
        member(tf, "a.txt", b"A text")
        member(tf, "b.txt", b"B text")
        member(tf, "b.cls", b"7")
        member(tf, "a.cls", b"3")        # non-adjacent with a.txt
        member(tf, "c.txt", b"C only")   # ragged: no .cls
        member(tf, "d/sub.seg.txt", b"first-dot split")  # key d/sub
        member(tf, "noext", b"ignored")
    bad = tmp_path / "bad.tar"
    bad.write_bytes(good.read_bytes()[:100])  # truncated shard

    df = read_webdataset([str(good), str(bad)],
                         fields=["txt", "cls", "seg.txt"],
                         text_fields=("txt", "cls")).to_pandas() \
        .sort_values("__key__").reset_index(drop=True)
    assert df["__key__"].tolist() == ["a", "b", "c", "d/sub"]
    assert df["txt"].tolist() == ["A text", "B text", "C only", None]
    assert df["cls"].tolist() == ["3", "7", None, None]
    assert bytes(df["seg.txt"][3]) == b"first-dot split"
    assert set(df["__shard__"]) == {"good.tar"}
    # the corrupt shard's empty table has the good shard's columns
    from zhtml_ray.sources.webdataset import parse_webdataset_bytes
    assert parse_webdataset_bytes(bad.read_bytes(), "bad.tar",
                                  fields=["txt", "cls"]).schema.names == [
        "__key__", "__shard__", "txt", "cls"]


def test_arrow_ipc_roundtrip_and_projection(ray_session, tmp_path):
    import ray.data as rd
    from pyarrow import ipc

    from zhtml_ray.sources.arrowipc import read_arrow_ipc, write_arrow_ipc

    t = _sample_table()
    n = write_arrow_ipc(rd.from_arrow(t).repartition(3), str(tmp_path))
    assert n == 3
    back = read_arrow_ipc(str(tmp_path)).to_pandas() \
        .sort_values("key").reset_index(drop=True)
    assert back["key"].tolist() == t["key"].to_pylist()
    assert back["text"].tolist() == t["text"].to_pylist()

    # stream-framed file in the same dir + column projection
    sp = tmp_path / "part-stream.arrows"
    with open(sp, "wb") as f, ipc.new_stream(f, t.schema) as w:
        w.write_table(t)
    proj = read_arrow_ipc(str(tmp_path), columns=["key"]).to_pandas()
    assert list(proj.columns) == ["key"]
    assert len(proj) == 2 * t.num_rows  # 3 file shards + 1 stream shard


def test_orc_roundtrip_and_projection(ray_session, tmp_path):
    """ORC sink → source roundtrip preserves rows/values; the read
    prunes columns at the stripe reader; missing dir fails loudly."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from zhtml_ray.sources.orcsrc import read_orc, write_orc

    t = pa.table({
        "doc_id": pa.array(range(100), pa.int64()),
        "text": pa.array([f"doc {i} words here" for i in range(100)]),
        "lang": pa.array(["en", "de"] * 50)})
    d = str(tmp_path / "orc")
    n = write_orc(rd.from_arrow(t).repartition(4), d)
    assert n == 4

    back = read_orc(d).take_all()
    assert {r["doc_id"] for r in back} == set(range(100))
    by_id = {r["doc_id"]: r for r in back}
    assert by_id[7]["text"] == "doc 7 words here"
    assert by_id[7]["lang"] == "de"

    proj = read_orc(d, columns=["doc_id"])
    assert set(proj.schema().names) == {"doc_id"}
    assert proj.count() == 100

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        read_orc(str(empty))


def test_sentence_rule_edges():
    """The pinned sentence rule: overlay plants boundaries, empty and
    punctuation-only texts yield nothing, terminator runs attach to
    the preceding sentence."""
    from zhtml_ray.pipelines.ops_queries import _doc_sentences

    assert _doc_sentences("") == []
    assert _doc_sentences(None) == []
    assert _doc_sentences("...!?") == []
    got = _doc_sentences("one two batch three four")
    assert [s for s, _ in got] == ["one two batch.", "three four"]
    assert [n for _, n in got] == [3, 2]
    got2 = _doc_sentences("a!! b? c")
    assert [s for s, _ in got2] == ["a!!", "b?", "c"]
