"""sf0.1-scale end-to-end drive of the multimodal family through the
injected decoder (r3 VERDICT item 4: the Ray-side plumbing must be
exercised at real batch/partition scale, not just on 5-row toys).

The decode step stays the deterministic payload-seeded stub — the only
piece a real cluster swaps (functions/multimodal.py docstring); every
distributed piece around it (batch sizing over multi-KB binary
payloads, actor pools, band blocking, sort-based bucket pairing,
merge-join hash attach, hamming verify) runs for real and is checked
against an independent serial brute force."""

import itertools

import numpy as np
import pyarrow as pa
import pytest


POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], np.uint16)


def _popcount64(x: np.ndarray) -> np.ndarray:
    m = np.uint64(0xFFFF)
    return (POP16[(x & m).astype(np.int64)]
            + POP16[((x >> np.uint64(16)) & m).astype(np.int64)]
            + POP16[((x >> np.uint64(32)) & m).astype(np.int64)]
            + POP16[((x >> np.uint64(48)) & m).astype(np.int64)]).astype(
                np.int64)


def test_phash_neardup_sf01_scale_e2e(ray_session):
    """Full phash_neardup chain over ~sf0.1 media volume (9000 media
    rows → 3000 images, 8 partitions, planted exact-dup clique) must
    equal an independent serial decode→dhash→all-pairs brute force."""
    import ray.data as rd

    from zhtml_ray.functions.multimodal import (_fake_decode_image, dhash64,
                                                gen_media_table,
                                                phash_neardup)

    n = 9000
    tbl = gen_media_table(n, dup_every=25)
    got = sorted((r["key_a"], r["key_b"], r["hamming"])
                 for r in phash_neardup(
                     rd.from_arrow(tbl).repartition(8),
                     max_hamming=3).take_all())

    # independent serial ground truth over every image row
    img = tbl.filter(pa.compute.equal(tbl["kind"], "image"))
    ids = img["media_id"].to_pylist()
    hs = np.array([dhash64(_fake_decode_image(p.as_py(), max(w, 1),
                                              max(h, 1)))
                   for p, w, h in zip(img["payload"],
                                      img["width"].to_pylist(),
                                      img["height"].to_pylist())],
                  np.uint64)
    ids_arr = np.asarray(ids, np.int64)
    want = []
    for i in range(len(hs)):
        d = _popcount64(hs[i] ^ hs[i + 1:])
        for j in np.flatnonzero(d <= 3):
            a, b = ids_arr[i], ids_arr[i + 1 + j]
            want.append((int(min(a, b)), int(max(a, b)), int(d[j])))
    want = sorted(want)

    assert len(want) > 5000  # the planted ~120-member clique's pairs
    assert got == want


def test_frame_sample_then_phash_chain(ray_session):
    """Video → FrameSampler → per-frame decode → phash near-dup, the
    composed frames chain: sampled frames re-enter the image family as
    (payload, frame_idx)-keyed rows; identical videos' frames must
    pair at hamming 0 frame-by-frame."""
    import ray.data as rd

    from zhtml_ray.functions.multimodal import (MEDIA_SCHEMA, FrameSampler,
                                                gen_media_table,
                                                phash_neardup)

    tbl = gen_media_table(90)
    vids = tbl.filter(pa.compute.equal(tbl["kind"], "video"))
    # plant one duplicate video (same payload → same frames)
    dup = vids.slice(0, 1).to_pydict()
    dup["media_id"] = [10_000]
    vids = pa.concat_tables([vids, pa.Table.from_pydict(
        dup, schema=MEDIA_SCHEMA)])

    frames = rd.from_arrow(vids).map_batches(
        FrameSampler(fps=1.0), batch_format="pyarrow").to_pandas()
    assert len(frames) > 0
    by_vid = frames.groupby("media_id").frame_idx.max().to_dict()
    assert by_vid[10_000] == by_vid[int(vids["media_id"][0].as_py())]

    # frames table: payload ⊕ frame_idx seeds the injected decoder, so
    # equal (video payload, frame_idx) ⇒ identical decoded frame
    payload_of = {m: p.as_py() for m, p in zip(vids["media_id"].to_pylist(),
                                               vids["payload"])}
    rows = {k.name: [] for k in MEDIA_SCHEMA}
    key = {}
    for i, (mid, fidx) in enumerate(zip(frames["media_id"],
                                        frames["frame_idx"])):
        rows["media_id"].append(i)
        key[i] = (payload_of[mid], int(fidx))
        rows["kind"].append("image")
        rows["payload"].append(payload_of[mid]
                               + int(fidx).to_bytes(4, "big"))
        rows["mime"].append("image/raw")
        rows["width"].append(64)
        rows["height"].append(48)
        rows["duration_ms"].append(-1)
    ftbl = pa.table(rows, schema=MEDIA_SCHEMA)

    pairs = phash_neardup(rd.from_arrow(ftbl).repartition(4),
                          max_hamming=0).take_all()
    got = {(min(r["key_a"], r["key_b"]), max(r["key_a"], r["key_b"]))
           for r in pairs}
    want = {(a, b) for a, b in itertools.combinations(sorted(key), 2)
            if key[a] == key[b]}
    assert want  # the duplicate video contributes frame pairs
    assert got == want
