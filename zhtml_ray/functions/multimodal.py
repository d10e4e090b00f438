"""Multimodal column plumbing: image/audio/video as opaque binary
columns with typed metadata.

Decode status (r4): PNG, 24-bit BMP and PCM WAV decode FOR REAL via
functions/mediacodec.py (pure stdlib zlib/wave + numpy —
``real_decode_image`` / ``real_decode_audio`` sniff the magic).
Codec-library formats (JPEG, MP3, MP4 video) remain behind the
injectable ``decode=`` hook with the deterministic fake as the
in-container stand-in; swapping in PIL/torchvision/ffmpeg is a
one-line ``decode=`` change (``ImageFeatures(decode=...)``,
``phash_neardup(ds, decode=...)``) on a real cluster. The stages are
callable instances run as stateless Ray tasks (``stages/util``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),          # "image" | "audio" | "video"
    ("payload", pa.binary()),       # opaque encoded bytes
    ("mime", pa.string()),
    ("width", pa.int32()),          # -1 when unknown/not applicable
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


def gen_media_table(n: int, seed: int = 42, payload_bytes: int = 4096,
                    dup_every: int = 0) -> pa.Table:
    """Deterministic synthetic media rows (payload = seeded bytes)."""
    rng = np.random.RandomState(seed)
    kinds = ["image", "audio", "video"]
    rows = {k.name: [] for k in MEDIA_SCHEMA}
    for i in range(n):
        kind = kinds[i % 3]
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        rows["payload"].append(rng.bytes(payload_bytes))
        rows["mime"].append({"image": "image/jpeg", "audio": "audio/wav",
                             "video": "video/mp4"}[kind])
        rows["width"].append(64 + (i % 8) * 32 if kind != "audio" else -1)
        rows["height"].append(64 + (i % 5) * 32 if kind != "audio" else -1)
        rows["duration_ms"].append(-1 if kind == "image" else 1000 + i % 9000)
    if dup_every:
        # plant exact image duplicates for the near-dup operators:
        # every dup_every-th image copies payload+dims from the image
        # dup_every IMAGES (~3·dup_every rows) back — same decode →
        # same pixels → phash 0; the planted images chain into one
        # identical clique
        img_idx = [i for i in range(n) if i % 3 == 0]
        for j, i in enumerate(img_idx):
            if j % dup_every == dup_every - 1 and j >= dup_every:
                src = img_idx[j - dup_every]
                for c in ("payload", "width", "height"):
                    rows[c][i] = rows[c][src]
    return pa.table(rows, schema=MEDIA_SCHEMA)


def gen_real_media_table(n: int, seed: int = 42,
                         dup_every: int = 0,
                         jpeg_dup_every: int = 0) -> pa.Table:
    """Synthetic media rows whose payloads are REAL encoded files —
    PNG (seeded RGB gradients+noise), BMP for every ``dup_every``-th
    image (same pixels, different container: a true re-encode
    near-duplicate), and PCM WAV sine mixes — so the full decode →
    feature → near-dup chains run through actual codecs.
    ``jpeg_dup_every`` (r5) additionally appends a baseline-JPEG
    re-encode twin (id ``2n + i``, q95 4:2:0) for every
    ``jpeg_dup_every``-th image — a LOSSY re-encode, so its dHash
    lands within a few bits of the source rather than at hamming 0
    (the realistic crawl re-encode class)."""
    from zhtml_ray.functions import mediacodec
    rng = np.random.RandomState(seed)
    rows = {k.name: [] for k in MEDIA_SCHEMA}
    kinds = ["image", "audio", "video"]
    for i in range(n):
        kind = kinds[i % 3]
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        if kind == "image":
            h, w = 40 + (i % 5) * 8, 48 + (i % 7) * 8
            # random 8×9 block pattern upsampled to (h, w): distinct
            # images get essentially independent dHashes (a plain
            # gradient made every image hash identically)
            blocks = rng.randint(0, 256, (8, 9, 3))
            img = blocks[np.arange(h) * 8 // h][:, np.arange(w) * 9 // w] \
                .astype(np.uint8)
            if dup_every and (i // 3) % dup_every == dup_every - 1:
                # same pixels, different container → hamming-0 pair
                # with the PNG of the SAME image appended right after
                rows["payload"].append(mediacodec.encode_png(
                    img, filters=(i // 3) % 5))
                rows["mime"].append("image/png")
                rows["width"].append(w)
                rows["height"].append(h)
                rows["duration_ms"].append(-1)
                for c, v in [("media_id", n + i), ("kind", "image"),
                             ("payload", mediacodec.encode_bmp(img)),
                             ("mime", "image/bmp"), ("width", w),
                             ("height", h), ("duration_ms", -1)]:
                    rows[c].append(v)
                continue
            if jpeg_dup_every and \
                    (i // 3) % jpeg_dup_every == jpeg_dup_every - 2:
                # lossy re-encode twin: same pixels through baseline
                # JPEG (4:2:0) — near-identical decode, hamming ≤ 3
                # (same inline-append-then-continue shape as the BMP
                # twin above to keep the column lists aligned)
                rows["payload"].append(
                    mediacodec.encode_png(img, filters=i % 5))
                rows["mime"].append("image/png")
                rows["width"].append(w)
                rows["height"].append(h)
                rows["duration_ms"].append(-1)
                for c, v in [("media_id", 2 * n + i), ("kind", "image"),
                             ("payload", mediacodec.encode_jpeg(
                                 img, quality=95,
                                 subsampling="4:2:0")),
                             ("mime", "image/jpeg"), ("width", w),
                             ("height", h), ("duration_ms", -1)]:
                    rows[c].append(v)
                continue
            payload, mime = mediacodec.encode_png(img, filters=i % 5), \
                "image/png"
            dur = -1
        elif kind == "audio":
            t = np.arange(1600 + (i % 5) * 800) / 16000.0
            pcm = (0.4 * np.sin(2 * np.pi * (200 + i % 700) * t)
                   + 0.1 * rng.standard_normal(len(t))).astype(np.float32)
            payload, mime = mediacodec.encode_wav(
                pcm, 16000, sampwidth=1 + (i % 2)), "audio/wav"
            h = w = -1
            dur = int(len(t) / 16)
        else:
            payload, mime = rng.bytes(512), "video/mp4"
            h = w = -1
            dur = 1000 + i % 9000
        rows["payload"].append(payload)
        rows["mime"].append(mime)
        rows["width"].append(w if kind == "image" else -1)
        rows["height"].append(h if kind == "image" else -1)
        rows["duration_ms"].append(dur)
    return pa.table(rows, schema=MEDIA_SCHEMA)


def filter_kind(batch: pa.Table, kind: str) -> pa.Table:
    """Vectorized kind pre-filter for the feature stages. The contract
    (ADVICE r2): every feature stage emits EXACTLY one row per input row
    of its own kind and silently drops other kinds — so pipelines that
    join features back on media_id must pre-filter with this helper,
    making the coverage explicit at the call site. The in-class kind
    skip stays as defense-in-depth (wav bytes must never hit an image
    decoder even if a caller forgets the pre-filter)."""
    import pyarrow.compute as pc
    return batch.filter(pc.equal(batch["kind"], kind))


def _fake_decode_image(payload: bytes, width: int, height: int) -> np.ndarray:
    """Deterministic stand-in for a real decoder: seeded uint8 HxWx3."""
    seed = int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(),
                          "big")
    rng = np.random.RandomState(seed)
    return rng.randint(0, 256, size=(height, width, 3), dtype=np.uint8)


def real_decode_image(payload: bytes, width: int, height: int) -> np.ndarray:
    """REAL image decode for the formats the stdlib can carry: PNG
    (zlib inflate, all five filters), 24-bit BMP, and (r5) baseline
    sequential JPEG (generic DHT/DQT, any h/v sampling, restart
    intervals) via functions/mediacodec.py — pure Python/numpy, no
    external libs. The (width, height) hints are ignored; actual
    dimensions come from the payload. Formats that need a codec
    library (WebP, AVIF, progressive JPEG…) still raise, with the
    same injectable-decoder escape hatch."""
    from zhtml_ray.functions import mediacodec
    if payload[:8] == mediacodec.PNG_MAGIC:
        return mediacodec.decode_png(payload)
    if payload[:2] == b"BM":
        return mediacodec.decode_bmp(payload)
    if payload[:2] == mediacodec.JPEG_MAGIC:
        return mediacodec.decode_jpeg(payload)
    raise NotImplementedError(
        "only PNG/BMP/baseline-JPEG decode in-container "
        "(functions/mediacodec.py); WebP/AVIF/progressive-JPEG need an "
        "image library — pass decode=_fake_decode_image for the "
        "deterministic stub, or plug PIL/torchvision on a real cluster")


def real_decode_audio(payload: bytes, duration_ms: int,
                      rate: int = 16000) -> np.ndarray:
    """REAL audio decode for RIFF PCM WAV (stdlib ``wave`` via
    functions/mediacodec.py), resampled to ``rate``; the declared
    duration hint is ignored. Compressed formats still raise."""
    from zhtml_ray.functions import mediacodec
    if payload[:4] == b"RIFF":
        return mediacodec.decode_wav(payload, rate=rate)
    raise NotImplementedError(
        "only PCM WAV decode in-container (functions/mediacodec.py); "
        "MP3/AAC need an audio library — pass decode=_fake_decode_audio "
        "for the deterministic stub, or plug ffmpeg/torchaudio on a "
        "real cluster")


class ImageFeatures:
    """Batch stage: decode → resize (nearest-neighbor, numpy) →
    channel-mean features. Small batch_size is the point: payloads are
    large, so batch bytes — not row count — budget the batch
    (use batch_size≈16-64 for multi-MB media)."""

    def __init__(self, decode=None, resize_to: int = 32):
        self.decode = decode or _fake_decode_image
        self.resize_to = resize_to

    def _resize(self, img: np.ndarray) -> np.ndarray:
        t = self.resize_to
        h, w = img.shape[:2]
        yi = (np.arange(t) * h // t)
        xi = (np.arange(t) * w // t)
        return img[yi][:, xi]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist() if "kind" in batch.column_names \
            else ["image"] * batch.num_rows
        payloads = batch["payload"].to_pylist()
        ws = batch["width"].to_pylist()
        hs = batch["height"].to_pylist()
        out_id, feats, ok = [], [], []
        for mid, kind, p, w, h in zip(ids, kinds, payloads, ws, hs):
            if kind != "image":
                continue  # audio/wav bytes must never hit the image decoder
            out_id.append(mid)
            try:
                img = self.decode(p, max(w, 1), max(h, 1))
                small = self._resize(img)
                feats.append(small.mean(axis=(0, 1)).astype(np.float32).tolist())
                ok.append(True)
            except Exception:  # noqa: BLE001 — per-row isolation must
                # survive a REAL decoder too (corrupt payloads raise
                # decoder-specific errors, not just the stub's
                # NotImplementedError)
                feats.append([0.0, 0.0, 0.0])
                ok.append(False)
        return pa.table({
            "media_id": pa.array(out_id, pa.int64()),
            "feature": pa.array(feats, pa.list_(pa.float32(), 3)),
            "decoded": pa.array(ok, pa.bool_()),
        })


def _fake_decode_audio(payload: bytes, duration_ms: int,
                       rate: int = 16000) -> np.ndarray:
    """Deterministic stand-in for an audio decoder: seeded float32 PCM."""
    seed = int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(),
                          "big")
    rng = np.random.RandomState(seed)
    n = max(1, int(rate * duration_ms / 1000))
    return (rng.standard_normal(n) * 0.1).astype(np.float32)


class AudioFeatures:
    """Batch stage: decode → framed RMS energy + zero-crossing rate
    (25 ms frames, 10 ms hop — the standard ASR front-end framing).
    Vectorized numpy over the PCM; the decode is the stubbed kernel."""

    def __init__(self, decode=None, rate: int = 16000,
                 frame_ms: int = 25, hop_ms: int = 10):
        self.decode = decode or _fake_decode_audio
        self.rate = rate
        self.frame = rate * frame_ms // 1000
        self.hop = rate * hop_ms // 1000

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        durs = batch["duration_ms"].to_pylist()
        out_id, n_frames, rms_mean, zcr_mean, ok = [], [], [], [], []
        for mid, kind, p, dur in zip(ids, kinds, payloads, durs):
            if kind != "audio":
                continue
            out_id.append(mid)
            try:
                pcm = self.decode(p, max(dur, 1), self.rate)
                if len(pcm) < self.frame:
                    pcm = np.pad(pcm, (0, self.frame - len(pcm)))
                frames = np.lib.stride_tricks.sliding_window_view(
                    pcm, self.frame)[::self.hop]
                rms = np.sqrt((frames ** 2).mean(axis=1))
                zc = (np.diff(np.signbit(frames), axis=1) != 0).mean(axis=1)
                n_frames.append(len(frames))
                rms_mean.append(float(rms.mean()))
                zcr_mean.append(float(zc.mean()))
                ok.append(True)
            except Exception:  # noqa: BLE001 — survive real decoders too
                n_frames.append(0)
                rms_mean.append(0.0)
                zcr_mean.append(0.0)
                ok.append(False)
        return pa.table({
            "media_id": pa.array(out_id, pa.int64()),
            "n_frames": pa.array(n_frames, pa.int32()),
            "rms_mean": pa.array(rms_mean, pa.float32()),
            "zcr_mean": pa.array(zcr_mean, pa.float32()),
            "decoded": pa.array(ok, pa.bool_()),
        })


class FrameSampler:
    """Video frame-sampling plumbing: emits (media_id, frame_idx) rows at
    a fixed fps over the declared duration — the decode of each frame is
    the stubbed kernel."""

    def __init__(self, fps: float = 1.0):
        self.fps = fps

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        kinds = batch["kind"].to_pylist()
        durs = batch["duration_ms"].to_pylist()
        out_id, out_frame, out_ts = [], [], []
        for mid, kind, dur in zip(ids, kinds, durs):
            if kind != "video" or dur <= 0:
                continue
            n = max(1, int(dur / 1000.0 * self.fps))
            for f in range(n):
                out_id.append(mid)
                out_frame.append(f)
                out_ts.append(int(f * 1000 / self.fps))
        return pa.table({
            "media_id": pa.array(out_id, pa.int64()),
            "frame_idx": pa.array(out_frame, pa.int32()),
            "ts_ms": pa.array(out_ts, pa.int32()),
        })


# ------------------------------------------------ perceptual-hash near-dup

def dhash64(img: np.ndarray) -> int:
    """Difference hash (dHash) — 64-bit perceptual fingerprint, all
    INTEGER math so it is bit-deterministic across platforms: integer
    luma (299r+587g+114b)//1000 → exact block-mean downsample to 8×9 →
    bit per horizontal gradient. Robust to re-encode/resize with a
    real decoder; with the deterministic stub, equal payload+dims ⇒
    equal hash."""
    h, w = img.shape[:2]
    lum = (img[:, :, 0].astype(np.uint32) * 299
           + img[:, :, 1].astype(np.uint32) * 587
           + img[:, :, 2].astype(np.uint32) * 114) // 1000
    yb = (np.arange(9, dtype=np.int64) * h) // 8   # 8 row blocks
    xb = (np.arange(10, dtype=np.int64) * w) // 9  # 9 col blocks
    c = lum.cumsum(axis=0, dtype=np.uint64).cumsum(axis=1,
                                                   dtype=np.uint64)
    cz = np.zeros((h + 1, w + 1), np.uint64)
    cz[1:, 1:] = c
    area = (cz[yb[1:, None], xb[None, 1:]]
            - cz[yb[:-1, None], xb[None, 1:]]
            - cz[yb[1:, None], xb[None, :-1]]
            + cz[yb[:-1, None], xb[None, :-1]])
    cnt = ((yb[1:] - yb[:-1])[:, None].astype(np.uint64)
           * (xb[1:] - xb[:-1])[None, :].astype(np.uint64))
    g = area // cnt                                # 8×9 exact means
    bits = (g[:, 1:] > g[:, :-1]).astype(np.uint8).ravel()
    return int.from_bytes(np.packbits(bits).tobytes(), "big")


class PHashBatch:
    """Batch stage: decode → dHash64 per image row. Emits
    (media_id, phash) with phash as the int64 BITCAST of the uint64
    hash (Arrow/DuckDB-native; xor/bit_count see the same bits).
    Decode failures emit decoded=False with phash 0."""

    def __init__(self, decode=None):
        self.decode = decode or _fake_decode_image

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, hashes, ok = [], [], []
        for mid, kind, p, w, h in zip(
                batch["media_id"].to_pylist(),
                (batch["kind"].to_pylist() if "kind" in
                 batch.column_names else ["image"] * batch.num_rows),
                batch["payload"].to_pylist(),
                batch["width"].to_pylist(),
                batch["height"].to_pylist()):
            if kind != "image":
                continue
            ids.append(mid)
            try:
                hv = dhash64(self.decode(p, max(w, 1), max(h, 1)))
                hashes.append(np.uint64(hv).astype(np.int64))
                ok.append(True)
            except Exception:  # noqa: BLE001 — per-row isolation
                hashes.append(0)
                ok.append(False)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "phash": pa.array(np.asarray(hashes, np.int64)),
            "decoded": pa.array(ok, pa.bool_())})


def _hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (a.astype(np.int64).view(np.uint64)
         ^ b.astype(np.int64).view(np.uint64))
    v = x.view(np.uint8).reshape(len(x), 8)
    return np.unpackbits(v, axis=1).sum(axis=1).astype(np.int64)


def phash_neardup(ds, max_hamming: int = 3, decode=None,
                  clique_limit: int = 4096):
    """Perceptual-hash image near-duplicate pairs: dHash per image →
    4×16-bit band blocking (pigeonhole: ≤3 differing bits across 4
    bands leave ≥1 band EXACT, so band recall is total for the
    default radius — PROVIDED no band bucket exceeds
    ``clique_limit``: beyond it the shared pairing falls back to star
    pairs with a warning, which preserves CLUSTER membership for
    exact-duplicate groups but not the full pair list; raise the
    limit when the pair list itself is the product) → candidate pairs
    via the shared sort-based bucket pairing → hamming verify on XOR
    popcount. Undecoded rows are dropped first (decode failures carry
    phash 0 and would cross-pair as fake hamming-0 duplicates). The
    verify attaches hashes with two merge joins — 8 bytes per image,
    never a broadcast dict. Returns (key_a, key_b,
    hamming ≤ max_hamming)."""
    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import (_bucket_pairs_np,
                                           dedup_candidate_pairs)
    from zhtml_ray.stages.sortagg import (sorted_bucket_apply,
                                          sorted_lookup_join)

    assert max_hamming <= 3, \
        "4 bands of 16 bits guarantee recall only to hamming 3; " \
        "raise the band count for a wider radius"
    ph = ds.map_batches(PHashBatch(decode=decode), batch_format="pyarrow",
                        batch_size=32)

    def decoded_only(b: pa.Table) -> pa.Table:
        # a real decoder FAILS on corrupt payloads; those rows carry
        # phash 0 and would all pair as hamming-0 "duplicates" with
        # each other (and with genuinely smooth zero-hash images) —
        # near-dup semantics are defined over DECODED images only
        import pyarrow.compute as pc
        return b.filter(b["decoded"])

    ph = ph.map_batches(decoded_only,
                        batch_format="pyarrow").materialize()

    def explode(b: pa.Table) -> pa.Table:
        hv = b["phash"].combine_chunks().to_numpy(
            zero_copy_only=False).view(np.uint64)
        ids = b["media_id"].combine_chunks().to_numpy(
            zero_copy_only=False)
        n = len(hv)
        band = np.repeat(np.arange(4, dtype=np.uint64), n)
        vals = np.concatenate(
            [(hv >> np.uint64(16 * i)) & np.uint64(0xFFFF)
             for i in range(4)])
        return pa.table({
            "bucket": pa.array((band * np.uint64(1 << 16) + vals)
                               .astype(np.int64)),
            "media_id": pa.array(np.tile(ids, 4), pa.int64())})

    exploded = ph.map_batches(explode, batch_format="pyarrow")
    empty = pa.table({"key_a": pa.array([], pa.int64()),
                      "key_b": pa.array([], pa.int64())})

    def pairs_of(b, starts, ends):
        return _bucket_pairs_np(b["media_id"].combine_chunks(), starts,
                                ends, clique_limit=clique_limit)

    pairs = dedup_candidate_pairs(sorted_bucket_apply(
        exploded, "bucket", ["bucket", "media_id"], pairs_of, empty))
    if pairs.count() == 0:
        # no candidate pair: the emptied blocks carry no schema for the
        # lookup joins below, so answer with the typed empty result
        import ray.data as rd
        return rd.from_arrow(empty.append_column(
            "hamming", pa.array([], pa.int64())))

    def rn(new_key, payload):
        return lambda b: pa.table({new_key: b["media_id"],
                                   payload: b["phash"]})

    # compact between chained sortagg stages (CLAUDE.md landmine:
    # ~2 tiny blocks per input block × range-sort partitions)
    from zhtml_ray.stages.util import compact_blocks
    pairs = sorted_lookup_join(
        compact_blocks(pairs),
        ph.map_batches(rn("key_a", "ph_a"), batch_format="pyarrow"),
        "key_a", ["ph_a"])
    pairs = sorted_lookup_join(
        compact_blocks(pairs),
        ph.map_batches(rn("key_b", "ph_b"), batch_format="pyarrow"),
        "key_b", ["ph_b"])

    def verify(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"key_a": pa.array([], pa.int64()),
                             "key_b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        ham = _hamming64(
            b["ph_a"].combine_chunks().to_numpy(zero_copy_only=False),
            b["ph_b"].combine_chunks().to_numpy(zero_copy_only=False))
        t = pa.table({"key_a": b["key_a"], "key_b": b["key_b"],
                      "hamming": pa.array(ham)})
        return t.filter(pc.less_equal(t["hamming"], max_hamming))

    return pairs.map_batches(verify, batch_format="pyarrow")
