"""Real-codec tests (r4): PNG/BMP/WAV round-trips through
functions/mediacodec.py plus the multimodal chains running on REAL
encoded payloads — the "never ran a real codec" gap from the r3
verdict, closed for every format the stdlib can carry."""

import numpy as np
import pyarrow as pa
import pytest

from zhtml_ray.functions import mediacodec as mc


def _rand_img(rng, h, w, c=3):
    return rng.randint(0, 256, (h, w, c), dtype=np.uint8)


def test_png_roundtrip_all_filters():
    rng = np.random.RandomState(0)
    for h, w in [(1, 1), (3, 5), (17, 23), (64, 48)]:
        img = _rand_img(rng, h, w)
        for f in range(5):
            assert np.array_equal(
                mc.decode_png(mc.encode_png(img, filters=f)), img), \
                (h, w, f)
        # mixed per-row filters in one stream
        mixed = [i % 5 for i in range(h)]
        assert np.array_equal(
            mc.decode_png(mc.encode_png(img, filters=mixed)), img)


def test_png_color_types():
    rng = np.random.RandomState(1)
    gray = _rand_img(rng, 9, 7, 1)
    got = mc.decode_png(mc.encode_png(gray, filters=1))
    assert np.array_equal(got, np.repeat(gray, 3, axis=2))
    rgba = _rand_img(rng, 6, 8, 4)
    got = mc.decode_png(mc.encode_png(rgba, filters=4))
    assert np.array_equal(got, rgba[:, :, :3])
    ga = _rand_img(rng, 5, 5, 2)
    got = mc.decode_png(mc.encode_png(ga, filters=3))
    assert np.array_equal(got, np.repeat(ga[:, :, :1], 3, axis=2))


def test_png_rejects_garbage_and_unsupported():
    with pytest.raises(ValueError):
        mc.decode_png(b"not a png at all")
    # truncated IDAT → zlib or length error, never silent garbage
    good = mc.encode_png(np.zeros((4, 4, 3), np.uint8))
    with pytest.raises(Exception):
        mc.decode_png(good[:-20] + good[-8:])


def test_bmp_roundtrip_padding_and_orientation():
    rng = np.random.RandomState(2)
    for w in (1, 2, 3, 4, 5):  # every padding residue
        img = _rand_img(rng, 7, w)
        assert np.array_equal(mc.decode_bmp(mc.encode_bmp(img)), img)
        assert np.array_equal(
            mc.decode_bmp(mc.encode_bmp(img, top_down=True)), img)


def test_wav_roundtrip_and_resample():
    t = np.arange(3200) / 16000.0
    pcm = (0.5 * np.sin(2 * np.pi * 440 * t)).astype(np.float32)
    got = mc.decode_wav(mc.encode_wav(pcm, 16000, sampwidth=2))
    assert len(got) == len(pcm)
    assert np.abs(got - pcm).max() < 2 / 32768 + 1e-6
    # 8-bit is coarser but must stay within one quantization step
    got8 = mc.decode_wav(mc.encode_wav(pcm, 16000, sampwidth=1))
    assert np.abs(got8 - pcm).max() < 2 / 127
    # resample halves the length (±1) and keeps the waveform shape
    half = mc.decode_wav(mc.encode_wav(pcm, 16000), rate=8000)
    assert abs(len(half) - 1600) <= 1
    assert np.corrcoef(half[:1600], pcm[::2][:1600])[0, 1] > 0.95


def test_real_decode_dispatch():
    from zhtml_ray.functions.multimodal import (real_decode_audio,
                                                real_decode_image)
    rng = np.random.RandomState(3)
    img = _rand_img(rng, 8, 8)
    assert np.array_equal(real_decode_image(mc.encode_png(img), -1, -1), img)
    assert np.array_equal(real_decode_image(mc.encode_bmp(img), -1, -1), img)
    jimg = _rand_img(rng, 8, 8)
    dec = real_decode_image(mc.encode_jpeg(jimg, 95), -1, -1)  # r5
    assert dec.shape == jimg.shape
    with pytest.raises(ValueError):  # JPEG now DISPATCHES; bad body
        real_decode_image(b"\xff\xd8\xff\xe0 jpeg-ish", 4, 4)
    with pytest.raises(NotImplementedError):  # WebP still raises
        real_decode_image(b"RIFF\x00\x00\x00\x00WEBPVP8 ", 4, 4)
    pcm = np.zeros(160, np.float32)
    assert len(real_decode_audio(mc.encode_wav(pcm, 16000), 10)) == 160
    with pytest.raises(NotImplementedError):
        real_decode_audio(b"ID3\x04mp3-ish", 10)


def test_image_audio_features_on_real_payloads(ray_session):
    """ImageFeatures/AudioFeatures actor pools over REAL PNG/BMP/WAV
    payloads: every row decodes, features are finite, and a corrupt
    payload flips decoded=False without poisoning its batch."""
    import ray.data as rd

    from zhtml_ray.functions.multimodal import (AudioFeatures,
                                                ImageFeatures,
                                                gen_real_media_table,
                                                real_decode_audio,
                                                real_decode_image)

    tbl = gen_real_media_table(60)
    # corrupt one image payload in place
    d = tbl.to_pydict()
    bad_id = next(i for i, k in zip(d["media_id"], d["kind"])
                  if k == "image")
    idx = d["media_id"].index(bad_id)
    d["payload"][idx] = d["payload"][idx][:40]
    tbl = pa.Table.from_pydict(d, schema=tbl.schema)

    feats = rd.from_arrow(tbl).map_batches(
        ImageFeatures(decode=real_decode_image),
        batch_format="pyarrow", batch_size=16).to_pandas()
    n_img = sum(1 for k in tbl["kind"].to_pylist() if k == "image")
    assert len(feats) == n_img
    ok = feats.set_index("media_id")["decoded"]
    assert not ok[bad_id]
    assert ok.drop(bad_id).all()

    au = rd.from_arrow(tbl).map_batches(
        AudioFeatures(decode=real_decode_audio),
        batch_format="pyarrow", batch_size=16).to_pandas()
    n_audio = sum(1 for k in tbl["kind"].to_pylist() if k == "audio")
    assert len(au) == n_audio
    assert au["decoded"].all()
    assert (au["rms_mean"] > 0.05).all()  # sine mixes carry energy


def test_phash_neardup_real_codecs(ray_session):
    """The real-codec near-dup claim: the same pixels encoded as PNG
    and as BMP (different containers, different bytes) must decode
    identically and pair at hamming 0 through the full distributed
    phash chain — exactly the re-encode duplicate a crawl sees."""
    import ray.data as rd

    from zhtml_ray.functions.multimodal import (gen_real_media_table,
                                                phash_neardup,
                                                real_decode_image)

    n = 90
    tbl = gen_real_media_table(n, dup_every=4)
    pairs = phash_neardup(rd.from_arrow(tbl).repartition(4),
                          max_hamming=0,
                          decode=real_decode_image).take_all()
    got = {(min(r["key_a"], r["key_b"]), max(r["key_a"], r["key_b"]))
           for r in pairs}
    # every planted PNG/BMP twin (ids i and n+i) must pair
    want_ids = {m for m in tbl["media_id"].to_pylist() if m >= n}
    assert want_ids
    for twin in want_ids:
        assert (twin - n, twin) in got
    # and nothing else pairs at hamming 0 (distinct noisy images)
    assert got == {(t - n, t) for t in want_ids}


def test_jpeg_roundtrip_color_gray_odd_sizes():
    """Baseline JPEG encode→decode round-trips within codec-typical
    error on smooth, flat, and noise content, color + grayscale, at
    non-multiple-of-8 sizes and across qualities."""
    import numpy as np

    from zhtml_ray.functions.mediacodec import decode_jpeg, encode_jpeg

    y, x = np.mgrid[0:37, 0:51]
    smooth = np.stack([np.clip(x * 4, 0, 255), np.clip(y * 5, 0, 255),
                       np.clip(255 - (x + y) * 2, 0, 255)],
                      axis=2).astype(np.uint8)
    for q, tol in ((50, 16), (75, 12), (95, 6)):
        dec = decode_jpeg(encode_jpeg(smooth, q))
        assert dec.shape == smooth.shape
        assert np.abs(dec.astype(int) - smooth.astype(int)).max() <= tol

    flat = np.full((16, 16, 3), [200, 30, 90], np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg(flat, 95)), flat)

    rng = np.random.RandomState(1)
    noise = rng.randint(0, 256, (24, 24, 3), np.uint8)
    d = np.abs(decode_jpeg(encode_jpeg(noise, 95)).astype(int)
               - noise.astype(int))
    assert d.mean() < 8 and d.max() < 40  # q95 noise: quant error only

    gray = (x * 3 + y * 2).astype(np.uint8)
    decg = decode_jpeg(encode_jpeg(gray, 95))
    assert decg.shape == (37, 51, 3)  # gray replicated to RGB
    assert np.abs(decg[:, :, 0].astype(int) - gray.astype(int)).max() <= 4
    assert np.array_equal(decg[:, :, 0], decg[:, :, 1])


def test_jpeg_gray_decode_rounds():
    """The grayscale branch rounds the reconstructed samples, as the
    colour branch does: a decoded gray image equals the rounded IDCT of
    its own dequantized coefficients, pixel for pixel (truncation is
    off by one wherever the reconstruction lands below an integer)."""
    import numpy as np

    from zhtml_ray.functions import mediacodec as mc

    y, x = np.mgrid[0:16, 0:24]
    gray = (x * 7 + y * 5 + 17).astype(np.uint8)
    qt8 = mc._scaled_qt(mc._QT_LUM, 90).reshape(8, 8)
    ref = np.zeros(gray.shape)
    for y0 in range(0, 16, 8):
        for x0 in range(0, 24, 8):
            zz = mc._quantize_block(gray - 128.0, y0, x0, qt8)
            f = np.zeros(64)
            f[mc._ZIGZAG] = zz * qt8.reshape(64)[mc._ZIGZAG]
            ref[y0:y0 + 8, x0:x0 + 8] = \
                mc._DCT_M.T @ f.reshape(8, 8) @ mc._DCT_M
    ref = np.clip(ref + 128.0, 0, 255)
    assert (ref != np.round(ref)).any()
    dec = mc.decode_jpeg(mc.encode_jpeg(gray, 90))
    assert np.array_equal(dec[:, :, 0], ref.round().astype(np.uint8))


def test_jpeg_subsampling_and_restart_markers():
    """The decoder's generic-sampling (4:2:0 → 2×2 Y per MCU, chroma
    upsampled) and restart-interval (DRI + RSTn segmentation, DC
    predictor reset) paths, exercised by real encoder bytes."""
    import numpy as np

    from zhtml_ray.functions.mediacodec import decode_jpeg, encode_jpeg

    y, x = np.mgrid[0:41, 0:53]
    img = np.stack([np.clip(x * 4, 0, 255), np.clip(y * 5, 0, 255),
                    np.clip(255 - (x + y) * 2, 0, 255)],
                   axis=2).astype(np.uint8)
    for sub in ("4:4:4", "4:2:0"):
        for ri in (0, 1, 3):
            enc = encode_jpeg(img, 90, subsampling=sub,
                              restart_interval=ri)
            if ri:
                assert b"\xff\xdd" in enc          # DRI present
                assert any(bytes([0xFF, 0xD0 + k]) in enc
                           for k in range(8))      # RSTn present
            dec = decode_jpeg(enc)
            d = np.abs(dec.astype(int) - img.astype(int))
            assert dec.shape == img.shape
            assert d.max() <= (4 if sub == "4:4:4" else 12), (sub, ri)
    # 4:2:0 compresses smooth content harder than 4:4:4
    assert len(encode_jpeg(img, 90, subsampling="4:2:0")) < \
        len(encode_jpeg(img, 90))


def test_jpeg_rejects_progressive_and_garbage():
    import numpy as np
    import pytest

    from zhtml_ray.functions.mediacodec import decode_jpeg, encode_jpeg

    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg at all")
    # flip SOF0 to SOF2 (progressive) in real bytes -> loud refusal
    enc = bytearray(encode_jpeg(np.zeros((8, 8, 3), np.uint8), 90))
    i = enc.index(b"\xff\xc0")
    enc[i + 1] = 0xC2
    with pytest.raises(NotImplementedError, match="baseline"):
        decode_jpeg(bytes(enc))


def test_jpeg_real_decode_dispatch_and_lossy_twin():
    """real_decode_image sniffs the JPEG magic, and a JPEG re-encode
    of a PNG-encoded image dHashes within a few bits — the lossy
    re-encode near-dup class media_real_codec_dup plants."""
    import numpy as np

    from zhtml_ray.functions.mediacodec import (decode_png, encode_jpeg,
                                                encode_png)
    from zhtml_ray.functions.multimodal import dhash64, real_decode_image

    rng = np.random.RandomState(7)
    blocks = rng.randint(0, 256, (8, 9, 3))
    h, w = 48, 56
    img = blocks[np.arange(h) * 8 // h][:, np.arange(w) * 9 // w] \
        .astype(np.uint8)
    png, jpg = encode_png(img), encode_jpeg(img, 95, subsampling="4:2:0")
    a = real_decode_image(png, w, h)
    b = real_decode_image(jpg, w, h)
    assert np.array_equal(a, decode_png(png))
    ham = bin(dhash64(a) ^ dhash64(b)).count("1")
    assert ham <= 3, ham
