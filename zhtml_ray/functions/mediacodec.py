"""REAL media codecs in pure Python/numpy + stdlib — no external
image/audio libraries.

r3 VERDICT called multimodal "the weakest family — these stages have
never run a real codec". This module closes that for the formats the
standard library can carry end-to-end:

  * PNG  — full decoder (zlib inflate, all five scanline filters,
    color types 0/2/3/4/6 at bit depth 8, non-interlaced) and an
    encoder used by the round-trip tests to exercise every filter.
  * BMP  — 24-bit BI_RGB decoder/encoder (bottom-up and top-down,
    4-byte row padding).
  * WAV  — PCM decoder via the stdlib ``wave`` module (8/16-bit,
    any channel count, linear-interp resample to the caller's rate).
  * JPEG — baseline sequential (ITU-T T.81) decoder (generic
    DHT/DQT, 1- or 3-component SOF0, any h/v sampling factors,
    restart intervals) and an encoder (4:4:4 or 4:2:0, Annex K
    tables, libjpeg quality convention, optional DRI/RSTn) — r5;
    JPEG is the dominant web image format.

``multimodal.real_decode_image`` / ``real_decode_audio`` sniff the
payload magic and dispatch here; formats that genuinely need a codec
library (WebP, progressive JPEG, MP3, MP4…) still raise
``NotImplementedError`` with the same injectable-decoder escape hatch
as before.

Reference parity note: the reference engine (an HTML library) has no
media path at all — this family is part of the §2.12 beyond-reference
surface, so the codecs follow the public format specs (PNG: RFC 2083 /
W3C PNG; BMP: BITMAPINFOHEADER; WAV: RIFF PCM) rather than any
reference code.
"""

from __future__ import annotations

import io
import struct
import wave
import zlib

import numpy as np

PNG_MAGIC = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _unfilter(raw: bytes, height: int, width: int, bpp: int) -> np.ndarray:
    """Reverse the PNG scanline filters. Returns (H, W*bpp) uint8.

    Sub is a per-lane modular prefix sum (np.cumsum with uint8 wrap);
    Up is one vectorized add; Average/Paeth carry a true sequential
    left-dependency, so they run a per-pixel loop — fine at feature-
    extraction sizes, and our encoder exercises them in tests."""
    stride = width * bpp
    rows = np.frombuffer(raw, np.uint8).reshape(height, stride + 1)
    out = np.zeros((height, stride), np.uint8)
    prior = np.zeros(stride, np.uint8)
    for y in range(height):
        ftype = int(rows[y, 0])
        cur = rows[y, 1:].copy()
        if ftype == 0:
            rec = cur
        elif ftype == 1:  # Sub
            rec = np.cumsum(cur.reshape(width, bpp), axis=0,
                            dtype=np.uint8).reshape(stride)
        elif ftype == 2:  # Up
            rec = cur + prior
        elif ftype == 3:  # Average
            rec = np.zeros(stride, np.uint8)
            p16 = prior.astype(np.uint16)
            for x in range(stride):
                left = int(rec[x - bpp]) if x >= bpp else 0
                rec[x] = (int(cur[x]) + ((left + int(p16[x])) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            rec = np.zeros(stride, np.uint8)
            for x in range(stride):
                a = int(rec[x - bpp]) if x >= bpp else 0
                b = int(prior[x])
                c = int(prior[x - bpp]) if x >= bpp else 0
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc) else \
                    (b if pb <= pc else c)
                rec[x] = (int(cur[x]) + pred) & 0xFF
        else:
            raise ValueError(f"PNG: unknown filter type {ftype}")
        out[y] = rec
        prior = rec
    return out


def decode_png(payload: bytes) -> np.ndarray:
    """PNG → (H, W, 3) uint8 RGB (alpha dropped, gray replicated)."""
    if payload[:8] != PNG_MAGIC:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat, plte = [], None
    h = depth = ctype = interlace = None
    while pos + 8 <= len(payload):
        (ln,) = struct.unpack(">I", payload[pos:pos + 4])
        typ = payload[pos + 4:pos + 8]
        data = payload[pos + 8:pos + 8 + ln]
        pos += 12 + ln
        if typ == b"IHDR":
            w, h, depth, ctype, _comp, _filt, interlace = \
                struct.unpack(">IIBBBBB", data)
        elif typ == b"PLTE":
            plte = np.frombuffer(data, np.uint8).reshape(-1, 3)
        elif typ == b"IDAT":
            idat.append(data)
        elif typ == b"IEND":
            break
    if w is None:
        raise ValueError("PNG: missing IHDR")
    if depth != 8 or interlace != 0 or ctype not in _CHANNELS:
        raise NotImplementedError(
            f"PNG: bit depth {depth} / color type {ctype} / "
            f"interlace {interlace} not supported (8-bit, "
            "non-interlaced, color types 0/2/3/4/6 only)")
    bpp = _CHANNELS[ctype]
    raw = zlib.decompress(b"".join(idat))
    if len(raw) != h * (w * bpp + 1):
        raise ValueError("PNG: bad IDAT length")
    px = _unfilter(raw, h, w, bpp).reshape(h, w, bpp)
    if ctype == 2:
        return px.copy()
    if ctype == 6:
        return px[:, :, :3].copy()
    if ctype == 0:
        return np.repeat(px, 3, axis=2)
    if ctype == 4:
        return np.repeat(px[:, :, :1], 3, axis=2)
    if plte is None:
        raise ValueError("PNG: palette image without PLTE")
    return plte[px[:, :, 0]]


def _chunk(typ: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + typ + data
            + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF))


def encode_png(img: np.ndarray, filters=0) -> bytes:
    """(H, W, 3|4|1) uint8 → PNG bytes. ``filters``: one filter type
    for every row, or a per-row sequence — lets tests force all five
    decode paths."""
    img = np.ascontiguousarray(img, np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, bpp = img.shape
    ctype = {1: 0, 2: 4, 3: 2, 4: 6}[bpp]
    flat = img.reshape(h, w * bpp).astype(np.int16)
    ft = [int(filters)] * h if np.isscalar(filters) else list(filters)
    lines = []
    prior = np.zeros(w * bpp, np.int16)
    for y in range(h):
        cur = flat[y]
        left = np.zeros(w * bpp, np.int16)
        left[bpp:] = cur[:-bpp]
        pleft = np.zeros(w * bpp, np.int16)
        pleft[bpp:] = prior[:-bpp]
        t = ft[y]
        if t == 0:
            filt = cur
        elif t == 1:
            filt = cur - left
        elif t == 2:
            filt = cur - prior
        elif t == 3:
            filt = cur - ((left + prior) >> 1)
        elif t == 4:
            p = left + prior - pleft
            pa_, pb, pc = (np.abs(p - left), np.abs(p - prior),
                           np.abs(p - pleft))
            pred = np.where((pa_ <= pb) & (pa_ <= pc), left,
                            np.where(pb <= pc, prior, pleft))
            filt = cur - pred
        else:
            raise ValueError(f"bad filter {t}")
        lines.append(bytes([t]) + (filt & 0xFF).astype(np.uint8).tobytes())
        prior = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    return (PNG_MAGIC + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(b"".join(lines)))
            + _chunk(b"IEND", b""))


def decode_bmp(payload: bytes) -> np.ndarray:
    """24-bit uncompressed BMP → (H, W, 3) uint8 RGB."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP")
    (data_off,) = struct.unpack("<I", payload[10:14])
    (hdr_size,) = struct.unpack("<I", payload[14:18])
    if hdr_size < 40:
        raise NotImplementedError("BMP: pre-BITMAPINFOHEADER not supported")
    w, h = struct.unpack("<ii", payload[18:26])
    bpp, comp = struct.unpack("<HI", payload[28:34])
    if bpp != 24 or comp != 0:
        raise NotImplementedError(
            f"BMP: only 24-bit BI_RGB supported (got {bpp}-bit comp={comp})")
    top_down = h < 0
    h = abs(h)
    stride = (w * 3 + 3) & ~3
    px = np.frombuffer(payload, np.uint8, count=h * stride,
                       offset=data_off).reshape(h, stride)
    px = px[:, :w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR → RGB
    return (px if top_down else px[::-1]).copy()


def encode_bmp(img: np.ndarray, top_down: bool = False) -> bytes:
    img = np.ascontiguousarray(img, np.uint8)
    h, w = img.shape[:2]
    stride = (w * 3 + 3) & ~3
    rows = np.zeros((h, stride), np.uint8)
    rows[:, :w * 3] = img[:, :, ::-1].reshape(h, w * 3)  # RGB → BGR
    body = (rows if top_down else rows[::-1]).tobytes()
    hdr = (b"BM" + struct.pack("<IHHI", 54 + len(body), 0, 0, 54)
           + struct.pack("<IiiHHIIiiII", 40, w, -h if top_down else h,
                         1, 24, 0, len(body), 2835, 2835, 0, 0))
    return hdr + body


def decode_wav(payload: bytes, rate: int | None = None) -> np.ndarray:
    """RIFF PCM WAV → mono float32 in [-1, 1], linearly resampled to
    ``rate`` when given (stdlib ``wave``; 8/16-bit, any channels)."""
    with wave.open(io.BytesIO(payload), "rb") as f:
        nch, sw, fr, nframes = (f.getnchannels(), f.getsampwidth(),
                                f.getframerate(), f.getnframes())
        raw = f.readframes(nframes)
    if sw == 2:
        pcm = np.frombuffer(raw, "<i2").astype(np.float32) / 32768.0
    elif sw == 1:
        pcm = (np.frombuffer(raw, np.uint8).astype(np.float32) - 128.0) \
            / 128.0
    else:
        raise NotImplementedError(f"WAV: sample width {sw} not supported")
    if nch > 1:
        pcm = pcm.reshape(-1, nch).mean(axis=1)
    if rate is not None and rate != fr and len(pcm) > 1:
        n_out = max(1, int(round(len(pcm) * rate / fr)))
        pcm = np.interp(np.linspace(0.0, len(pcm) - 1.0, n_out),
                        np.arange(len(pcm), dtype=np.float64),
                        pcm.astype(np.float64)).astype(np.float32)
    return pcm.astype(np.float32)


def encode_wav(pcm: np.ndarray, rate: int = 16000,
               sampwidth: int = 2) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(sampwidth)
        f.setframerate(rate)
        if sampwidth == 2:
            f.writeframes((np.clip(pcm, -1, 1) * 32767)
                          .astype("<i2").tobytes())
        else:
            f.writeframes((np.clip(pcm, -1, 1) * 127 + 128)
                          .astype(np.uint8).tobytes())
    return buf.getvalue()


# ----------------------------------------------------------------- JPEG
# Baseline sequential JPEG (ITU-T T.81), pure numpy/stdlib (r5 —
# VERDICT r4 #4: JPEG is the dominant web image format). Decoder:
# marker parse (APPn/COM skipped), 8-bit DQT, SOF0, generic DHT,
# restart intervals, arbitrary h/v sampling factors (4:4:4, 4:2:2,
# 4:2:0, …) with nearest-neighbor chroma upsampling. Encoder:
# 4:4:4 (or grayscale) with the public Annex K quant + huffman
# tables, libjpeg-convention quality scaling. Progressive (SOF2),
# arithmetic coding and 12-bit precision raise NotImplementedError.

JPEG_MAGIC = b"\xff\xd8"

_ZIGZAG = np.array([
    0,  1,  8, 16,  9,  2,  3, 10, 17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    np.int64)

# Annex K.1 quantization tables (in natural row-major order)
_QT_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103,
    99], np.int64)
_QT_CHR = np.array([
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99],
    np.int64)

# Annex K.3 huffman specs: (bits[1..16], huffval). The val ORDER only
# tunes code lengths; validity is (a) bits is a legal prefix-code
# shape and (b) vals cover every emitted symbol — both asserted at
# import so a transcription slip fails tests, not decodes.
_DC_LUM_SPEC = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
                list(range(12)))
_DC_CHR_SPEC = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
                list(range(12)))
_AC_LUM_SPEC = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xa1, 0x08, 0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
    0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6, 0xb7,
    0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9,
    0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1,
    0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2,
    0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa])
_AC_CHR_SPEC = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0, 0x15,
    0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17,
    0x18, 0x19, 0x1a, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4a,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3,
    0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5,
    0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
    0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9,
    0xda, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf2,
    0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa])


def _check_huff_specs():
    ac_all = sorted({(r << 4) | s for r in range(16)
                     for s in range(1, 11)} | {0x00, 0xF0})
    for bits, vals in (_AC_LUM_SPEC, _AC_CHR_SPEC):
        assert sum(bits) == len(vals) == 162
        assert sorted(vals) == ac_all
    for bits, vals in (_DC_LUM_SPEC, _DC_CHR_SPEC):
        assert sum(bits) == len(vals) == 12
    # prefix-code shape: Kraft sum over the declared lengths <= 1
    for bits, _ in (_DC_LUM_SPEC, _DC_CHR_SPEC, _AC_LUM_SPEC,
                    _AC_CHR_SPEC):
        assert sum(n / (1 << (i + 1)) for i, n in enumerate(bits)) <= 1


_check_huff_specs()


def _dct_matrix() -> np.ndarray:
    u, x = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    m = np.cos((2 * x + 1) * u * np.pi / 16) * np.sqrt(2.0 / 8.0)
    m[0] = np.sqrt(1.0 / 8.0)
    return m


_DCT_M = _dct_matrix()


def _huff_codes(bits, vals) -> dict:
    """(bits, vals) → {symbol: (code, length)} canonical assignment."""
    out, code = {}, 0
    i = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[vals[i]] = (code, ln)
            code += 1
            i += 1
        code <<= 1
    return out


def _huff_decoder(bits, vals) -> dict:
    """(bits, vals) → {(length, code): symbol} for bit-serial decode."""
    return {(ln, c): s for s, (c, ln) in _huff_codes(bits, vals).items()}


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)  # byte stuffing
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self) -> bytes:
        if self.n:
            self.write(0x7F, 8 - self.n)  # pad with 1s
        return bytes(self.buf)


def _encode_block(bw, zz, pred, dc_codes, ac_codes) -> int:
    """Huffman-encode one zigzagged quantized block; returns new DC."""
    diff = int(zz[0]) - pred
    s = int(diff).bit_length() if diff else 0
    c, ln = dc_codes[s]
    bw.write(c, ln)
    if s:
        bw.write(diff if diff > 0 else diff + (1 << s) - 1, s)
    run = 0
    last = 63
    while last > 0 and zz[last] == 0:
        last -= 1
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            c, ln = ac_codes[0xF0]
            bw.write(c, ln)
            run -= 16
        s = abs(v).bit_length()
        c, ln = ac_codes[(run << 4) | s]
        bw.write(c, ln)
        bw.write(v if v > 0 else v + (1 << s) - 1, s)
        run = 0
    if last < 63:
        c, ln = ac_codes[0x00]  # EOB
        bw.write(c, ln)
    return int(zz[0])


def _scaled_qt(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _quantize_block(p, y0, x0, qt8):
    blk = p[y0:y0 + 8, x0:x0 + 8]
    f = _DCT_M @ blk @ _DCT_M.T
    return np.round(f / qt8).astype(np.int64).reshape(64)[_ZIGZAG]


def encode_jpeg(img: np.ndarray, quality: int = 90,
                subsampling: str = "4:4:4",
                restart_interval: int = 0) -> bytes:
    """(H, W, 3) uint8 RGB (or (H, W) gray) → baseline JFIF bytes,
    Annex K tables at libjpeg-convention ``quality``.
    ``subsampling``: "4:4:4" (default) or "4:2:0" (box-averaged
    chroma, Y sampled 2×2 per MCU). ``restart_interval``: emit DRI +
    RSTn markers every N MCUs (0 = none). Both exist so the decoder's
    generic-sampling and restart paths are exercised by real bytes."""
    img = np.asarray(img, np.uint8)
    gray = img.ndim == 2
    h, w = img.shape[:2]
    if subsampling not in ("4:4:4", "4:2:0"):
        raise ValueError(f"unsupported subsampling {subsampling!r}")
    sub = subsampling == "4:2:0" and not gray
    if gray:
        comps = [img.astype(np.float64) - 128.0]
    else:
        r, g, b = (img[:, :, i].astype(np.float64) for i in range(3))
        comps = [0.299 * r + 0.587 * g + 0.114 * b - 128.0,
                 -0.168736 * r - 0.331264 * g + 0.5 * b,
                 0.5 * r - 0.418688 * g - 0.081312 * b]
    qts = [_scaled_qt(_QT_LUM, quality), _scaled_qt(_QT_CHR, quality)]
    # pad to whole MCUs (8 or 16 px), edge-replicated
    mcu_px = 16 if sub else 8
    ph = -(-h // mcu_px) * mcu_px
    pw = -(-w // mcu_px) * mcu_px
    planes = []
    for ci, comp in enumerate(comps):
        p = np.zeros((ph, pw))
        p[:h, :w] = comp
        p[h:, :w] = comp[h - 1:h, :w]     # edge-replicate padding
        p[:, w:] = p[:, w - 1:w]
        if sub and ci > 0:  # box-average chroma to half resolution
            p = p.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
        planes.append(p)
    dc_l, dc_c = (_huff_codes(*_DC_LUM_SPEC), _huff_codes(*_DC_CHR_SPEC))
    ac_l, ac_c = (_huff_codes(*_AC_LUM_SPEC), _huff_codes(*_AC_CHR_SPEC))
    qt8 = [qts[0].reshape(8, 8), qts[1].reshape(8, 8)]
    mcuy, mcux = ph // mcu_px, pw // mcu_px
    parts = []
    bw = _BitWriter()
    preds = [0] * len(comps)
    n_mcu = 0
    rst = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and n_mcu and \
                    n_mcu % restart_interval == 0:
                parts.append(bw.flush())
                parts.append(bytes([0xFF, 0xD0 + rst]))
                rst = (rst + 1) & 7
                bw = _BitWriter()
                preds = [0] * len(comps)
            n_mcu += 1
            for ci, p in enumerate(planes):
                hv = 2 if (sub and ci == 0) else 1
                for byy in range(hv):
                    for bxx in range(hv):
                        zz = _quantize_block(
                            p, (my * hv + byy) * 8, (mx * hv + bxx) * 8,
                            qt8[0 if ci == 0 else 1])
                        preds[ci] = _encode_block(
                            bw, zz, preds[ci],
                            dc_l if ci == 0 else dc_c,
                            ac_l if ci == 0 else ac_c)
    parts.append(bw.flush())
    scan = b"".join(parts)

    def seg(marker: int, body: bytes) -> bytes:
        return struct.pack(">HH", marker, len(body) + 2) + body

    nc = 1 if gray else 3
    out = [JPEG_MAGIC,
           seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"),
           seg(0xFFDB, b"\x00" + bytes(qts[0][_ZIGZAG].tolist()))]
    if not gray:
        out.append(seg(0xFFDB, b"\x01" + bytes(qts[1][_ZIGZAG].tolist())))
    sof = struct.pack(">BHHB", 8, h, w, nc)
    for ci in range(nc):
        hv = 0x22 if (sub and ci == 0) else 0x11
        sof += bytes([ci + 1, hv, 0 if ci == 0 else 1])
    out.append(seg(0xFFC0, sof))
    for cls, tid, (bits, vals) in ((0, 0, _DC_LUM_SPEC),
                                   (1, 0, _AC_LUM_SPEC)) + \
            (((0, 1, _DC_CHR_SPEC), (1, 1, _AC_CHR_SPEC)) if not gray
             else ()):
        out.append(seg(0xFFC4, bytes([(cls << 4) | tid]) + bytes(bits)
                       + bytes(vals)))
    if restart_interval:
        out.append(seg(0xFFDD, struct.pack(">H", restart_interval)))
    sos = bytes([nc])
    for ci in range(nc):
        sos += bytes([ci + 1, 0x00 if ci == 0 else 0x11])
    out.append(seg(0xFFDA, sos + b"\x00\x3f\x00"))
    out.append(scan)
    out.append(b"\xff\xd9")
    return b"".join(out)


class _BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.n = 0

    def read_bit(self) -> int:
        if self.n == 0:
            if self.pos >= len(self.data):
                raise ValueError("JPEG: scan data exhausted")
            self.acc = self.data[self.pos]
            self.pos += 1
            self.n = 8
        self.n -= 1
        return (self.acc >> self.n) & 1

    def read_bits(self, k: int) -> int:
        v = 0
        for _ in range(k):
            v = (v << 1) | self.read_bit()
        return v

    def read_symbol(self, table: dict) -> int:
        code, ln = 0, 0
        while ln < 16:
            code = (code << 1) | self.read_bit()
            ln += 1
            s = table.get((ln, code))
            if s is not None:
                return s
        raise ValueError("JPEG: invalid huffman code")


def _extend(v: int, s: int) -> int:
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def _decode_block(br, pred, dc_tab, ac_tab, qt) -> tuple:
    zz = np.zeros(64, np.int64)
    s = br.read_symbol(dc_tab)
    diff = _extend(br.read_bits(s), s) if s else 0
    pred += diff
    zz[0] = pred
    k = 1
    while k < 64:
        rs = br.read_symbol(ac_tab)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:
                k += 16  # ZRL
                continue
            break  # EOB
        k += r
        if k > 63:
            raise ValueError("JPEG: AC index out of range")
        zz[k] = _extend(br.read_bits(s), s)
        k += 1
    f = np.zeros(64, np.float64)
    # zz is in zigzag order; qt is natural-order — align before the
    # scatter (a natural-order multiply round-trips smooth images
    # almost unnoticed but shreds high-frequency content)
    f[_ZIGZAG] = zz * qt[_ZIGZAG]
    return _DCT_M.T @ f.reshape(8, 8) @ _DCT_M, pred


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Baseline JFIF → (H, W, 3) uint8 RGB (gray replicated).
    Generic DHT/DQT, 1- or 3-component SOF0, any h/v sampling
    factors, restart intervals. SOF2 (progressive) raises."""
    if payload[:2] != JPEG_MAGIC:
        raise ValueError("not a JPEG")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple, dict] = {}
    comps = None
    h = w = 0
    restart = 0
    scan_comps = None
    scan_data = None
    while pos + 4 <= len(payload):
        if payload[pos] != 0xFF:
            raise ValueError("JPEG: marker expected")
        m = payload[pos + 1]
        pos += 2
        if m in (0xD8, 0x01) or 0xD0 <= m <= 0xD7:
            continue
        if m == 0xD9:
            break
        (ln,) = struct.unpack(">H", payload[pos:pos + 2])
        body = payload[pos + 2:pos + ln]
        pos += ln
        if m == 0xDB:
            bp = 0
            while bp < len(body):
                pq_, tq = body[bp] >> 4, body[bp] & 0x0F
                if pq_ != 0:
                    raise NotImplementedError("JPEG: 16-bit DQT")
                t = np.zeros(64, np.int64)
                t[_ZIGZAG] = np.frombuffer(body, np.uint8, 64, bp + 1)
                qts[tq] = t
                bp += 65
        elif m == 0xC4:
            bp = 0
            while bp < len(body):
                tc, th = body[bp] >> 4, body[bp] & 0x0F
                bits = list(body[bp + 1:bp + 17])
                n = sum(bits)
                vals = list(body[bp + 17:bp + 17 + n])
                huff[(tc, th)] = _huff_decoder(bits, vals)
                bp += 17 + n
        elif m == 0xC0 or m == 0xC1:
            _prec, h, w, nc = struct.unpack(">BHHB", body[:6])
            comps = []
            for i in range(nc):
                cid, hv, tq = body[6 + 3 * i:9 + 3 * i]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0x0F,
                              "tq": tq})
        elif m in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                   0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"JPEG: only baseline sequential (SOF0/1); got SOF "
                f"marker 0x{m:02X}")
        elif m == 0xDD:
            (restart,) = struct.unpack(">H", body[:2])
        elif m == 0xDA:
            ns = body[0]
            scan_comps = []
            for i in range(ns):
                cs, tt = body[1 + 2 * i], body[2 + 2 * i]
                scan_comps.append((cs, tt >> 4, tt & 0x0F))
            # scan data runs to the next non-RST/non-stuffed marker
            end = pos
            while end + 1 < len(payload):
                if payload[end] == 0xFF and payload[end + 1] not in \
                        (0x00,) and not (0xD0 <= payload[end + 1] <= 0xD7):
                    break
                end += 1
            scan_data = payload[pos:end]
            pos = end
    if comps is None or scan_data is None:
        raise ValueError("JPEG: missing SOF/SOS")
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    planes = [np.zeros((mcuy * c["v"] * 8, mcux * c["h"] * 8))
              for c in comps]
    by_id = {c["id"]: i for i, c in enumerate(comps)}
    order = [(by_id[cs], huff.get((0, td)), huff.get((1, ta)))
             for cs, td, ta in scan_comps]
    # split at RST markers: each segment restarts bit phase + DC preds
    segments = []
    cur = bytearray()
    i = 0
    while i < len(scan_data):
        b = scan_data[i]
        if b == 0xFF and i + 1 < len(scan_data):
            nxt = scan_data[i + 1]
            if nxt == 0x00:
                cur.append(0xFF)
                i += 2
                continue
            if 0xD0 <= nxt <= 0xD7:
                segments.append(bytes(cur))
                cur = bytearray()
                i += 2
                continue
        cur.append(b)
        i += 1
    segments.append(bytes(cur))
    seg_i = 0
    br = _BitReader(segments[0])
    preds = [0] * len(comps)
    for my in range(mcuy):
        for mx in range(mcux):
            n_mcu = my * mcux + mx
            if restart and n_mcu and n_mcu % restart == 0:
                seg_i += 1
                br = _BitReader(segments[seg_i])
                preds = [0] * len(comps)
            for ci, dc_tab, ac_tab in order:
                c = comps[ci]
                for byy in range(c["v"]):
                    for bxx in range(c["h"]):
                        blk, preds[ci] = _decode_block(
                            br, preds[ci], dc_tab, ac_tab,
                            qts[c["tq"]])
                        y0 = (my * c["v"] + byy) * 8
                        x0 = (mx * c["h"] + bxx) * 8
                        planes[ci][y0:y0 + 8, x0:x0 + 8] = blk
    up = []
    for c, p in zip(comps, planes):
        rp = np.repeat(np.repeat(p, vmax // c["v"], 0), hmax // c["h"], 1)
        up.append(rp[:h, :w])
    if len(up) == 1:
        y = np.clip(up[0] + 128.0, 0, 255).round().astype(np.uint8)
        return np.repeat(y[:, :, None], 3, axis=2)
    y, cb, cr = up[0] + 128.0, up[1], up[2]
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.stack([r, g, b], axis=2), 0, 255) \
        .round().astype(np.uint8)
