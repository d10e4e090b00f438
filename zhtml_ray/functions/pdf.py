"""PDF text + layout extraction (north rule: "main-content extraction
pipeline (HTML boilerplate strip, PDF/layout parse, DOM heuristics)").

No PDF library ships in this environment, so this is a self-contained
minimal extractor for the deterministic subset our fixture generator
emits — which is also the common subset of real-world simple PDFs:

  * objects located by scanning (no xref needed — robust to the
    truncated/garbage PDFs a web crawl yields);
  * content streams: raw or /FlateDecode (stdlib zlib);
  * text operators inside BT/ET blocks: Tf, Td, TD, Tm, T*, TL,
    Tj, ' (quote), TJ with literal ``(...)`` strings (incl. escapes
    ``\\n \\r \\t \\( \\) \\\\ \\ooo``) and hex ``<...>`` strings;
  * layout: glyph runs carry the current text-space (x, y); reading
    order = sort by (page, -y, x) then group runs on the same baseline
    into lines — the "layout parse" step that turns a positioned glyph
    soup into readable text.

Out of scope (documented, per-row error isolation upstream): encrypted
PDFs, CID/Type0 multi-byte encodings, xref streams with predictors,
JPX/DCT image-only pages. Rows hit by these yield ok=False, not a crash.
"""

from __future__ import annotations

import re
import zlib

_RE_OBJ = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_RE_STREAM = re.compile(rb"stream\r?\n")
_RE_FLATE = re.compile(rb"/Filter\s*(?:\[\s*)?/FlateDecode")
_RE_PAGE_OBJ = re.compile(rb"/Type\s*/Page\b")
_RE_CONTENTS = re.compile(rb"/Contents\s+(\d+)\s+\d+\s+R")
_RE_CONTENTS_ARRAY = re.compile(rb"/Contents\s*\[((?:\s*\d+\s+\d+\s+R)+)\s*\]")
_RE_REF = re.compile(rb"(\d+)\s+\d+\s+R")
# direct /Length only: (?!\d) blocks regex backtracking from splitting
# the digits (else '/Length 1234 0 R' matched group='123'), then the
# lookahead rejects the indirect N M R form
_RE_DIRECT_LENGTH = re.compile(rb"/Length\s+(\d+)(?!\d)(?!\s+\d+\s+R)")

# text-showing / positioning operators (content stream is latin-1-ish)
_RE_TOK = re.compile(
    rb"\((?:[^()\\]|\\.)*\)"      # literal string
    rb"|<[0-9A-Fa-f\s]*>"         # hex string
    rb"|BT|ET|Tj|TJ|Td|TD|Tm|T\*|TL|Tf|'"
    rb"|[-+]?[0-9]*\.?[0-9]+"     # number
    rb"|\[|\]")

_ESC = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\x08",
        b"f": b"\x0c", b"(": b"(", b")": b")", b"\\": b"\\"}


def _decode_literal(raw: bytes) -> str:
    """``(...)`` literal string body → text (PDFDocEncoding ≈ latin-1
    for the printable subset our scope covers)."""
    out = []
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i:i + 1]
        if c == b"\\" and i + 1 < n:
            nxt = raw[i + 1:i + 2]
            if nxt in _ESC:
                out.append(_ESC[nxt])
                i += 2
                continue
            m = re.match(rb"[0-7]{1,3}", raw[i + 1:i + 4])
            if m:
                out.append(bytes([int(m.group(), 8) & 0xFF]))
                i += 1 + len(m.group())
                continue
            i += 1  # line continuation / unknown escape: drop backslash
            continue
        out.append(c)
        i += 1
    return b"".join(out).decode("latin-1")


def _decode_hex(raw: bytes) -> str:
    h = re.sub(rb"\s", b"", raw)
    if len(h) % 2:
        h += b"0"
    return bytes.fromhex(h.decode("ascii")).decode("latin-1")


def _runs_from_stream(data: bytes):
    """Content stream → [(x, y, text)] glyph runs in stream order."""
    runs = []
    in_text = False
    x = y = 0.0
    lx = ly = 0.0  # line start (Td/TD/Tm set it; T* returns to it)
    leading = 0.0
    stack: list[float] = []
    pending_str: str | None = None
    in_array = False
    arr_parts: list[str] = []
    for m in _RE_TOK.finditer(data):
        tok = m.group()
        if tok == b"BT":
            in_text = True
            x = y = lx = ly = 0.0
            stack.clear()
            continue
        if tok == b"ET":
            in_text = False
            stack.clear()
            continue
        if not in_text:
            continue
        if tok.startswith(b"("):
            s = _decode_literal(tok[1:-1])
            if in_array:
                arr_parts.append(s)
            else:
                pending_str = s
        elif tok.startswith(b"<"):
            s = _decode_hex(tok[1:-1])
            if in_array:
                arr_parts.append(s)
            else:
                pending_str = s
        elif tok == b"[":
            in_array = True
            arr_parts = []
        elif tok == b"]":
            in_array = False
            pending_str = "".join(arr_parts)
        elif tok == b"Tj" or tok == b"'":
            if tok == b"'":
                y -= leading
                x = lx
                ly = y
            if pending_str is not None:
                runs.append((x, y, pending_str))
                pending_str = None
        elif tok == b"TJ":
            if pending_str is not None:
                runs.append((x, y, pending_str))
                pending_str = None
        elif tok == b"Td" or tok == b"TD":
            if len(stack) >= 2:
                tx, ty = stack[-2], stack[-1]
                if tok == b"TD":
                    leading = -ty
                lx, ly = lx + tx, ly + ty
                x, y = lx, ly
            stack.clear()
        elif tok == b"Tm":
            if len(stack) >= 6:
                lx, ly = stack[-2], stack[-1]
                x, y = lx, ly
            stack.clear()
        elif tok == b"T*":
            y = ly - leading
            x = lx
            ly = y
            stack.clear()
        elif tok == b"TL":
            if stack:
                leading = stack[-1]
            stack.clear()
        elif tok == b"Tf":
            stack.clear()
        else:  # number
            try:
                stack.append(float(tok))
            except ValueError:
                pass
    return runs


def _stream_data(body: bytes, sm) -> bytes:
    """Stream payload of an object body, honoring a direct ``/Length``
    (binary payloads can contain ``endstream``-looking bytes)."""
    lm = _RE_DIRECT_LENGTH.search(body[:sm.start()])
    if lm:
        return body[sm.end():sm.end() + int(lm.group(1))]
    endpos = body.rfind(b"endstream")
    data = body[sm.end():endpos if endpos != -1 else len(body)]
    # EOL before `endstream` is framing, not payload (strip exactly one)
    if data.endswith(b"\r\n"):
        return data[:-2]
    if data.endswith(b"\n") or data.endswith(b"\r"):
        return data[:-1]
    return data


def _scan_objects(raw: bytes) -> dict[int, bytes]:
    """Sequential object scan (no xref needed). Streams are skipped via
    their direct ``/Length`` so compressed payload bytes that happen to
    look like ``N M obj`` / ``endobj`` never split an object."""
    objs: dict[int, bytes] = {}
    n = len(raw)
    pos = 0
    while True:
        m = _RE_OBJ.search(raw, pos)
        if m is None:
            break
        start, num = m.start(), int(m.group(1))
        em = raw.find(b"endobj", m.end())
        sm = _RE_STREAM.search(raw, m.end())
        if sm is not None and (em == -1 or sm.start() < em):
            lm = _RE_DIRECT_LENGTH.search(raw[m.end():sm.start()])
            if lm:
                ee = raw.find(b"endstream", sm.end() + int(lm.group(1)))
            else:
                ee = raw.find(b"endstream", sm.end())
            em = raw.find(b"endobj", ee if ee != -1 else sm.end())
        end = em if em != -1 else n
        objs[num] = raw[start:end]
        pos = end
    return objs


def extract_pdf(raw: bytes, line_tol: float = 2.0) -> dict:
    """Whole-document extraction: locate page content streams by object
    scan, decode, collect positioned runs, then layout-order them
    (page asc, y desc, x asc; runs within ``line_tol`` of the same
    baseline join with a space → one text line). Returns
    {text, n_pages, n_runs}."""
    if not raw.startswith(b"%PDF"):
        raise ValueError("not a PDF (missing %PDF header)")
    objs = _scan_objects(raw)
    # pages in object order; page -> its content object number(s) —
    # /Contents can be a single reference or an ARRAY of references
    pages: list[list[int]] = []
    for num, body in sorted(objs.items()):
        if _RE_PAGE_OBJ.search(body):
            am = _RE_CONTENTS_ARRAY.search(body)
            if am:
                pages.append([int(r.group(1))
                              for r in _RE_REF.finditer(am.group(1))])
                continue
            cm = _RE_CONTENTS.search(body)
            if cm:
                pages.append([int(cm.group(1))])
            else:
                # a /Page without parseable /Contents is out of scope:
                # honor the ok=False contract, never silently drop text
                raise ValueError(f"page object {num} has no parseable "
                                 "/Contents")
    page_runs = []
    for pageno, cnums in enumerate(pages):
        for cnum in cnums:
            body = objs.get(cnum, b"")
            sm = _RE_STREAM.search(body)
            if not sm:
                raise ValueError(f"content object {cnum} missing or has "
                                 "no stream")
            data = _stream_data(body, sm)
            if _RE_FLATE.search(body[:sm.start()]):
                data = zlib.decompress(data)
            for x, y, s in _runs_from_stream(data):
                page_runs.append((pageno, -y, x, s))
    page_runs.sort(key=lambda r: (r[0], r[1], r[2]))
    # group into baseline lines
    lines: list[str] = []
    cur_key: tuple[int, float] | None = None
    cur: list[str] = []
    for pageno, ny, x, s in page_runs:
        if cur_key is None or pageno != cur_key[0] or \
                abs(ny - cur_key[1]) > line_tol:
            if cur:
                lines.append(" ".join(cur))
            cur_key = (pageno, ny)
            cur = [s]
        else:
            cur.append(s)
    if cur:
        lines.append(" ".join(cur))
    return {"text": "\n".join(lines), "n_pages": len(pages),
            "n_runs": len(page_runs)}


# ------------------------------------------------------------ Ray stage

class PdfExtractBatch:
    """Batch UDF: (doc_id, pdf: binary) → (doc_id, text,
    n_pages, n_runs, ok, fail_reason). Per-row failure isolation — a
    hostile/unsupported PDF yields ok=False, never an exception."""

    def __call__(self, batch):
        import pyarrow as pa
        ids = batch.column("doc_id").to_pylist()
        blobs = batch.column("pdf").to_pylist()
        text, npg, nrun, ok, fail = [], [], [], [], []
        for b in blobs:
            try:
                out = extract_pdf(b if b is not None else b"")
                text.append(out["text"])
                npg.append(out["n_pages"])
                nrun.append(out["n_runs"])
                ok.append(True)
                fail.append("")
            except Exception as e:  # noqa: BLE001 — untrusted crawl bytes
                text.append("")
                npg.append(0)
                nrun.append(0)
                ok.append(False)
                fail.append(f"{type(e).__name__}: {e}"[:200])
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(text, pa.large_string()),
            "n_pages": pa.array(npg, pa.int32()),
            "n_runs": pa.array(nrun, pa.int32()),
            "ok": pa.array(ok, pa.bool_()),
            "fail_reason": pa.array(fail, pa.string()),
        })


# ------------------------------------------------- deterministic fixture

def make_pdf(lines_per_page, compress: bool = True) -> bytes:
    """Deterministic single-font PDF: ``lines_per_page`` is a list of
    pages, each a list of text lines. Used by the fixture generator and
    tests (the oracle is the input text itself)."""
    def esc(s: str) -> str:
        return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")

    objects: list[bytes] = []

    def add(body: bytes) -> int:
        objects.append(body)
        return len(objects)  # 1-based object number

    font = add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    content_nums = []
    for page in lines_per_page:
        ops = [b"BT", b"/F1 12 Tf", b"72 720 Td", b"14 TL"]
        for i, line in enumerate(page):
            if i:
                ops.append(b"T*")
            ops.append(b"(" + esc(line).encode("latin-1") + b") Tj")
        ops.append(b"ET")
        stream = b"\n".join(ops)
        if compress:
            comp = zlib.compress(stream)
            body = (b"<< /Length " + str(len(comp)).encode() +
                    b" /Filter /FlateDecode >>\nstream\n" + comp +
                    b"\nendstream")
        else:
            body = (b"<< /Length " + str(len(stream)).encode() +
                    b" >>\nstream\n" + stream + b"\nendstream")
        content_nums.append(add(body))
    page_nums = []
    pages_num = len(objects) + len(lines_per_page) + 1  # after page objs
    for cnum in content_nums:
        page_nums.append(add(
            b"<< /Type /Page /Parent " + str(pages_num).encode() +
            b" 0 R /MediaBox [0 0 612 792] /Resources << /Font << /F1 " +
            str(font).encode() + b" 0 R >> >> /Contents " +
            str(cnum).encode() + b" 0 R >>"))
    kids = b" ".join(str(n).encode() + b" 0 R" for n in page_nums)
    pages = add(b"<< /Type /Pages /Kids [" + kids + b"] /Count " +
                str(len(page_nums)).encode() + b" >>")
    catalog = add(b"<< /Type /Catalog /Pages " + str(pages).encode() +
                  b" 0 R >>")

    out = [b"%PDF-1.4"]
    offsets = []
    pos = len(out[0]) + 1
    for i, body in enumerate(objects):
        obj = str(i + 1).encode() + b" 0 obj\n" + body + b"\nendobj"
        offsets.append(pos)
        out.append(obj)
        pos += len(obj) + 1
    xref_pos = pos
    xref = [b"xref", b"0 " + str(len(objects) + 1).encode(),
            b"0000000000 65535 f "]
    for off in offsets:
        xref.append(f"{off:010d} 00000 n ".encode())
    out.append(b"\n".join(xref))
    out.append(b"trailer\n<< /Size " + str(len(objects) + 1).encode() +
               b" /Root " + str(catalog).encode() + b" 0 R >>")
    out.append(b"startxref\n" + str(xref_pos).encode() + b"\n%%EOF")
    return b"\n".join(out)


def gen_pdf_table(n_docs: int, seed: int = 42):
    """Deterministic (doc_id, pdf, expected_text) fixture table."""
    import random
    import pyarrow as pa
    rng = random.Random(seed)
    words = ("ray data arrow parquet stream block shuffle actor batch "
             "extract parse layout page line text corpus shard").split()
    ids, pdfs, expected = [], [], []
    for d in range(n_docs):
        n_pages = 1 + rng.randrange(3)
        pages = []
        for _ in range(n_pages):
            n_lines = 2 + rng.randrange(5)
            pages.append([" ".join(rng.choice(words)
                                   for _ in range(3 + rng.randrange(8)))
                          for _ in range(n_lines)])
        ids.append(d)
        pdfs.append(make_pdf(pages, compress=bool(d % 2)))
        expected.append("\n".join("\n".join(p) for p in pages))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "pdf": pa.array(pdfs, pa.binary()),
        "expected_text": pa.array(expected, pa.large_string()),
    })
