"""WHATWG HTML5 tokenizer (spec-correct, codepoint-based, pure Python).

Re-implements the semantics of the reference's 80-state machine
(/root/reference/src/tokenizer.zig:18-99,171-2221) from the WHATWG spec —
NOT a port. Deliberate fixes vs the reference (SURVEY.md §2.11): input
preprocessing (CR/LF normalization + input-stream character errors),
codepoints instead of bytes, correct RCDATA end-tag emission, in-order
temporary-buffer flush, and the full numeric-reference control remap table.

Design for the Ray hot path:
  * token runs are coalesced — one ``("Character", text)`` per text run,
    found with compiled-regex scans (C speed), instead of the reference's
    one token per byte (/root/reference/src/token.zig:53-65);
  * the entity table comes from the stdlib ``html.entities.html5``
    (same public WHATWG data as /root/reference/src/namedCharacterReference.zig)
    and is module-level — loaded once per worker process, vs per-instance
    in the reference (/root/reference/src/tokenizer.zig:135,147);
  * errors are ``(code, offset)`` with lazy line/col resolution.

Tokens (tuples):
  ("Character", str)                              coalesced run
  ("StartTag", name, attrs: dict, self_closing)   attrs first-wins
  ("EndTag", name, attrs: dict, self_closing)
  ("Comment", data)
  ("DOCTYPE", name|None, public|None, system|None, force_quirks)
EOF ends iteration (no EOF tuple is yielded).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from html.entities import html5 as _HTML5_ENTITIES

import numpy as _np

from zhtml_ray.html.encoding import sniff_decode as _sniff_decode

# ---------------------------------------------------------------- entities

_MAX_ENTITY_LEN = max(len(k) for k in _HTML5_ENTITIES)  # 32 ("CounterClockwiseContourIntegral;")
_ENTITY_LENGTHS_BY_PREFIX: dict[str, tuple[int, ...]] = {}
for _k in _HTML5_ENTITIES:
    _ENTITY_LENGTHS_BY_PREFIX.setdefault(_k[:2], ())
for _p in list(_ENTITY_LENGTHS_BY_PREFIX):
    _ENTITY_LENGTHS_BY_PREFIX[_p] = tuple(sorted(
        {len(k) for k in _HTML5_ENTITIES if k.startswith(_p)}, reverse=True))

# numeric character reference remap (WHATWG 13.2.5.80, windows-1252 block)
_CHARREF_REMAP = {
    0x80: 0x20AC, 0x82: 0x201A, 0x83: 0x0192, 0x84: 0x201E, 0x85: 0x2026,
    0x86: 0x2020, 0x87: 0x2021, 0x88: 0x02C6, 0x89: 0x2030, 0x8A: 0x0160,
    0x8B: 0x2039, 0x8C: 0x0152, 0x8E: 0x017D, 0x91: 0x2018, 0x92: 0x2019,
    0x93: 0x201C, 0x94: 0x201D, 0x95: 0x2022, 0x96: 0x2013, 0x97: 0x2014,
    0x98: 0x02DC, 0x99: 0x2122, 0x9A: 0x0161, 0x9B: 0x203A, 0x9C: 0x0153,
    0x9E: 0x017E, 0x9F: 0x0178,
}

_WS = "\t\n\f "  # ASCII whitespace inside tags (CR normalized away)

# fast-path scanners (module-level: compiled once per worker)
_RE_RCDATA = re.compile(r"[&<\x00]")
_RE_RAWTEXT = re.compile(r"[<\x00]")

# Fused raw-text scanners (one per (appropriate-end-tag, state)): the
# only events that interrupt an RCDATA/RAWTEXT/script-data text run.
# _RAW_FUSED_ON=False falls back to the per-'<' spec lanes — the
# differential test flips it to pin equivalence.
_RAW_FUSED_ON = True
_RAW_FUSED_CACHE: dict = {}
_RAW_PROBE_CACHE: dict = {}


def _raw_fused_rx(tag, state):
    key = (tag, state)
    rx = _RAW_FUSED_CACHE.get(key)
    if rx is None:
        # no appropriate end tag exists until a start tag was seen
        # (injected initial states): only NUL/&/<!-- can interrupt.
        # Case-insensitivity is SCOPED to the tag name so the top-level
        # pattern keeps its literal first-char set {<, NUL, &} for
        # sre's fast-scan prefix optimization.
        end_alt = (rf"(?P<end></(?i:{re.escape(tag)})(?=[\t\n\f />]))|"
                   if tag else "")
        extra = ""
        if state == RCDATA:
            extra = "|(?P<amp>&)"
        elif state == SCRIPT_DATA:
            extra = "|(?P<cmt><!--)"
        rx = re.compile(end_alt + r"(?P<nul>\x00)" + extra)
        if len(_RAW_FUSED_CACHE) < 256:  # tag variety is bounded in
            _RAW_FUSED_CACHE[key] = rx   # practice; cap defensively
    return rx


def _raw_probe_rx(tag):
    """Anchored appropriate-end-tag probe: matches ``</tag`` (any case)
    with its delimiter lookahead; ``match.end()`` = end of the name."""
    rx = _RAW_PROBE_CACHE.get(tag)
    if rx is None:
        rx = re.compile(rf"</(?i:{re.escape(tag)})(?=[\t\n\f />])")
        if len(_RAW_PROBE_CACHE) < 256:
            _RAW_PROBE_CACHE[tag] = rx
    return rx
_RE_PLAINTEXT = re.compile(r"\x00")
# NUL is part of the tag-name run (spec 13.2.5.8 appends U+FFFD to the
# name), not a terminator — _tag_name substitutes and errors per NUL
_RE_TAGNAME = re.compile(r"[^\t\n\f />]*")
_RE_ATTRNAME = re.compile(r"[^\t\n\f /=>\x00\"'<]*")
_RE_ATTRVAL_DQ = re.compile(r"[^\"&\x00]*")
_RE_ATTRVAL_SQ = re.compile(r"[^'&\x00]*")
_RE_ATTRVAL_UQ = re.compile(r"[^\t\n\f >&\x00\"'<=`]*")
_RE_ALNUM_RUN = re.compile(r"[A-Za-z0-9]*")
_RE_DIGITS = re.compile(r"[0-9]+")
_RE_HEXDIGITS = re.compile(r"[0-9A-Fa-f]+")
_RE_COMMENT_CHUNK = re.compile(r"[^<\-\x00]*")
_RE_SCRIPT_ESC_CHUNK = re.compile(r"[^<>\-\x00]*")
# hostile-run bulk lanes for the escaped loop: a dash RUN is one
# Character token (only "two or more trailing dashes" matters for
# state), and every '<' of a '<'-run except the LAST is plain text
# (it's followed by another '<', never '/' or an alpha)
_RE_DASH_RUN = re.compile(r"-+")
_RE_LT_RUN_BUTLAST = re.compile(r"<+(?=<)")
# '&' followed by another '&' is plain text (charref state flushes on
# the non-alnum successor, no error): bulk all-but-last of an '&' run
_RE_AMP_RUN_BUTLAST = re.compile(r"&+(?=&)")
_RE_NUL_RUN = re.compile(r"\x00+")
_RE_DOCTYPE_NAME = re.compile(r"[^\t\n\f >]*")

# Start tags after which the tree builder may flip the tokenizer state
# (RCDATA / RAWTEXT / script data / PLAINTEXT elements) — the batched
# data-state loop must stop so the flip lands before the next token.
_FLIP_TAGS = frozenset((
    "script", "style", "title", "textarea", "xmp", "iframe",
    "noembed", "noframes", "noscript", "plaintext", "select",
))
_RE_FAST_ATTR = re.compile(
    r"[\t\n\f ]+([^\t\n\f /=>\x00\"'<]+)"
    r"(?:=(?:\"([^\"&\x00]*)\"|'([^'&\x00]*)'"
    r"|([^\t\n\f >&\x00\"'<=`]+)))?")
# Fully-fused data-state scanner: one match consumes a text run AND
# classifies the next construct (fast start tag / fast end tag / & / <
# needing the slow path / NUL), replacing the search + per-branch match
# round-trips (measured 12% of tokenize wall). Groups:
#   1 text, 2 start name, 3 raw attrs, 4 self-closing slash,
#   5 end name, 6 '&', 7 slow '<', 8 NUL.
_RE_DATA_FUSED = re.compile(
    r"([^&<\x00]*)"
    r"(?:<([a-zA-Z][a-zA-Z0-9]*)"
    r"((?:[\t\n\f ]+[^\t\n\f /=>\x00\"'<]+"
    r"(?:=(?:\"[^\"&\x00]*\"|'[^'&\x00]*'"
    r"|[^\t\n\f >&\x00\"'<=`]+))?)*)"
    r"[\t\n\f ]*(/?)>"
    r"|</([a-zA-Z][a-zA-Z0-9]*)[\t\n\f ]*>"
    r"|(&)|(<)|(\x00)"
    r")?")
# noncharacters: U+FDD0-FDEF plus the last two code points of EVERY
# plane (U+FFFE/FFFF, U+1FFFE/1FFFF, ..., U+10FFFE/10FFFF)
_NONCHARS_SUPP = "".join(chr(0x10000 * p + o)
                         for p in range(1, 17) for o in (0xFFFE, 0xFFFF))
_RE_NONCHAR_CTRL = re.compile(
    "[\x01-\x08\x0b\x0e-\x1f\x7f-\x9f﷐-﷯￾￿"
    + _NONCHARS_SUPP + "]")


def _is_nonchar(c: str) -> bool:
    cp = ord(c)
    return 0xFDD0 <= cp <= 0xFDEF or (cp & 0xFFFE) == 0xFFFE


# Vectorized input-stream error scan. The per-document regex scan over
# _RE_NONCHAR_CTRL was the single largest __init__ cost (~150 µs/doc —
# Python's re walks character classes ~20 MB/s): instead, gather a
# 65536-entry LUT over the UTF-16 code units (one numpy pass, ~19 µs/doc).
# LUT value 1 = definite error char; 2 = low-surrogate candidate for a
# supplementary-plane noncharacter (U+xFFFE/xFFFF → low surrogate
# DFFE/DFFF, confirmed only when preceded by a high surrogate ending in
# 0x3F, so ordinary astral chars like U+1F7FE never false-positive).
# Equivalence with the regex scan is fuzz-pinned in tests.
_SCAN_LUT = _np.zeros(65536, _np.uint8)
for _c in range(0x01, 0x20):
    if _c not in (0x09, 0x0A, 0x0C, 0x0D):
        _SCAN_LUT[_c] = 1
_SCAN_LUT[0x7F:0xA0] = 1
_SCAN_LUT[0xFDD0:0xFDF0] = 1
_SCAN_LUT[0xFFFE] = _SCAN_LUT[0xFFFF] = 1
_SCAN_LUT[0xDFFE] = _SCAN_LUT[0xDFFF] = 2


def _scan_input_errors(s: str) -> list[tuple[str, int]]:
    """All noncharacter/control input-stream errors of ``s`` in document
    order, as ``(code, char_offset)`` — exactly what iterating
    ``_RE_NONCHAR_CTRL`` produced, at C speed."""
    a = _np.frombuffer(s.encode("utf-16-le", "surrogatepass"), dtype="<u2")
    m = _SCAN_LUT[a]
    if not m.any():
        return []
    pos = _np.nonzero(m)[0]
    if (m[pos] == 2).any():
        keep = []
        for p, v in zip(pos.tolist(), m[pos].tolist()):
            if v == 1:
                keep.append(p)
            # low-surrogate candidate: real supplementary noncharacter
            # only after a high surrogate for plane offset 0xFFxx;
            # flag at the high surrogate (= the character's start)
            elif p > 0 and (a[p - 1] & 0xFC00) == 0xD800 \
                    and (a[p - 1] & 0x3F) == 0x3F:
                keep.append(p - 1)
        if not keep:
            return []
        pos = _np.asarray(keep, _np.int64)
    hs = (a & 0xFC00) == 0xD800
    if hs.any():  # char offset = unit index − preceding high surrogates
        cum = _np.cumsum(hs)
        off = pos - (cum[pos] - hs[pos])
    else:
        off = pos
    out = []
    for p, o in zip(pos.tolist(), off.tolist()):
        u = int(a[p])
        cp = (0x10000 + ((u - 0xD800) << 10) + (int(a[p + 1]) - 0xDC00)
              if 0xD800 <= u <= 0xDBFF else u)
        code = ("noncharacter-in-input-stream" if _is_nonchar(chr(cp))
                else "control-character-in-input-stream")
        out.append((code, int(o)))
    return out


def _scan_lone_surrogates(s: str) -> list[tuple[str, int]]:
    """``surrogate-in-input-stream`` errors (spec 13.2.3.2) — only
    reachable through the direct-string API: the crawl decode path
    (html/encoding.py: utf-8 / windows-1252) can never yield a lone
    surrogate, which is why the main LUT scan omits the class (r4
    completeness). Vectorized pairing: a high surrogate followed by a
    low one is a valid (astral) character; anything else in
    D800–DFFF is lone and errors at its char offset."""
    a = _np.frombuffer(s.encode("utf-16-le", "surrogatepass"),
                       dtype="<u2")
    sur = (a & _np.uint16(0xF800)) == 0xD800
    if not sur.any():
        return []
    hi = (a & _np.uint16(0xFC00)) == 0xD800
    lo = sur & ~hi
    paired = _np.zeros(len(a), bool)   # True at the HIGH of a valid pair
    if len(a) > 1:
        paired[:-1] = hi[:-1] & lo[1:]
    lone = sur.copy()
    lone[paired] = False
    if len(a) > 1:
        lone[1:][paired[:-1]] = False  # the LOW of a valid pair
    pos = _np.nonzero(lone)[0]
    if not len(pos):
        return []
    # char offset = unit index − preceding PAIRED high surrogates
    cum = _np.cumsum(paired)
    off = pos - cum[pos]
    return [("surrogate-in-input-stream", int(o)) for o in off.tolist()]

# named tokenizer states (public: tree builder + conformance harness set these)
DATA = "data"
RCDATA = "rcdata"
RAWTEXT = "rawtext"
SCRIPT_DATA = "script_data"
PLAINTEXT = "plaintext"
CDATA_SECTION = "cdata_section"


def preprocess(raw: bytes | str) -> str:
    """Input-stream preprocessing (the reference's missing piece,
    /root/reference/test/tokenizer-html5lib.zig:8): byte payloads go
    through WHATWG encoding sniffing (BOM > meta prescan > strict
    UTF-8 > windows-1252 fallback — html/encoding.py; valid UTF-8
    without a contrary meta decodes exactly as before), then
    normalize CRLF/CR → LF."""
    if isinstance(raw, (bytes, bytearray)):
        s = _sniff_decode(bytes(raw))[0]
    else:
        s = raw
    if "\r" in s:
        s = s.replace("\r\n", "\n").replace("\r", "\n")
    return s


class Tokenizer:
    """Pull-based tokenizer. ``tokens()`` yields token tuples; the tree
    builder may flip ``self.state`` / ``self.last_start_tag`` between
    yields (spec: tree construction switches the tokenizer for RCDATA /
    RAWTEXT / script / PLAINTEXT elements). ``allow_cdata`` mirrors the
    adjusted-current-node-in-foreign-content condition the reference left
    as FIXME (/root/reference/src/tokenizer.zig:1240-1248)."""

    def __init__(self, raw: bytes | str, initial_state: str = DATA,
                 last_start_tag: str | None = None,
                 collect_input_errors: bool = True):
        self.s = preprocess(raw)
        self.n = len(self.s)
        self.pos = 0
        self.state = initial_state
        self.last_start_tag = last_start_tag
        self.allow_cdata = False  # tree builder sets True in foreign content
        self.errors: list[tuple[str, int]] = []
        self._newlines: list[int] | None = None
        self._started = False
        if collect_input_errors:
            self.errors.extend(_scan_input_errors(self.s))
            self.errors.extend(_scan_lone_surrogates(self.s))

    # ---------------------------------------------------------------- misc

    def line_col(self, offset: int) -> tuple[int, int]:
        if self._newlines is None:
            # compiled-regex scan (C speed) — a per-char Python loop here
            # was ~50× slower and line/col now resolve on every errored
            # document in the extract hot path
            self._newlines = [m.start() for m in re.finditer("\n", self.s)]
        line = bisect_right(self._newlines, offset - 1)
        col = offset - (self._newlines[line - 1] + 1 if line else 0)
        return line + 1, col + 1

    def _err(self, code: str, offset: int | None = None) -> None:
        self.errors.append((code, self.pos if offset is None else offset))

    # ---------------------------------------------------------------- main

    def tokens(self):
        """Yield token tuples until EOF (generator wrapper over
        ``next_tokens`` — the tree builder pulls batches directly to
        skip the per-token yield/resume)."""
        while True:
            toks = self.next_tokens()
            if toks is None:
                return
            yield from toks

    def next_tokens(self):
        """One eagerly-built batch of tokens, or None at EOF. Batches
        break after state-flip tags (_FLIP_TAGS), so the tree builder
        may flip ``state`` / ``last_start_tag`` between batches exactly
        as it could between generator yields."""
        if not self._started:
            self._started = True
            # mirrors the original generator-start check exactly:
            # fires only for empty input in initial CDATA state
            if self.pos >= self.n and self.state == CDATA_SECTION:
                self._err("eof-in-cdata", self.n)
        if self.pos >= self.n:
            return None
        d = _STATE_FNS
        while self.pos < self.n:
            toks = d[self.state](self)
            if toks:
                return toks
        return None

    # Each state method processes input until it either emits token(s)
    # (returned as a list) or changes state; the outer loop re-dispatches.

    # ---------------------------------------------------------------- data

    def _data(self):
        """Data state, batched: emits as many tokens as possible per call
        via the fully-fused scanner (_RE_DATA_FUSED: text run + next
        construct in one match), stopping before anything that needs the
        spec state machine or may flip tokenizer state (_FLIP_TAGS, since
        the tree builder flips state between batches). Token+error
        identity with the branch-per-construct form is fuzz-pinned."""
        s, n = self.s, self.n
        pos = self.pos
        out = []
        append = out.append
        fused = _RE_DATA_FUSED.match
        while pos < n:
            m = fused(s, pos)
            text, name, raw_attrs, slash, endname, amp, lt, nul = m.groups()
            if text:
                append(("Character", text))
            if name is not None:
                name = name.lower()
                attrs = {}
                if raw_attrs:
                    base = m.start(3)
                    for am in _RE_FAST_ATTR.finditer(raw_attrs):
                        aname = am.group(1).lower()
                        if aname in attrs:
                            self._err("duplicate-attribute",
                                      base + am.start(1))
                        else:
                            v = am.group(2)
                            if v is None:
                                v = am.group(3)
                            if v is None:
                                v = am.group(4)
                            attrs[aname] = v if v is not None else ""
                pos = m.end()
                self.last_start_tag = name
                append(("StartTag", name, attrs, slash == "/"))
                if name in _FLIP_TAGS:
                    break
                continue
            if endname is not None:
                pos = m.end()
                append(("EndTag", endname.lower(), {}, False))
                continue
            if amp is not None:
                i = m.start(6)
                rm = _RE_AMP_RUN_BUTLAST.match(s, i)
                if rm is not None:
                    # '&' run: all but the last are plain text, no errors
                    append(("Character", rm.group()))
                    pos = rm.end()
                    continue
                self.pos = m.end()
                text = self._consume_charref(in_attr=False)
                pos = self.pos
                if text:
                    append(("Character", text))
                continue
            if lt is not None:
                if out:
                    pos = m.start(7)
                    break  # next call takes the slow path at '<'
                self.pos = m.start(7) + 1
                return self._tag_open()
            if nul is not None:
                # NUL run: data state emits the bytes raw, one
                # unexpected-null error per char (exact offsets)
                i = m.start(8)
                rm = _RE_NUL_RUN.match(s, i)
                self.errors.extend(("unexpected-null-character", j)
                                   for j in range(i, rm.end()))
                append(("Character", rm.group()))
                pos = rm.end()
                continue
            pos = n  # only a trailing text run: EOF
            break
        self.pos = pos
        return out

    def _rcdata(self):
        if _RAW_FUSED_ON:
            return self._raw_fused(RCDATA)
        s, pos, n = self.s, self.pos, self.n
        out = []
        m = _RE_RCDATA.search(s, pos)
        if m is None:
            if pos < n:
                out.append(("Character", s[pos:n]))
            self.pos = n
            return out
        if m.start() > pos:
            out.append(("Character", s[pos:m.start()]))
            self.pos = m.start()
            return out
        c = s[pos]
        if c == "\x00":
            self._err("unexpected-null-character")
            self.pos = pos + 1
            return [("Character", "�")]
        if c == "&":
            self.pos = pos + 1
            text = self._consume_charref(in_attr=False)
            return [("Character", text)] if text else []
        return self._rawtext_lt(RCDATA)

    def _rawtext(self):
        if _RAW_FUSED_ON:
            return self._raw_fused(RAWTEXT)
        return self._raw_common(_RE_RAWTEXT, RAWTEXT)

    def _script_data(self):
        if _RAW_FUSED_ON:
            return self._raw_fused(SCRIPT_DATA)
        return self._raw_common(_RE_RAWTEXT, SCRIPT_DATA)

    def _raw_fused(self, state):
        """Fused RCDATA / RAWTEXT / script-data scanner. The only
        events that can interrupt a text run are the APPROPRIATE end
        tag, NUL, '&' (RCDATA only) and '<!--' (script data only);
        every other '<' / '</x' is plain text per spec. Adaptive
        two-gear scan: the memchr-fast char-class search with an
        anchored per-'<' probe (wins on sparse text — real CSS/JS/
        titles), switching after 8 plain-'<' probes to the alternation
        scanner that rejects '<' runs entirely in C (wins on hostile
        lt-spam: 0.4 -> ~20 MB/s). Token+error equivalence with the
        per-'<' spec lanes (_RAW_FUSED_ON off) is differential-tested;
        splits differ (runs are emitted whole), the coalesced stream
        and the error list (codes AND positions) do not."""
        s, pos, n = self.s, self.pos, self.n
        last = self.last_start_tag
        probe = _raw_probe_rx(last) if last else None
        scan = _RE_RCDATA if state == RCDATA else _RE_RAWTEXT
        start = pos
        misses = 0
        out = []
        while True:
            if misses >= 8:
                m = _raw_fused_rx(last, state).search(s, pos)
                i = m.start() if m is not None else n
            else:
                m = scan.search(s, pos)
                i = m.start() if m is not None else n
            if m is None:
                self.pos = n
                if start < n:
                    out.append(("Character", s[start:n]))
                return out
            c = s[i]
            if c == "<":
                if misses >= 8:
                    g = m.lastgroup
                    if g == "cmt":
                        if i > start:
                            out.append(("Character", s[start:i]))
                        self.pos = i + 4
                        out.append(("Character", "<!--"))
                        return out + self._script_escaped(dash_dash=True)
                    # g == "end": appropriate end tag
                    if i > start:
                        out.append(("Character", s[start:i]))
                    self.pos = m.end()
                    self.state = DATA
                    return out + self._finish_end_tag_simple(last)
                pm = probe.match(s, i) if probe is not None else None
                if pm is not None:
                    if i > start:
                        out.append(("Character", s[start:i]))
                    self.pos = pm.end()
                    self.state = DATA
                    return out + self._finish_end_tag_simple(last)
                if state == SCRIPT_DATA and s.startswith("<!--", i):
                    if i > start:
                        out.append(("Character", s[start:i]))
                    self.pos = i + 4
                    out.append(("Character", "<!--"))
                    return out + self._script_escaped(dash_dash=True)
                pos = i + 1
                misses += 1
                continue
            if c == "\x00":
                if i > start:
                    out.append(("Character", s[start:i]))
                rm = _RE_NUL_RUN.match(s, i)
                self.errors.extend(("unexpected-null-character", j)
                                   for j in range(i, rm.end()))
                self.pos = rm.end()
                out.append(("Character", "�" * (rm.end() - i)))
                return out
            # c == "&" (RCDATA only)
            rm = _RE_AMP_RUN_BUTLAST.match(s, i)
            if rm is not None:
                # '&' run: all but the last are plain text, no errors —
                # fold them into the pending text and keep scanning
                pos = rm.end()
                misses += 1
                continue
            if i > start:
                out.append(("Character", s[start:i]))
            self.pos = i + 1
            text = self._consume_charref(in_attr=False)
            if text:
                out.append(("Character", text))
            return out

    def _raw_common(self, rx, state):
        s, pos, n = self.s, self.pos, self.n
        m = rx.search(s, pos)
        if m is None:
            out = [("Character", s[pos:n])] if pos < n else []
            self.pos = n
            return out
        if m.start() > pos:
            self.pos = m.start()
            return [("Character", s[pos:m.start()])]
        if s[pos] == "\x00":
            self._err("unexpected-null-character")
            self.pos = pos + 1
            return [("Character", "�")]
        return self._rawtext_lt(state)

    def _plaintext(self):
        s, pos, n = self.s, self.pos, self.n
        m = _RE_PLAINTEXT.search(s, pos)
        if m is None:
            out = [("Character", s[pos:n])] if pos < n else []
            self.pos = n
            return out
        out = []
        if m.start() > pos:
            out.append(("Character", s[pos:m.start()]))
        self._err("unexpected-null-character", m.start())
        out.append(("Character", "�"))
        self.pos = m.start() + 1
        return out

    # --------------------------------------------------- rcdata/rawtext "<"

    def _rawtext_lt(self, state):
        """'<' seen in RCDATA / RAWTEXT / script data. Handles the
        less-than-sign + end-tag-open + end-tag-name states (the area with
        reference bugs §2.11.1-2: we DO emit the appropriate end tag)."""
        s, n = self.s, self.n
        pos = self.pos  # at '<'
        if state == SCRIPT_DATA and s.startswith("<!--", pos):
            self.pos = pos + 4
            return [("Character", "<!--")] + self._script_escaped(dash_dash=True)
        if pos + 1 < n and s[pos + 1] == "/":
            m = _RE_ALNUM_RUN.match(s, pos + 2)
            name = m.group()
            if name:
                end = m.end()
                lname = name.lower()
                if lname == self.last_start_tag and end < n and s[end] in "\t\n\f />":
                    # appropriate end tag → real end-tag token
                    self.pos = end
                    self.state = DATA
                    return self._finish_end_tag_simple(lname)
            # not appropriate: emit "</" + let text continue
            self.pos = pos + 2
            return [("Character", "</")]
        self.pos = pos + 1
        return [("Character", "<")]

    def _finish_end_tag_simple(self, name):
        """After an appropriate end-tag name in RCDATA/RAWTEXT/script:
        parse the rest of the tag via the shared attribute machinery."""
        tag = _TagBuilder(self, "EndTag", name)
        return tag.run_after_name()

    # ------------------------------------------------------- script escaped

    def _script_escaped(self, dash_dash: bool):
        """Script data escaped (+ double-escaped) states, entered after
        '<!--'. Emits character tokens until '-->' or EOF; returns to
        SCRIPT_DATA (or emits end tag if appropriate '</script' found)."""
        s, n = self.s, self.n
        out = []
        pos = self.pos
        dashes = 2 if dash_dash else 0
        double = False
        while pos < n:
            c = s[pos]
            if c == "-":
                if pos + 1 < n and s[pos + 1] == "-":
                    # consume the whole dash run in one token (dash
                    # spam: 5.7 -> ~230 MB/s); the state only cares
                    # that >= 2 dashes directly precede a '>'
                    m = _RE_DASH_RUN.match(s, pos)
                    run = m.end() - pos
                    out.append(("Character", s[pos:m.end()]))
                    dashes = min(dashes + run, 2)
                    pos = m.end()
                else:
                    out.append(("Character", "-"))
                    dashes += 1
                    pos += 1
            elif c == ">":
                out.append(("Character", ">"))
                pos += 1
                if dashes >= 2:
                    # '-->' ends the comment-like run (also from double
                    # escaped: spec ...-double-escaped-dash-dash '>')
                    self.pos = pos
                    self.state = SCRIPT_DATA
                    return out
                # plain '>' inside escaped text: just a character
                dashes = 0
            elif c == "\x00":
                self.errors.append(("unexpected-null-character", pos))
                out.append(("Character", "�"))
                dashes = 0
                pos += 1
            elif c == "<":
                if not double and s.startswith("</", pos):
                    m = _RE_ALNUM_RUN.match(s, pos + 2)
                    name = m.group().lower()
                    if (name == self.last_start_tag and m.end() < n
                            and s[m.end()] in "\t\n\f />"):
                        self.pos = m.end()
                        self.state = DATA
                        return out + self._finish_end_tag_simple(name)
                    out.append(("Character", "</"))
                    pos += 2
                elif not double and s[pos + 1:pos + 7].lower() == "script" and \
                        (pos + 7 >= n or s[pos + 7] in "\t\n\f />"):
                    # double-escape start (spec: temp-buffer compare is
                    # case-insensitive — '<SCRIPT>' double-escapes too)
                    ln = min(pos + 8, n)
                    out.append(("Character", s[pos:ln]))
                    double = True
                    pos = ln
                elif double and s[pos + 1:pos + 8].lower() == "/script" and \
                        (pos + 8 >= n or s[pos + 8] in "\t\n\f />"):
                    ln = min(pos + 9, n)
                    out.append(("Character", s[pos:ln]))
                    double = False
                    pos = ln
                else:
                    # bulk-skip '<' runs: every '<' followed by another
                    # '<' is plain text in (double-)escaped state
                    if pos + 1 < n and s[pos + 1] == "<":
                        m = _RE_LT_RUN_BUTLAST.match(s, pos)
                        out.append(("Character", s[pos:m.end()]))
                        pos = m.end()
                    else:
                        out.append(("Character", "<"))
                        pos += 1
                dashes = 0
            else:
                m = _RE_SCRIPT_ESC_CHUNK.match(s, pos)
                out.append(("Character", m.group()))
                pos = m.end()
                dashes = 0
        self.pos = n
        self.errors.append(("eof-in-script-html-comment-like-text", n))
        return out

    # ------------------------------------------------------------- tag open

    def _tag_open(self):
        """After '<' in data state."""
        s, n = self.s, self.n
        pos = self.pos
        if pos >= n:
            self._err("eof-before-tag-name", n)
            return [("Character", "<")]
        c = s[pos]
        if c == "!":
            self.pos = pos + 1
            return self._markup_declaration_open()
        if c == "/":
            return self._end_tag_open(pos + 1)
        if c.isascii() and c.isalpha():
            return self._tag_name("StartTag", pos)
        if c == "?":
            self._err("unexpected-question-mark-instead-of-tag-name", pos)
            return self._bogus_comment(pos)
        if c == "<":
            # '<' run: every '<' whose successor is another '<' is an
            # invalid-first-character error + a literal '<' — consume
            # the run's all-but-last in one step (the final '<' may
            # open a real tag and reprocesses normally)
            m = _RE_LT_RUN_BUTLAST.match(s, pos - 1)
            k = m.end() - (pos - 1)
            self.errors.extend(("invalid-first-character-of-tag-name", j)
                               for j in range(pos, pos + k))
            self.pos = m.end()
            return [("Character", "<" * k)]
        self._err("invalid-first-character-of-tag-name", pos)
        return [("Character", "<")]  # reconsume c in data

    def _end_tag_open(self, pos):
        s, n = self.s, self.n
        if pos >= n:
            self._err("eof-before-tag-name", n)
            self.pos = n
            return [("Character", "</")]
        c = s[pos]
        if c.isascii() and c.isalpha():
            return self._tag_name("EndTag", pos)
        if c == ">":
            self._err("missing-end-tag-name", pos)
            self.pos = pos + 1
            return []
        self._err("invalid-first-character-of-tag-name", pos)
        return self._bogus_comment(pos)

    def _tag_name(self, kind, pos):
        s, n = self.s, self.n
        m = _RE_TAGNAME.match(s, pos)
        raw = m.group()
        pos = m.end()
        name = raw.lower()
        if "\x00" in name:
            for i, ch in enumerate(raw):
                if ch == "\x00":
                    self._err("unexpected-null-character", m.start() + i)
            name = name.replace("\x00", "�")
        self.pos = pos
        tag = _TagBuilder(self, kind, name)
        return tag.run_after_name()

    # ----------------------------------------------------- markup decl open

    def _markup_declaration_open(self):
        s, n = self.s, self.n
        pos = self.pos
        if s.startswith("--", pos):
            self.pos = pos + 2
            return self._comment()
        if s[pos:pos + 7].lower() == "doctype":
            self.pos = pos + 7
            return self._doctype()
        if s.startswith("[CDATA[", pos):
            if self.allow_cdata:
                self.pos = pos + 7
                self.state = CDATA_SECTION
                if self.pos >= n:
                    # '<![CDATA[' at EOF: the dispatch loop won't run the
                    # CDATA state again, so report eof-in-cdata here
                    self._err("eof-in-cdata", n)
                return []
            self._err("cdata-in-html-content", pos)
            return self._bogus_comment(pos, preserve=True)
        self._err("incorrectly-opened-comment", pos)
        return self._bogus_comment(pos)

    def _bogus_comment(self, pos, preserve: bool = False):
        """Bogus comment state: everything to '>' (or EOF) is the data.
        ``preserve``: keep '[CDATA[...'."""
        s, n = self.s, self.n
        end = s.find(">", pos)
        if end == -1:
            data = s[pos:n]
            self.pos = n
        else:
            data = s[pos:end]
            self.pos = end + 1
        if "\x00" in data:
            for i, ch in enumerate(data):
                if ch == "\x00":
                    self._err("unexpected-null-character", pos + i)
            data = data.replace("\x00", "�")
        return [("Comment", data)]

    # -------------------------------------------------------------- comment

    def _comment(self):
        """Comment state family, entered after '<!--'."""
        s, n = self.s, self.n
        pos = self.pos
        buf = []
        # comment start state
        if pos < n and s[pos] == "-":
            if pos + 1 >= n:
                # comment start dash state, EOF arm (13.2.5.44): the
                # dash is appended only on "anything else" — the
                # emitted comment data stays EMPTY (was "-")
                self._err("eof-in-comment", n)
                self.pos = n
                return [("Comment", "")]
            if s[pos + 1] == ">":
                self._err("abrupt-closing-of-empty-comment", pos + 1)
                self.pos = pos + 2
                return [("Comment", "")]
            if s[pos + 1] == "-":
                # comment end state directly
                pos2, tok = self._comment_end(pos + 2, buf)
                if tok is not None:
                    return tok
                pos = pos2
            else:
                buf.append("-")
                pos += 1
        elif pos < n and s[pos] == ">":
            self._err("abrupt-closing-of-empty-comment", pos)
            self.pos = pos + 1
            return [("Comment", "")]
        while True:
            if pos >= n:
                self._err("eof-in-comment", n)
                self.pos = n
                return [("Comment", "".join(buf))]
            m = _RE_COMMENT_CHUNK.match(s, pos)
            if m.end() > pos:
                buf.append(m.group())
                pos = m.end()
                continue
            c = s[pos]
            if c == "\x00":
                self._err("unexpected-null-character", pos)
                buf.append("�")
                pos += 1
            elif c == "<":
                # comment less-than sign state: <! inside comment may nest
                buf.append("<")
                pos += 1
                while pos < n and s[pos] == "<":
                    buf.append("<")
                    pos += 1
                if pos < n and s[pos] == "!":
                    buf.append("!")
                    pos += 1
                    if s.startswith("--", pos):
                        # comment-end-bang via less-than-sign-bang-dash-dash.
                        # '>' or EOF reconsume in comment-end with no error;
                        # only a real following char that isn't '>' is a
                        # nested-comment parse error.
                        if pos + 2 < n and s[pos + 2] == ">":
                            pos2, tok = self._comment_end(pos + 2, buf)
                        else:
                            if pos + 2 < n:
                                self._err("nested-comment", pos)
                            pos2, tok = self._comment_end(pos + 2, buf)
                        if tok is not None:
                            return tok
                        pos = pos2
            else:  # "-" → comment end dash
                if pos + 1 >= n:
                    self._err("eof-in-comment", n)
                    self.pos = n
                    return [("Comment", "".join(buf))]
                if s[pos + 1] == "-":
                    pos2, tok = self._comment_end(pos + 2, buf)
                    if tok is not None:
                        return tok
                    pos = pos2
                else:
                    buf.append("-")
                    pos += 1

    def _comment_end(self, pos, buf):
        """Comment end state (after '--'). Returns (new_pos, token|None)."""
        s, n = self.s, self.n
        while True:
            if pos >= n:
                self._err("eof-in-comment", n)
                self.pos = n
                return pos, [("Comment", "".join(buf))]
            c = s[pos]
            if c == ">":
                self.pos = pos + 1
                return pos, [("Comment", "".join(buf))]
            if c == "!":
                # comment end bang state
                pos += 1
                if pos < n and s[pos] == "-":
                    buf.append("--!")
                    return pos, None  # '-' unconsumed → main loop's dash branch = comment-end-dash
                if pos >= n:
                    self._err("eof-in-comment", n)
                    self.pos = n
                    return pos, [("Comment", "".join(buf))]
                if s[pos] == ">":
                    self._err("incorrectly-closed-comment", pos)
                    self.pos = pos + 1
                    return pos, [("Comment", "".join(buf))]
                buf.append("--!")
                return pos, None
            if c == "-":
                buf.append("-")
                pos += 1
                continue
            buf.append("--")
            return pos, None

    # -------------------------------------------------------------- doctype

    def _doctype(self):
        s, n = self.s, self.n
        pos = self.pos
        name = None
        public = None
        system = None
        force_quirks = False

        def eof_tok():
            self._err("eof-in-doctype", n)
            self.pos = n
            return [("DOCTYPE", name, public, system, True)]

        if pos >= n:
            return eof_tok()
        if s[pos] in _WS:
            pos += 1
        elif s[pos] == ">":
            pass
        else:
            self._err("missing-whitespace-before-doctype-name", pos)
        # before doctype name
        while pos < n and s[pos] in _WS:
            pos += 1
        if pos >= n:
            return eof_tok()
        if s[pos] == ">":
            self._err("missing-doctype-name", pos)
            self.pos = pos + 1
            return [("DOCTYPE", None, None, None, True)]
        # doctype name — NUL stays IN the name as U+FFFD (spec 13.2.5.54;
        # one error PER NUL, at the NUL's offset)
        m = _RE_DOCTYPE_NAME.match(s, pos)
        raw = m.group()
        for i, ch in enumerate(raw):
            if ch == "\x00":
                self._err("unexpected-null-character", pos + i)
        name = raw.lower().replace("\x00", "�")
        pos = m.end()
        # after doctype name
        while True:
            while pos < n and s[pos] in _WS:
                pos += 1
            if pos >= n:
                return eof_tok()
            if s[pos] == ">":
                self.pos = pos + 1
                return [("DOCTYPE", name, public, system, force_quirks)]
            kw = s[pos:pos + 6].lower()
            if kw == "public":
                pos += 6
                public, system, force_quirks, pos, tok = \
                    self._doctype_ids(pos, "public", name)
                if tok is not None:
                    return tok
                continue
            if kw == "system":
                pos += 6
                _pub, system, force_quirks, pos, tok = \
                    self._doctype_ids(pos, "system", name)
                if tok is not None:
                    return tok
                continue
            self._err("invalid-character-sequence-after-doctype-name", pos)
            force_quirks = True
            pos, tok = self._bogus_doctype(pos, name, public, system)
            if tok is not None:
                return tok

    def _doctype_ids(self, pos, which, name):
        """PUBLIC/SYSTEM keyword seen; parse quoted identifier(s).
        Returns (public, system, force_quirks, pos, token|None)."""
        s, n = self.s, self.n
        public = None
        system = None
        force_quirks = False

        def nul_errors(seg, base):
            # one unexpected-null-character PER NUL, at its offset —
            # on every path (normal / abrupt '>' / EOF)
            for i, ch in enumerate(seg):
                if ch == "\x00":
                    self._err("unexpected-null-character", base + i)

        def read_quoted(pos, abrupt_code):
            nonlocal force_quirks
            quote = s[pos]
            end = s.find(quote, pos + 1)
            gt = s.find(">", pos + 1)
            if end == -1 and gt == -1:
                # EOF inside the identifier: eof-in-doctype ONLY — the
                # abrupt error is for '>' (spec 13.2.5.58/.64)
                force_quirks = True
                seg = s[pos + 1:n]
                nul_errors(seg, pos + 1)
                return seg.replace("\x00", "�"), n, True  # eof
            if end == -1 or (gt != -1 and gt < end):
                seg = s[pos + 1:gt]
                nul_errors(seg, pos + 1)
                self._err(abrupt_code, pos)
                force_quirks = True
                return seg.replace("\x00", "�"), gt, False
            val = s[pos + 1:end]
            nul_errors(val, pos + 1)
            return val.replace("\x00", "�"), end + 1, False

        # after PUBLIC/SYSTEM keyword
        had_ws = False
        while pos < n and s[pos] in _WS:
            pos += 1
            had_ws = True
        if pos >= n:
            self._err("eof-in-doctype", n)
            self.pos = n
            return public, system, True, n, [("DOCTYPE", name, public, system, True)]
        c = s[pos]
        if c in "\"'":
            if not had_ws:
                self._err("missing-whitespace-after-doctype-%s-keyword" % which, pos)
            code_abrupt = "abrupt-doctype-%s-identifier" % which
            val, pos, at_eof = read_quoted(pos, code_abrupt)
            if which == "public":
                public = val
            else:
                system = val
            if at_eof:
                self._err("eof-in-doctype", n)
                self.pos = n
                return public, system, True, n, [("DOCTYPE", name, public, system, True)]
            if force_quirks:
                if pos < n and s[pos] == ">":
                    self.pos = pos + 1
                    return public, system, True, pos, [("DOCTYPE", name, public, system, True)]
            got_system = which == "system"
            if which == "public":
                # between public and (optional) system id
                had_ws2 = False
                while pos < n and s[pos] in _WS:
                    pos += 1
                    had_ws2 = True
                if pos >= n:
                    self._err("eof-in-doctype", n)
                    self.pos = n
                    return public, system, True, n, [("DOCTYPE", name, public, system, True)]
                if s[pos] in "\"'":
                    if not had_ws2:
                        self._err("missing-whitespace-between-doctype-public-and-system-identifiers", pos)
                    val, pos, at_eof = read_quoted(
                        pos, "abrupt-doctype-system-identifier")
                    system = val
                    got_system = True
                    if at_eof:
                        self._err("eof-in-doctype", n)
                        self.pos = n
                        return public, system, True, n, [("DOCTYPE", name, public, system, True)]
                elif s[pos] != ">":
                    # after-public-identifier junk: could have been an
                    # unquoted system id → quirks (spec 13.2.5.59)
                    self._err(
                        "missing-quote-before-doctype-system-identifier", pos)
                    pos2, tok = self._bogus_doctype(pos, name, public, system)
                    return public, system, True, pos2, tok
            if got_system and not force_quirks:
                # after-system-identifier state: junk is an error but
                # does NOT set force-quirks (spec 13.2.5.66)
                p2 = pos
                while p2 < n and s[p2] in _WS:
                    p2 += 1
                if p2 < n and s[p2] != ">":
                    self._err(
                        "unexpected-character-after-doctype-system-identifier",
                        p2)
                    pos2, tok = self._bogus_doctype(p2, name, public, system,
                                                    fq=force_quirks)
                    return public, system, force_quirks, pos2, tok
                pos = p2
            return public, system, force_quirks, pos, None
        if c == ">":
            self._err("missing-doctype-%s-identifier" % which, pos)
            self.pos = pos + 1
            return public, system, True, pos, [("DOCTYPE", name, public, system, True)]
        self._err("missing-quote-before-doctype-%s-identifier" % which, pos)
        pos2, tok = self._bogus_doctype(pos, name, public, system)
        return public, system, True, pos2, tok

    def _bogus_doctype(self, pos, name, public, system, fq: bool = True):
        s, n = self.s, self.n
        end = s.find(">", pos)
        stop = n if end == -1 else end
        # spec bogus-DOCTYPE state: each NUL in the skipped run is an
        # unexpected-null-character parse error (and is ignored)
        i = s.find("\x00", pos)
        while i != -1 and i < stop:
            self._err("unexpected-null-character", i)
            i = s.find("\x00", i + 1)
        if end == -1:
            self.pos = n
            return n, [("DOCTYPE", name, public, system, fq)]
        self.pos = end + 1
        return end + 1, [("DOCTYPE", name, public, system, fq)]

    # ---------------------------------------------------------------- cdata

    def _cdata_section(self):
        s, n = self.s, self.n
        pos = self.pos
        end = s.find("]]>", pos)
        if end == -1:
            self._err("eof-in-cdata", n)
            out = [("Character", s[pos:n])] if pos < n else []
            self.pos = n
            self.state = DATA
            return out
        out = [("Character", s[pos:end])] if end > pos else []
        self.pos = end + 3
        self.state = DATA
        return out

    # ---------------------------------------------------- character refs

    def _consume_charref(self, in_attr: bool) -> str:
        """'&' consumed; returns replacement text (or literal fallback)."""
        s, n = self.s, self.n
        pos = self.pos
        if pos >= n:
            return "&"
        c = s[pos]
        if c == "#":
            return self._numeric_charref(pos + 1)
        if not (c.isascii() and c.isalnum()):
            return "&"
        # named: longest match from the WHATWG table (same data as
        # /root/reference/src/namedCharacterReference.zig, via stdlib)
        avail = s[pos:pos + _MAX_ENTITY_LEN]
        lengths = _ENTITY_LENGTHS_BY_PREFIX.get(avail[:2], ())
        match_name = None
        for ln in lengths:
            if ln <= len(avail):
                cand = avail[:ln]
                if cand in _HTML5_ENTITIES:
                    match_name = cand
                    break
        if match_name is None:
            # ambiguous ampersand: emit run verbatim; error iff run;-terminated
            m = _RE_ALNUM_RUN.match(s, pos)
            run = m.group()
            if run and m.end() < n and s[m.end()] == ";":
                self._err("unknown-named-character-reference", m.end())
            # consume the run as plain text to avoid re-scanning it char by char
            self.pos = m.end()
            return "&" + run
        end = pos + len(match_name)
        if not match_name.endswith(";"):
            nxt = s[end] if end < n else ""
            if in_attr and (nxt == "=" or (nxt.isascii() and nxt.isalnum())):
                # historical attribute rule: literal
                m = _RE_ALNUM_RUN.match(s, pos)
                self.pos = m.end()
                return "&" + m.group()
            self._err("missing-semicolon-after-character-reference", end)
        self.pos = end
        return _HTML5_ENTITIES[match_name]

    def _numeric_charref(self, pos) -> str:
        s, n = self.s, self.n
        hexa = pos < n and s[pos] in "xX"
        if hexa:
            m = _RE_HEXDIGITS.match(s, pos + 1)
        else:
            m = _RE_DIGITS.match(s, pos)
        if m is None or m.group() == "":
            self._err("absence-of-digits-in-numeric-character-reference", pos)
            if hexa:  # flush "&#x" (original case), reconsume rest
                self.pos = pos + 1
                return "&#" + s[pos]
            self.pos = pos
            return "&#"
        digits = m.group()
        end = m.end()
        if end < n and s[end] == ";":
            end += 1
        else:
            self._err("missing-semicolon-after-character-reference", end)
        self.pos = end
        code = int(digits, 16 if hexa else 10)
        if code == 0:
            self._err("null-character-reference", pos)
            return "�"
        if code > 0x10FFFF:
            self._err("character-reference-outside-unicode-range", pos)
            return "�"
        if 0xD800 <= code <= 0xDFFF:
            self._err("surrogate-character-reference", pos)
            return "�"
        if (0xFDD0 <= code <= 0xFDEF) or (code & 0xFFFE) == 0xFFFE:
            self._err("noncharacter-character-reference", pos)
        elif code == 0x0D or (code < 0x20 and code not in (0x09, 0x0A, 0x0C)) \
                or (0x7F <= code <= 0x9F):
            self._err("control-character-reference", pos)
            code = _CHARREF_REMAP.get(code, code)
        return chr(code)


# state -> plain function (``next_tokens`` calls ``fn(self)``): a
# per-tokenizer dict of bound methods would make every tokenizer a
# reference cycle that only the cyclic collector frees
_STATE_FNS = {
    DATA: Tokenizer._data, RCDATA: Tokenizer._rcdata,
    RAWTEXT: Tokenizer._rawtext, SCRIPT_DATA: Tokenizer._script_data,
    PLAINTEXT: Tokenizer._plaintext, CDATA_SECTION: Tokenizer._cdata_section,
}


class _TagBuilder:
    """Shared attribute machinery for start and end tags: before/attr-name/
    after-name/value states with first-wins duplicate handling (reference:
    /root/reference/src/tokenizer.zig:2412-2427)."""

    __slots__ = ("t", "kind", "name", "attrs", "self_closing", "dup_seen")

    def __init__(self, t: Tokenizer, kind: str, name: str):
        self.t = t
        self.kind = kind
        self.name = name
        self.attrs: dict[str, str] = {}
        self.self_closing = False

    def _emit(self):
        t = self.t
        if self.kind == "StartTag":
            t.last_start_tag = self.name
            return [("StartTag", self.name, self.attrs, self.self_closing)]
        if self.attrs:
            t._err("end-tag-with-attributes")
        if self.self_closing:
            t._err("end-tag-with-trailing-solidus")
        return [("EndTag", self.name, self.attrs, self.self_closing)]

    def _eof(self):
        self.t._err("eof-in-tag", self.t.n)
        self.t.pos = self.t.n
        return []

    def run_after_name(self):
        """Tokenizer is positioned at the char that ended the tag name
        (whitespace, '/', '>', or EOF)."""
        t = self.t
        s, n = t.s, t.n
        pos = t.pos
        while True:
            # before attribute name
            while pos < n and s[pos] in _WS:
                pos += 1
            if pos >= n:
                t.pos = pos
                return self._eof()
            c = s[pos]
            if c == ">":
                t.pos = pos + 1
                return self._emit()
            if c == "/":
                # self-closing start tag state
                if pos + 1 < n and s[pos + 1] == ">":
                    self.self_closing = True
                    t.pos = pos + 2
                    return self._emit()
                if pos + 1 >= n:
                    t.pos = n
                    return self._eof()
                t._err("unexpected-solidus-in-tag", pos)
                pos += 1
                continue
            if c == "=":
                t._err("unexpected-equals-sign-before-attribute-name", pos)
                pos, done = self._attr(pos, eq_name_start=True)
            else:
                pos, done = self._attr(pos)
            if done is not None:
                return done

    def _attr(self, pos, eq_name_start=False):
        """Attribute name [+ value]. Returns (pos, emitted|None)."""
        t = self.t
        s, n = t.s, t.n
        start = pos
        if eq_name_start:
            pos += 1  # '=' becomes first name char
        m = _RE_ATTRNAME.match(s, pos)
        pos = m.end()
        # chars "'< in names: error but included
        extra = []
        while pos < n and s[pos] in "\"'<\x00":
            if s[pos] == "\x00":
                t._err("unexpected-null-character", pos)
                extra.append((pos, "�"))
            else:
                t._err("unexpected-character-in-attribute-name", pos)
                extra.append((pos, s[pos]))
            pos += 1
            m2 = _RE_ATTRNAME.match(s, pos)
            pos = m2.end()
        raw = s[start:pos]
        if extra or "\x00" in raw:
            raw = raw.replace("\x00", "�")
        name = raw.lower()
        # after attribute name
        while pos < n and s[pos] in _WS:
            pos += 1
        if pos >= n:
            t.pos = n
            return pos, self._eof()
        c = s[pos]
        if c != "=":
            # duplicate-attribute offset = name START (same convention as
            # the valued paths and the fast path — CLAUDE.md invariant:
            # fast path must stay token+ERROR-identical)
            self._store(name, "", start)
            return pos, None  # '>' '/' or next name handled by caller
        pos += 1
        # before attribute value
        while pos < n and s[pos] in _WS:
            pos += 1
        if pos >= n:
            t.pos = n
            return pos, self._eof()
        c = s[pos]
        if c == ">":
            t._err("missing-attribute-value", pos)
            self._store(name, "", start)
            t.pos = pos + 1
            return pos + 1, self._emit()
        if c in "\"'":
            rx = _RE_ATTRVAL_DQ if c == '"' else _RE_ATTRVAL_SQ
            quote = c
            pos += 1
            buf = []
            while True:
                m = rx.match(s, pos)
                buf.append(m.group())
                pos = m.end()
                if pos >= n:
                    t.pos = n
                    self._store(name, "".join(buf), start)
                    return pos, self._eof()
                c2 = s[pos]
                if c2 == quote:
                    pos += 1
                    break
                if c2 == "&":
                    t.pos = pos + 1
                    buf.append(t._consume_charref(in_attr=True))
                    pos = t.pos
                else:  # NUL
                    t._err("unexpected-null-character", pos)
                    buf.append("�")
                    pos += 1
            self._store(name, "".join(buf), start)
            # after attribute value (quoted)
            if pos < n and s[pos] not in "\t\n\f />":
                t._err("missing-whitespace-between-attributes", pos)
            return pos, None
        # unquoted
        buf = []
        while True:
            m = _RE_ATTRVAL_UQ.match(s, pos)
            buf.append(m.group())
            pos = m.end()
            if pos >= n:
                t.pos = n
                self._store(name, "".join(buf), start)
                return pos, self._eof()
            c2 = s[pos]
            if c2 in "\t\n\f >":
                break
            if c2 == "&":
                t.pos = pos + 1
                buf.append(t._consume_charref(in_attr=True))
                pos = t.pos
            elif c2 == "\x00":
                t._err("unexpected-null-character", pos)
                buf.append("�")
                pos += 1
            else:  # " ' < = `
                t._err("unexpected-character-in-unquoted-attribute-value", pos)
                buf.append(c2)
                pos += 1
        self._store(name, "".join(buf), start)
        return pos, None

    def _store(self, name, value, at):
        if name in self.attrs:
            self.t._err("duplicate-attribute", at)  # first occurrence wins
        else:
            self.attrs[name] = value


def tokenize(raw: bytes | str, initial_state: str = DATA,
             last_start_tag: str | None = None,
             collect_input_errors: bool = True):
    """Convenience: full token list + errors for one document."""
    t = Tokenizer(raw, initial_state=initial_state,
                  last_start_tag=last_start_tag,
                  collect_input_errors=collect_input_errors)
    toks = list(t.tokens())
    return toks, t.errors


def format_token(tok) -> str:
    """Debug pretty-printer for one token (SURVEY.md §2.2 M13 — the
    reference's Token.format impls, /root/reference/src/token.zig:19-64):
    StartTag → '<name attr="v">', EndTag → '</name>', Comment →
    '<!--data-->', DOCTYPE → '<!DOCTYPE name>', Character → the text."""
    kind = tok[0]
    if kind == "StartTag":
        attrs = "".join(f' {k}="{v}"' for k, v in sorted(tok[2].items()))
        slash = "/" if tok[3] else ""
        return f"<{tok[1]}{attrs}{slash}>"
    if kind == "EndTag":
        return f"</{tok[1]}>"
    if kind == "Comment":
        return f"<!--{tok[1]}-->"
    if kind == "DOCTYPE":
        parts = ["<!DOCTYPE"]
        if tok[1]:
            parts.append(f" {tok[1]}")
        if tok[2] is not None:
            parts.append(f' PUBLIC "{tok[2]}"')
        elif tok[3] is not None:
            parts.append(" SYSTEM")
        if tok[3] is not None:
            parts.append(f' "{tok[3]}"')
        return "".join(parts) + ">"
    if kind == "Character":
        return tok[1]
    return "<EOF>"


def format_tokens(tokens) -> str:
    """Whole-stream debug dump, one token per line."""
    return "\n".join(format_token(t) for t in tokens)
