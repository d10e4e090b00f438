"""Text analysis operators: token counting, quality scoring, language
identification, document fingerprinting. Vectorized per batch
(pyarrow.compute / numpy). The stages are callable classes with a
cheap ``__init__``: pipelines pass an instance to ``map_batches``, which
runs it as stateless Ray tasks.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Python str.split()/str.isspace() whitespace as an RE2 class body —
# the SINGLE source of truth shared by the Arrow kernels here and the
# DuckDB oracle SQL (RE2's \s is ASCII-only; verified char-by-char
# against str.isspace())
PY_WS_RE2_IN = (r"\t\n\x{0B}\f\r\x{1C}-\x{1F} \x{85}\x{A0}\x{1680}"
                r"\x{2000}-\x{200A}\x{2028}\x{2029}\x{202F}\x{205F}\x{3000}")

# BPE-ish pre-tokenizer (GPT-2-style contraction/word/punct split)
_BPE_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-zÀ-ɏ]+| ?[0-9]+"
    r"| ?[^\sA-Za-z0-9À-ɏ]+|\s+")

_STOPWORDS = {
    "en": frozenset("the a an and of to in is it you that he was for on are "
                    "as with his they i at be this have from or one had by "
                    "word but not what all were we when your can said there "
                    "use each which she do how their if will up other about "
                    "out many then them these so some her would make like him "
                    "into time has look two more write go see".split()),
    "es": frozenset("el la de que y a en un ser se no haber por con su para "
                    "como estar tener le lo todo pero mas hacer o poder decir "
                    "este ir otro ese si me ya ver porque dar cuando muy sin "
                    "vez mucho saber sobre mi alguno mismo tambien hasta "
                    "donde mientras".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf fur ist "
                    "im dem nicht ein eine als auch es an werden aus er hat "
                    "dass sie nach wird bei einer um am sind noch wie einem "
                    "uber einen so zum war haben nur oder aber vor zur bis "
                    "mehr durch wahrend springt".split()),
    "fr": frozenset("le de un etre et a il avoir ne je son que se qui ce dans "
                    "en du elle au pour pas vous par sur faire plus dire me "
                    "on mon lui nous comme mais pouvoir avec tout y aller "
                    "voir bien ou sans tu tandis les des par dessus".split()),
}


def _is_cjk(cp: int) -> bool:
    return (0x4E00 <= cp <= 0x9FFF) or (0x3040 <= cp <= 0x30FF) or \
        (0xAC00 <= cp <= 0xD7AF) or (0x3400 <= cp <= 0x4DBF)


def token_count_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Whitespace token count — ONE vectorized RE2 kernel counting
    maximal non-whitespace runs, which equals ``len(str.split())``
    exactly (the previous utf8_split_whitespace form emitted empty
    boundary tokens for leading/trailing whitespace, silently inflating
    the count)."""
    n = pc.count_substring_regex(batch[col],
                                 pattern=f"[^{PY_WS_RE2_IN}]+")
    return batch.append_column("n_tokens", pc.cast(n, pa.int64()))


class BpeTokenCount:
    """BPE-ish token counting (regex pre-tokenizer); the regex is the
    module-level ``_BPE_RE``."""

    def __init__(self, col: str = "text"):
        self.col = col
        self.rx = _BPE_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.col].to_pylist()
        findall = self.rx.findall
        counts = [sum(1 for t in findall(s) if not t.isspace()) if s else 0
                  for s in texts]
        return batch.append_column("n_bpe_tokens", pa.array(counts, pa.int64()))


class QualityScore:
    """Deterministic quality heuristics per document:
    word stats, punctuation/digit/upper ratios, stopword density, plus a
    composite [0,1] score (a C4/Gopher-style filter signal)."""

    def __init__(self, col: str = "text"):
        self.col = col
        self.word_re = re.compile(r"\w+", re.UNICODE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.col].to_pylist()
        langs = batch["lang"].to_pylist() if "lang" in batch.column_names \
            else [""] * len(texts)
        n = len(texts)
        n_words = np.zeros(n, np.int64)
        mean_wlen = np.zeros(n, np.float64)
        punct_ratio = np.zeros(n, np.float64)
        digit_ratio = np.zeros(n, np.float64)
        upper_ratio = np.zeros(n, np.float64)
        stop_ratio = np.zeros(n, np.float64)
        for i, s in enumerate(texts):
            if not s:
                continue
            L = len(s)
            words = s.split()
            n_words[i] = len(words)
            if words:
                mean_wlen[i] = sum(len(w) for w in words) / len(words)
            n_alpha = sum(c.isalpha() for c in s)
            n_digit = sum(c.isdigit() for c in s)
            n_upper = sum(c.isupper() for c in s)
            n_space = sum(c.isspace() for c in s)
            punct_ratio[i] = (L - n_alpha - n_digit - n_space) / L
            digit_ratio[i] = n_digit / L
            upper_ratio[i] = n_upper / max(1, n_alpha)
            stops = _STOPWORDS.get(langs[i] or "en", _STOPWORDS["en"])
            lw = [w.strip(".,;:!?\"'()").lower() for w in words]
            stop_ratio[i] = sum(w in stops for w in lw) / max(1, len(lw))
        # composite: each sub-signal in [0,1], spec'd deterministically
        len_ok = np.clip(n_words / 50.0, 0, 1)
        wlen_ok = 1.0 - np.clip(np.abs(mean_wlen - 5.0) / 5.0, 0, 1)
        punct_ok = 1.0 - np.clip(punct_ratio / 0.3, 0, 1)
        stop_ok = np.clip(stop_ratio / 0.2, 0, 1)
        score = 0.35 * len_ok + 0.2 * wlen_ok + 0.2 * punct_ok + 0.25 * stop_ok
        score = np.where(n_words == 0, 0.0, score)  # empty → 0
        out = batch
        for name, arr in (("n_words", n_words), ("mean_word_len", mean_wlen),
                          ("punct_ratio", punct_ratio),
                          ("digit_ratio", digit_ratio),
                          ("upper_ratio", upper_ratio),
                          ("stopword_ratio", stop_ratio),
                          ("quality_score", score)):
            out = out.append_column(name, pa.array(arr))
        return out


class LangId:
    """N-gram/stopword language ID over {en,es,de,fr,zh} (the fixture
    languages): CJK char ratio → zh, else argmax stopword hits with a
    deterministic tie-break (alphabetical)."""

    def __init__(self, col: str = "text"):
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.col].to_pylist()
        preds = []
        confs = []
        for s in texts:
            if not s:
                preds.append("und")
                confs.append(0.0)
                continue
            sample = s[:2000]
            cjk = sum(_is_cjk(ord(c)) for c in sample)
            n_alpha = sum(c.isalpha() for c in sample)
            if n_alpha and cjk / n_alpha > 0.3:
                preds.append("zh")
                confs.append(cjk / n_alpha)
                continue
            words = [w.strip(".,;:!?\"'()").lower() for w in sample.split()]
            best, best_hits = "und", 0
            for lang in sorted(_STOPWORDS):
                hits = sum(w in _STOPWORDS[lang] for w in words)
                if hits > best_hits:
                    best, best_hits = lang, hits
            # raw division (no rounding): bit-identical to the SQL oracle
            preds.append(best)
            confs.append(best_hits / max(1, len(words)))
        return batch.append_column("lang_pred", pa.array(preds, pa.string())) \
                    .append_column("lang_conf", pa.array(confs, pa.float64()))


class Fingerprint:
    """Winnowing-style document fingerprint: rolling CRC over byte
    8-grams, fingerprint = min hash of all windows (uint64), plus a full
    content hash. Deterministic; mergeable for shard-level dedup."""

    K = 8

    def __init__(self, col: str = "text"):
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.col].to_pylist()
        fps = np.zeros(len(texts), np.uint64)
        full = np.zeros(len(texts), np.uint64)
        for i, s in enumerate(texts):
            b = (s or "").encode("utf-8")
            full[i] = zlib.crc32(b) | (len(b) << 32)
            if len(b) < self.K:
                fps[i] = full[i]
                continue
            view = np.frombuffer(b, np.uint8)
            win = np.lib.stride_tricks.sliding_window_view(view, self.K)
            h = win.astype(np.uint64) @ (np.uint64(31) **
                                         np.arange(self.K, dtype=np.uint64))
            fps[i] = np.min(h)
        return batch.append_column("fingerprint", pa.array(fps)) \
                    .append_column("content_hash", pa.array(full))


# Gopher-style document quality/repetition rules (Rae et al. 2021,
# "Scaling Language Models" §A1.1) adapted to the fixture corpus and
# kept INTEGER-EXACT so the distributed run and a SQL oracle agree bit
# for bit: every signal is a count, every threshold an integer
# cross-multiplication — no float ratios anywhere.
_GOPHER_STOPS = ("join", "hash", "row", "batch", "scan")
# RE2's \s is exactly [\t\n\f\r ] (ASCII) while Python str.split()
# breaks on ALL Unicode whitespace (U+00A0, U+2009, …) — entity-decoded
# page text CAN contain those, so the word class is pinned to the RE2
# set on BOTH sides or the SQL oracle diverges on the first &nbsp;
_GOPHER_WORD_RE = re.compile(r"[^ \t\n\f\r]+")


class GopherStats:
    """Per-doc integer signals + keep flag.

    Columns out: n_words, n_chars (word chars only), stop_hits,
    n_bigrams, dup_bigrams (occurrences beyond each bigram's first),
    top_word_mass (max over words of count*len — the char mass of the
    most repeated word), keep. keep =
        word count in [min_words, max_words]
      AND 3*n_words <= n_chars <= 10*n_words   (mean word length 3..10)
      AND stop_hits >= min_stops               ("stopword" presence)
      AND dup_bigrams * 25 <= n_bigrams        (<= 4% duplicate bigrams)
      AND top_word_mass * 6 <= n_chars         (<= 1/6 char mass in one word)
    """

    def __init__(self, col: str = "text", min_words: int = 30,
                 max_words: int = 70, min_stops: int = 3,
                 dup_mult: int = 25, top_mult: int = 6):
        self.col = col
        self.min_words = min_words
        self.max_words = max_words
        self.min_stops = min_stops
        self.dup_mult = dup_mult  # dup_bigrams * dup_mult <= n_bigrams
        self.top_mult = top_mult  # top_word_mass * top_mult <= n_chars
        self.stops = frozenset(_GOPHER_STOPS)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter
        texts = batch[self.col].to_pylist()
        n = len(texts)
        n_words = np.zeros(n, np.int64)
        n_chars = np.zeros(n, np.int64)
        stop_hits = np.zeros(n, np.int64)
        n_bi = np.zeros(n, np.int64)
        dup_bi = np.zeros(n, np.int64)
        top_mass = np.zeros(n, np.int64)
        for i, s in enumerate(texts):
            ws = _GOPHER_WORD_RE.findall(s or "")
            n_words[i] = len(ws)
            if not ws:
                continue
            cnt = Counter(ws)
            n_chars[i] = sum(len(w) for w in ws)
            stop_hits[i] = sum(c for w, c in cnt.items()
                               if w in self.stops)
            top_mass[i] = max(c * len(w) for w, c in cnt.items())
            if len(ws) > 1:
                n_bi[i] = len(ws) - 1
                dup_bi[i] = n_bi[i] - len(set(zip(ws, ws[1:])))
        keep = ((n_words >= self.min_words) & (n_words <= self.max_words)
                & (3 * n_words <= n_chars) & (n_chars <= 10 * n_words)
                & (stop_hits >= self.min_stops)
                & (dup_bi * self.dup_mult <= n_bi)
                & (top_mass * self.top_mult <= n_chars))
        return batch.append_column("n_words", pa.array(n_words)) \
            .append_column("n_chars", pa.array(n_chars)) \
            .append_column("stop_hits", pa.array(stop_hits)) \
            .append_column("n_bigrams", pa.array(n_bi)) \
            .append_column("dup_bigrams", pa.array(dup_bi)) \
            .append_column("top_word_mass", pa.array(top_mass)) \
            .append_column("keep", pa.array(keep))
