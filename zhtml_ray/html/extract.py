"""Main-content extraction: boilerplate removal over the parsed DOM.

This is the north-star layer (`BASELINE.json:north_star`) the reference
does not have (SURVEY.md §2.2 M12): block-level segmentation of the node
tree + text-density / link-density scoring, Boilerpipe/trafilatura-style.

Pinned deterministic algorithm (THE byte-identical-per-url oracle — any
change here invalidates golden files, regenerate via tests/gen_golden.py):

1. Flatten the DOM depth-first (dom.flatten order == node_id order).
2. Drop non-content subtrees (script/style/template/head/…, see _SKIP).
3. Segment into blocks: each text node belongs to its nearest
   block-level ancestor (_BLOCK tags); consecutive text nodes with the
   same nearest-block ancestor form one block, whitespace-normalized.
4. Classify each block content/boilerplate:
   a. any nav/aside/footer/form ancestor → boilerplate;
   b. h1-h6/caption blocks → content iff the next non-heading block is
      content (titles attach to their article);
   c. else the Boilerpipe "NumWordsRules" decision rule (Kohlschütter
      et al., WSDM 2010) over (words, link-density) of prev/curr/next.
5. extracted_text = "\n\n".join(content block texts); spans carry
   (start, end) BYTE offsets into extracted_text's UTF-8 encoding,
   the block's nearest-block-ancestor node_id, and kind = block tag.
"""

from __future__ import annotations

from zhtml_ray.html.dom import ELEMENT, NS_HTML, TEXT, detach
from zhtml_ray.html.treebuilder import parse

_SKIP = frozenset((
    "script", "style", "template", "noscript", "noframes", "iframe", "svg",
    "math", "head", "textarea", "select", "datalist", "object", "embed",
    "applet", "frameset", "frame", "button", "input", "label", "audio",
    "video", "canvas", "map",
))

_BLOCK = frozenset((
    "address", "article", "aside", "blockquote", "body", "caption", "center",
    "dd", "details", "dialog", "dir", "div", "dl", "dt", "fieldset",
    "figcaption", "figure", "footer", "form", "h1", "h2", "h3", "h4", "h5",
    "h6", "header", "hgroup", "hr", "li", "listing", "main", "menu", "nav",
    "ol", "p", "plaintext", "pre", "section", "summary", "table", "tbody",
    "td", "tfoot", "th", "thead", "tr", "ul", "xmp", "html",
))

_HARD_BOILER = frozenset(("nav", "aside", "footer", "form"))
_HEADING = frozenset(("h1", "h2", "h3", "h4", "h5", "h6", "caption"))


from dataclasses import dataclass


@dataclass(frozen=True)
class ExtractThresholds:
    """Extraction config (SURVEY.md §2.3 ST6), shipped to the map's
    tasks with the ``ParseExtractBatch`` instance. The DEFAULTS ARE THE
    PINNED ORACLE — the golden harness runs with `None`/default; only
    non-default instances change output."""

    max_link_density: float = 0.333333
    prev_link_density: float = 0.555556
    curr_words: int = 16
    next_words: int = 15
    prev_words: int = 4
    curr_words_linky: int = 40
    next_words_linky: int = 17


_DEFAULT_THRESHOLDS = ExtractThresholds()


def _segment(flat) -> list[dict]:
    """Blocks in document order from the flattened node arrays."""
    parent = flat["parent"]
    kind = flat["kind"]
    tag = flat["tag"]
    ns = flat["ns"]
    text = flat["text"]
    depth = flat["depth"]
    n = len(parent)

    # per-node: nearest block ancestor id, link flag, hard-boilerplate flag
    nearest_block = [0] * n
    in_link = [False] * n
    hard_boiler = [False] * n
    skip = [False] * n
    for i in range(1, n):
        p = parent[i]
        if skip[p]:
            skip[i] = True
            continue
        if kind[i] == ELEMENT:
            t = tag[i]
            if ns[i] != NS_HTML or t in _SKIP:
                skip[i] = True
                continue
            nearest_block[i] = i if t in _BLOCK else nearest_block[p]
            in_link[i] = in_link[p] or t == "a"
            hard_boiler[i] = hard_boiler[p] or t in _HARD_BOILER
        else:
            nearest_block[i] = nearest_block[p]
            in_link[i] = in_link[p]
            hard_boiler[i] = hard_boiler[p]

    blocks: list[dict] = []
    cur = None
    for i in range(1, n):
        if kind[i] != TEXT or skip[i]:
            continue
        t = text[i]
        if not t or t.isspace():
            continue
        b = nearest_block[i]
        if cur is None or cur["node_id"] != b:
            cur = {"node_id": b, "parts": [], "link_chars": 0, "chars": 0,
                   "tag": tag[b] if b else "body",
                   "boiler": hard_boiler[i]}
            blocks.append(cur)
        norm = " ".join(t.split())
        if not norm:
            continue
        cur["parts"].append(norm)
        cur["chars"] += len(norm)
        if in_link[i]:
            cur["link_chars"] += len(norm)
    out = []
    for b in blocks:
        txt = " ".join(b["parts"])
        if not txt:
            continue
        words = len(txt.split())
        out.append({
            "node_id": b["node_id"], "tag": b["tag"], "text": txt,
            "words": words,
            "link_density": (b["link_chars"] / b["chars"]) if b["chars"] else 0.0,
            "boiler": b["boiler"],
            "heading": b["tag"] in _HEADING,
        })
    return out


def _classify(blocks: list[dict],
              th: ExtractThresholds = _DEFAULT_THRESHOLDS) -> None:
    """Sets block['content'] in place. Boilerpipe NumWordsRules core."""
    n = len(blocks)

    def feat(i):
        if i < 0 or i >= n:
            return 0, 0.0
        return blocks[i]["words"], blocks[i]["link_density"]

    for i, b in enumerate(blocks):
        if b["boiler"]:
            b["content"] = False
            continue
        if b["heading"]:
            b["content"] = None  # resolved in the heading pass below
            continue
        w_c, ld_c = b["words"], b["link_density"]
        w_p, ld_p = feat(i - 1)
        w_n, _ = feat(i + 1)
        if ld_c > th.max_link_density:
            b["content"] = False
        elif ld_p <= th.prev_link_density:
            b["content"] = (w_c > th.curr_words or w_n > th.next_words
                            or w_p > th.prev_words)
        else:
            b["content"] = w_c > th.curr_words_linky or w_n > th.next_words_linky
    # heading pass: content iff next resolved block is content
    for i in range(n - 1, -1, -1):
        if blocks[i]["content"] is None:
            nxt = None
            for j in range(i + 1, n):
                if blocks[j]["content"] is not None:
                    nxt = blocks[j]["content"]
                    break
            blocks[i]["content"] = bool(nxt)


def _assemble(blocks: list[dict]) -> dict:
    """Classified blocks → extracted_text + spans (byte offsets into the
    UTF-8 encoding of extracted_text)."""
    texts = []
    spans = []
    byte_off = 0
    sep = b"\n\n"
    first = True
    for b in blocks:
        if not b["content"]:
            continue
        bt = b["text"].encode("utf-8")
        if not first:
            byte_off += len(sep)
        start = byte_off
        byte_off += len(bt)
        texts.append(b["text"])
        spans.append({"start": start, "end": byte_off,
                      "node_id": b["node_id"], "kind": b["tag"]})
        first = False
    return {"extracted_text": "\n\n".join(texts), "spans": spans}


def extract_from_flat(flat,
                      thresholds: ExtractThresholds | None = None) -> dict:
    """Extraction over already-flattened node arrays → dict with
    extracted_text + spans (byte offsets into UTF-8 extracted_text)."""
    blocks = _segment(flat)
    _classify(blocks, thresholds or _DEFAULT_THRESHOLDS)
    return _assemble(blocks)


def _segment_tree(doc) -> tuple[list[dict], int]:
    """Fused flatten+segment: one DFS over the node tree producing the
    same blocks (and node ids) as ``_segment(flatten(doc))`` without
    materializing the parallel arrays — the hot path. Equivalence is
    asserted by tests/test_extract.py and the golden harness.
    Returns (blocks, n_nodes)."""
    blocks: list[dict] = []
    cur = None
    idx = 0
    # (node, nearest_block_id, nearest_block_tag, in_link, hard, skip)
    stack = [(doc, 0, "body", False, False, False)]
    while stack:
        node, nb, nb_tag, in_link, hard, skip = stack.pop()
        my = idx
        idx += 1
        kind = node.kind
        if my and not skip:  # root keeps defaults (matches _segment i>=1)
            if kind == ELEMENT:
                t = node.name
                if node.ns != NS_HTML or t in _SKIP:
                    skip = True
                else:
                    if t in _BLOCK:
                        nb, nb_tag = my, t
                    if not in_link and t == "a":
                        in_link = True
                    if not hard and t in _HARD_BOILER:
                        hard = True
            elif kind == TEXT:
                parts = node.parts
                txt = "".join(parts) if parts else ""
                if txt and not txt.isspace():
                    if cur is None or cur["node_id"] != nb:
                        cur = {"node_id": nb, "parts": [], "link_chars": 0,
                               "chars": 0, "nwords": 0,
                               "tag": nb_tag if nb else "body",
                               "boiler": hard}
                        blocks.append(cur)
                    # words counted here so the final pass need not
                    # re-split the assembled block text (parts are
                    # space-normalized, so the counts are identical)
                    wl = txt.split()
                    if wl:
                        norm = " ".join(wl)
                        cur["parts"].append(norm)
                        cur["chars"] += len(norm)
                        cur["nwords"] += len(wl)
                        if in_link:
                            cur["link_chars"] += len(norm)
        # skipped subtrees are still descended: node ids must stay
        # aligned with flatten's DFS order (spans carry node_id)
        children = node.children
        if children:
            for ch in reversed(children):
                stack.append((ch, nb, nb_tag, in_link, hard, skip))
    out = []
    for b in blocks:
        txt = " ".join(b["parts"])
        if not txt:
            continue
        out.append({
            "node_id": b["node_id"], "tag": b["tag"], "text": txt,
            "words": b["nwords"],
            "link_density": (b["link_chars"] / b["chars"]) if b["chars"] else 0.0,
            "boiler": b["boiler"],
            "heading": b["tag"] in _HEADING,
        })
    return out, idx


def extract_document(raw,
                     thresholds: ExtractThresholds | None = None) -> dict:
    """Full per-document kernel: tokenize → tree → segment → extract.
    Returns the output-row dict for the (url, extracted_text, spans, ...)
    table of SURVEY.md §1.3."""
    result = parse(raw)
    doc = result.document
    blocks, n_nodes = _segment_tree(doc)
    detach(doc)
    _classify(blocks, thresholds or _DEFAULT_THRESHOLDS)
    out = _assemble(blocks)
    out["n_nodes"] = n_nodes
    out["quirks"] = doc.quirks
    out["doctype_name"] = doc.doctype_name or ""
    # SURVEY §1.3 errors column: (code, line, col) structs, 1-based;
    # line/col resolution is lazy inside the tokenizer (newline index is
    # built only for errored documents)
    out["errors"] = [{"code": c, "line": ln, "col": co}
                     for c, ln, co in result.errors_lc()]
    return out
