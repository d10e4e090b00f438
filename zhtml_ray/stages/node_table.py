"""DOM-derived tables beyond extraction: the flattened node table
(SURVEY.md §1.3) and per-document projections (links/images/forms —
the collections the reference's Document tracks,
/root/reference/src/node.zig:28-33, here derived columns instead of
mutable lists).
"""

from __future__ import annotations

import pyarrow as pa

from zhtml_ray.html.dom import ELEMENT, TEXT, flatten_detached
from zhtml_ray.html.treebuilder import parse


def parse_flat(html) -> dict:
    """Parse one page (None reads as empty) and flatten its tree with
    attributes (``dom.flatten`` columns). The tree is detached after the
    flatten, so it is freed by refcount, not by the cyclic collector."""
    return flatten_detached(parse(html or b"").document)


NODE_TYPE = pa.list_(pa.struct([
    ("parent", pa.int32()), ("kind", pa.int8()), ("tag", pa.string()),
    ("ns", pa.int8()), ("depth", pa.int32()),
    ("attr_keys", pa.list_(pa.string())),
    ("attr_vals", pa.list_(pa.string())),
    ("text", pa.string()),
]))


class NodeTableBatch:
    """pages → (url, nodes:list<struct>) — the full DOM as a columnar,
    index-linked table per document (debug / downstream-analysis sink)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        htmls = batch["html"].to_pylist()
        # accumulate the flat per-node columns once per batch and build
        # the list<struct> column from offsets — no per-node Python
        # dicts (the dict construction dominated the old wall time)
        cols: dict[str, list] = {f.name: [] for f in NODE_TYPE.value_type}
        offsets = [0]
        for h in htmls:
            try:
                flat = parse_flat(h)
                # validate BEFORE extending the shared accumulators: a
                # ragged flatten output must isolate THIS document, not
                # misalign the whole batch's columns (per-row isolation
                # contract of the except below)
                n = len(flat["parent"])
                vals = [flat[f.name] for f in NODE_TYPE.value_type]
                if any(len(v) != n for v in vals):
                    raise ValueError("ragged flatten output")
                for f, v in zip(NODE_TYPE.value_type, vals):
                    cols[f.name].extend(v)
            except Exception:  # noqa: BLE001 per-row isolation
                pass  # equal adjacent offsets → empty node list
            offsets.append(len(cols["parent"]))
        struct = pa.StructArray.from_arrays(
            [pa.array(cols[f.name], f.type) for f in NODE_TYPE.value_type],
            fields=list(NODE_TYPE.value_type))
        nodes = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         struct)
        return pa.table({
            "url": pc.cast(batch["url"].combine_chunks(), pa.string()),
            "nodes": nodes})


class LinksBatch:
    """pages → exploded out-link table (url, href, anchor_text, rel) —
    CC-style web-graph edge extraction from the parsed DOM."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls_out, hrefs, anchors, rels = [], [], [], []
        for url, h in zip(batch["url"].to_pylist(),
                          batch["html"].to_pylist()):
            try:
                flat = parse_flat(h)
            except Exception:  # noqa: BLE001
                continue
            parent = flat["parent"]
            kind = flat["kind"]
            tag = flat["tag"]
            text = flat["text"]
            n = len(parent)
            # for each <a>: href attr + concatenated descendant text
            depth = flat["depth"]
            anchor_parts: dict[int, list[str]] = {}
            a_meta: dict[int, tuple[str, str]] = {}
            stack: list[int] = []
            for i in range(n):
                while stack and depth[i] <= depth[stack[-1]]:
                    stack.pop()
                if kind[i] == ELEMENT and tag[i] == "a":
                    ks = flat["attr_keys"][i]
                    vs = flat["attr_vals"][i]
                    attrs = dict(zip(ks, vs))
                    a_meta[i] = (attrs.get("href", ""), attrs.get("rel", ""))
                    anchor_parts[i] = []
                    stack.append(i)
                elif kind[i] == TEXT and stack:
                    for a_idx in stack:
                        anchor_parts[a_idx].append(text[i])
            for i, (href, rel) in a_meta.items():
                urls_out.append(url)
                hrefs.append(href)
                anchors.append(" ".join(" ".join(anchor_parts[i]).split()))
                rels.append(rel)
        return pa.table({
            "url": pa.array(urls_out, pa.string()),
            "href": pa.array(hrefs, pa.string()),
            "anchor_text": pa.array(anchors, pa.string()),
            "rel": pa.array(rels, pa.string()),
        })


class TokenStatsBatch:
    """pages → per-document token-stream statistics (counts by token
    kind + parse-error count) — the tokenizer-level debug output of
    SURVEY.md §1.3 as cheap aggregates instead of a huge token column."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from zhtml_ray.html.tokenizer import Tokenizer
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        cols = {"url": urls, "n_start_tags": [], "n_end_tags": [],
                "n_comments": [], "n_chars": [], "n_doctypes": [],
                "n_errors": []}
        for h in htmls:
            counts = {"StartTag": 0, "EndTag": 0, "Comment": 0,
                      "Character": 0, "DOCTYPE": 0}
            t = Tokenizer(h or b"")
            try:
                for tok in t.tokens():
                    if tok[0] == "Character":
                        counts["Character"] += len(tok[1])
                    else:
                        counts[tok[0]] += 1
            except Exception:  # noqa: BLE001
                pass
            cols["n_start_tags"].append(counts["StartTag"])
            cols["n_end_tags"].append(counts["EndTag"])
            cols["n_comments"].append(counts["Comment"])
            cols["n_chars"].append(counts["Character"])
            cols["n_doctypes"].append(counts["DOCTYPE"])
            cols["n_errors"].append(len(t.errors))
        return pa.table({k: pa.array(v) for k, v in cols.items()})


class ImagesBatch:
    """pages → exploded image table (url, src, alt, title) — the
    reference Document's images collection as a derived table
    (/root/reference/src/node.zig:28-33), CC-style media-catalog
    extraction from the parsed DOM."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls_out, srcs, alts, titles = [], [], [], []
        for url, h in zip(batch["url"].to_pylist(),
                          batch["html"].to_pylist()):
            try:
                flat = parse_flat(h)
            except Exception:  # noqa: BLE001
                continue
            kind = flat["kind"]
            tag = flat["tag"]
            for i in range(len(kind)):
                if kind[i] == ELEMENT and tag[i] == "img":
                    attrs = dict(zip(flat["attr_keys"][i],
                                     flat["attr_vals"][i]))
                    urls_out.append(url)
                    srcs.append(attrs.get("src", ""))
                    alts.append(attrs.get("alt", ""))
                    titles.append(attrs.get("title", ""))
        return pa.table({
            "url": pa.array(urls_out, pa.string()),
            "src": pa.array(srcs, pa.string()),
            "alt": pa.array(alts, pa.string()),
            "title": pa.array(titles, pa.string()),
        })


class PageMetaBatch:
    """pages → one metadata row per document (url, title, lang,
    charset, viewport, description, canonical, n_meta) — the <head>
    projection a crawl catalog is built from. ``title`` is the
    whitespace-normalized descendant text of the FIRST <title>
    element (RCDATA through the real tokenizer, entities decoded);
    attribute lookups take the FIRST matching element, matching the
    first-wins attribute rules of the tree builder. Missing values
    are empty strings (never null) so the oracle compare is exact."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cols = {"title": [], "lang": [], "charset": [], "viewport": [],
                "description": [], "canonical": [], "n_meta": []}
        for h in batch["html"].to_pylist():
            row = {"title": "", "lang": "", "charset": "", "viewport": "",
                   "description": "", "canonical": "", "n_meta": 0}
            try:
                flat = parse_flat(h)
                kind = flat["kind"]
                tag = flat["tag"]
                depth = flat["depth"]
                text = flat["text"]
                title_depth = -1
                title_parts: list[str] | None = None
                title_done = False
                for i in range(len(kind)):
                    if title_parts is not None and not title_done:
                        if kind[i] == TEXT and depth[i] > title_depth:
                            title_parts.append(text[i])
                        elif depth[i] <= title_depth:
                            title_done = True
                    if kind[i] != ELEMENT:
                        continue
                    t = tag[i]
                    if t == "title" and title_parts is None:
                        title_depth = depth[i]
                        title_parts = []
                        continue
                    if t not in ("html", "meta", "link"):
                        continue
                    attrs = dict(zip(flat["attr_keys"][i],
                                     flat["attr_vals"][i]))
                    if t == "html":
                        if not row["lang"]:
                            row["lang"] = attrs.get("lang", "")
                    elif t == "meta":
                        row["n_meta"] += 1
                        if not row["charset"] and "charset" in attrs:
                            row["charset"] = attrs["charset"]
                        name = attrs.get("name", "").lower()
                        if name == "viewport" and not row["viewport"]:
                            row["viewport"] = attrs.get("content", "")
                        elif name == "description" and not row["description"]:
                            row["description"] = attrs.get("content", "")
                    elif t == "link":
                        rel = attrs.get("rel", "").lower()
                        if rel == "canonical" and not row["canonical"]:
                            row["canonical"] = attrs.get("href", "")
                if title_parts is not None:
                    row["title"] = " ".join("".join(title_parts).split())
            except Exception:  # noqa: BLE001 per-row isolation
                pass
            for k, v in row.items():
                cols[k].append(v)
        return pa.table({
            "url": pc.cast(batch["url"].combine_chunks(), pa.string()),
            "title": pa.array(cols["title"], pa.string()),
            "lang": pa.array(cols["lang"], pa.string()),
            "charset": pa.array(cols["charset"], pa.string()),
            "viewport": pa.array(cols["viewport"], pa.string()),
            "description": pa.array(cols["description"], pa.string()),
            "canonical": pa.array(cols["canonical"], pa.string()),
            "n_meta": pa.array(cols["n_meta"], pa.int64()),
        })


class TableCellsBatch:
    """pages → exploded HTML-table cell table (url, table_idx,
    row_idx, col_idx, header, cell_text) — structured-data extraction
    from the parsed DOM, on top of the tree builder's real table
    semantics (implied tbody/tr synthesis, foster-parented stray text
    landing OUTSIDE the table, section ordering). Contract: cells
    attach to the nearest enclosing <tr>, rows to the nearest
    enclosing <table> (nested tables number independently in document
    order; their cells do NOT leak into the outer cell's text —
    nearest-cell-only text attribution, same rule as LinksBatch
    anchors). ``col_idx`` is the cell's ordinal within its row (no
    colspan expansion — spans are kept as attributes upstream, the
    consumer decides grid semantics)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls_out: list[str] = []
        t_idx: list[int] = []
        r_idx: list[int] = []
        c_idx: list[int] = []
        header: list[bool] = []
        cell_text: list[str] = []
        for url, h in zip(batch["url"].to_pylist(),
                          batch["html"].to_pylist()):
            try:
                flat = parse_flat(h)
            except Exception:  # noqa: BLE001
                continue
            kind = flat["kind"]
            tag = flat["tag"]
            depth = flat["depth"]
            text = flat["text"]
            n_tables = 0
            # stacks of mutable frames; nesting is strict so one
            # depth-ordered pop pass per stack suffices
            tstack: list[list] = []   # [depth, table_idx, next_row]
            rstack: list[list] = []   # [depth, table_idx, row_idx, next_col]
            cstack: list[list] = []   # [depth, t, r, c, is_th, parts]

            def _flush_cell(fr):
                urls_out.append(url)
                t_idx.append(fr[1])
                r_idx.append(fr[2])
                c_idx.append(fr[3])
                header.append(fr[4])
                cell_text.append(" ".join("".join(fr[5]).split()))

            for i in range(len(kind)):
                d = depth[i]
                while cstack and d <= cstack[-1][0]:
                    _flush_cell(cstack.pop())
                while rstack and d <= rstack[-1][0]:
                    rstack.pop()
                while tstack and d <= tstack[-1][0]:
                    tstack.pop()
                if kind[i] == ELEMENT:
                    t = tag[i]
                    if t == "table":
                        tstack.append([d, n_tables, 0])
                        n_tables += 1
                    elif t == "tr" and tstack:
                        tf = tstack[-1]
                        rstack.append([d, tf[1], tf[2], 0])
                        tf[2] += 1
                    elif t in ("td", "th") and rstack:
                        rf = rstack[-1]
                        cstack.append([d, rf[1], rf[2], rf[3],
                                       t == "th", []])
                        rf[3] += 1
                elif kind[i] == TEXT and cstack:
                    cstack[-1][5].append(text[i])
            while cstack:
                _flush_cell(cstack.pop())
        return pa.table({
            "url": pa.array(urls_out, pa.string()),
            "table_idx": pa.array(t_idx, pa.int64()),
            "row_idx": pa.array(r_idx, pa.int64()),
            "col_idx": pa.array(c_idx, pa.int64()),
            "header": pa.array(header, pa.bool_()),
            "cell_text": pa.array(cell_text, pa.string()),
        })


class FormsBatch:
    """pages → exploded form table (url, action, method, n_inputs) —
    the reference Document's forms collection
    (/root/reference/src/node.zig:28-33). ``n_inputs`` counts
    input/select/textarea/button DESCENDANTS of each form via the
    same depth-stack walk as LinksBatch's anchor-text scan. The
    driver fixture contains no <form> markup, so this projection is
    pytest-gated on synthetic pages rather than oracled (a 0-row
    driver gate would certify nothing)."""

    _FIELD_TAGS = frozenset(("input", "select", "textarea", "button"))

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls_out, actions, methods, n_inputs = [], [], [], []
        for url, h in zip(batch["url"].to_pylist(),
                          batch["html"].to_pylist()):
            try:
                flat = parse_flat(h)
            except Exception:  # noqa: BLE001
                continue
            kind = flat["kind"]
            tag = flat["tag"]
            depth = flat["depth"]
            counts: dict[int, int] = {}
            meta: dict[int, tuple[str, str]] = {}
            stack: list[int] = []
            for i in range(len(kind)):
                while stack and depth[i] <= depth[stack[-1]]:
                    stack.pop()
                if kind[i] != ELEMENT:
                    continue
                if tag[i] == "form":
                    attrs = dict(zip(flat["attr_keys"][i],
                                     flat["attr_vals"][i]))
                    meta[i] = (attrs.get("action", ""),
                               attrs.get("method", ""))
                    counts[i] = 0
                    stack.append(i)
                elif tag[i] in self._FIELD_TAGS:
                    for f_idx in stack:
                        counts[f_idx] += 1
            for i, (action, method) in meta.items():
                urls_out.append(url)
                actions.append(action)
                methods.append(method)
                n_inputs.append(counts[i])
        return pa.table({
            "url": pa.array(urls_out, pa.string()),
            "action": pa.array(actions, pa.string()),
            "method": pa.array(methods, pa.string()),
            "n_inputs": pa.array(n_inputs, pa.int64()),
        })
