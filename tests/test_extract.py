"""Extraction-layer tests: block scoring on hand-built documents +
golden-file determinism (SURVEY.md §5.3-4)."""

import pyarrow.parquet as pq

from zhtml_ray.html.extract import extract_document

ARTICLE = """<!DOCTYPE html><html><body>
<header><h1>Site Name</h1>
<nav><ul><li><a href=/a>Home</a><li><a href=/b>About</a>
<li><a href=/c>Contact</a></ul></nav></header>
<main><article>
<h2>The Article Title Sentence Here</h2>
<p>This is the first long paragraph of real article content with plenty of
words in it so that the density classifier will clearly mark it as content
rather than boilerplate, which requires a healthy number of words.</p>
<p>The second paragraph also carries substantial meaningful prose content
and continues the discussion at length with many words of actual text.</p>
</article></main>
<aside><div><a href=/x>related one</a></div><div><a href=/y>related two</a></div></aside>
<footer><a href=/p>Privacy</a> <a href=/t>Terms</a> <a href=/i>Imprint</a></footer>
</body></html>"""


def test_article_kept_boilerplate_dropped():
    out = extract_document(ARTICLE)
    text = out["extracted_text"]
    assert "first long paragraph" in text
    assert "second paragraph" in text
    assert "The Article Title" in text  # heading attaches to article
    assert "Privacy" not in text  # footer dropped
    assert "related one" not in text  # aside dropped
    assert "Home" not in text  # nav dropped


def test_spans_are_utf8_byte_offsets():
    out = extract_document("<!DOCTYPE html><body><p>héllo wörld plus enough "
                           "words words words words words words words words "
                           "words words words words words words</p>")
    text_bytes = out["extracted_text"].encode("utf-8")
    assert out["spans"], "expected at least one span"
    for s in out["spans"]:
        seg = text_bytes[s["start"]:s["end"]]
        seg.decode("utf-8")  # must fall on codepoint boundaries
        assert seg.strip()
    assert out["spans"][-1]["end"] == len(text_bytes)


def test_link_dense_block_dropped():
    html = ("<!DOCTYPE html><body><div>" +
            " ".join(f'<a href="/{i}">link {i} here</a>' for i in range(30)) +
            "</div><p>" + "word " * 45 + "</p></body>")
    out = extract_document(html)
    assert "link 5 here" not in out["extracted_text"]
    assert "word word" in out["extracted_text"]


def test_empty_and_hostile_inputs():
    assert extract_document(b"")["extracted_text"] == ""
    assert extract_document(b"\x00\xff\xfe garbage <<<>>>")["n_nodes"] > 0
    out = extract_document(b"<table><table><table>" * 100)
    assert out["n_nodes"] > 0


def test_error_codes_present():
    out = extract_document("<p>x<3</p>")
    assert "invalid-first-character-of-tag-name" in [
        e["code"] for e in out["errors"]]


def test_errors_struct_line_col():
    """SURVEY §1.3: errors carry 1-based (line, col); codes mirror the
    parser's error list in order. The '<3' error is recorded with the
    cursor on '3' (line 3, col 6 — tokenizer pos after consuming '<')."""
    from zhtml_ray.html.treebuilder import parse
    src = "<p>a</p>\n<p>b</p>\n<p>x<3</p>"
    out = extract_document(src)
    errs = out["errors"]
    assert [e["code"] for e in errs] == [c for c, _ in parse(src).errors]
    bad = [e for e in errs
           if e["code"] == "invalid-first-character-of-tag-name"]
    assert bad and bad[0]["line"] == 3 and bad[0]["col"] == 6
    # CRLF input: positions resolve against the NORMALIZED stream
    # (\r\n → \n), so the error still lands on line 2
    out2 = extract_document(b"<p>a</p>\r\n<p>x<3</p>")
    bad2 = [e for e in out2["errors"]
            if e["code"] == "invalid-first-character-of-tag-name"]
    assert bad2 and bad2[0]["line"] == 2 and bad2[0]["col"] == 6


def test_determinism_repeat_runs():
    from zhtml_ray.sources.pages import gen_html
    h = gen_html(7, "en")
    a = extract_document(h)
    b = extract_document(h)
    assert a == b


def test_matches_committed_golden():
    """The pinned oracle: single-process extraction must be byte-identical
    to the committed golden file (regenerate via tools/gen_golden.py only
    on deliberate semantics changes)."""
    from zhtml_ray.sources.pages import gen_pages_table
    golden = pq.read_table("tests/golden/golden_500.parquet")
    pages = gen_pages_table(500, seed=42)
    urls = pages["url"].to_pylist()
    htmls = pages["html"].to_pylist()
    gtext = dict(zip(golden["url"].to_pylist(),
                     golden["extracted_text"].to_pylist()))
    for url, h in zip(urls, htmls):
        out = extract_document(h)
        assert out["extracted_text"] == gtext[url], f"mismatch at {url}"


def test_fused_tree_path_equals_flat_path():
    """The fused DFS (_segment_tree, hot path) must produce the same
    blocks/spans as the array path (extract_from_flat) on varied pages."""
    from zhtml_ray.html.treebuilder import parse
    from zhtml_ray.html.dom import flatten
    from zhtml_ray.html import extract as ex
    from zhtml_ray.sources.pages import gen_pages_table

    t = gen_pages_table(40, start=123)
    for raw in t.column("html").to_pylist():
        doc = parse(raw).document
        a = ex.extract_from_flat(flatten(doc, with_attrs=False))
        blocks, n_nodes = ex._segment_tree(doc)
        ex._classify(blocks)
        b = ex._assemble(blocks)
        assert a["extracted_text"] == b["extracted_text"]
        assert a["spans"] == b["spans"]
        assert n_nodes == len(flatten(doc, with_attrs=False)["parent"])


def test_thresholds_config_default_pinned():
    """ST6: thresholds are per-actor config; the default instance must
    reproduce the pinned oracle byte-identically, and a non-default
    instance must actually change classification."""
    from zhtml_ray.html.extract import ExtractThresholds, extract_document
    html = (b"<html><body><p>" + b"word " * 30 + b"</p>"
            b"<p>short nav text</p></body></html>")
    base = extract_document(html)
    same = extract_document(html, thresholds=ExtractThresholds())
    assert base == same
    strict = extract_document(
        html, thresholds=ExtractThresholds(curr_words=1000, next_words=1000,
                                           prev_words=1000))
    assert strict["extracted_text"] != base["extracted_text"]


def test_classify_word_count_boundaries_pinned():
    """The NumWordsRules thresholds are STRICT inequalities (>16 words
    etc.) — pin the exact boundary so a refactor can't silently flip
    blocks at the threshold."""
    from zhtml_ray.html.extract import extract_document

    def doc_with(n_words):
        body = " ".join(f"w{i}" for i in range(n_words))
        return f"<html><body><div>{body}</div></body></html>".encode()

    # single block, no prev/next: content iff words > 16
    assert extract_document(doc_with(16))["extracted_text"] == ""
    assert extract_document(doc_with(17))["extracted_text"] != ""


def test_classify_link_density_boundary_pinned():
    from zhtml_ray.html.extract import extract_document
    words = " ".join(f"w{i}" for i in range(30))
    # all-link block: link density 1.0 > 1/3 → boilerplate
    linky = f"<div><a href=u>{words}</a></div>".encode()
    assert extract_document(b"<body>" + linky)["extracted_text"] == ""
    plain = f"<div>{words}</div>".encode()
    assert extract_document(b"<body>" + plain)["extracted_text"] != ""


def test_extract_leaves_no_cyclic_garbage():
    """Every parsed tree is freed by refcount: once extract_document (or
    the flat path, node_table.parse_flat) has read it, no reference
    cycle is left (builder and tokenizer dispatch through per-class
    tables; the tree is detached). With collection off, a sweep over the
    tree corpus, the golden pages and hostile shapes (index lane, foster
    parenting, adoption agency, foreign content, template, frameset)
    must leave nothing for gc.collect()."""
    import gc
    from tests.test_tree_corpus import _CASES
    from zhtml_ray.sources.pages import gen_pages_table
    from zhtml_ray.stages.node_table import parse_flat

    n = 600
    hostile = [
        "<div>" * 200 + "x" + "</div>" * 50,           # deep-stack index
        "<div><table>" + "x<i></i>" * n,                # foster parenting
        "<table><tr><td>a</td></tr>x<b>y</b></table>",
        "<b><p><i>a<div>b</b>c</div>d",                 # adoption agency
        "<a>" + "<em>" * 60 + "<div>" * 80 + "</a>",
        "<b><div>" + "<span>s</span>" * n + "</b>",
        "<svg><foreignObject><p>f</foreignObject><g>x</g></svg>",
        "<math><mtext><p>m</mtext><mi>x</mi></math>",
        "<template><td>q</template><template><tr>",
        "<p><frameset><frame>",                         # dropped body
        "".join(f"<b a={i}>" for i in range(40)) + "x",  # _AfeList upgrade
    ]
    docs = ([c["data"] for c in _CASES if c["fragment"] is None]
            + gen_pages_table(500, seed=42).column("html").to_pylist()
            + hostile)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for kernel in (extract_document, parse_flat):
            for d in docs:
                kernel(d)
            assert gc.collect() == 0, kernel.__name__
    finally:
        if was_enabled:
            gc.enable()
