"""Deterministic synthetic Common-Crawl-style ``pages`` table (FIXTURES.md §1).

Schema per ``BASELINE.json:input_hint``:
    url: string, warc_ts: timestamp[us], html: binary, text: string, lang: string

The HTML generator exercises every tokenizer/tree region of the reference
(states enumerated at /root/reference/src/tokenizer.zig:18-99, parser
behaviors at /root/reference/src/parser.zig:146-280): entities
(named/numeric/semicolon-less), quote styles + duplicate attributes
(first-wins, /root/reference/src/tokenizer.zig:2418-2427), comment edge
forms, quirks DOCTYPEs (/root/reference/src/parser.zig:175-236), RCDATA /
RAWTEXT / script-data regions, NUL bytes, CRLF, UTF-8 multibyte,
misnesting (adoption agency / foster parenting), and a boilerplate layout
(nav/footer link-dense, one text-dense article) for the extraction layer.

Everything is seed-fixed (seed=42 by default) and derived per-row from
``(seed, i)`` so generation is order- and partitioning-independent.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import pyarrow as pa

_LANGS = ["en", "es", "de", "fr", "zh"]

# bump when the generated schema/content changes (cache-dir key component)
FIXTURE_VERSION = 2

_VOCAB = {
    "en": ("the quick brown fox jumps over lazy dog while autumn rivers carry "
           "bright leaves toward distant quiet harbors beneath silver morning light").split(),
    "es": ("el rapido zorro marron salta sobre perro perezoso mientras rios de "
           "otono llevan hojas brillantes hacia puertos tranquilos lejanos").split(),
    "de": ("der schnelle braune fuchs springt uber den faulen hund wahrend "
           "herbstliche flusse helle blatter zu fernen stillen hafen tragen").split(),
    "fr": ("le renard brun rapide saute par dessus le chien paresseux tandis que "
           "les rivieres portent des feuilles vers des ports lointains").split(),
    "zh": "秋天 的 河流 把 明亮 树叶 带向 遥远 安静 港口 快速 棕色 狐狸 跳过 懒惰 的 狗 银色 晨光 之下".split(),
}

_QUIRKS_DOCTYPES = [
    '<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN">',
    '<!DOCTYPE html PUBLIC "-//W3C//DTD HTML 3.2 Final//EN">',
    '<!DOCTYPE html SYSTEM "http://www.ibm.com/data/dtd/v11/ibmxhtml1-transitional.dtd">',
    "<!DOCTYPE html>",
    "<!doctype HTML>",
    "",  # missing doctype → quirks
]

_ENTITY_SNIPPETS = [
    "Fish &amp; chips &lt;fresh&gt;",
    "x &notin; A &amp;&amp; y",
    "smile &#x1F600; and &#169 legacy",  # semicolon-less legacy &#169
    "caf&eacute; cr&egrave;me &ampersand",  # &amp-prefix longest match
    "a &not b; &notit; done",  # semicolon-less named in text
]

_COMMENT_FORMS = [
    "<!---->", "<!-- -- -->", "<!--<!-->", "<!-- ok -->", "<?pi data?>", "<!weird>",
]


def _words(rng: random.Random, lang: str, n: int) -> str:
    v = _VOCAB[lang]
    return " ".join(rng.choice(v) for _ in range(n))


def _sentence(rng: random.Random, lang: str) -> str:
    s = _words(rng, lang, rng.randint(6, 16))
    return s[:1].upper() + s[1:] + "."


def _paragraph(rng: random.Random, lang: str, nsent: int | None = None) -> str:
    n = nsent if nsent is not None else rng.randint(2, 6)
    return " ".join(_sentence(rng, lang) for _ in range(n))


def _nav_links(rng: random.Random, lang: str, n: int) -> str:
    items = []
    for k in range(n):
        w = _words(rng, lang, rng.randint(1, 2))
        items.append(f'<li><a href="/cat/{k}">{w}</a></li>')
    return "<ul>" + "".join(items) + "</ul>"


def gen_html(i: int, lang: str, seed: int = 42, mega_bytes: int = 0) -> bytes:
    """Deterministic HTML for row ``i``. ``mega_bytes`` > 0 inflates the
    article to roughly that many bytes (skew-tail docs, FIXTURES.md §1.2)."""
    rng = random.Random((seed << 32) ^ i)
    doctype = _QUIRKS_DOCTYPES[i % len(_QUIRKS_DOCTYPES)]
    title = _words(rng, lang, 4)
    parts = [doctype]
    parts.append('<html lang="%s">' % lang)
    parts.append("<head>")
    parts.append(f"<title>{title} &amp; more</title>")
    parts.append("<style>body { color: #222; } /* <p> not a tag here */</style>")
    if i % 3 == 0:
        parts.append("<script><!-- var a = 1 < 2; --></script>")
    if i % 7 == 0:
        parts.append('<script><!--<script>var x="</script>";</script>-->x</script>')
    parts.append('<meta charset="utf-8"><META NAME="VIEWPORT" content=device-width>')
    parts.append("</head>")
    parts.append("<body>")
    # header/nav: boilerplate, high link density
    parts.append('<header id="top"><h1>%s</h1>' % title)
    parts.append('<nav class="menu">%s</nav></header>' % _nav_links(rng, lang, rng.randint(5, 10)))
    parts.append(_COMMENT_FORMS[i % len(_COMMENT_FORMS)])
    # main article: text-dense
    parts.append('<main><article CLASS="post" class="dup-ignored">')
    parts.append("<h2>%s</h2>" % _sentence(rng, lang))
    npara = rng.randint(3, 7)
    if mega_bytes:
        npara = max(npara, mega_bytes // 400)
    for p in range(npara):
        extra = ""
        if p == 0:
            extra = " " + _ENTITY_SNIPPETS[i % len(_ENTITY_SNIPPETS)]
        if p == 1 and i % 5 == 0:
            extra = " <b>bold <i>both</b> italic</i> tail"  # adoption-agency misnest
        parts.append("<p>%s%s</p>" % (_paragraph(rng, lang), extra))
    if i % 4 == 0:
        parts.append("<p>unclosed para<p>another<ul><li>one<li>two</ul>")
    if i % 6 == 0:
        parts.append("<table>stray<tr><td>cell %s</td></tr></table>" % _words(rng, lang, 2))
    if i % 9 == 0:
        parts.append("<textarea>raw <b>not-bold</b> &amp; text</textarea>")
    if i % 11 == 0:
        parts.append("<p>nul\x00byte and lone & amp and </> and <3 here</p>")
    parts.append("</article></main>")
    # sidebar: short linked blocks
    parts.append('<aside class="sidebar">')
    for k in range(rng.randint(3, 6)):
        parts.append('<div class="widget"><a href="/r/%d">%s</a> %s</div>'
                     % (k, _words(rng, lang, 2), _words(rng, lang, rng.randint(0, 3))))
    parts.append("</aside>")
    # footer: boilerplate
    parts.append('<footer><div SELFCLOSE=1 data-x = unquoted  >%s</div>%s</footer>'
                 % (_nav_links(rng, lang, 6), "<hr/><img src='/l.png' alt=логотип>"))
    parts.append("</body></html>")
    html = "\n".join(parts)
    if i % 13 == 0:
        html = html.replace("\n", "\r\n", 20)  # CRLF preprocessing coverage
    if i % 17 == 0:
        html = html.replace("\n", "\r", 5)  # lone-CR coverage
    return html.encode("utf-8")


def _naive_text(html: bytes) -> str:
    """CC-style pre-extraction 'text' field: crude tag strip (NOT the oracle)."""
    import re
    s = html.decode("utf-8", "replace")
    s = re.sub(r"(?is)<(script|style)[^>]*>.*?</\1>", " ", s)
    s = re.sub(r"(?s)<!--.*?-->", " ", s)
    s = re.sub(r"<[^>]+>", " ", s)
    return " ".join(s.split())


def gen_pages_table(n_rows: int, seed: int = 42, start: int = 0,
                    mega_docs: int = 0, mega_bytes: int = 5_000_000) -> pa.Table:
    """Rows ``start .. start+n_rows`` of the pages table, plus ``mega_docs``
    oversized skew-tail docs appended (urls suffixed ``/mega/{k}``)."""
    t0 = datetime(2024, 1, 1)
    urls, tss, htmls, texts, langs = [], [], [], [], []
    for i in range(start, start + n_rows):
        lang = _LANGS[i % len(_LANGS)]
        h = gen_html(i, lang, seed=seed)
        urls.append(f"https://site{i % 97}.example/p/{i}")
        tss.append(t0 + timedelta(seconds=i))
        htmls.append(h)
        texts.append(_naive_text(h))
        langs.append(lang)
    for k in range(mega_docs):
        i = start + n_rows + k
        h = gen_html(i, "en", seed=seed, mega_bytes=mega_bytes)
        urls.append(f"https://site{i % 97}.example/mega/{k}")
        tss.append(t0 + timedelta(seconds=i))
        htmls.append(h)
        texts.append("")
        langs.append("en")
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        # CC-index-style length column: enables row-group pruning for the
        # giant-doc skew path (stages/skew.py) without reading payloads
        "html_len": pa.array([len(h) for h in htmls], pa.int64()),
    })


def write_pages_dataset(out_dir: str, n_rows: int, seed: int = 42,
                        rows_per_file: int = 1000, mega_docs: int = 0) -> list[str]:
    """Write the pages table as one parquet file per ``rows_per_file`` rows
    (FIXTURES.md: partition-level resume/lineage is exercised). Returns paths."""
    import os
    import pyarrow.parquet as pq
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for start in range(0, n_rows, rows_per_file):
        n = min(rows_per_file, n_rows - start)
        shard = os.path.join(out_dir, f"pages-{start:08d}.parquet")
        if not os.path.exists(shard):  # idempotent: deterministic content
            tmp = shard + ".tmp"
            pq.write_table(gen_pages_table(n, seed=seed, start=start), tmp)
            os.replace(tmp, shard)
        paths.append(shard)
    if mega_docs:
        shard = os.path.join(out_dir, "pages-mega.parquet")
        if not os.path.exists(shard):
            tmp = shard + ".tmp"
            pq.write_table(
                gen_pages_table(0, seed=seed, start=n_rows, mega_docs=mega_docs), tmp)
            os.replace(tmp, shard)
        paths.append(shard)
    return paths


def plan_pages(paths_or_dir) -> dict:
    """The ``.parquet`` files of ``paths_or_dir`` → their read plan
    (``stages/skew.read_plan``), from footers read on the driver. Takes
    local files only: a directory of flat ``.parquet`` shards, a path
    or a list of paths (``files.expand``); no URIs, globs or nested
    partition dirs."""
    import pyarrow.parquet as pq

    from zhtml_ray.sources.files import expand
    from zhtml_ray.stages.skew import read_plan
    return read_plan([(f, pq.read_metadata(f))
                      for f in expand(paths_or_dir, (".parquet",))])


def read_pages(plan: dict, columns: list[str] | None = None):
    """Pages shards → Dataset through ONE footer-planned read: the
    ``plan`` (``plan_pages``, or ``stages/skew.read_plan`` over footers
    the caller already holds) fixes the file order and block count, so
    a small shard is one unsplit block and Ray fuses the read with the
    maps after it into one task per file."""
    import ray.data as rd
    return rd.read_parquet(plan["files"], columns=columns,
                           override_num_blocks=plan["read_blocks"])


def read_html_files(paths_or_dir):
    """Loose ``.html`` files → pages-shaped Dataset (url=file path,
    html=raw bytes) — SURVEY.md §2.1 S1's testing-time source
    (the reference's ``Tokenizer.initWithFile``,
    /root/reference/src/tokenizer.zig:127-137, generalized to a
    distributed read). Parquet shards remain the at-scale layout."""
    from zhtml_ray.sources.files import read_files

    def load(path: str) -> pa.Table:
        with open(path, "rb") as f:
            return pa.table({"url": pa.array([path], pa.string()),
                             "html": pa.array([f.read()], pa.binary())})

    return read_files(paths_or_dir, (".html", ".htm"), load)
