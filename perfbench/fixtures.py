"""Seeded, cached workload fixtures for the benchmark.

Each workload is a directory of parquet shards (url, html, lang) that
the job reads, plus a ``reference.parquet`` with one row per input url:
the crc32(url || NUL || text) of the in-process ``extract_document``
result (the per-row checksum of ``stages/manifest.py``), its html
bytes, and whether the row is a planted near-copy. ``incremental_dedup``
also carries an at-rest LSH index built by one ``--neardup-index`` job
over a "previous crawl"; that index is built lazily inside a Ray session
(``ensure_index``) and copied fresh for every timed job.

Generation is untimed and cached under ``<work>/fixtures`` keyed by
(workload, seed, generator version, program fixture version, hash of the
extraction sources), so one seed always gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import shutil
import zlib

import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1
WORKLOADS = ("crawl_mix", "long_pages", "incremental_dedup")
LANGS = ("en", "es", "de", "fr", "zh")

# crawl_mix: fixture pages plus a ~1% adversarial slice
CRAWL_ROWS = 1500
CRAWL_SHARD_ROWS = 250
# long_pages: giant sizes in MB (the seed shuffles their placement),
# six in two dedicated shards and two hidden in one mixed shard
GIANT_MB = (0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
LONG_SMALL_SHARD_ROWS = 150
# gen_html(mega_bytes=M) yields about this many bytes per requested byte
_MEGA_YIELD = 0.72
# incremental_dedup: previous crawl (indexed), then the current crawl
# with planted near-copies of previous-crawl and earlier current docs
PREV_ROWS = 500
DEDUP_ROWS = 750
DEDUP_SHARD_ROWS = 125
PLANT_PREV = 30
PLANT_SAME = 30


def _source_hash() -> str:
    """Hash of the extraction kernel sources: a cached reference is
    reused only by the code that computed it."""
    import zhtml_ray.html as h
    d = os.path.dirname(h.__file__)
    sha = hashlib.sha1()
    for name in sorted(os.listdir(d)):
        if name.endswith(".py"):
            with open(os.path.join(d, name), "rb") as f:
                sha.update(f.read())
    return sha.hexdigest()[:10]


def fixture_dir(work: str, workload: str, seed: int) -> str:
    from zhtml_ray.sources.pages import FIXTURE_VERSION
    key = f"g{GEN_VERSION}-f{FIXTURE_VERSION}-{_source_hash()}"
    return os.path.join(work, "fixtures", f"{workload}-s{seed}-{key}")


# ------------------------------------------------------------ adversarial

def _page(body: str, head: str = "") -> str:
    return (f"<!DOCTYPE html><html><head><title>t</title>{head}</head>"
            f"<body><main><article><p>{body}</p></article></main></body></html>")


def _adversarial(kind: int, rng: random.Random) -> bytes:
    """One hostile page of shape ``kind`` (0..6), each a few tens of KB
    and parsing in well under a second."""
    n = rng.randint(1500, 2500)
    if kind == 0:    # deep nesting
        return _page("<div>" * n + "deep text" + "</div>" * (n // 2)).encode()
    if kind == 1:    # formatting + foster-parenting spam
        return _page("<div><table>" + "x<b><i>" * (n // 2)
                     + "</b>y<td>" * (n // 8)).encode()
    if kind == 2:    # entity spam
        ents = ("&amp;", "&lt;", "&#x41;", "&notin;", "&eacute", "&#169",
                "&ampersand", "&#0;", "&#x110000;")
        return _page(" ".join(rng.choice(ents) for _ in range(n))).encode()
    if kind == 3:    # windows-1252 declared
        words = " ".join(rng.choice(("caf\xe9", "na\xefve", "\x93q\x94",
                                     "\x80uro", "stra\xdfe"))
                         for _ in range(n))
        return _page(words, '<meta charset="windows-1252">') \
            .encode("latin-1")
    if kind == 4:    # invalid UTF-8, no declaration (sniffs to 1252)
        junk = (b"\xc3\x28", b"\xe2\x82", b"\xff", b"\xed\xa0\x80", b"ok ")
        body = b"".join(rng.choice(junk) for _ in range(n))
        return _page("bytes: ").encode().replace(b"bytes: ",
                                                 b"bytes: " + body)
    if kind == 5:    # script '<' spam
        return _page("after", "<script>" + "<" * (4 * n) + "<!--<"
                     * (n // 4) + "</script>").encode()
    # attribute spam: many distinct and duplicate attributes per tag
    tags = "".join(
        "<div " + " ".join(f'a{rng.randint(0, 400)}="{k}"'
                           for k in range(40)) + ">x</div>"
        for _ in range(n // 40))
    return _page(tags).encode()


# ------------------------------------------------------------ page sets

def _split(rows: list, n: int) -> list[list]:
    return [rows[i:i + n] for i in range(0, len(rows), n)]


def _crawl_rows(seed: int, n: int):
    from zhtml_ray.sources.pages import gen_html
    return [(f"https://site{i % 97}.example/p/{i}",
             gen_html(i, LANGS[i % len(LANGS)], seed=seed),
             LANGS[i % len(LANGS)]) for i in range(n)]


def _crawl_mix(seed: int) -> list[list[tuple]]:
    rng = random.Random(seed * 7919 + 1)
    rows = _crawl_rows(seed, CRAWL_ROWS)
    n_adv = CRAWL_ROWS // 100
    for k, pos in enumerate(sorted(rng.sample(range(CRAWL_ROWS), n_adv))):
        url = rows[pos][0].replace("/p/", "/adv/")
        rows[pos] = (url, _adversarial(k % 7, rng), "en")
    return _split(rows, CRAWL_SHARD_ROWS)


def _long_pages(seed: int) -> list[list[tuple]]:
    from zhtml_ray.sources.pages import gen_html
    rng = random.Random(seed * 7919 + 2)
    sizes = list(GIANT_MB)
    rng.shuffle(sizes)
    giants = []
    for k, mb in enumerate(sizes):
        i = 10_000_000 + k
        html = gen_html(i, LANGS[k % len(LANGS)], seed=seed,
                        mega_bytes=int(mb * 1e6 / _MEGA_YIELD))
        giants.append((f"https://big{k}.example/mega/{seed}/{k}", html,
                       LANGS[k % len(LANGS)]))
    small = _crawl_rows(seed, 3 * LONG_SMALL_SHARD_ROWS)
    shards = [giants[0:3], giants[3:6]]
    mixed = small[:LONG_SMALL_SHARD_ROWS]
    for g in giants[6:]:  # the hostile layout: giants among small rows
        mixed.insert(rng.randrange(len(mixed) + 1), g)
    shards.append(mixed)
    shards.append(small[LONG_SMALL_SHARD_ROWS:2 * LONG_SMALL_SHARD_ROWS])
    shards.append(small[2 * LONG_SMALL_SHARD_ROWS:])
    return shards


_SYLL = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "shi", "pa", "de", "zu",
         "gri", "mo", "an", "el", "tor", "qua", "bel", "ix", "or")
_MAIN_RE = re.compile(rb"<main>.*</main>", re.S)


def _unique_page(i: int, lang: str, seed: int) -> bytes:
    """A fixture page whose article text comes from a vocabulary of
    8,000 synthetic words, so two distinct docs share (almost) no word
    3-gram shingles and only planted copies collide in the LSH index."""
    from zhtml_ray.sources.pages import gen_html
    rng = random.Random((seed << 33) ^ (i * 2654435761))
    paras = []
    for _ in range(rng.randint(3, 6)):
        words = ["".join(rng.choice(_SYLL) for _ in range(3))
                 for _ in range(rng.randint(40, 80))]
        paras.append("<p>" + " ".join(words) + ".</p>")
    main = ("<main><article><h2>" + " ".join(paras[0].split()[1:4])
            + "</h2>" + "".join(paras) + "</article></main>").encode()
    return _MAIN_RE.sub(lambda _m: main, gen_html(i, lang, seed=seed), 1)


def _near_copy(html: bytes, rng: random.Random) -> bytes:
    """Same article with one word inserted and the nav/footer changed:
    Jaccard of the 3-shingle sets stays above 0.9."""
    html = html.replace(b"<p>", b"<p>" + rng.choice(_SYLL).encode()
                        + b"copy ", 1)
    return html.replace(b'href="/cat/0"', b'href="/cat/moved"')


def _incremental_dedup(seed: int):
    """(previous-crawl shards, current shards, planted copy urls)."""
    rng = random.Random(seed * 7919 + 3)

    def rows(n, start, host):
        return [(f"https://{host}{i % 89}.example/d/{i}",
                 _unique_page(i, LANGS[i % len(LANGS)], seed),
                 LANGS[i % len(LANGS)]) for i in range(start, start + n)]

    prev = rows(PREV_ROWS, 0, "old")
    cur = rows(DEDUP_ROWS, 500_000, "new")
    planted = set()
    # copies of previous-crawl docs land anywhere before the last shard
    last = DEDUP_ROWS - DEDUP_SHARD_ROWS
    for k, (src, pos) in enumerate(zip(rng.sample(prev, PLANT_PREV),
                                       rng.sample(range(last), PLANT_PREV))):
        url = f"https://mirror{k % 13}.example/m/{seed}/{k}"
        cur[pos] = (url, _near_copy(src[1], rng), src[2])
        planted.add(url)
    # copies of earlier current docs land in the last shard, so each
    # copy is either in a later partition than its original (dropped
    # by the index probe) or in the same one with a url sorting after
    # the original's (dropped by the within-partition rule)
    originals = [r for r in cur[:last] if r[0] not in planted]
    for k, src in enumerate(rng.sample(originals, PLANT_SAME)):
        url = src[0] + "?copy"
        cur[last + k * (DEDUP_SHARD_ROWS // PLANT_SAME)] = (
            url, _near_copy(src[1], rng), src[2])
        planted.add(url)
    return _split(prev, DEDUP_SHARD_ROWS), _split(cur, DEDUP_SHARD_ROWS), \
        planted


# ------------------------------------------------------------ building

def _write_shards(d: str, shards: list[list[tuple]]) -> None:
    os.makedirs(d, exist_ok=True)
    for k, rows in enumerate(shards):
        pq.write_table(pa.table({
            "url": pa.array([r[0] for r in rows], pa.string()),
            "html": pa.array([r[1] for r in rows], pa.binary()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
        }), os.path.join(d, f"pages-{k:04d}.parquet"))


def _reference_crcs(urls, htmls) -> list[int]:
    """In-process ``extract_document`` per row → crc32(url NUL text),
    with the job's error-row convention (empty text)."""
    from zhtml_ray.html.extract import extract_document
    crcs = []
    for u, h in zip(urls, htmls):
        try:
            text = extract_document(h)["extracted_text"]
        except Exception:  # noqa: BLE001 — mirrors the stage's isolation
            text = ""
        crcs.append(zlib.crc32(u.encode() + b"\x00" + text.encode()))
    return crcs


def build(work: str, workload: str, seed: int) -> str:
    """Materialize (once) the fixture directory for (workload, seed)
    and return it. Layout: ``input/`` shards, ``reference.parquet``,
    and for incremental_dedup ``prev/`` shards."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    d = fixture_dir(work, workload, seed)
    if os.path.exists(os.path.join(d, "reference.parquet")):
        return d
    tmp = d + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    planted: set = set()
    if workload == "crawl_mix":
        shards = _crawl_mix(seed)
    elif workload == "long_pages":
        shards = _long_pages(seed)
    else:
        prev, shards, planted = _incremental_dedup(seed)
        _write_shards(os.path.join(tmp, "prev"), prev)
    _write_shards(os.path.join(tmp, "input"), shards)
    urls = [r[0] for s in shards for r in s]
    htmls = [r[1] for s in shards for r in s]
    if len(set(urls)) != len(urls):
        raise RuntimeError(f"{workload} seed {seed}: duplicate urls")
    crcs = _reference_crcs(urls, htmls)
    pq.write_table(pa.table({
        "url": pa.array(urls, pa.string()),
        "crc": pa.array(crcs, pa.int64()),
        "html_bytes": pa.array([len(h) for h in htmls], pa.int64()),
        "planted": pa.array([u in planted for u in urls], pa.bool_()),
    }), os.path.join(tmp, "reference.parquet"))
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)
    return d


def input_files(fx: str) -> list[str]:
    d = os.path.join(fx, "input")
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def ensure_index(fx: str, run_job) -> str:
    """The incremental_dedup previous-crawl index, built once per
    fixture by ``run_job(argv)`` (one ``--neardup-index`` job over the
    ``prev/`` shards) inside the caller's Ray session."""
    idx = os.path.join(fx, "index")
    if os.path.exists(os.path.join(idx, "_lsh_config.json")) and \
            os.path.exists(os.path.join(fx, "index.done")):
        return idx
    shutil.rmtree(idx, ignore_errors=True)
    out = os.path.join(fx, "prev-out")
    shutil.rmtree(out, ignore_errors=True)
    rc = run_job(["--input", os.path.join(fx, "prev"), "--output", out,
                  "--neardup-index", idx])
    if rc != 0:
        raise RuntimeError(f"previous-crawl index job exited {rc}")
    shutil.rmtree(out, ignore_errors=True)
    open(os.path.join(fx, "index.done"), "w").close()
    return idx
