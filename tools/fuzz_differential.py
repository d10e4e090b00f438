"""Extended differential fuzz session: fast paths vs spec machine,
plus full-parse crash/invariant sweep.

    python tools/fuzz_differential.py [seconds] [seed]

Four oracles per random soup:
  1. DATA fused-regex fast path vs the disabled-fast spec machine
     (token streams coalesced-identical + error-code multisets equal
     — the TestFastPathEquivalence differential, run at fuzz scale).
  2. RAW fused scanning (_RAW_FUSED_ON) vs the per-'<' spec lanes for
     RCDATA/RAWTEXT/script-data initial states.
  3. Full parse() + extraction on every soup: must not raise, and the
     DOM must satisfy structural invariants (single <html> root with
     <head>+<body> children present, parent/child links consistent).
  4. The tree builder's in-body lane (treebuilder._LANE_ON) vs the
     insertion-mode machine alone: parse() and the iteration's
     parse_fragment() must give the same serialized tree and the same
     error list, codes and positions both.

Soups are grammar-biased (tags, attrs, entities, comments, doctypes,
script/style content, foreign content, CR/NUL salt) — the mix that
historically shook out state-machine edges. Prints a one-line JSON
summary; nonzero exit on any divergence."""

from __future__ import annotations

import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

FRAGS = [
    "<a ", "<a>", "</a>", "<b>", "</b>", "<div ", "<p>", "</p>",
    "href=", "x='1'", 'y="2"', "z=3", "w", "/>", ">", "<", "=",
    "&amp;", "&not", "&notin;", "&#65;", "&#x41;", "&#", "&",
    "<!--", "-->", "--!>", "<!---->", "<!doctype html>", "<!DOCTYPE ",
    "<![CDATA[", "]]>", "<?php ", "<script>", "</script>", "<style>",
    "</style>", "<title>", "</title>", "<textarea>", "</textarea>",
    "<svg>", "</svg>", "<math>", "</math>", "<mi>", "<foreignObject>",
    "<table>", "<tr>", "<td>", "</table>", "<template>", "</template>",
    "<select>", "<option>", "<li>", "<dd>", "<button>", "<form>",
    "<frameset>", "<noscript>", "<caption>", "<colgroup>", "<col>",
    # in-body lane shapes: plain, void, block and formatting tags with
    # their end tags
    "<div>", "</div>", "<span>", "</span>", "<li>", "</li>", "<ul>",
    "</ul>", "<i>", "</i>", "<em>", "</em>", "<nobr>", "</nobr>",
    "<h1>", "</h1>", "<img>", "<br>", "</br>", "<section>", "</section>",
    "text ", "x", " ", "\t", "\n", "\r", "\r\n", "\x00", "'", '"',
    "`", "!", "?", "/", "PUBLIC", "SYSTEM", "<!--<script>", "<b/>",
    # unicode salt: combining, astral, noncharacter, C1, BMP CJK,
    # private-use plane 16, U+FFFD itself
    "é", "日本語", "́", "\U0001F600", "﷐", "￿",
    "\U00100000", "\x85", "�", "ü=ö", "<é>", "&ümlaut;",
    # lone surrogates (direct-string API only; the bytes lane round-
    # trips them through surrogatepass utf-8 → strict-decode fallback)
    "\ud800", "\udc00",
]

FRAGMENT_CONTEXTS = [
    ("div", 0), ("title", 0), ("textarea", 0), ("style", 0),
    ("script", 0), ("plaintext", 0), ("table", 0), ("tr", 0),
    ("td", 0), ("select", 0), ("template", 0), ("html", 0),
    ("svg", 2), ("math", 1), ("mi", 1), ("foreignObject", 2),
]


def soup(rng: random.Random) -> str:
    n = rng.randint(1, 24)
    return "".join(rng.choice(FRAGS) for _ in range(n))


def main():
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 120.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1234
    rng = random.Random(seed)

    from tests.test_tokenizer import TestFastPathEquivalence as FP
    from zhtml_ray.html import tokenizer as tkz
    from zhtml_ray.html import treebuilder as tb
    from zhtml_ray.html.dom import serialize
    from zhtml_ray.html.encoding import sniff_decode
    from zhtml_ray.html.extract import extract_document
    from zhtml_ray.html.treebuilder import parse, parse_fragment

    def raw_differential(s: str, state: str, last: str):
        def run():
            t = tkz.Tokenizer(s, initial_state=state, last_start_tag=last,
                              collect_input_errors=False)
            toks = list(t.tokens())
            return toks, sorted(c for c, _ in t.errors)

        fast = run()
        saved = tkz._RAW_FUSED_ON
        tkz._RAW_FUSED_ON = False
        try:
            slow = run()
        finally:
            tkz._RAW_FUSED_ON = saved
        return (FP._coalesce(fast[0]), fast[1]) == \
            (FP._coalesce(slow[0]), slow[1])

    def lane_differential(s: str, ctx: str, ns: int) -> str | None:
        def run():
            r = parse(s)
            f = parse_fragment(s, ctx, context_ns=ns)
            return (serialize(r.document), r.errors,
                    serialize(f.document), f.errors)

        on = run()
        tb._LANE_ON = False
        try:
            off = run()
        finally:
            tb._LANE_ON = True
        if on[:2] != off[:2]:
            return "document"
        if on[2:] != off[2:]:
            return "fragment"
        return None

    from zhtml_ray.html.dom import ELEMENT

    def dom_invariants(s: str) -> str | None:
        res = parse(s)
        doc = res.document
        stack = [doc]
        while stack:
            n = stack.pop()
            for c in getattr(n, "children", []):
                if c.parent is not n:
                    return "broken parent link"
                stack.append(c)
        roots = [c for c in doc.children
                 if c.kind == ELEMENT]  # DOCTYPE nodes also carry
        # name "html" — only ELEMENT children count as roots
        if len(roots) != 1 or roots[0].name != "html":
            return f"roots {[(c.kind, c.name) for c in doc.children]}"
        extract_document(s.encode("utf-8", "surrogatepass"))
        return None

    t0 = time.time()
    i = 0
    raw_states = [("rcdata", "title"), ("rawtext", "style"),
                  ("script_data", "script")]
    while time.time() - t0 < budget:
        s = soup(rng)
        i += 1
        ft, fe = FP._fast_tokenize(s)
        st, se = FP._slow_tokenize(s)
        if (FP._coalesce(ft), fe) != (FP._coalesce(st), se):
            print(json.dumps({"fail": "data-fused divergence",
                              "input": s, "iter": i}))
            sys.exit(1)
        state, last = raw_states[i % 3]
        if not raw_differential(s, state, last):
            print(json.dumps({"fail": "raw-fused divergence",
                              "input": s, "state": state, "iter": i}))
            sys.exit(1)
        bad = dom_invariants(s)
        if bad:
            print(json.dumps({"fail": f"dom invariant: {bad}",
                              "input": s, "iter": i}))
            sys.exit(1)
        # fragment lane: every context must parse without raising and
        # keep parent links consistent
        ctx, ns = FRAGMENT_CONTEXTS[i % len(FRAGMENT_CONTEXTS)]
        bad = lane_differential(s, ctx, ns)
        if bad:
            print(json.dumps({"fail": f"in-body lane divergence ({bad})",
                              "input": s, "ctx": ctx, "iter": i}))
            sys.exit(1)
        fres = parse_fragment(s, ctx, context_ns=ns)
        stack = [fres.document]
        while stack:
            n = stack.pop()
            for c in getattr(n, "children", []):
                if c.parent is not n:
                    print(json.dumps({"fail": "fragment parent link",
                                      "input": s, "ctx": ctx,
                                      "iter": i}))
                    sys.exit(1)
                stack.append(c)
        # bytes lane: mangled encodings must sniff-decode and extract
        # without raising (crawl bytes are never trusted)
        raw = s.encode("utf-8", "surrogatepass")
        if i % 2:
            cut = rng.randrange(len(raw) + 1)
            raw = raw[:cut] + bytes([rng.randrange(256)]) + raw[cut:]
        if i % 5 == 0:
            raw = b"\xff\xfe" + raw  # UTF-16LE BOM over non-16 bytes
        sniff_decode(raw)
        extract_document(raw)
    print(json.dumps({"metric": "fuzz_differential", "iterations": i,
                      "seconds": round(time.time() - t0, 1),
                      "seed": seed, "failures": 0}))


if __name__ == "__main__":
    main()
