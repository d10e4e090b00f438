"""Property-based robustness: untrusted web bytes must never crash the
kernel (SURVEY.md §4.3 "per-doc failure isolation" — here we assert the
kernel itself is total, so the per-row try/except in the batch UDF is a
second line of defense, not load-bearing for ordinary garbage)."""

from hypothesis import given, settings, strategies as st

from zhtml_ray.html.extract import extract_document
from zhtml_ray.html.tokenizer import Tokenizer


# tag soup fragments mixed with arbitrary text, bytes and charrefs
_soup = st.lists(st.one_of(
    st.text(max_size=40),
    st.sampled_from([
        "<", ">", "</", "<!", "<!--", "-->", "<!doctype", "<![CDATA[", "]]>",
        "<p", "<p>", "</p>", "<table>", "<td>", "</table>", "<b>", "</b>",
        "<svg>", "<math>", "<script>", "</script>", "<style>", "</style>",
        "<a href='", "<a href=\"", "=", "'", "\"", "/>", "&", "&amp", "&#",
        "&#x", ";", "\x00", "\r\n", "<template>", "</template>",
        "<select>", "<textarea>", "<title>", "<frameset>", "<li>", "<dd>",
    ])), max_size=30).map("".join)


@settings(max_examples=150, deadline=None)
@given(_soup)
def test_extract_never_raises_on_tag_soup(s):
    out = extract_document(s)
    assert isinstance(out["extracted_text"], str)
    assert out["n_nodes"] >= 1


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=300))
def test_extract_never_raises_on_bytes(b):
    out = extract_document(b)
    assert isinstance(out["extracted_text"], str)


@settings(max_examples=100, deadline=None)
@given(_soup)
def test_extraction_deterministic(s):
    a = extract_document(s)
    b = extract_document(s)
    assert a["extracted_text"] == b["extracted_text"]
    assert a["spans"] == b["spans"]
    assert a["errors"] == b["errors"]


@settings(max_examples=100, deadline=None)
@given(_soup)
def test_tokenizer_terminates_and_covers_input(s):
    t = Tokenizer(s)
    n_toks = sum(1 for _ in t.tokens())
    assert t.pos == t.n  # consumed everything, no infinite loop
    assert n_toks >= 0


@settings(max_examples=100, deadline=None)
@given(_soup)
def test_spans_index_into_extracted_text(s):
    out = extract_document(s)
    raw = out["extracted_text"].encode("utf-8")
    for sp in out["spans"]:
        assert 0 <= sp["start"] <= sp["end"] <= len(raw)
        # span decodes cleanly back to text (offsets on codepoint edges)
        raw[sp["start"]:sp["end"]].decode("utf-8")


@settings(max_examples=120, deadline=None)
@given(_soup)
def test_fused_segment_tree_equals_flat_on_soup(s):
    """The fused DFS hot path and the array path must agree on arbitrary
    tag soup, not just fixture pages."""
    from zhtml_ray.html import extract as ex
    from zhtml_ray.html.dom import flatten
    from zhtml_ray.html.treebuilder import parse

    doc = parse(s).document
    a = ex.extract_from_flat(flatten(doc, with_attrs=False))
    blocks, n_nodes = ex._segment_tree(doc)
    ex._classify(blocks)
    b = ex._assemble(blocks)
    assert a["extracted_text"] == b["extracted_text"]
    assert a["spans"] == b["spans"]
    assert n_nodes == len(flatten(doc, with_attrs=False)["parent"])


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=400))
def test_pdf_batch_udf_never_raises(b):
    import pyarrow as pa
    from zhtml_ray.functions.pdf import PdfExtractBatch
    out = PdfExtractBatch()(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "pdf": pa.array([b"%PDF-1.4\n" + b], pa.binary()),
    }))
    assert out.num_rows == 1


class TestTermination:
    """Watchdog fuzz: the tokenizer+treebuilder must TERMINATE on any
    byte soup — the script-data '-->' family harbored non-advancing
    loops (fixed; a DoS on untrusted web bytes). Seeds are biased
    toward the state-machine areas where a scan can fail to advance:
    escaped script data, comments, CDATA, doctypes, rawtext end tags."""

    FRAGMENTS = [
        "<script>", "</script>", "<SCRIPT>", "</SCRIPT >", "<!--", "-->",
        "--!>", "<!-->", "<!---", "<scripty>", "<script x>", ">", "-",
        "<", "</", "<![CDATA[", "]]>", "<!DOCTYPE", "PUBLIC", "SYSTEM",
        '"', "'", "<title>", "</title", "<style>", "</style/>", "&",
        "&#", "&#x", "&amp", ";", "\x00", "a", " ", "\n", "=", "!",
        "<svg>", "</svg>", "<textarea>", "<plaintext>", "<template>",
        "<table>", "<td>", "</p>", "<xmp>",
    ]

    def _soup(self, rng, k):
        return "".join(rng.choice(self.FRAGMENTS) for _ in range(k))

    def test_random_soups_terminate(self):
        import random
        import signal
        from zhtml_ray.html.treebuilder import parse

        def alarm(sig, frame):
            raise TimeoutError("parser failed to terminate")

        old = signal.signal(signal.SIGALRM, alarm)
        try:
            rng = random.Random(1234)
            for i in range(300):
                src = self._soup(rng, rng.randint(2, 60))
                signal.alarm(10)
                parse(src)
                signal.alarm(0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_adversarial_script_soups_terminate(self):
        import itertools
        import signal
        from zhtml_ray.html.tokenizer import tokenize

        def alarm(sig, frame):
            raise TimeoutError("tokenizer failed to terminate")

        old = signal.signal(signal.SIGALRM, alarm)
        try:
            parts = ["<!--", "-->", "--!>", "<script>", "</script>", ">",
                     "-", "<", "x"]
            for combo in itertools.product(parts, repeat=3):
                src = "<script>" + "".join(combo)
                signal.alarm(5)
                tokenize(src)
                signal.alarm(0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


class TestStructuredSoupDifferential:
    """Structured tag-soup differential fuzz (bounded port of the
    offline harness that ran 380k iterations / 0 failures in r3):
    random streams of real tags, attributes, charrefs, comments,
    doctypes and CDATA, checking fast-vs-slow tokenizer equivalence,
    tree + fragment determinism, and extraction determinism, all under
    a termination watchdog."""

    TAGS = ["a", "b", "i", "p", "div", "span", "table", "tr", "td",
            "th", "caption", "select", "option", "optgroup", "form",
            "input", "template", "script", "style", "title",
            "textarea", "svg", "math", "mi", "foreignObject", "desc",
            "annotation-xml", "frameset", "frame", "noscript",
            "noframes", "ul", "li", "dd", "dt", "button", "marquee",
            "object", "applet", "nobr", "font", "ruby", "rt", "rp",
            "hr", "br", "head", "body", "html", "col", "colgroup",
            "tbody", "thead", "tfoot", "plaintext", "xmp", "pre",
            "listing", "iframe", "noembed", "keygen", "image",
            "rb", "rtc", "h1", "h2", "address", "section", "basefont",
            "bgsound", "link", "meta"]
    ATTRS = ["href", "type", "class", "xlink:href", "xml:lang",
             "definitionurl", "encoding"]
    TEXTS = ["x", "  ", "&amp;", "&notin;", "&#x41;", "&#0;", "\x00",
             "]]>", "--", "<!--c-->", "<![CDATA[d]]>",
             "<!doctype html>", "<?pi?>", "<!bogus>", "\r\n",
             "&#x110000;", "&GT", "a&b"]

    def _soup(self, rng, n):
        out = []
        for _ in range(n):
            r = rng.random()
            if r < 0.35:
                t = rng.choice(self.TAGS)
                if rng.random() < 0.3:
                    a = rng.choice(self.ATTRS)
                    v = rng.choice(["x", "&amp;", "a<b", '"q"', "'s'",
                                    "", "hidden"])
                    q = rng.choice(['"', "'", ""])
                    sl = "/" if rng.random() < 0.15 else ""
                    out.append(f"<{t} {a}={q}{v}{q}{sl}>")
                else:
                    out.append(f"<{t}>")
            elif r < 0.55:
                out.append(f"</{rng.choice(self.TAGS)}>")
            elif r < 0.7:
                out.append(rng.choice(self.TEXTS))
            else:
                out.append(rng.choice("abc<>=/'\"&;#!?-` \t\n"))
        return "".join(out)

    def test_structured_soup_differential(self):
        import random
        import signal
        from tests.test_tokenizer import TestFastPathEquivalence as T
        from zhtml_ray.html.dom import serialize
        from zhtml_ray.html.extract import extract_document
        from zhtml_ray.html.treebuilder import parse, parse_fragment

        def alarm(sig, frame):
            raise TimeoutError("hang on structured soup")

        old = signal.signal(signal.SIGALRM, alarm)
        from zhtml_ray.html.treebuilder import NS_HTML, NS_MATHML, NS_SVG
        contexts = [("div", NS_HTML), ("td", NS_HTML), ("table", NS_HTML),
                    ("select", NS_HTML), ("title", NS_HTML),
                    ("script", NS_HTML), ("tr", NS_HTML),
                    ("colgroup", NS_HTML), ("frameset", NS_HTML),
                    ("html", NS_HTML), ("svg", NS_HTML), ("math", NS_HTML),
                    # foreign-namespace contexts (integration points,
                    # plain foreign, text IPs) — offline burst: 62k
                    # foreign-biased iterations, 0 failures (r3)
                    ("svg", NS_SVG), ("g", NS_SVG), ("desc", NS_SVG),
                    ("foreignObject", NS_SVG), ("mi", NS_MATHML),
                    ("annotation-xml", NS_MATHML)]
        try:
            rng = random.Random(99)
            for i in range(400):
                s = self._soup(rng, rng.randint(1, 60))
                signal.alarm(15)
                ft, fe = T._fast_tokenize(s)
                st, se = T._slow_tokenize(s)
                assert T._coalesce(ft) == T._coalesce(st), repr(s)
                assert fe == se, repr(s)
                doc = parse(s).document
                d1 = serialize(doc)
                assert d1 == serialize(parse(s).document), repr(s)
                # per-character spec never creates an empty text node
                # (regression: fully-skipped leading newline in RCDATA)
                from zhtml_ray.html.dom import TEXT
                stack = [doc]
                while stack:
                    n = stack.pop()
                    if n.kind == TEXT:
                        assert "".join(n.parts), repr(s)
                    if n.children:
                        # chars always append to an existing text node —
                        # adjacent TEXT siblings must never exist
                        for a, b in zip(n.children, n.children[1:]):
                            assert not (a.kind == TEXT and b.kind == TEXT), \
                                repr(s)
                        stack.extend(n.children)
                ctx, ctx_ns = contexts[i % len(contexts)]
                serialize(parse_fragment(s, ctx,
                                         context_ns=ctx_ns).document)
                raw = s.encode("utf-8", "replace")
                assert extract_document(raw) == extract_document(raw), \
                    repr(s)
                signal.alarm(0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


def test_hostile_deep_nesting_no_recursion_error():
    """A 20k-deep div pile (hostile Common-Crawl page) must parse,
    serialize, and extract without hitting the recursion limit — the
    whole kernel chain is iterative."""
    from zhtml_ray.html.dom import serialize
    from zhtml_ray.html.extract import extract_document
    from zhtml_ray.html.treebuilder import parse

    doc = "<div>" * 20000 + "x"
    r = parse(doc)
    assert serialize(r.document).count("<div>") == 20000
    out = extract_document(doc.encode())
    assert out["n_nodes"] >= 20000


def test_adversarial_inputs_bounded_wall():
    """Pathological shapes (attr floods, AFE reconstruction storms,
    AA churn, comment/entity spam, unclosed-tag piles, foster storms)
    must all complete — each measured well under a second at these
    sizes; the 30 s alarm is a hang guard, not a perf bound."""
    import signal
    from zhtml_ray.html.extract import extract_document

    cases = [
        "<div " + " ".join(f"a{i}=v" for i in range(20000)) + ">x",
        "".join(f"<b a={i}>" for i in range(1000)) + "</p>" * 50 + "x",
        "<b><i>" * 2000 + "</b></i>" * 2000,
        "<!--x-->" * 20000,
        "<" * 50000,
        "&amp;" * 50000,
        "<table>" * 2000 + "x",
        "<table>" + "x<y " * 10000,
    ]

    def alarm(sig, frame):
        raise TimeoutError("adversarial input hung")

    old = signal.signal(signal.SIGALRM, alarm)
    try:
        for doc in cases:
            signal.alarm(30)
            out = extract_document(doc.encode())
            assert out["n_nodes"] >= 1
            signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_deep_nest_not_quadratic():
    """A 30k-deep <div> nest used to cost 37 s of CPU (close_p's
    in_scope scan made start-tag handling quadratic in depth); the
    indexed deep-stack lane answers in_scope in O(|scope set|), so this
    must finish in well under a second. The 15 s alarm guards the
    regression, not the expected wall."""
    import signal
    from zhtml_ray.html.extract import extract_document

    cases = [
        "<div>" * 30000 + "hello world",
        "<p>" + "<div>" * 30000 + "x",        # planted <p> defeats a count
        "<ul>" + "<li><div>" * 15000,          # list scope
        "<button>" + "<div>" * 30000 + "<button>x",  # button scope
    ]

    def alarm(sig, frame):
        raise TimeoutError("deep nest is quadratic again")

    old = signal.signal(signal.SIGALRM, alarm)
    try:
        for doc in cases:
            signal.alarm(15)
            out = extract_document(doc.encode())
            assert out["n_nodes"] >= 1
            signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@settings(max_examples=150, deadline=None)
@given(_soup)
def test_in_scope_index_matches_scan(s):
    """Differential guard for the open-elements position index: force
    the indexed lanes (_DEEP_STACK=1 — in_scope, _any_other_end_tag,
    reconstruct_afe) and require byte-identical trees + errors vs the
    default scan lanes on arbitrary tag soup."""
    from zhtml_ray.html import treebuilder as tb
    from zhtml_ray.html.dom import serialize

    r_scan = tb.parse(s)
    saved = tb._DEEP_STACK
    tb._DEEP_STACK = 1
    try:
        r_idx = tb.parse(s)
    finally:
        tb._DEEP_STACK = saved
    assert serialize(r_idx.document) == serialize(r_scan.document)
    assert r_idx.errors == r_scan.errors


def test_in_scope_index_matches_scan_directed():
    """Directed cases for the index lane's edge semantics: target
    element itself in the scope set (table/template/html vs
    _SCOPE_TABLE), mid-stack AA mutations dirtying the index, and
    fragment contexts."""
    from zhtml_ray.html import treebuilder as tb
    from zhtml_ray.html.dom import serialize

    docs = [
        "<table><table><tr><td>x",              # table target in table scope
        "<template><table><caption>c</caption></template>y",
        "<b><p><i>a<div>b</b>c</div>d",          # adoption agency churn
        "<b><i><u>" * 40 + "x" + "</b>" * 40,    # repeated AA mid-stack edits
        "<table><tr><td><select><option>o<table><tr>",
        "<p><button><p>a</button>b",
        "<li><ul><li><ol><li>x</li></ol>",
        "<caption>" * 30 + "x",
        "<object><p><applet><p>q</object>z",
        "<svg><foreignObject><p>f</foreignObject>",
        "<math><mtext><p>m</mtext>",
    ]
    saved = tb._DEEP_STACK
    for d in docs:
        tb._DEEP_STACK = saved
        r_scan = tb.parse(d)
        tb._DEEP_STACK = 1
        try:
            r_idx = tb.parse(d)
        finally:
            tb._DEEP_STACK = saved
        assert serialize(r_idx.document) == serialize(r_scan.document), d
        assert r_idx.errors == r_scan.errors, d

    # fragment contexts exercise the pre-seeded context stack
    for ctx in ("td", "table", "select", "template"):
        r_scan = tb.parse_fragment("<p><div><table><tr><td>x</b>", ctx)
        tb._DEEP_STACK = 1
        try:
            r_idx = tb.parse_fragment("<p><div><table><tr><td>x</b>", ctx)
        finally:
            tb._DEEP_STACK = saved
        assert serialize(r_idx.document) == serialize(r_scan.document), ctx
        assert r_idx.errors == r_scan.errors, ctx


def test_hostile_shapes_not_quadratic():
    """Every shape here was measured super-linear (3.4-4.5x at 2x input,
    up to 57 s absolute) before the deep-stack index lanes landed in
    reset_insertion_mode, _any_other_end_tag, reconstruct_afe, the
    li/dd/dt loops, adoption agency, and the template/head/form/a
    membership checks. All run ~0.1 s now; the alarm guards regression."""
    import signal
    from zhtml_ray.html.extract import extract_document

    n = 12000
    cases = [
        "<div>" * n + "<table></table>" * (n // 6),       # reset_insertion_mode
        "<div>" * n + "<table>" + "<b></b>" * (n // 6),   # foster + AA fast path
        "<div>" * n + "<select><option>a</select>" * (n // 25),
        "<div>" * n + "<nobr>x" * (n // 5),               # AA fmt position
        "<div>" * n + "</template>" * n,                  # template membership
        "<div>" * n + "<a><a>" * (n // 8),                # afe <a> removal
        "<div>" * n + "<form></form>" * (n // 10),        # form template checks
        "<div>" * n + "<li></li>" * (n // 8),             # li loop exemption
        "<div>" * n + "<dd></dd>" * (n // 8),             # dd/dt loop
        "<div>" * n + "<meta>" * (n // 8),                # head re-push
        "<div>" * n + "<html a=b>" * (n // 8),            # _ibs_html template scan
        "<span>" * n + "</b>" * n,                        # any-other-end-tag
        "<div><table>" + "<b></b>" * n,                   # foster accumulation
        "<div><table>" + "x<i></i>" * n,                  # foster text merge
        "<b><div>" + "<span>s</span>" * n + "</b>",       # AA bulk child move
        "".join(f"<b a={i}>" for i in range(n)) + "x",    # Noah's Ark scan
        "".join(f"<i b={i}>" for i in range(n)) + "</i>" * n,  # afe removal
        "".join(f"<b a={i}>" for i in range(n // 2)) + "<b a=0>" * n,
        "<a>" + "<div>" * n + "</a>" * (n // 8),          # fmt deep below
        "".join(f"<b a={i}>" for i in range(n // 4)) + "<div>" * n
        + "</b>" * (n // 4),
        "<a>" + "<em>" * (n // 2) + "<div>" * n + "</a>", # AA deferred dels
    ]

    def alarm(sig, frame):
        raise TimeoutError("hostile shape is super-linear again")

    old = signal.signal(signal.SIGALRM, alarm)
    try:
        for doc in cases:
            signal.alarm(20)
            out = extract_document(doc.encode())
            assert out["n_nodes"] >= 1
            signal.alarm(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_deep_churn_index_matches_scan():
    """Natural-depth (>_DEEP_STACK) stacks with AA / table / form /
    head churn: default lanes (index active) must equal the pure scan
    lanes (_DEEP_STACK disabled) tree- and error-exactly. This is the
    permanent sample of the 60k+4k offline differential that validated
    the index (0 mismatches); seeds are fixed for reproducibility."""
    import random
    from zhtml_ray.html import treebuilder as tb
    from zhtml_ray.html.dom import serialize

    openers = ["<div>", "<span>", "<section>", "<b>", "<i>", "<u>",
               "<address>", "<center>", "<main>"]
    churn = ["</b>", "</i>", "</span>", "</div>", "<a><a>", "<li></li>",
             "<dd>", "<table></table>", "<form></form>", "</template>",
             "<meta>", "<html a=1>", "<nobr>x<nobr>y", "x y", "<p>t</p>",
             "<select><option>s</select>", "</li>", "<button>", "</form>",
             "<template><td>q</template>", "<svg><g>", "</svg>", "<tr>",
             "<table><tr><td>x</td></tr></table>", "<dt>", "</p>", "<hr>"]
    rng = random.Random(20260818)
    saved = tb._DEEP_STACK
    for _ in range(200):
        depth = rng.randint(50, 110)
        doc = "".join(rng.choice(openers) for _ in range(depth))
        doc += "".join(rng.choice(churn) for _ in range(rng.randint(5, 50)))
        r1 = tb.parse(doc)
        tb._DEEP_STACK = 10**9
        try:
            r2 = tb.parse(doc)
        finally:
            tb._DEEP_STACK = saved
        assert serialize(r1.document) == serialize(r2.document), doc[:200]
        assert r1.errors == r2.errors, doc[:200]


def test_afe_list_matches_plain_scan():
    """Differential guard for the _AfeList structure (id-set membership
    + marker-scoped Noah's Ark key lists): parses must equal a
    reference builder using a plain list and the original backward-scan
    push_afe. Sample of the 40k offline run (0 mismatches)."""
    import random
    from zhtml_ray.html import treebuilder as tb
    from zhtml_ray.html.dom import serialize

    class OldAfeBuilder(tb.TreeBuilder):
        def __init__(self, *a, **k):
            super().__init__(*a, **k)
            self.afe = []

        def push_afe(self, node):
            count = 0
            for i in range(len(self.afe) - 1, -1, -1):
                e = self.afe[i]
                if e is None:
                    break
                if (e.name == node.name and e.ns == node.ns
                        and e.attrs == node.attrs):
                    count += 1
                    if count == 3:
                        self.afe.pop(i)
                        break
            self.afe.append(node)

    pieces = ["<b>", "</b>", "<i>", "</i>", "<a h=1>", "<a h=2>", "</a>",
              "<b a=1>", "<b a=2>", "<nobr>", "</nobr>", "<table>",
              "</table>", "<td>", "<caption>", "</caption>", "<applet>",
              "</applet>", "<template>", "</template>", "x", "<p>", "</p>",
              "<div>", "</div>", "<font f=1>", "<s>", "</s>", "<em>",
              "</em>", "<big>", "</big>", "<marquee>", "</marquee>"]
    rng = random.Random(777)
    saved = tb._AFE_DEEP
    try:
        for it in range(400):
            doc = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 60)))
            # alternate: default hybrid threshold / forced _AfeList
            tb._AFE_DEEP = saved if it % 2 == 0 else 1
            r1 = tb.parse(doc)
            tb._AFE_DEEP = saved
            r2 = OldAfeBuilder().parse(doc)
            assert serialize(r1.document) == serialize(r2.document), doc
            assert r1.errors == r2.errors, doc
    finally:
        tb._AFE_DEEP = saved
