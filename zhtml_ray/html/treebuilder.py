"""WHATWG HTML5 tree construction (spec-correct, error-recovering).

Builds the full insertion-mode machine the reference only skeletoned:
the 23-mode enum is declared at /root/reference/src/parser.zig:18-42 but
only Initial/BeforeHtml are partially implemented (:146-280, SURVEY.md
§2.11.9); this module implements the spec algorithm new — open-element
stack, active-formatting-elements list (Noah's-Ark clause), adoption
agency, foster parenting, RCDATA/RAWTEXT switching, foreign content.

Quirks-mode classification mirrors /root/reference/src/parser.zig:175-245
(the spec's public/system-id prefix table).

Character tokens arrive as coalesced runs from our tokenizer (not
per-codepoint like the reference, /root/reference/src/token.zig:53-65);
modes that treat whitespace specially split runs as needed.
"""

from __future__ import annotations

from zhtml_ray.html import tokenizer as tkz
from zhtml_ray.html.dom import (
    COMMENT, DOCTYPE, DOCUMENT, ELEMENT, NS_HTML, NS_MATHML, NS_SVG,
    QUIRKS_LIMITED, QUIRKS_NO, QUIRKS_YES, TEXT, Document, Node, detach,
)

_WS = "\t\n\f\r "

SPECIAL = {
    (NS_HTML, n) for n in (
        "address applet area article aside base basefont bgsound blockquote "
        "body br button caption center col colgroup dd details dir div dl dt "
        "embed fieldset figcaption figure footer form frame frameset h1 h2 h3 "
        "h4 h5 h6 head header hgroup hr html iframe img input keygen li link "
        "listing main marquee menu meta nav noembed noframes noscript object "
        "ol p param plaintext pre script search section select source style "
        "summary table tbody td template textarea tfoot th thead title tr "
        "track ul wbr xmp").split()
} | {(NS_MATHML, n) for n in ("mi", "mo", "mn", "ms", "mtext", "annotation-xml")} \
  | {(NS_SVG, n) for n in ("foreignObject", "desc", "title")}

FORMATTING = frozenset(
    "a b big code em font i nobr s small strike strong tt u".split())

_SCOPE_BASE = {
    (NS_HTML, n) for n in ("applet", "caption", "html", "table", "td", "th",
                            "marquee", "object", "template")
} | {(NS_MATHML, n) for n in ("mi", "mo", "mn", "ms", "mtext", "annotation-xml")} \
  | {(NS_SVG, n) for n in ("foreignObject", "desc", "title")}
_SCOPE_LIST = _SCOPE_BASE | {(NS_HTML, "ol"), (NS_HTML, "ul")}
_SCOPE_BUTTON = _SCOPE_BASE | {(NS_HTML, "button")}
_SCOPE_TABLE = {(NS_HTML, "html"), (NS_HTML, "table"), (NS_HTML, "template")}

IMPLIED_END = frozenset("dd dt li optgroup option p rb rp rt rtc".split())
IMPLIED_END_THOROUGH = IMPLIED_END | frozenset(
    "caption colgroup tbody td tfoot th thead tr".split())

# quirks tables (spec; mirrors /root/reference/src/parser.zig:175-236)
_QUIRKS_PUBLIC_EXACT = {
    "-//w3o//dtd w3 html strict 3.0//en//",
    "-/w3c/dtd html 4.0 transitional/en",
    "html",
}
_QUIRKS_SYSTEM_EXACT = {
    "http://www.ibm.com/data/dtd/v11/ibmxhtml1-transitional.dtd"}
_QUIRKS_PUBLIC_PREFIX = tuple(p.lower() for p in (
    "+//Silmaril//dtd html Pro v0r11 19970101//",
    "-//AS//DTD HTML 3.0 asWedit + extensions//",
    "-//AdvaSoft Ltd//DTD HTML 3.0 asWedit + extensions//",
    "-//IETF//DTD HTML 2.0 Level 1//", "-//IETF//DTD HTML 2.0 Level 2//",
    "-//IETF//DTD HTML 2.0 Strict Level 1//",
    "-//IETF//DTD HTML 2.0 Strict Level 2//", "-//IETF//DTD HTML 2.0 Strict//",
    "-//IETF//DTD HTML 2.0//", "-//IETF//DTD HTML 2.1E//",
    "-//IETF//DTD HTML 3.0//", "-//IETF//DTD HTML 3.2 Final//",
    "-//IETF//DTD HTML 3.2//", "-//IETF//DTD HTML 3//",
    "-//IETF//DTD HTML Level 0//", "-//IETF//DTD HTML Level 1//",
    "-//IETF//DTD HTML Level 2//", "-//IETF//DTD HTML Level 3//",
    "-//IETF//DTD HTML Strict Level 0//", "-//IETF//DTD HTML Strict Level 1//",
    "-//IETF//DTD HTML Strict Level 2//", "-//IETF//DTD HTML Strict Level 3//",
    "-//IETF//DTD HTML Strict//", "-//IETF//DTD HTML//",
    "-//Metrius//DTD Metrius Presentational//",
    "-//Microsoft//DTD Internet Explorer 2.0 HTML Strict//",
    "-//Microsoft//DTD Internet Explorer 2.0 HTML//",
    "-//Microsoft//DTD Internet Explorer 2.0 Tables//",
    "-//Microsoft//DTD Internet Explorer 3.0 HTML Strict//",
    "-//Microsoft//DTD Internet Explorer 3.0 HTML//",
    "-//Microsoft//DTD Internet Explorer 3.0 Tables//",
    "-//Netscape Comm. Corp.//DTD HTML//",
    "-//Netscape Comm. Corp.//DTD Strict HTML//",
    "-//O'Reilly and Associates//DTD HTML 2.0//",
    "-//O'Reilly and Associates//DTD HTML Extended 1.0//",
    "-//O'Reilly and Associates//DTD HTML Extended Relaxed 1.0//",
    "-//SQ//DTD HTML 2.0 HoTMetaL + extensions//",
    "-//SoftQuad Software//DTD HoTMetaL PRO 6.0::19990601::extensions to HTML 4.0//",
    "-//SoftQuad//DTD HoTMetaL PRO 4.0::19971010::extensions to HTML 4.0//",
    "-//Spyglass//DTD HTML 2.0 Extended//",
    "-//Sun Microsystems Corp.//DTD HotJava HTML//",
    "-//Sun Microsystems Corp.//DTD HotJava Strict HTML//",
    "-//W3C//DTD HTML 3 1995-03-24//", "-//W3C//DTD HTML 3.2 Draft//",
    "-//W3C//DTD HTML 3.2 Final//", "-//W3C//DTD HTML 3.2//",
    "-//W3C//DTD HTML 3.2S Draft//", "-//W3C//DTD HTML 4.0 Frameset//",
    "-//W3C//DTD HTML 4.0 Transitional//",
    "-//W3C//DTD HTML Experimental 19960712//",
    "-//W3C//DTD HTML Experimental 970421//", "-//W3C//DTD W3 HTML//",
    "-//W3O//DTD W3 HTML 3.0//", "-//WebTechs//DTD Mozilla HTML 2.0//",
    "-//WebTechs//DTD Mozilla HTML//",
))
_QUIRKS_PUBLIC_PREFIX_NOSYS = tuple(p.lower() for p in (
    "-//W3C//DTD HTML 4.01 Frameset//", "-//W3C//DTD HTML 4.01 Transitional//"))
_LIMITED_PUBLIC_PREFIX = tuple(p.lower() for p in (
    "-//W3C//DTD XHTML 1.0 Frameset//", "-//W3C//DTD XHTML 1.0 Transitional//"))

_SVG_TAG_FIX = {t.lower(): t for t in (
    "altGlyph altGlyphDef altGlyphItem animateColor animateMotion "
    "animateTransform clipPath feBlend feColorMatrix feComponentTransfer "
    "feComposite feConvolveMatrix feDiffuseLighting feDisplacementMap "
    "feDistantLight feDropShadow feFlood feFuncA feFuncB feFuncG feFuncR "
    "feGaussianBlur feImage feMerge feMergeNode feMorphology feOffset "
    "fePointLight feSpecularLighting feSpotLight feTile feTurbulence "
    "foreignObject glyphRef linearGradient radialGradient textPath").split()}

_SVG_ATTR_FIX = {a.lower(): a for a in (
    "attributeName attributeType baseFrequency baseProfile calcMode "
    "clipPathUnits diffuseConstant edgeMode filterUnits glyphRef "
    "gradientTransform gradientUnits kernelMatrix kernelUnitLength "
    "keyPoints keySplines keyTimes lengthAdjust limitingConeAngle "
    "markerHeight markerUnits markerWidth maskContentUnits maskUnits "
    "numOctaves pathLength patternContentUnits patternTransform "
    "patternUnits pointsAtX pointsAtY pointsAtZ preserveAlpha "
    "preserveAspectRatio primitiveUnits refX refY repeatCount repeatDur "
    "requiredExtensions requiredFeatures specularConstant specularExponent "
    "spreadMethod startOffset stdDeviation stitchTiles surfaceScale "
    "systemLanguage tableValues targetX targetY textLength viewBox "
    "viewTarget xChannelSelector yChannelSelector zoomAndPan").split()}

# "adjust foreign attributes" (spec 13.2.6.1): xlink:/xml:/xmlns attrs
# become namespaced; stored (and serialized) in the html5lib-tests
# "prefix local" space-joined form
_FOREIGN_ATTR_FIX = {
    "xlink:actuate": "xlink actuate", "xlink:arcrole": "xlink arcrole",
    "xlink:href": "xlink href", "xlink:role": "xlink role",
    "xlink:show": "xlink show", "xlink:title": "xlink title",
    "xlink:type": "xlink type", "xml:lang": "xml lang",
    "xml:space": "xml space", "xmlns:xlink": "xmlns xlink",
}

_BREAKOUT = frozenset((
    "b big blockquote body br center code dd div dl dt em embed h1 h2 h3 h4 "
    "h5 h6 head hr i img li listing menu meta nobr ol p pre ruby s small "
    "span strong strike sub sup table tt u ul var").split())

_BLOCK_CLOSES_P = frozenset((
    "address article aside blockquote center details dialog dir div dl "
    "fieldset figcaption figure footer header hgroup main menu nav ol p "
    "search section summary ul").split())

_IN_HEAD_PASSTHROUGH = frozenset((
    "base basefont bgsound link meta noframes script style template "
    "title").split())

_TABLE_SECTION = frozenset(("tbody", "tfoot", "thead"))
_CELLS = frozenset(("td", "th"))
_HEADINGS = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))


class ParseResult:
    __slots__ = ("document", "errors", "_line_col")

    def __init__(self, document, errors, line_col=None):
        self.document = document
        self.errors = errors  # [(code, codepoint offset)] sorted by offset
        self._line_col = line_col  # tokenizer's lazy offset→(line,col)

    def errors_lc(self) -> list[tuple[str, int, int]]:
        """Errors resolved to (code, line, col), 1-based — the SURVEY
        §1.3 ``errors: list<struct<code,line,col>>`` column. Resolution
        is lazy: the newline index is built only when a document actually
        has errors AND a consumer asks for positions."""
        if not self.errors:
            return []
        if self._line_col is None:
            return [(c, 0, 0) for c, _ in self.errors]
        return [(c, *self._line_col(off)) for c, off in self.errors]


# Stack depth at which in_scope switches from the top-down scan (fast
# for real pages, which are shallow) to the lazy position index
# (bounded for adversarially deep nests — a 30k-deep misnested crawl
# page otherwise makes close_p quadratic: measured 37 s of CPU for
# 150 KB of input, vs ~0.1 s indexed).
_DEEP_STACK = 48

# Active-formatting-elements size at which push_afe upgrades the plain
# list to the indexed _AfeList (normal pages stay well under this, so
# they keep C-speed list ops and the original Noah's Ark scan).
_AFE_DEEP = 24

# Index sentinel key tracking positions of spec-"special" elements.
_SPECIAL_KEY = ("\x00special", "")
# Same, minus the li/dd/dt loop-exception names (spec: "special"
# category except address, div, p).
_SPECIAL_LI_KEY = ("\x00special-li", "")
_LI_EXEMPT = ("address", "div", "p")

# Element names that decide reset_insertion_mode (spec 13.2.4.1).
_MODE_NAMES = ("select", "td", "th", "tr", "tbody", "thead", "tfoot",
               "caption", "colgroup", "table", "template", "head", "body",
               "frameset", "html")


def _afe_index_of(afe, e):
    """Tail-scan index over either afe representation (adoption
    agency's fmt/node/clone sit at or near the end; list.index's front
    scan made a 2k-entry afe quadratic under end-tag spam)."""
    for i in range(len(afe) - 1, -1, -1):
        if list.__getitem__(afe, i) is e:
            return i
    raise ValueError("_afe_index_of: entry not present")


def _afe_key(e):
    a = e.attrs
    return (e.ns, e.name, tuple(sorted(a.items())) if a else ())


class _AfeList(list):
    """Active-formatting-elements list with O(1) membership (id set)
    and marker-scoped per-key entry lists, so push_afe's Noah's Ark
    check needs no backward scan over the whole list — 20k formatting
    elements with distinct attributes made the scan quadratic (19 s for
    280 KB), and AA's `cur in afe` membership likewise. Key lists are
    kept in afe order (mid-list AA inserts re-sort the <=4 same-key
    entries via C-speed index), so Noah eviction of the earliest
    identical entry stays spec-exact. Markers (None) delimit scopes."""
    __slots__ = ("_ids", "_noah")

    def __init__(self):
        super().__init__()
        self._ids = set()
        self._noah = [{}]

    def __contains__(self, e):
        return id(e) in self._ids

    def append(self, e):
        list.append(self, e)
        if e is None:
            self._noah.append({})
        else:
            self._ids.add(id(e))
            self._noah[-1].setdefault(_afe_key(e), []).append(e)

    def pop(self, index=-1):
        e = list.pop(self, index)
        if e is None:
            self._noah.pop()
            if not self._noah:
                self._noah.append({})
        else:
            self._ids.discard(id(e))
            self._drop_key(e)
        return e

    def remove(self, e):
        # Tail scan: AA's fmt and Noah evictions sit at/near the end in
        # the shapes that matter (a front list.remove made </i> spam on
        # a 20k-entry afe quadratic).
        for i in range(len(self) - 1, -1, -1):
            if list.__getitem__(self, i) is e:
                list.__delitem__(self, i)
                break
        else:
            raise ValueError("afe.remove: entry not present")
        self._ids.discard(id(e))
        self._drop_key(e)

    def insert(self, index, e):
        list.insert(self, index, e)
        self._ids.add(id(e))
        lst = self._noah[-1].setdefault(_afe_key(e), [])
        lst.append(e)
        if len(lst) > 1:
            lst.sort(key=self.index)  # restore afe order (<=4 entries)

    def __setitem__(self, index, new):
        old = list.__getitem__(self, index)
        list.__setitem__(self, index, new)
        self._ids.discard(id(old))
        self._ids.add(id(new))
        key = _afe_key(old)
        for g in reversed(self._noah):
            lst = g.get(key)
            if lst:
                for i, x in enumerate(lst):
                    if x is old:
                        if _afe_key(new) == key:
                            lst[i] = new  # clone replacement, same key
                        else:
                            # file into the scope where old lived, not
                            # blindly the last one
                            del lst[i]
                            g.setdefault(_afe_key(new), []).append(new)
                        return
        # old was untracked (defensive): still track the new entry
        self._noah[-1].setdefault(_afe_key(new), []).append(new)

    def _drop_key(self, e):
        key = _afe_key(e)
        for g in reversed(self._noah):
            lst = g.get(key)
            if lst:
                for i, x in enumerate(lst):
                    if x is e:
                        del lst[i]
                        return


class TreeBuilder:
    def __init__(self, collect_errors: bool = True):
        self.collect_errors = collect_errors

    # ------------------------------------------------------------ lifecycle

    def _init(self, t):
        self.tokenizer = t
        self.doc = Document()
        self.mode = "initial"
        self.original_mode = None
        self.stack: list[Node] = []
        # Lazy open-elements position index (hostile-depth defense).
        # None until the first deep query on a >=_DEEP_STACK stack;
        # then maps (ns, name) -> [[pos, node], ...], tail-ordered by
        # position among VALID entries. Entries self-validate against
        # the live stack (stack[pos] is node), so pops need no
        # bookkeeping; push sites feed the index only while it exists;
        # mid-stack mutations repair it in place — suffix re-notes for
        # slice rewrites, backref position updates + ordered notes for
        # the bounded adoption-agency windows (never reset to None).
        self._idx: dict | None = None
        self.afe: list = []  # None = marker; upgraded to _AfeList when big
        self.head: Node | None = None
        self.form: Node | None = None
        self.frameset_ok = True
        self.foster = False
        self.template_modes: list[str] = []
        self.pending_text: list[str] = []
        self.skip_newline = False
        self.done = False
        self.errors: list[tuple[str, int]] = []
        self.fragment_context: Node | None = None
        # mode -> plain function, built once per class: a per-document
        # dict of bound methods made every builder a reference cycle
        # (freed only by the cyclic collector), and per class keeps
        # subclass overrides of mode_* working
        cls = type(self)
        modes = cls.__dict__.get("_mode_fns")
        if modes is None:
            modes = {n[5:]: getattr(cls, n) for n in dir(cls)
                     if n.startswith("mode_")}
            cls._mode_fns = modes
        self._modes = modes
        self.ever_foreign = False  # no foreign element ever pushed →
        # the foreign-content dispatch + allow_cdata updates are no-ops

    def _acn(self):
        """Adjusted current node: the fragment context element when the
        stack holds only the root (spec 13.2.4.2)."""
        if not self.stack:
            return None
        if len(self.stack) == 1 and self.fragment_context is not None:
            return self.fragment_context
        return self.stack[-1]

    def _run(self):
        t = self.tokenizer
        next_tokens = t.next_tokens
        process = self.process
        stack = self.stack
        lane = _LANE_ON
        lane_start = _LANE_START
        while True:  # batch pull: no per-token generator yield/resume
            toks = next_tokens()
            if toks is None or self.done:
                break
            for tok in toks:
                if self.done:
                    break
                # In-body lane: the common tokens of an all-HTML, shallow
                # in_body stack, inserted here with exactly the effects
                # process() would have (no errors arise on these paths);
                # anything else falls through to process(). With no
                # foreign element ever pushed, every open element is HTML.
                if (lane and self.mode == "in_body" and not self.ever_foreign
                        and not self.skip_newline and not self.foster
                        and self._idx is None
                        and 0 < len(stack) < _DEEP_STACK):
                    kind = tok[0]
                    if kind == "Character":
                        data = tok[1]
                        afe = self.afe
                        # reconstruct_afe would be a no-op
                        if data and "\x00" not in data and (
                                not afe or afe[-1] is None
                                or afe[-1] in stack):
                            cur = stack[-1]
                            kids = cur.children
                            if kids and kids[-1].kind == TEXT:
                                kids[-1].parts.append(data)
                            else:
                                node = Node(TEXT)
                                node.parts = [data]
                                node.parent = cur
                                kids.append(node)
                            if self.frameset_ok and data.strip(_WS):
                                self.frameset_ok = False
                            continue
                    elif kind == "StartTag":
                        name = tok[1]
                        k = lane_start.get(name, _LANE_PLAIN)
                        if k:
                            afe = self.afe
                            if k == _LANE_BLOCK:
                                # close_p would be a no-op: no p in
                                # button scope
                                for node in reversed(stack):
                                    nm = node.name
                                    if nm == "p":
                                        k = 0
                                        break
                                    if nm in _BUTTON_SCOPE_HTML:
                                        break
                            elif afe and afe[-1] is not None \
                                    and afe[-1] not in stack:
                                k = 0  # reconstruct_afe has work to do
                            elif k == _LANE_FMT:
                                if afe.__class__ is not list:
                                    k = 0  # hostile-size afe: spec path
                                elif name == "a":
                                    # _ibs_a: an open <a> after the last
                                    # marker runs the adoption agency
                                    for e in reversed(afe):
                                        if e is None:
                                            break
                                        if e.name == "a":
                                            k = 0
                                            break
                            if k:
                                cur = stack[-1]
                                node = Node(ELEMENT, name, NS_HTML,
                                            tok[2] or {})
                                node.parent = cur
                                cur.children.append(node)
                                if k == _LANE_VOID:
                                    self.frameset_ok = False
                                else:
                                    stack.append(node)
                                    if k == _LANE_FMT:
                                        self.push_afe(node)
                                continue
                    elif kind == "EndTag":
                        # the current node's own end tag: every in-body
                        # rule outside _LANE_END_STOP just pops it
                        name = tok[1]
                        cur = stack[-1]
                        if cur.name == name and name not in _LANE_END_STOP:
                            if name not in FORMATTING:
                                stack.pop()
                                continue
                            afe = self.afe
                            if afe and afe[-1] is cur:
                                # the adoption agency finds no furthest
                                # block: it pops and drops the entry
                                stack.pop()
                                afe.pop()
                                continue
                process(tok)
                if self.ever_foreign:
                    # adjusted-current-node → CDATA allowed in foreign
                    acn = self._acn()
                    t.allow_cdata = acn is not None and acn.ns != NS_HTML
        if not self.done:
            self.process(("EOF",))

    def parse(self, raw) -> ParseResult:
        t = tkz.Tokenizer(raw, collect_input_errors=self.collect_errors)
        self._init(t)
        self._run()
        errors = sorted(t.errors + self.errors, key=lambda e: e[1])
        return ParseResult(self.doc, errors, line_col=t.line_col)

    def parse_fragment(self, raw, context: str, context_attrs=None,
                       context_ns: int = NS_HTML) -> ParseResult:
        """HTML fragment parsing (spec 13.2.9) — the API surface the
        reference declared but never used
        (/root/reference/src/parser.zig:50,62-75). Returns a ParseResult
        whose document's children ARE the fragment's children."""
        state = tkz.DATA
        if context_ns == NS_HTML:
            if context in ("title", "textarea"):
                state = tkz.RCDATA
            elif context in ("style", "xmp", "iframe", "noembed",
                             "noframes"):
                state = tkz.RAWTEXT
            elif context == "script":
                state = tkz.SCRIPT_DATA
            elif context == "plaintext":
                state = tkz.PLAINTEXT
            # noscript → Data (scripting disabled, the data-pipeline config)
        t = tkz.Tokenizer(raw, initial_state=state, last_start_tag=context,
                          collect_input_errors=self.collect_errors)
        self._init(t)
        ctx = Node(ELEMENT, context, context_ns, dict(context_attrs or {}))
        self.fragment_context = ctx
        self.ever_foreign = context_ns != NS_HTML
        root = Node(ELEMENT, "html", NS_HTML, {})
        self.doc.append(root)
        self.stack.append(root)
        if self._idx is not None:
            self._idx_note(root)
        if context_ns == NS_HTML and context == "template":
            self.template_modes.append("in_template")
        self.reset_insertion_mode()
        if context_ns == NS_HTML and context == "form":
            self.form = ctx
        if self.ever_foreign:
            t.allow_cdata = True
        self._run()
        frag = Document()
        for ch in list(root.children):
            root.remove(ch)
            frag.append(ch)
        detach(self.doc)
        errors = sorted(t.errors + self.errors, key=lambda e: e[1])
        return ParseResult(frag, errors, line_col=t.line_col)

    # ------------------------------------------------------------- plumbing

    def err(self, code):
        # Tree-construction error positions are the tokenizer's CURRENT
        # position — with batched tokenization that is the end of the
        # pulled batch, not the offending token's start. Codes are
        # spec-exact; positions are approximate for tree-side errors
        # (tokenizer-side errors carry exact offsets). The reference's
        # conformance harness likewise compares codes only
        # (/root/reference/test/tokenizer-html5lib.zig — line/col
        # comparison disabled).
        if self.collect_errors:
            self.errors.append((code, self.tokenizer.pos))

    def current(self):
        return self.stack[-1] if self.stack else None

    def process(self, tok):
        """Tree-construction dispatcher (HTML vs foreign content)."""
        # The <pre>/<listing>/<textarea> leading-newline skip applies only to
        # the token IMMEDIATELY after the start tag; any intervening
        # non-Character token (comment, tag) cancels it.
        if self.skip_newline and tok[0] != "Character":
            self.skip_newline = False
        if not self.ever_foreign or not self.stack:
            return self._modes[self.mode](self, tok)  # inlined process_html
        node = self._acn()
        if node.ns == NS_HTML:
            return self.process_html(tok)
        kind = tok[0]
        if kind == "EOF":
            return self.process_html(tok)
        mathml_tip = node.ns == NS_MATHML and node.name in (
            "mi", "mo", "mn", "ms", "mtext")
        html_ip = (node.ns == NS_SVG and node.name in ("foreignObject", "desc", "title")) \
            or (node.ns == NS_MATHML and node.name == "annotation-xml"
                and (node.attrs or {}).get("encoding", "").lower()
                in ("text/html", "application/xhtml+xml"))
        if mathml_tip and (kind == "Character"
                           or (kind == "StartTag" and tok[1] not in ("mglyph", "malignmark"))):
            return self.process_html(tok)
        if node.ns == NS_MATHML and node.name == "annotation-xml" \
                and kind == "StartTag" and tok[1] == "svg":
            return self.process_html(tok)
        if html_ip and kind in ("StartTag", "Character"):
            return self.process_html(tok)
        return self.process_foreign(tok)

    def process_html(self, tok):
        self._modes[self.mode](self, tok)

    def reprocess(self, tok):
        self.process(tok)

    # ------------------------------------------------------------ insertion

    def appropriate_place(self, override=None):
        """Returns (parent, before_node|None)."""
        target = override if override is not None else self.stack[-1]
        if self.foster and target.ns == NS_HTML and target.name in (
                "table", "tbody", "tfoot", "thead", "tr"):
            # find last table in stack
            for i in range(len(self.stack) - 1, -1, -1):
                el = self.stack[i]
                if el.name == "template" and el.ns == NS_HTML:
                    return el, None
                if el.name == "table" and el.ns == NS_HTML:
                    if el.parent is not None:
                        return el.parent, el
                    return self.stack[i - 1], None
            return self.stack[0], None
        return target, None

    def _insert_node(self, node, override=None):
        parent, before = self.appropriate_place(override)
        if before is None:
            parent.append(node)
        else:
            parent.insert_before(node, before)

    def insert_element(self, name, attrs, ns=NS_HTML, push=True):
        node = Node(ELEMENT, name, ns, attrs or {})
        if ns != NS_HTML:
            self.ever_foreign = True
        self._insert_node(node)
        if push:
            self.stack.append(node)
            if self._idx is not None:
                self._idx_note(node)
        return node

    def insert_text(self, data, override=None):
        if override is None and not self.foster:  # hot lane
            kids = self.stack[-1].children
            if kids and kids[-1].kind == TEXT:
                kids[-1].parts.append(data)
            else:
                node = Node(TEXT)
                node.parts = [data]
                self.stack[-1].append(node)
            return
        parent, before = self.appropriate_place(override)
        if before is None:
            kids = parent.children
            if kids and kids[-1].kind == TEXT:
                kids[-1].parts.append(data)
                return
            node = Node(TEXT)
            node.parts = [data]
            parent.append(node)
        else:
            # Tail scan (see Node.insert_before): foster text targets a
            # table near the end of a growing child list.
            ch = parent.children
            for idx in range(len(ch) - 1, -1, -1):
                if ch[idx] is before:
                    break
            else:
                raise ValueError("insert_text: before is not a child")
            if idx > 0 and ch[idx - 1].kind == TEXT:
                ch[idx - 1].parts.append(data)
                return
            node = Node(TEXT)
            node.parts = [data]
            node.parent = parent
            ch.insert(idx, node)

    def insert_comment(self, data, parent=None):
        node = Node(COMMENT)
        node.parts = [data]
        if parent is not None:
            parent.append(node)
        else:
            self._insert_node(node)

    # ---------------------------------------------------------- stack utils

    def _idx_build(self):
        idx = {}
        self._idx = idx
        self._idx_renote(0)
        return idx

    def _idx_note(self, node):
        """Record a fresh push while the index is live (rare sites; the
        hot insert_element site calls this behind an inline None test).
        Entries are mutable [pos, node] lists shared between the key
        list and the special sentinel lists; node._ie backrefs the
        newest entry so mid-stack shifts can update positions in O(1)."""
        idx = self._idx
        e = [len(self.stack) - 1, node]
        node._ie = e
        key = (node.ns, node.name)
        idx.setdefault(key, []).append(e)
        if key in SPECIAL:
            idx.setdefault(_SPECIAL_KEY, []).append(e)
            if node.name not in _LI_EXEMPT:
                idx.setdefault(_SPECIAL_LI_KEY, []).append(e)

    def _idx_renote(self, start):
        """Re-record every element from ``start`` to the top after a
        mid-stack mutation shifted positions. Appends in ascending
        position order, preserving the first-valid-from-tail-is-topmost
        invariant; superseded entries die via the identity check."""
        idx = self._idx
        setd = idx.setdefault
        for i, node in enumerate(self.stack[start:], start):
            e = [i, node]
            node._ie = e
            key = (node.ns, node.name)
            setd(key, []).append(e)
            if key in SPECIAL:
                setd(_SPECIAL_KEY, []).append(e)
                if node.name not in _LI_EXEMPT:
                    setd(_SPECIAL_LI_KEY, []).append(e)

    def _idx_note_ordered(self, pos, node):
        """Record one entry at an arbitrary position, inserting into
        each key list at the position-ordered spot (pruning dead tail
        entries along the way) so the first-valid-from-tail-is-topmost
        invariant survives mid-stack windows."""
        e = [pos, node]
        node._ie = e
        key = (node.ns, node.name)
        keys = [key]
        if key in SPECIAL:
            keys.append(_SPECIAL_KEY)
            if node.name not in _LI_EXEMPT:
                keys.append(_SPECIAL_LI_KEY)
        idx = self._idx
        stack = self.stack
        n = len(stack)
        for k in keys:
            lst = idx.setdefault(k, [])
            i = len(lst)
            while i > 0:
                p, nd = lst[i - 1]
                if p < n and stack[p] is nd:
                    if p < pos:
                        break
                    i -= 1          # valid higher entry: step left
                else:
                    del lst[i - 1]  # dead: prune
                    i -= 1
            lst.insert(i, e)

    def _idx_top(self, key):
        """Topmost current stack position for an index key — an
        (ns, name) pair or _SPECIAL_KEY — or -1.

        Entries are validated against the live stack; invalid tail
        entries are garbage-collected as they are seen (sound because a
        popped node object is never re-pushed — the one exception, the
        head re-push path, resets the whole index). The first valid
        entry from the tail is the topmost occurrence: any earlier
        entry with a greater position was already dead when the later
        one was pushed."""
        lst = self._idx.get(key)
        if not lst:
            return -1
        stack = self.stack
        n = len(stack)
        while lst:
            p, node = lst[-1]
            if p < n and stack[p] is node:
                return p
            lst.pop()
        return -1

    def _idx_pos(self, target):
        """Current stack position of the specific node ``target``, or
        -1 (index-backed membership/index for deep stacks). Dead
        entries found along the way are deleted — any path that puts a
        node back on the stack records a fresh entry, so a dead entry
        is never the only witness."""
        e = target._ie
        if e is not None and e[1] is target:
            p = e[0]
            stack = self.stack
            if p < len(stack) and stack[p] is target:
                return p  # O(1): live backref (the common case)
        lst = self._idx.get((target.ns, target.name))
        if not lst:
            return -1
        stack = self.stack
        n = len(stack)
        i = len(lst) - 1
        while i >= 0:
            p, node = lst[i]
            if p < n and stack[p] is node:
                if node is target:
                    return p
                i -= 1
            else:
                del lst[i]
                i -= 1
        return -1

    def _idx_has(self, target):
        return self._idx_pos(target) != -1

    def _has_open(self, name):
        """Whether an html element ``name`` is anywhere on the stack
        (index-backed when deep — the any(...) scan is quadratic under
        end-tag spam on a hostile-depth stack)."""
        if len(self.stack) >= _DEEP_STACK:
            if self._idx is None:
                self._idx_build()
            return self._idx_top((NS_HTML, name)) != -1
        return any(n.name == name and n.ns == NS_HTML for n in self.stack)

    def in_scope(self, name, scope=_SCOPE_BASE):
        stack = self.stack
        if len(stack) >= _DEEP_STACK:
            # Hostile-depth lane: answer from the position index in
            # O(|scope set|) instead of an O(depth) top-down scan — a
            # 30k-deep misnested crawl page otherwise makes close_p
            # quadratic (measured 37 s CPU for 150 KB of input).
            if self._idx is None:
                self._idx_build()
            it = self._idx_top
            if name.__class__ is str:
                p = it((NS_HTML, name))
            else:
                p = max(it((NS_HTML, n)) for n in name)
            if p == -1:
                return False
            # > not >=: when the target element is itself in the scope
            # set (e.g. in_scope("table", _SCOPE_TABLE)) the scan checks
            # the target first, so the element counts as a hit.
            for pair in scope:
                if it(pair) > p:
                    return False
            return True
        if name.__class__ is str:  # hot lane: no tuple alloc / membership
            for node in reversed(stack):
                if node.name == name and node.ns == NS_HTML:
                    return True
                if (node.ns, node.name) in scope:
                    return False
            return False
        for node in reversed(stack):
            if node.ns == NS_HTML and node.name in name:
                return True
            if (node.ns, node.name) in scope:
                return False
        return False

    def in_select_scope(self, name):
        for node in reversed(self.stack):
            if node.ns == NS_HTML and node.name == name:
                return True
            if not (node.ns == NS_HTML and node.name in ("optgroup", "option")):
                return False
        return False

    def pop_until(self, names):
        if isinstance(names, str):
            names = (names,)
        while self.stack:
            node = self.stack.pop()
            if node.ns == NS_HTML and node.name in names:
                return node
        return None

    def generate_implied_end(self, exclude=None, thorough=False):
        names = IMPLIED_END_THOROUGH if thorough else IMPLIED_END
        while self.stack:
            node = self.stack[-1]
            if node.ns == NS_HTML and node.name in names and node.name != exclude:
                self.stack.pop()
            else:
                return

    def close_p(self):
        if self.in_scope("p", _SCOPE_BUTTON):
            self.generate_implied_end(exclude="p")
            if not (self.current().name == "p" and self.current().ns == NS_HTML):
                self.err("unexpected-open-elements-on-p-close")
            self.pop_until("p")

    def is_special(self, node):
        return (node.ns, node.name) in SPECIAL

    # ------------------------------------------------ active formatting

    def push_afe(self, node):
        # Noah's Ark: max 3 identical entries since last marker. Small
        # afe (every real page) keeps the plain list + backward scan —
        # the indexed _AfeList costs ~10% on fixture pages if always
        # on; hostile sizes upgrade once and get O(1) membership plus
        # scoped key lists instead of a quadratic scan.
        afe = self.afe
        if afe.__class__ is list:
            if len(afe) < _AFE_DEEP:
                count = 0
                for i in range(len(afe) - 1, -1, -1):
                    e = afe[i]
                    if e is None:
                        break
                    if (e.name == node.name and e.ns == node.ns
                            and e.attrs == node.attrs):
                        count += 1
                        if count == 3:
                            afe.pop(i)
                            break
                afe.append(node)
                return
            upgraded = _AfeList()
            for e in afe:
                upgraded.append(e)
            self.afe = afe = upgraded
        lst = afe._noah[-1].get(_afe_key(node))
        if lst and len(lst) >= 3:
            afe.remove(lst[0])  # earliest identical, afe order
        afe.append(node)

    def reconstruct_afe(self):
        afe = self.afe
        if not afe:
            return
        entry = afe[-1]
        if len(self.stack) >= _DEEP_STACK:
            # Index-backed membership: `entry in stack` scans from the
            # bottom, so text under a deep nest re-walked the whole
            # stack per character token (measured 1.6 s / 117 KB).
            if self._idx is None:
                self._idx_build()
            has = self._idx_has
            if entry is None or has(entry):
                return
            i = len(afe) - 1
            while i > 0:
                i -= 1
                e = afe[i]
                if e is None or has(e):
                    i += 1
                    break
            for j in range(i, len(afe)):
                e = afe[j]
                clone = self.insert_element(e.name, dict(e.attrs), e.ns)
                afe[j] = clone
            return
        if entry is None or entry in self.stack:
            return
        i = len(afe) - 1
        while i > 0:
            i -= 1
            e = afe[i]
            if e is None or e in self.stack:
                i += 1
                break
        for j in range(i, len(afe)):
            e = afe[j]
            clone = self.insert_element(e.name, dict(e.attrs), e.ns)
            afe[j] = clone

    def clear_afe_to_marker(self):
        while self.afe:
            e = self.afe.pop()
            if e is None:
                return

    # --------------------------------------------------- adoption agency

    def adoption_agency(self, name):
        cur = self.current()
        if cur is not None and cur.ns == NS_HTML and cur.name == name \
                and cur not in self.afe:
            self.stack.pop()
            return
        for _ in range(8):
            fmt = None
            for e in reversed(self.afe):
                if e is None:
                    break
                if e.name == name:
                    fmt = e
                    break
            if fmt is None:
                self._any_other_end_tag(name)
                return
            if len(self.stack) >= _DEEP_STACK:
                if self._idx is None:
                    self._idx_build()
                fmt_si = self._idx_pos(fmt)
            else:
                fmt_si = self.stack.index(fmt) if fmt in self.stack else -1
            if fmt_si < 0:
                self.err("adoption-agency-1.2")
                self.afe.remove(fmt)
                return
            if not self.in_scope(name):
                self.err("adoption-agency-4.4")
                return
            if fmt is not self.current():
                self.err("adoption-agency-1.3")
            furthest = None
            for i in range(fmt_si + 1, len(self.stack)):
                if self.is_special(self.stack[i]):
                    furthest = self.stack[i]
                    furthest_si = i
                    break
            if furthest is None:
                del self.stack[fmt_si:]
                self.afe.remove(fmt)
                return
            common = self.stack[fmt_si - 1]
            bookmark = _afe_index_of(self.afe, fmt)
            node = furthest
            node_si = furthest_si
            last = furthest
            inner = 0
            pending_del = None
            # Dels are DEFERRED and applied as one slice pass below:
            # walking the unmutated stack visits the same node sequence
            # (each live del shifted indices by exactly the removed
            # slot), while a per-del suffix renote was measured
            # super-quadratic on fmt-deep formatting spam.
            while True:
                inner += 1
                node_si -= 1
                node = self.stack[node_si]
                if node is fmt:
                    break
                if inner > 3 and node in self.afe:
                    self.afe.remove(node)
                if node not in self.afe:
                    if pending_del is None:
                        pending_del = {node_si}
                    else:
                        pending_del.add(node_si)
                    continue
                clone = Node(ELEMENT, node.name, node.ns, dict(node.attrs))
                self.afe[_afe_index_of(self.afe, node)] = clone
                self.stack[node_si] = clone
                if self._idx is not None:
                    # position-preserving replacement: one ordered note
                    self._idx_note_ordered(node_si, clone)
                node = clone
                if last is furthest:
                    bookmark = _afe_index_of(self.afe, clone) + 1
                if last.parent is not None:
                    last.parent.remove(last)
                node.append(last)
                last = node
            if pending_del:
                lo = min(pending_del)
                s = self.stack
                s[lo:] = [s[j] for j in range(lo, len(s))
                          if j not in pending_del]
                if self._idx is not None:
                    self._idx_renote(lo)
            if last.parent is not None:
                last.parent.remove(last)
            parent, before = self.appropriate_place(override=common)
            if before is None:
                parent.append(last)
            else:
                parent.insert_before(last, before)
            clone = Node(ELEMENT, fmt.name, fmt.ns, dict(fmt.attrs))
            # bulk move: per-child remove() is O(k^2) front memmoves
            kids = furthest.children
            clone.children = kids
            for ch in kids:
                ch.parent = clone
            furthest.children = []
            furthest.append(clone)
            if fmt in self.afe:
                idx = _afe_index_of(self.afe, fmt)
                self.afe.remove(fmt)
                if idx < bookmark:
                    bookmark -= 1
                self.afe.insert(bookmark, clone)
            if self._idx is not None:
                ri = self._idx_pos(fmt)
                fi = self._idx_pos(furthest)
                if ri < 0 or fi < 0:  # defensive; restructuring kept both live
                    ri = self.stack.index(fmt)
                    fi = self.stack.index(furthest)
                ipos = fi if fi > ri else fi + 1
                del self.stack[ri]
                self.stack.insert(ipos, clone)
                # Only positions [lo, hi] changed (everything above the
                # insert point is net-unshifted), so fix the window in
                # place instead of renoting the whole suffix: shifted
                # nodes update their live entry via the node backref
                # (contiguous -1 shift preserves key-list order), and
                # the clone gets one ordered note.
                lo, hi = (ri, ipos) if ri <= ipos else (ipos, ri)
                stack = self.stack
                for p2 in range(lo, hi + 1):
                    nd = stack[p2]
                    if nd is clone:
                        self._idx_note_ordered(p2, clone)
                        continue
                    e = nd._ie
                    if e is not None and e[1] is nd and e[0] == p2 + 1:
                        e[0] = p2
                    else:
                        self._idx_note_ordered(p2, nd)
            else:
                self.stack.remove(fmt)
                self.stack.insert(self.stack.index(furthest) + 1, clone)

    def _any_other_end_tag(self, name):
        stack = self.stack
        if len(stack) >= _DEEP_STACK:
            # Index lane: the top-down scan re-walks every open element
            # per misnested end tag — 20k <span> + 20k </b> measured
            # 57 s; the topmost-match / topmost-special comparison is
            # equivalent because the scan errs at the first special
            # non-matching element and matches name-first.
            if self._idx is None:
                self._idx_build()
            m = self._idx_top((NS_HTML, name))
            s = self._idx_top(_SPECIAL_KEY)
            if m == -1 or s > m:
                self.err("unexpected-end-tag")
                return
            node = stack[m]
            self.generate_implied_end(exclude=name)
            if self.current() is not node:
                self.err("unexpected-end-tag")
            del stack[m:]
            return
        for i in range(len(self.stack) - 1, -1, -1):
            node = self.stack[i]
            if node.ns == NS_HTML and node.name == name:
                self.generate_implied_end(exclude=name)
                if self.current() is not node:
                    self.err("unexpected-end-tag")
                del self.stack[i:]
                return
            if self.is_special(node):
                self.err("unexpected-end-tag")
                return

    # -------------------------------------------------------- text helpers

    def _strip_leading_newline(self, data):
        if self.skip_newline:
            self.skip_newline = False
            if data.startswith("\n"):
                return data[1:]
        return data

    def _generic_raw_text(self, name, attrs, state):
        self.insert_element(name, attrs)
        self.tokenizer.state = state
        self.original_mode = self.mode
        self.mode = "text"

    def reset_insertion_mode(self):
        start = len(self.stack) - 1
        if start + 1 >= _DEEP_STACK:
            # Elements above the topmost mode-deciding name match no
            # rule, so the walk may begin there — O(depth) per
            # </table>-style reset made deep stacks quadratic.
            if self._idx is None:
                self._idx_build()
            it = self._idx_top
            start = 0
            for nm in _MODE_NAMES:
                q = it((NS_HTML, nm))
                if q > start:
                    start = q
        for i in range(start, -1, -1):
            node = self.stack[i]
            last = i == 0
            if last and self.fragment_context is not None:
                node = self.fragment_context  # fragment case (spec 13.2.4.1)
            name = node.name if node.ns == NS_HTML else None
            if name == "select":
                if len(self.stack) >= _DEEP_STACK and self._idx is not None:
                    t = self._idx_top((NS_HTML, "table"))
                    tm = self._idx_top((NS_HTML, "template"))
                    self.mode = "in_select_in_table" if t > tm else "in_select"
                    return
                mode = "in_select"
                for j in range(i - 1, 0, -1):
                    anc = self.stack[j]
                    if anc.ns == NS_HTML and anc.name == "template":
                        break
                    if anc.ns == NS_HTML and anc.name == "table":
                        mode = "in_select_in_table"
                        break
                self.mode = mode
                return
            if name in _CELLS and not last:
                self.mode = "in_cell"
                return
            if name == "tr":
                self.mode = "in_row"
                return
            if name in _TABLE_SECTION:
                self.mode = "in_table_body"
                return
            if name == "caption":
                self.mode = "in_caption"
                return
            if name == "colgroup":
                self.mode = "in_column_group"
                return
            if name == "table":
                self.mode = "in_table"
                return
            if name == "template":
                self.mode = self.template_modes[-1]
                return
            if name == "head" and not last:
                self.mode = "in_head"
                return
            if name == "body":
                self.mode = "in_body"
                return
            if name == "frameset":
                self.mode = "in_frameset"
                return
            if name == "html":
                self.mode = "before_head" if self.head is None else "after_head"
                return
            if last:
                self.mode = "in_body"
                return

    # ================================================================ modes

    def mode_initial(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = tok[1].lstrip(_WS)
            if not data:
                return
            tok = ("Character", data)
        elif kind == "Comment":
            self.insert_comment(tok[1], self.doc)
            return
        elif kind == "DOCTYPE":
            name, public, system, force_quirks = tok[1], tok[2], tok[3], tok[4]
            self.doc.doctype_name = name
            self.doc.doctype_public = public
            self.doc.doctype_system = system
            node = Node(DOCTYPE, name or "")
            if public is not None or system is not None:
                # carried for html5lib-format serialization
                node.attrs = {"public": public or "", "system": system or ""}
            self.doc.append(node)
            # spec: anything but <!DOCTYPE html> (optionally with the
            # legacy-compat system id) is an unknown-doctype error — an
            # EMPTY public id string is still a present public id
            if name != "html" or public is not None \
                    or system not in (None, "about:legacy-compat"):
                self.err("unknown-doctype")
            self.doc.quirks = self._classify_quirks(name, public, system,
                                                    force_quirks)
            self.mode = "before_html"
            return
        self.err("expected-doctype-but-got-" +
                 {"StartTag": "start-tag", "EndTag": "end-tag",
                  "EOF": "eof"}.get(kind, "chars"))
        self.doc.quirks = QUIRKS_YES
        self.mode = "before_html"
        self.reprocess(tok)

    def _classify_quirks(self, name, public, system, force_quirks):
        pl = public.lower() if public is not None else None
        sl = system.lower() if system is not None else None
        if force_quirks or name != "html":
            return QUIRKS_YES
        if pl is not None:
            if pl in _QUIRKS_PUBLIC_EXACT:
                return QUIRKS_YES
            if pl.startswith(_QUIRKS_PUBLIC_PREFIX):
                return QUIRKS_YES
            if sl is None and pl.startswith(_QUIRKS_PUBLIC_PREFIX_NOSYS):
                return QUIRKS_YES
            if pl.startswith(_LIMITED_PUBLIC_PREFIX):
                return QUIRKS_LIMITED
            if sl is not None and pl.startswith(_QUIRKS_PUBLIC_PREFIX_NOSYS):
                return QUIRKS_LIMITED
        if sl is not None and sl in _QUIRKS_SYSTEM_EXACT:
            return QUIRKS_YES
        return QUIRKS_NO

    def mode_before_html(self, tok):
        kind = tok[0]
        if kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        if kind == "Comment":
            self.insert_comment(tok[1], self.doc)
            return
        if kind == "Character":
            data = tok[1].lstrip(_WS)
            if not data:
                return
            tok = ("Character", data)
        elif kind == "StartTag" and tok[1] == "html":
            node = Node(ELEMENT, "html", NS_HTML, tok[2])
            self.doc.append(node)
            self.stack.append(node)
            if self._idx is not None:
                self._idx_note(node)
            self.mode = "before_head"
            return
        elif kind == "EndTag" and tok[1] not in ("head", "body", "html", "br"):
            self.err("unexpected-end-tag-before-html")
            return
        node = Node(ELEMENT, "html", NS_HTML, {})
        self.doc.append(node)
        self.stack.append(node)
        if self._idx is not None:
            self._idx_note(node)
        self.mode = "before_head"
        self.reprocess(tok)

    def mode_before_head(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = tok[1].lstrip(_WS)
            if not data:
                return
            tok = ("Character", data)
        elif kind == "Comment":
            self.insert_comment(tok[1])
            return
        elif kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        elif kind == "StartTag":
            if tok[1] == "html":
                return self.mode_in_body(tok)
            if tok[1] == "head":
                self.head = self.insert_element("head", tok[2])
                self.mode = "in_head"
                return
        elif kind == "EndTag" and tok[1] not in ("head", "body", "html", "br"):
            self.err("end-tag-after-implied-root")
            return
        self.head = self.insert_element("head", {})
        self.mode = "in_head"
        self.reprocess(tok)

    def mode_in_head(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = tok[1]
            ws = data[:len(data) - len(data.lstrip(_WS))]
            if ws:
                self.insert_text(ws)
            rest = data[len(ws):]
            if not rest:
                return
            tok = ("Character", rest)
        elif kind == "Comment":
            self.insert_comment(tok[1])
            return
        elif kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        elif kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self.mode_in_body(tok)
            if name in ("base", "basefont", "bgsound", "link", "meta"):
                self.insert_element(name, tok[2], push=False)
                return
            if name == "title":
                return self._generic_raw_text(name, tok[2], tkz.RCDATA)
            if name in ("noframes", "style", "noscript"):
                # scripting disabled → noscript parsed; keep content visible
                if name == "noscript":
                    self.insert_element(name, tok[2])
                    self.mode = "in_head_noscript"
                    return
                return self._generic_raw_text(name, tok[2], tkz.RAWTEXT)
            if name == "script":
                return self._generic_raw_text(name, tok[2], tkz.SCRIPT_DATA)
            if name == "template":
                self.insert_element(name, tok[2])
                self.afe.append(None)
                self.frameset_ok = False
                self.mode = "in_template"
                self.template_modes.append("in_template")
                return
            if name == "head":
                self.err("two-heads-are-not-better-than-one")
                return
        elif kind == "EndTag":
            name = tok[1]
            if name == "head":
                self.stack.pop()
                self.mode = "after_head"
                return
            if name == "template":
                if not self._has_open("template"):
                    self.err("unexpected-end-tag")
                    return
                self.generate_implied_end(thorough=True)
                if self.current().name != "template":
                    self.err("unexpected-open-elements-on-template-close")
                self.pop_until("template")
                self.clear_afe_to_marker()
                if self.template_modes:
                    self.template_modes.pop()
                self.reset_insertion_mode()
                return
            if name not in ("body", "html", "br"):
                self.err("unexpected-end-tag")
                return
        self.stack.pop()  # head
        self.mode = "after_head"
        self.reprocess(tok)

    def mode_in_head_noscript(self, tok):
        kind = tok[0]
        if kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        if kind == "StartTag":
            if tok[1] == "html":
                return self.mode_in_body(tok)
            if tok[1] in ("basefont", "bgsound", "link", "meta", "noframes",
                          "style"):
                return self.mode_in_head(tok)
            if tok[1] in ("head", "noscript"):
                self.err("unexpected-start-tag")
                return
        elif kind == "EndTag":
            if tok[1] == "noscript":
                self.stack.pop()
                self.mode = "in_head"
                return
            if tok[1] != "br":
                self.err("unexpected-end-tag")
                return
        elif kind == "Character":
            data = tok[1]
            ws = data[:len(data) - len(data.lstrip(_WS))]
            if ws:
                self.insert_text(ws)
            rest = data[len(ws):]
            if not rest:
                return
            tok = ("Character", rest)
        elif kind == "Comment":
            return self.mode_in_head(tok)
        self.err("eof-in-head-noscript" if kind == "EOF" else "unexpected-in-head-noscript")
        self.stack.pop()
        self.mode = "in_head"
        self.reprocess(tok)

    def mode_after_head(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = tok[1]
            ws = data[:len(data) - len(data.lstrip(_WS))]
            if ws:
                self.insert_text(ws)
            rest = data[len(ws):]
            if not rest:
                return
            tok = ("Character", rest)
        elif kind == "Comment":
            self.insert_comment(tok[1])
            return
        elif kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        elif kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self.mode_in_body(tok)
            if name == "body":
                self.insert_element("body", tok[2])
                self.frameset_ok = False
                self.mode = "in_body"
                return
            if name == "frameset":
                self.insert_element("frameset", tok[2])
                self.mode = "in_frameset"
                return
            if name in _IN_HEAD_PASSTHROUGH:
                self.err("unexpected-start-tag-out-of-my-head")
                self.stack.append(self.head)
                if self._idx is not None:
                    self._idx_note(self.head)
                self.mode_in_head(tok)
                if self._idx is not None:
                    hp = self._idx_pos(self.head)
                    if hp != -1:
                        del self.stack[hp]
                        self._idx_renote(hp)
                elif self.head in self.stack:
                    self.stack.remove(self.head)
                return
            if name == "head":
                self.err("unexpected-start-tag")
                return
        elif kind == "EndTag":
            if tok[1] == "template":
                return self.mode_in_head(tok)
            if tok[1] not in ("body", "html", "br"):
                self.err("unexpected-end-tag")
                return
        self.insert_element("body", {})
        self.mode = "in_body"
        self.reprocess(tok)

    # ------------------------------------------------------------- in body

    def mode_in_body(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = self._strip_leading_newline(tok[1])
            if not data:
                return
            if "\x00" in data:
                self.err("invalid-codepoint")
                data = data.replace("\x00", "")
                if not data:
                    return
            self.reconstruct_afe()
            self.insert_text(data)
            if self.frameset_ok and data.strip(_WS):
                self.frameset_ok = False
            return
        if kind == "Comment":
            self.insert_comment(tok[1])
            return
        if kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        if kind == "StartTag":
            return self._in_body_start(tok)
        if kind == "EndTag":
            return self._in_body_end(tok)
        # EOF
        if self.template_modes:
            return self.mode_in_template(tok)
        for node in self.stack:
            if node.name not in ("dd", "dt", "li", "p", "tbody", "td", "tfoot",
                                 "th", "thead", "tr", "body", "html"):
                self.err("expected-closing-tag-but-got-eof")
                break
        self.done = True

    _IN_BODY_PLAIN = frozenset((
        # common inline tags with NO special in-body rule (spec "any
        # other start tag") — one set test short-circuits the chain
        "span", "abbr", "cite", "q", "kbd", "samp", "var", "dfn", "bdi",
        "bdo", "data", "time", "mark", "sub", "sup", "picture", "label",
        "output", "meter", "progress", "ins", "del",
    ))

    def _in_body_start(self, tok):
        # name-keyed dict dispatch (built once at module import; the
        # fallback IS the spec's "any other start tag")
        f = _IBS_DISPATCH.get(tok[1])
        if f is None:
            self.reconstruct_afe()
            self.insert_element(tok[1], tok[2])
            return
        return f(self, tok)

    def _ibs_plain(self, tok):
        self.reconstruct_afe()
        self.insert_element(tok[1], tok[2])

    def _ibs_html(self, tok):
        self.err("non-html-root")
        if self._has_open("template"):
            return
        html = self.stack[0]
        for k, v in tok[2].items():
            html.attrs.setdefault(k, v)

    def _ibs_in_head(self, tok):
        return self.mode_in_head(tok)

    def _ibs_body(self, tok):
        self.err("unexpected-start-tag")
        if len(self.stack) < 2 or self.stack[1].name != "body" or \
                self._has_open("template"):
            return
        self.frameset_ok = False
        body = self.stack[1]
        for k, v in tok[2].items():
            body.attrs.setdefault(k, v)

    def _ibs_frameset(self, tok):
        self.err("unexpected-start-tag")
        if len(self.stack) < 2 or self.stack[1].name != "body" \
                or not self.frameset_ok:
            return
        body = self.stack[1]
        if body.parent is not None:
            body.parent.remove(body)
        del self.stack[1:]
        detach(body)  # dropped for good: free it by refcount
        self.insert_element("frameset", tok[2])
        self.mode = "in_frameset"

    def _ibs_block(self, tok):
        self.close_p()
        self.insert_element(tok[1], tok[2])

    def _ibs_heading(self, tok):
        self.close_p()
        if self.current().name in _HEADINGS and self.current().ns == NS_HTML:
            self.err("unexpected-start-tag")
            self.stack.pop()
        self.insert_element(tok[1], tok[2])

    def _ibs_pre(self, tok):
        self.close_p()
        self.insert_element(tok[1], tok[2])
        self.skip_newline = True
        self.frameset_ok = False

    def _ibs_form(self, tok):
        if self.form is not None and not self._has_open("template"):
            self.err("unexpected-start-tag")
            return
        self.close_p()
        node = self.insert_element("form", tok[2])
        if not self._has_open("template"):
            self.form = node

    def _ibs_li(self, tok):
        self.frameset_ok = False
        if len(self.stack) >= _DEEP_STACK:
            # address/div/p are exempt from the loop's special-element
            # stop, so a deep div nest made every <li> walk the whole
            # stack; compare topmost li vs topmost non-exempt special.
            if self._idx is None:
                self._idx_build()
            m = self._idx_top((NS_HTML, "li"))
            # >=: li is itself "special", and the scan checks the name
            # match before the special-element stop.
            if m != -1 and m >= self._idx_top(_SPECIAL_LI_KEY):
                self.generate_implied_end(exclude="li")
                if self.current().name != "li":
                    self.err("unexpected-open-elements-on-li-close")
                self.pop_until("li")
        else:
            for node in reversed(self.stack):
                if node.ns == NS_HTML and node.name == "li":
                    self.generate_implied_end(exclude="li")
                    if self.current().name != "li":
                        self.err("unexpected-open-elements-on-li-close")
                    self.pop_until("li")
                    break
                if self.is_special(node) and node.name not in ("address", "div", "p"):
                    break
        self.close_p()
        self.insert_element("li", tok[2])

    def _ibs_dd_dt(self, tok):
        self.frameset_ok = False
        if len(self.stack) >= _DEEP_STACK:
            if self._idx is None:
                self._idx_build()
            m = max(self._idx_top((NS_HTML, "dd")),
                    self._idx_top((NS_HTML, "dt")))
            # >=: dd/dt are themselves "special" (name match wins).
            if m != -1 and m >= self._idx_top(_SPECIAL_LI_KEY):
                node = self.stack[m]
                self.generate_implied_end(exclude=node.name)
                if self.current() is not node:
                    self.err("unexpected-open-elements-on-dd-close")
                self.pop_until(("dd", "dt"))
        else:
            for node in reversed(self.stack):
                if node.ns == NS_HTML and node.name in ("dd", "dt"):
                    self.generate_implied_end(exclude=node.name)
                    if self.current() is not node:
                        self.err("unexpected-open-elements-on-dd-close")
                    self.pop_until(("dd", "dt"))
                    break
                if self.is_special(node) and node.name not in ("address", "div", "p"):
                    break
        self.close_p()
        self.insert_element(tok[1], tok[2])

    def _ibs_plaintext(self, tok):
        self.close_p()
        self.insert_element(tok[1], tok[2])
        self.tokenizer.state = tkz.PLAINTEXT

    def _ibs_button(self, tok):
        if self.in_scope("button"):
            self.err("unexpected-start-tag")
            self.generate_implied_end()
            self.pop_until("button")
        self.reconstruct_afe()
        self.insert_element(tok[1], tok[2])
        self.frameset_ok = False

    def _ibs_a(self, tok):
        for e in reversed(self.afe):
            if e is None:
                break
            if e.name == "a":
                self.err("unexpected-start-tag-implies-end-tag")
                self.adoption_agency("a")
                if e in self.afe:
                    self.afe.remove(e)
                if self._idx is not None:
                    ep = self._idx_pos(e)
                    if ep != -1:
                        del self.stack[ep]
                        self._idx_renote(ep)
                elif e in self.stack:
                    self.stack.remove(e)
                break
        self.reconstruct_afe()
        node = self.insert_element(tok[1], tok[2])
        self.push_afe(node)

    def _ibs_formatting(self, tok):
        name = tok[1]
        # spec order: reconstruct FIRST, then the nobr-in-scope check —
        # checking scope first missed stale AFE nobrs and nested the new
        # nobr inside the reconstructed clone
        self.reconstruct_afe()
        if name == "nobr" and self.in_scope("nobr"):
            self.err("unexpected-start-tag-implies-end-tag")
            self.adoption_agency("nobr")
            self.reconstruct_afe()
        node = self.insert_element(name, tok[2])
        self.push_afe(node)

    def _ibs_applet(self, tok):
        self.reconstruct_afe()
        self.insert_element(tok[1], tok[2])
        self.afe.append(None)
        self.frameset_ok = False

    def _ibs_table(self, tok):
        if self.doc.quirks != QUIRKS_YES:
            self.close_p()
        self.insert_element(tok[1], tok[2])
        self.frameset_ok = False
        self.mode = "in_table"

    def _ibs_void(self, tok):
        self.reconstruct_afe()
        self.insert_element(tok[1], tok[2], push=False)
        self.frameset_ok = False

    def _ibs_input(self, tok):
        self.reconstruct_afe()
        self.insert_element(tok[1], tok[2], push=False)
        if tok[2].get("type", "").lower() != "hidden":
            self.frameset_ok = False

    def _ibs_param(self, tok):
        self.insert_element(tok[1], tok[2], push=False)

    def _ibs_hr(self, tok):
        self.close_p()
        self.insert_element(tok[1], tok[2], push=False)
        self.frameset_ok = False

    def _ibs_image(self, tok):
        self.err("image-start-tag")
        return self._in_body_start(("StartTag", "img", tok[2], tok[3]))

    def _ibs_textarea(self, tok):
        self.insert_element(tok[1], tok[2])
        self.skip_newline = True
        self.tokenizer.state = tkz.RCDATA
        self.original_mode = self.mode
        self.frameset_ok = False
        self.mode = "text"

    def _ibs_xmp(self, tok):
        self.close_p()
        self.reconstruct_afe()
        self.frameset_ok = False
        return self._generic_raw_text(tok[1], tok[2], tkz.RAWTEXT)

    def _ibs_iframe(self, tok):
        self.frameset_ok = False
        return self._generic_raw_text(tok[1], tok[2], tkz.RAWTEXT)

    def _ibs_noembed(self, tok):
        return self._generic_raw_text(tok[1], tok[2], tkz.RAWTEXT)

    def _ibs_select(self, tok):
        self.reconstruct_afe()
        self.insert_element(tok[1], tok[2])
        self.frameset_ok = False
        if self.mode in ("in_table", "in_caption", "in_table_body",
                         "in_row", "in_cell"):
            self.mode = "in_select_in_table"
        else:
            self.mode = "in_select"

    def _ibs_option(self, tok):
        if self.current().name == "option" and self.current().ns == NS_HTML:
            self.stack.pop()
        self.reconstruct_afe()
        self.insert_element(tok[1], tok[2])

    def _ibs_rb_rtc(self, tok):
        if self.in_scope("ruby"):
            self.generate_implied_end()
            if self.current().name != "ruby":
                self.err("unexpected-start-tag")
        self.insert_element(tok[1], tok[2])

    def _ibs_rp_rt(self, tok):
        if self.in_scope("ruby"):
            self.generate_implied_end(exclude="rtc")
            if self.current().name not in ("ruby", "rtc"):
                self.err("unexpected-start-tag")
        self.insert_element(tok[1], tok[2])

    def _ibs_math(self, tok):
        self.reconstruct_afe()
        attrs = self._adjust_foreign_attrs(tok[2], NS_MATHML)
        self.insert_element(tok[1], attrs, ns=NS_MATHML)
        if tok[3]:
            self.stack.pop()

    def _ibs_svg(self, tok):
        self.reconstruct_afe()
        attrs = self._adjust_foreign_attrs(tok[2], NS_SVG)
        self.insert_element(tok[1], attrs, ns=NS_SVG)
        if tok[3]:
            self.stack.pop()

    def _ibs_table_ignored(self, tok):
        self.err("unexpected-start-tag-ignored")

    def _in_body_end(self, tok):
        name = tok[1]
        if name == "template":
            return self.mode_in_head(tok)
        if name == "body":
            if not self.in_scope("body"):
                self.err("unexpected-end-tag")
                return
            self._check_unclosed_on_body_end()
            self.mode = "after_body"
            return
        if name == "html":
            if not self.in_scope("body"):
                self.err("unexpected-end-tag")
                return
            self._check_unclosed_on_body_end()
            self.mode = "after_body"
            self.reprocess(tok)
            return
        if name in _BLOCK_CLOSES_P and name != "p" or name in (
                "button", "listing", "pre"):
            if not self.in_scope(name):
                self.err("unexpected-end-tag")
                return
            self.generate_implied_end()
            if self.current().name != name:
                self.err("end-tag-too-early")
            self.pop_until(name)
            return
        if name == "form":
            if not self._has_open("template"):
                node = self.form
                self.form = None
                if node is None or not self.in_scope("form"):
                    self.err("unexpected-end-tag")
                    return
                self.generate_implied_end()
                if self.current() is not node:
                    self.err("end-tag-too-early-ignored")
                if self._idx is not None:
                    np_ = self._idx_pos(node)
                    if np_ != -1:
                        del self.stack[np_]
                        self._idx_renote(np_)
                elif node in self.stack:
                    self.stack.remove(node)
            else:
                if not self.in_scope("form"):
                    self.err("unexpected-end-tag")
                    return
                self.generate_implied_end()
                if self.current().name != "form":
                    self.err("end-tag-too-early-ignored")
                self.pop_until("form")
            return
        if name == "p":
            if not self.in_scope("p", _SCOPE_BUTTON):
                self.err("unexpected-end-tag")
                self.insert_element("p", {})
            self.close_p()
            return
        if name == "li":
            if not self.in_scope("li", _SCOPE_LIST):
                self.err("unexpected-end-tag")
                return
            self.generate_implied_end(exclude="li")
            if self.current().name != "li":
                self.err("end-tag-too-early")
            self.pop_until("li")
            return
        if name in ("dd", "dt"):
            if not self.in_scope(name):
                self.err("unexpected-end-tag")
                return
            self.generate_implied_end(exclude=name)
            if self.current().name != name:
                self.err("end-tag-too-early")
            self.pop_until(name)
            return
        if name in _HEADINGS:
            if not self.in_scope(_HEADINGS):
                self.err("unexpected-end-tag")
                return
            self.generate_implied_end()
            if self.current().name != name:
                self.err("end-tag-too-early")
            self.pop_until(_HEADINGS)
            return
        if name in FORMATTING:
            return self.adoption_agency(name)
        if name in ("applet", "marquee", "object"):
            if not self.in_scope(name):
                self.err("unexpected-end-tag")
                return
            self.generate_implied_end()
            if self.current().name != name:
                self.err("end-tag-too-early")
            self.pop_until(name)
            self.clear_afe_to_marker()
            return
        if name == "br":
            self.err("unexpected-end-tag-treated-as")
            self.reconstruct_afe()
            self.insert_element("br", {}, push=False)
            self.frameset_ok = False
            return
        self._any_other_end_tag(name)

    def _check_unclosed_on_body_end(self):
        for node in self.stack:
            if node.name not in ("dd", "dt", "li", "optgroup", "option", "p",
                                 "rb", "rp", "rt", "rtc", "tbody", "td",
                                 "tfoot", "th", "thead", "tr", "body", "html"):
                self.err("expected-one-end-tag-but-got-another")
                break

    # ---------------------------------------------------------------- text

    def mode_text(self, tok):
        kind = tok[0]
        if kind == "Character":
            # The skipped leading newline can consume the entire run
            # (e.g. "<textarea>\n</textarea>"); inserting "" would leave
            # an empty text node the per-character spec never creates.
            data = self._strip_leading_newline(tok[1])
            if data:
                self.insert_text(data)
            return
        if kind == "EOF":
            self.err("expected-named-closing-tag-but-got-eof")
            self.stack.pop()
            self.mode = self.original_mode
            self.reprocess(tok)
            return
        # any end tag
        self.stack.pop()
        self.mode = self.original_mode

    # --------------------------------------------------------------- table

    def _clear_to_context(self, names):
        while self.stack:
            node = self.stack[-1]
            if node.ns == NS_HTML and node.name in names:
                return
            self.stack.pop()

    def mode_in_table(self, tok):
        kind = tok[0]
        if kind == "Character":
            cur = self.current()
            if cur.ns == NS_HTML and cur.name in ("table", "tbody", "tfoot",
                                                  "thead", "tr"):
                self.pending_text = []
                self.original_mode = self.mode
                self.mode = "in_table_text"
                return self.mode_in_table_text(tok)
            return self._in_table_anything_else(tok)
        if kind == "Comment":
            self.insert_comment(tok[1])
            return
        if kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        if kind == "StartTag":
            name = tok[1]
            if name == "caption":
                self._clear_to_context(("table", "template", "html"))
                self.afe.append(None)
                self.insert_element(name, tok[2])
                self.mode = "in_caption"
                return
            if name == "colgroup":
                self._clear_to_context(("table", "template", "html"))
                self.insert_element(name, tok[2])
                self.mode = "in_column_group"
                return
            if name == "col":
                self._clear_to_context(("table", "template", "html"))
                self.insert_element("colgroup", {})
                self.mode = "in_column_group"
                return self.reprocess(tok)
            if name in _TABLE_SECTION:
                self._clear_to_context(("table", "template", "html"))
                self.insert_element(name, tok[2])
                self.mode = "in_table_body"
                return
            if name in ("td", "th", "tr"):
                self._clear_to_context(("table", "template", "html"))
                self.insert_element("tbody", {})
                self.mode = "in_table_body"
                return self.reprocess(tok)
            if name == "table":
                self.err("unexpected-start-tag-implies-end-tag")
                if not self.in_scope("table", _SCOPE_TABLE):
                    return
                self.pop_until("table")
                self.reset_insertion_mode()
                return self.reprocess(tok)
            if name in ("style", "script", "template"):
                return self.mode_in_head(tok)
            if name == "input":
                if tok[2].get("type", "").lower() == "hidden":
                    self.err("unexpected-hidden-input-in-table")
                    self.insert_element(name, tok[2], push=False)
                    return
                return self._in_table_anything_else(tok)
            if name == "form":
                self.err("unexpected-form-in-table")
                if self.form is None and not self._has_open("template"):
                    self.form = self.insert_element(name, tok[2], push=False)
                return
            return self._in_table_anything_else(tok)
        if kind == "EndTag":
            name = tok[1]
            if name == "table":
                if not self.in_scope("table", _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self.pop_until("table")
                self.reset_insertion_mode()
                return
            if name in ("body", "caption", "col", "colgroup", "html",
                        "tbody", "td", "tfoot", "th", "thead", "tr"):
                self.err("unexpected-end-tag")
                return
            if name == "template":
                return self.mode_in_head(tok)
            return self._in_table_anything_else(tok)
        # EOF
        return self.mode_in_body(tok)

    def _in_table_anything_else(self, tok):
        self.err("unexpected-token-in-table")
        self.foster = True
        self.mode_in_body(tok)
        self.foster = False

    def mode_in_table_text(self, tok):
        if tok[0] == "Character":
            data = tok[1]
            if "\x00" in data:
                self.err("invalid-codepoint")
                data = data.replace("\x00", "")
            if data:
                self.pending_text.append(data)
            return
        text = "".join(self.pending_text)
        self.pending_text = []
        if text:
            if text.strip(_WS):
                # non-whitespace → foster-parent via in-body rules
                self.err("foster-parenting-character")
                self.foster = True
                self.reconstruct_afe()
                self.insert_text(text)
                self.frameset_ok = False
                self.foster = False
            else:
                self.insert_text(text)
        self.mode = self.original_mode
        self.reprocess(tok)

    def mode_in_caption(self, tok):
        kind = tok[0]
        if kind == "StartTag" and tok[1] in (
                "caption", "col", "colgroup", "tbody", "td", "tfoot", "th",
                "thead", "tr") or (kind == "EndTag" and tok[1] == "table"):
            if not self.in_scope("caption", _SCOPE_TABLE):
                self.err("unexpected-token")
                return
            self.generate_implied_end()
            if self.current().name != "caption":
                self.err("expected-caption")
            self.pop_until("caption")
            self.clear_afe_to_marker()
            self.mode = "in_table"
            return self.reprocess(tok)
        if kind == "EndTag":
            if tok[1] == "caption":
                if not self.in_scope("caption", _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self.generate_implied_end()
                if self.current().name != "caption":
                    self.err("expected-caption")
                self.pop_until("caption")
                self.clear_afe_to_marker()
                self.mode = "in_table"
                return
            if tok[1] in ("body", "col", "colgroup", "html", "tbody", "td",
                          "tfoot", "th", "thead", "tr"):
                self.err("unexpected-end-tag")
                return
        return self.mode_in_body(tok)

    def mode_in_column_group(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = tok[1]
            ws = data[:len(data) - len(data.lstrip(_WS))]
            if ws:
                self.insert_text(ws)
            rest = data[len(ws):]
            if not rest:
                return
            tok = ("Character", rest)
        elif kind == "Comment":
            self.insert_comment(tok[1])
            return
        elif kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        elif kind == "StartTag":
            if tok[1] == "html":
                return self.mode_in_body(tok)
            if tok[1] == "col":
                self.insert_element("col", tok[2], push=False)
                return
            if tok[1] == "template":
                return self.mode_in_head(tok)
        elif kind == "EndTag":
            if tok[1] == "colgroup":
                if self.current().name != "colgroup":
                    self.err("unexpected-end-tag")
                    return
                self.stack.pop()
                self.mode = "in_table"
                return
            if tok[1] == "col":
                self.err("unexpected-end-tag")
                return
            if tok[1] == "template":
                return self.mode_in_head(tok)
        elif kind == "EOF":
            return self.mode_in_body(tok)
        if self.current().name != "colgroup":
            self.err("unexpected-token")
            return
        self.stack.pop()
        self.mode = "in_table"
        self.reprocess(tok)

    def mode_in_table_body(self, tok):
        kind = tok[0]
        if kind == "StartTag":
            name = tok[1]
            if name == "tr":
                self._clear_to_context(("tbody", "tfoot", "thead", "template",
                                        "html"))
                self.insert_element(name, tok[2])
                self.mode = "in_row"
                return
            if name in _CELLS:
                self.err("unexpected-cell-in-table-body")
                self._clear_to_context(("tbody", "tfoot", "thead", "template",
                                        "html"))
                self.insert_element("tr", {})
                self.mode = "in_row"
                return self.reprocess(tok)
            if name in ("caption", "col", "colgroup", "tbody", "tfoot",
                        "thead"):
                if not self.in_scope(_TABLE_SECTION, _SCOPE_TABLE):
                    self.err("unexpected-start-tag")
                    return
                self._clear_to_context(("tbody", "tfoot", "thead", "template",
                                        "html"))
                self.stack.pop()
                self.mode = "in_table"
                return self.reprocess(tok)
        elif kind == "EndTag":
            name = tok[1]
            if name in _TABLE_SECTION:
                if not self.in_scope(name, _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self._clear_to_context(("tbody", "tfoot", "thead", "template",
                                        "html"))
                self.stack.pop()
                self.mode = "in_table"
                return
            if name == "table":
                if not self.in_scope(_TABLE_SECTION, _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self._clear_to_context(("tbody", "tfoot", "thead", "template",
                                        "html"))
                self.stack.pop()
                self.mode = "in_table"
                return self.reprocess(tok)
            if name in ("body", "caption", "col", "colgroup", "html", "td",
                        "th", "tr"):
                self.err("unexpected-end-tag")
                return
        return self.mode_in_table(tok)

    def mode_in_row(self, tok):
        kind = tok[0]
        if kind == "StartTag":
            name = tok[1]
            if name in _CELLS:
                self._clear_to_context(("tr", "template", "html"))
                self.insert_element(name, tok[2])
                self.mode = "in_cell"
                self.afe.append(None)
                return
            if name in ("caption", "col", "colgroup", "tbody", "tfoot",
                        "thead", "tr"):
                if not self.in_scope("tr", _SCOPE_TABLE):
                    self.err("unexpected-start-tag")
                    return
                self._clear_to_context(("tr", "template", "html"))
                self.stack.pop()
                self.mode = "in_table_body"
                return self.reprocess(tok)
        elif kind == "EndTag":
            name = tok[1]
            if name == "tr":
                if not self.in_scope("tr", _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self._clear_to_context(("tr", "template", "html"))
                self.stack.pop()
                self.mode = "in_table_body"
                return
            if name == "table":
                if not self.in_scope("tr", _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self._clear_to_context(("tr", "template", "html"))
                self.stack.pop()
                self.mode = "in_table_body"
                return self.reprocess(tok)
            if name in _TABLE_SECTION:
                if not self.in_scope(name, _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                if not self.in_scope("tr", _SCOPE_TABLE):
                    return
                self._clear_to_context(("tr", "template", "html"))
                self.stack.pop()
                self.mode = "in_table_body"
                return self.reprocess(tok)
            if name in ("body", "caption", "col", "colgroup", "html", "td",
                        "th"):
                self.err("unexpected-end-tag")
                return
        return self.mode_in_table(tok)

    def mode_in_cell(self, tok):
        kind = tok[0]
        if kind == "StartTag" and tok[1] in (
                "caption", "col", "colgroup", "tbody", "td", "tfoot", "th",
                "thead", "tr"):
            if not self.in_scope(_CELLS, _SCOPE_TABLE):
                self.err("unexpected-start-tag")
                return
            self._close_cell()
            return self.reprocess(tok)
        if kind == "EndTag":
            name = tok[1]
            if name in _CELLS:
                if not self.in_scope(name, _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self.generate_implied_end()
                if self.current().name != name:
                    self.err("expected-cell")
                self.pop_until(name)
                self.clear_afe_to_marker()
                self.mode = "in_row"
                return
            if name in ("body", "caption", "col", "colgroup", "html"):
                self.err("unexpected-end-tag")
                return
            if name in ("table", "tbody", "tfoot", "thead", "tr"):
                if not self.in_scope(name, _SCOPE_TABLE):
                    self.err("unexpected-end-tag")
                    return
                self._close_cell()
                return self.reprocess(tok)
        return self.mode_in_body(tok)

    def _close_cell(self):
        self.generate_implied_end()
        if self.current().name not in _CELLS:
            self.err("expected-cell")
        self.pop_until(_CELLS)
        self.clear_afe_to_marker()
        self.mode = "in_row"

    # -------------------------------------------------------------- select

    def mode_in_select(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = tok[1]
            if "\x00" in data:
                self.err("invalid-codepoint")
                data = data.replace("\x00", "")
            if data:
                self.insert_text(data)
            return
        if kind == "Comment":
            self.insert_comment(tok[1])
            return
        if kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        if kind == "StartTag":
            name = tok[1]
            if name == "html":
                return self.mode_in_body(tok)
            if name == "option":
                if self.current().name == "option":
                    self.stack.pop()
                self.insert_element(name, tok[2])
                return
            if name == "optgroup":
                if self.current().name == "option":
                    self.stack.pop()
                if self.current().name == "optgroup":
                    self.stack.pop()
                self.insert_element(name, tok[2])
                return
            if name == "hr":
                # spec 13.2.6.4.16 "hr" (stylable-select addition): pop
                # an open option/optgroup, then insert-and-pop the void
                if self.current().name == "option":
                    self.stack.pop()
                if self.current().name == "optgroup":
                    self.stack.pop()
                self.insert_element(name, tok[2], push=False)
                return
            if name == "select":
                self.err("unexpected-select-in-select")
                if not self.in_select_scope("select"):
                    return
                self.pop_until("select")
                self.reset_insertion_mode()
                return
            if name in ("input", "keygen", "textarea"):
                self.err("unexpected-input-in-select")
                if not self.in_select_scope("select"):
                    return
                self.pop_until("select")
                self.reset_insertion_mode()
                return self.reprocess(tok)
            if name in ("script", "template"):
                return self.mode_in_head(tok)
        elif kind == "EndTag":
            name = tok[1]
            if name == "optgroup":
                if self.current().name == "option" and len(self.stack) > 1 \
                        and self.stack[-2].name == "optgroup":
                    self.stack.pop()
                if self.current().name == "optgroup":
                    self.stack.pop()
                else:
                    self.err("unexpected-end-tag")
                return
            if name == "option":
                if self.current().name == "option":
                    self.stack.pop()
                else:
                    self.err("unexpected-end-tag")
                return
            if name == "select":
                if not self.in_select_scope("select"):
                    self.err("unexpected-end-tag")
                    return
                self.pop_until("select")
                self.reset_insertion_mode()
                return
            if name == "template":
                return self.mode_in_head(tok)
        elif kind == "EOF":
            return self.mode_in_body(tok)
        self.err("unexpected-token-in-select")

    def mode_in_select_in_table(self, tok):
        kind = tok[0]
        tables = ("caption", "table", "tbody", "tfoot", "thead", "tr", "td",
                  "th")
        if kind == "StartTag" and tok[1] in tables:
            self.err("unexpected-table-element-start-tag-in-select-in-table")
            self.pop_until("select")
            self.reset_insertion_mode()
            return self.reprocess(tok)
        if kind == "EndTag" and tok[1] in tables:
            self.err("unexpected-table-element-end-tag-in-select-in-table")
            if not self.in_scope(tok[1], _SCOPE_TABLE):
                return
            self.pop_until("select")
            self.reset_insertion_mode()
            return self.reprocess(tok)
        return self.mode_in_select(tok)

    # ------------------------------------------------------------ template

    def mode_in_template(self, tok):
        kind = tok[0]
        if kind in ("Character", "Comment", "DOCTYPE"):
            return self.mode_in_body(tok)
        if kind == "StartTag":
            name = tok[1]
            if name in _IN_HEAD_PASSTHROUGH:
                return self.mode_in_head(tok)
            if name in ("caption", "colgroup", "tbody", "tfoot", "thead"):
                self.template_modes[-1] = "in_table"
                self.mode = "in_table"
                return self.reprocess(tok)
            if name == "col":
                self.template_modes[-1] = "in_column_group"
                self.mode = "in_column_group"
                return self.reprocess(tok)
            if name == "tr":
                self.template_modes[-1] = "in_table_body"
                self.mode = "in_table_body"
                return self.reprocess(tok)
            if name in _CELLS:
                self.template_modes[-1] = "in_row"
                self.mode = "in_row"
                return self.reprocess(tok)
            self.template_modes[-1] = "in_body"
            self.mode = "in_body"
            return self.reprocess(tok)
        if kind == "EndTag":
            if tok[1] == "template":
                return self.mode_in_head(tok)
            self.err("unexpected-end-tag")
            return
        # EOF
        if not self._has_open("template"):
            self.done = True
            return
        self.err("eof-in-template")
        self.pop_until("template")
        self.clear_afe_to_marker()
        if self.template_modes:
            self.template_modes.pop()
        self.reset_insertion_mode()
        self.reprocess(tok)

    # ---------------------------------------------------------- after body

    def mode_after_body(self, tok):
        kind = tok[0]
        if kind == "Character":
            if not tok[1].strip(_WS):
                return self.mode_in_body(tok)
            data = tok[1]
        elif kind == "Comment":
            self.insert_comment(tok[1], self.stack[0])
            return
        elif kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        elif kind == "StartTag" and tok[1] == "html":
            return self.mode_in_body(tok)
        elif kind == "EndTag" and tok[1] == "html":
            self.mode = "after_after_body"
            return
        elif kind == "EOF":
            self.done = True
            return
        self.err("unexpected-token-after-body")
        self.mode = "in_body"
        self.reprocess(tok)

    def mode_after_after_body(self, tok):
        kind = tok[0]
        if kind == "Comment":
            self.insert_comment(tok[1], self.doc)
            return
        if kind == "DOCTYPE" or (kind == "Character" and not tok[1].strip(_WS)) \
                or (kind == "StartTag" and tok[1] == "html"):
            return self.mode_in_body(tok)
        if kind == "EOF":
            self.done = True
            return
        self.err("unexpected-token-after-after-body")
        self.mode = "in_body"
        self.reprocess(tok)

    # ------------------------------------------------------------ frameset

    def mode_in_frameset(self, tok):
        kind = tok[0]
        if kind == "Character":
            ws = "".join(c for c in tok[1] if c in _WS)
            if ws:
                self.insert_text(ws)
            if ws != tok[1]:
                self.err("unexpected-char-in-frameset")
            return
        if kind == "Comment":
            self.insert_comment(tok[1])
            return
        if kind == "StartTag":
            if tok[1] == "html":
                return self.mode_in_body(tok)
            if tok[1] == "frameset":
                self.insert_element("frameset", tok[2])
                return
            if tok[1] == "frame":
                self.insert_element("frame", tok[2], push=False)
                return
            if tok[1] == "noframes":
                return self.mode_in_head(tok)
        elif kind == "EndTag" and tok[1] == "frameset":
            if self.current().name == "html":
                self.err("unexpected-frameset-in-frameset-innerhtml")
                return
            self.stack.pop()
            # fragment case: a fragment parser stays in in_frameset so
            # later <frame>/<frameset> tokens still land in the fragment
            if self.fragment_context is None and \
                    self.current().name != "frameset":
                self.mode = "after_frameset"
            return
        elif kind == "EOF":
            if self.current().name != "html":
                self.err("eof-in-frameset")
            self.done = True
            return
        self.err("unexpected-token-in-frameset")

    def mode_after_frameset(self, tok):
        kind = tok[0]
        if kind == "Character":
            ws = "".join(c for c in tok[1] if c in _WS)
            if ws:
                self.insert_text(ws)
            if ws != tok[1]:
                self.err("unexpected-char-after-frameset")
            return
        if kind == "Comment":
            self.insert_comment(tok[1])
            return
        if kind == "StartTag":
            if tok[1] == "html":
                return self.mode_in_body(tok)
            if tok[1] == "noframes":
                return self.mode_in_head(tok)
        elif kind == "EndTag" and tok[1] == "html":
            self.mode = "after_after_frameset"
            return
        elif kind == "EOF":
            self.done = True
            return
        self.err("unexpected-token-after-frameset")

    def mode_after_after_frameset(self, tok):
        kind = tok[0]
        if kind == "Comment":
            self.insert_comment(tok[1], self.doc)
            return
        if kind == "DOCTYPE" or (kind == "Character" and not tok[1].strip(_WS)) \
                or (kind == "StartTag" and tok[1] == "html"):
            return self.mode_in_body(tok)
        if kind == "StartTag" and tok[1] == "noframes":
            return self.mode_in_head(tok)
        if kind == "EOF":
            self.done = True
            return
        self.err("expected-eof-but-got-" + kind.lower())

    # ----------------------------------------------------- foreign content

    def _adjust_foreign_attrs(self, attrs, ns):
        if not attrs:
            return attrs
        out = {}
        for k, v in attrs.items():
            if ns == NS_SVG and k in _SVG_ATTR_FIX:
                k = _SVG_ATTR_FIX[k]
            elif ns == NS_MATHML and k == "definitionurl":
                k = "definitionURL"
            elif k in _FOREIGN_ATTR_FIX:
                k = _FOREIGN_ATTR_FIX[k]
            out[k] = v
        return out

    def _foreign_breakout_pop(self):
        """Breakout pop (spec 13.2.6.5): pop while the current node is
        not a MathML text integration point, an HTML integration point,
        or an element in the HTML namespace."""
        while self.stack:
            node = self.stack[-1]
            if node.ns == NS_HTML:
                break
            if (node.ns == NS_MATHML and node.name in
                    ("mi", "mo", "mn", "ms", "mtext")) or \
               (node.ns == NS_SVG and node.name in
                    ("foreignObject", "desc", "title")) or \
               (node.ns == NS_MATHML and node.name == "annotation-xml"
                    and (node.attrs or {}).get("encoding", "").lower()
                    in ("text/html", "application/xhtml+xml")):
                break
            self.stack.pop()

    def process_foreign(self, tok):
        kind = tok[0]
        if kind == "Character":
            data = tok[1]
            if "\x00" in data:
                self.err("invalid-codepoint-in-foreign-content")
                data = data.replace("\x00", "�")
            self.insert_text(data)
            if self.frameset_ok and data.strip(_WS):
                self.frameset_ok = False
            return
        if kind == "Comment":
            self.insert_comment(tok[1])
            return
        if kind == "DOCTYPE":
            self.err("unexpected-doctype")
            return
        if kind == "StartTag":
            name, attrs, self_closing = tok[1], tok[2], tok[3]
            if name in _BREAKOUT or (
                    name == "font" and any(a in attrs for a in
                                           ("color", "face", "size"))):
                self.err("unexpected-html-element-in-foreign-content")
                self._foreign_breakout_pop()
                # spec: reprocess per the current insertion mode "in HTML
                # content" — NOT the full dispatcher (which would consult
                # the adjusted current node again and, in the fragment
                # case with a foreign context element, loop forever)
                return self.process_html(tok)
            # adjusted current node namespace governs the new element
            # (the fragment context when only the root is on the stack)
            ns = self._acn().ns
            if ns == NS_SVG:
                name = _SVG_TAG_FIX.get(name, name)
            attrs = self._adjust_foreign_attrs(attrs, ns)
            self.insert_element(name, attrs, ns=ns)
            if self_closing:
                self.stack.pop()
            return
        if kind == "EndTag":
            name = tok[1]
            if name in ("br", "p"):
                # spec 13.2.6.5 lists the end tags </br> and </p> in the
                # SAME breakout clause as the HTML start tags: pop out of
                # the foreign subtree, then reprocess per HTML rules
                self.err("unexpected-html-element-in-foreign-content")
                self._foreign_breakout_pop()
                return self.process_html(tok)
            node = self.stack[-1]
            if node.name.lower() != name:
                self.err("unexpected-end-tag")
            # walk down to and INCLUDING the root: in the fragment case
            # every element above the root can be foreign, and the spec
            # processes an unmatched end tag per the insertion mode once
            # an HTML-namespace node (the root) is reached
            for i in range(len(self.stack) - 1, -1, -1):
                node = self.stack[i]
                if node.ns == NS_HTML:
                    return self.process_html(tok)
                if node.name.lower() == name:
                    del self.stack[i:]
                    return
            return


def _build_ibs_dispatch():
    """in-body StartTag dispatch: every specially-handled name → its
    handler (branches are name-disjoint, so insertion order only matters
    for 'a', which overrides its FORMATTING entry)."""
    T = TreeBuilder
    d = {}
    for n in T._IN_BODY_PLAIN:
        d[n] = T._ibs_plain
    for n in _IN_HEAD_PASSTHROUGH:
        d[n] = T._ibs_in_head
    for n in _BLOCK_CLOSES_P:
        d[n] = T._ibs_block
    for n in _HEADINGS:
        d[n] = T._ibs_heading
    for n in FORMATTING:
        d[n] = T._ibs_formatting
    d.update({
        "html": T._ibs_html, "body": T._ibs_body, "frameset": T._ibs_frameset,
        "pre": T._ibs_pre, "listing": T._ibs_pre, "form": T._ibs_form,
        "li": T._ibs_li, "dd": T._ibs_dd_dt, "dt": T._ibs_dd_dt,
        "plaintext": T._ibs_plaintext, "button": T._ibs_button,
        "a": T._ibs_a, "applet": T._ibs_applet, "marquee": T._ibs_applet,
        "object": T._ibs_applet, "table": T._ibs_table,
        "area": T._ibs_void, "br": T._ibs_void, "embed": T._ibs_void,
        "img": T._ibs_void, "keygen": T._ibs_void, "wbr": T._ibs_void,
        "input": T._ibs_input, "param": T._ibs_param,
        "source": T._ibs_param, "track": T._ibs_param, "hr": T._ibs_hr,
        "image": T._ibs_image, "textarea": T._ibs_textarea,
        "xmp": T._ibs_xmp, "iframe": T._ibs_iframe,
        "noembed": T._ibs_noembed, "select": T._ibs_select,
        "optgroup": T._ibs_option, "option": T._ibs_option,
        "rb": T._ibs_rb_rtc, "rtc": T._ibs_rb_rtc,
        "rp": T._ibs_rp_rt, "rt": T._ibs_rp_rt,
        "math": T._ibs_math, "svg": T._ibs_svg,
    })
    for n in ("caption", "col", "colgroup", "frame", "head", "tbody",
              "td", "tfoot", "th", "thead", "tr"):
        d[n] = T._ibs_table_ignored
    return d


_IBS_DISPATCH = _build_ibs_dispatch()

# Start-tag kinds of the in-body lane (TreeBuilder._run); 0 = process().
# Names absent from _IBS_DISPATCH are "any other start tag" (_LANE_PLAIN).
_LANE_PLAIN, _LANE_VOID, _LANE_BLOCK, _LANE_FMT = 1, 2, 3, 4


def _build_lane_start():
    T = TreeBuilder
    kinds = {T._ibs_plain: _LANE_PLAIN, T._ibs_void: _LANE_VOID,
             T._ibs_block: _LANE_BLOCK, T._ibs_formatting: _LANE_FMT,
             T._ibs_a: _LANE_FMT}
    d = {n: kinds.get(f, 0) for n, f in _IBS_DISPATCH.items()}
    d["nobr"] = 0  # its in-scope check may run the adoption agency
    return d


_LANE_START = _build_lane_start()
# End tags whose in-body rule does more than pop the current node.
_LANE_END_STOP = frozenset((
    "body", "html", "template", "form", "applet", "marquee", "object", "br"))
_BUTTON_SCOPE_HTML = frozenset(n for ns, n in _SCOPE_BUTTON if ns == NS_HTML)

# Differential switch for the in-body lane (the lane-off parse is the
# reference); not a setting.
_LANE_ON = True


def parse(raw) -> ParseResult:
    """Parse one document → (Document tree, sorted (code, offset) errors)."""
    return TreeBuilder().parse(raw)


def parse_fragment(raw, context: str, context_attrs=None,
                   context_ns: int = NS_HTML) -> ParseResult:
    """Fragment parsing with a context element (spec 13.2.9).
    ``context`` accepts "td" or the html5lib "svg title"/"math mi"
    namespace-prefixed form."""
    if " " in context:
        prefix, local = context.split(" ", 1)
        context_ns = {"svg": NS_SVG, "math": NS_MATHML}[prefix]
        context = local
    return TreeBuilder().parse_fragment(raw, context, context_attrs,
                                        context_ns)
