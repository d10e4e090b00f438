"""DOM for tree construction + columnar flattening.

The reference declares a pointer-tree Node union
(/root/reference/src/node.zig:7-15) with Document bookkeeping
(:17-64) and namespace enums (:81-99); Text/PI are stubs (:151-157).
Here: a minimal mutable tree for the builder, plus ``flatten()`` to the
index-linked node table SURVEY.md §1.3 maps into Arrow
(id/parent/kind/tag/ns/attrs/text/depth) — columnar-friendly, not
pointer-linked, which is what crosses stage boundaries in Ray.
"""

from __future__ import annotations

DOCUMENT = 0
DOCTYPE = 1
ELEMENT = 2
TEXT = 3
COMMENT = 4

NS_HTML = 0
NS_MATHML = 1
NS_SVG = 2

QUIRKS_NO = 0
QUIRKS_LIMITED = 1
QUIRKS_YES = 2


class Node:
    __slots__ = ("kind", "name", "ns", "attrs", "parts", "parent", "children",
                 "_ie")

    def __init__(self, kind, name=None, ns=NS_HTML, attrs=None):
        self.kind = kind
        self.name = name
        self.ns = ns
        self.attrs = attrs
        self.parts = None  # text/comment content as list-of-str (O(1) append)
        self.parent = None
        self.children = []
        self._ie = None  # newest open-elements index entry [pos, self]

    @property
    def text(self):
        return "".join(self.parts) if self.parts else ""

    def append(self, child):
        child.parent = self
        self.children.append(child)

    def insert_before(self, child, ref):
        # Tail scan: the dominant caller is foster parenting, whose ref
        # (the table) stays at/near the end while fostered nodes pile
        # up before it — a front scan made foster spam quadratic
        # (measured 12 s / 280 KB).
        child.parent = self
        ch = self.children
        for i in range(len(ch) - 1, -1, -1):
            if ch[i] is ref:
                ch.insert(i, child)
                return
        raise ValueError("insert_before: ref is not a child")

    def remove(self, child):
        self.children.remove(child)
        child.parent = None

    def __repr__(self):
        k = {DOCUMENT: "#doc", DOCTYPE: "#doctype", ELEMENT: self.name,
             TEXT: "#text", COMMENT: "#comment"}[self.kind]
        return f"<{k} {len(self.children)}c>"


class Document(Node):
    __slots__ = ("quirks", "doctype_name", "doctype_public", "doctype_system")

    def __init__(self):
        super().__init__(DOCUMENT)
        self.quirks = QUIRKS_NO
        self.doctype_name = None
        self.doctype_public = None
        self.doctype_system = None


def detach(root: Node) -> None:
    """Clear ``parent`` and ``_ie`` on every node under ``root``. The
    tree is cyclic (parent pointers; ``_ie`` entries point back at their
    node), so a dropped tree waits for the cyclic collector. Detached,
    it is freed by refcount the moment the last reference goes. Call it
    once the tree has been read; the children lists stay intact."""
    stack = [root]
    pop = stack.pop
    extend = stack.extend
    while stack:
        node = pop()
        node.parent = None
        node._ie = None
        children = node.children
        if children:
            extend(children)


def flatten_detached(doc: Document) -> dict:
    """``flatten(doc, with_attrs=True)``, then ``detach(doc)``: the node
    table of a tree nothing else reads."""
    flat = flatten(doc, with_attrs=True)
    detach(doc)
    return flat


def flatten(doc: Document, with_attrs: bool = True):
    """Depth-first flatten to parallel lists (→ Arrow list<struct> column):
    (parent, kind, tag, ns, attr_keys, attr_vals, text, depth). Root
    document is node 0 with parent -1. ``with_attrs=False`` skips the
    attribute columns (the extractor doesn't read them — cheaper);
    node ids are identical either way (same walk order)."""
    parents, kinds, tags, nss, texts, depths = [], [], [], [], [], []
    akeys: list = []
    avals: list = []

    stack = [(doc, -1, 0)]
    while stack:
        node, parent, depth = stack.pop()
        idx = len(parents)
        parents.append(parent)
        kind = node.kind
        kinds.append(kind)
        tags.append(node.name or "")
        nss.append(node.ns)
        if with_attrs:
            if node.attrs:
                akeys.append(list(node.attrs.keys()))
                avals.append(list(node.attrs.values()))
            else:
                akeys.append([])
                avals.append([])
        parts = node.parts
        texts.append("".join(parts) if parts and kind in (TEXT, COMMENT)
                     else "")
        depths.append(depth)
        children = node.children
        if children:
            d1 = depth + 1
            for ch in reversed(children):
                stack.append((ch, idx, d1))
    out = {
        "parent": parents, "kind": kinds, "tag": tags, "ns": nss,
        "text": texts, "depth": depths,
    }
    if with_attrs:
        out["attr_keys"] = akeys
        out["attr_vals"] = avals
    return out


def serialize(node: Node, indent: int = 0) -> str:
    """html5lib-tests tree-construction format (conformance harness):
    sorted attributes, quoted text, ``<!DOCTYPE name "pub" "sys">`` when
    ids are present, template children under a ``content`` line.
    Iterative (explicit stack): a hostile 10^4-deep page must not blow
    the Python recursion limit — the production flatten/extract paths
    are already iterative, this keeps the test serializer matching."""
    out = []
    stack = [(node, indent)]
    while stack:
        node, indent = stack.pop()
        pad = "| " + "  " * (indent - 1) if indent else ""
        child_indent = indent + 1
        if node.kind == ELEMENT:
            prefix = {NS_HTML: "", NS_MATHML: "math ",
                      NS_SVG: "svg "}[node.ns]
            out.append(f"{pad}<{prefix}{node.name}>")
            if node.attrs:
                for k in sorted(node.attrs):
                    out.append("| " + "  " * indent
                               + f'{k}="{node.attrs[k]}"')
            if node.name == "template" and node.ns == NS_HTML:
                out.append("| " + "  " * indent + "content")
                child_indent = indent + 2
        elif node.kind == TEXT:
            out.append(f'{pad}"{node.text}"')
        elif node.kind == COMMENT:
            out.append(f"{pad}<!-- {node.text} -->")
        elif node.kind == DOCTYPE:
            if node.attrs is not None:
                out.append(f'{pad}<!DOCTYPE {node.name or ""} '
                           f'"{node.attrs["public"]}" '
                           f'"{node.attrs["system"]}">')
            elif node.name:
                out.append(f"{pad}<!DOCTYPE {node.name}>")
            else:
                out.append(f"{pad}<!DOCTYPE >")
        for ch in reversed(node.children):
            stack.append((ch, child_indent))
    return "\n".join(x for x in out if x)
