"""Serialization of the output tree and of the inline-SVG passthrough.

Two modes exist: a VML/HTML document for legacy Internet Explorer, and an
XHTML document that embeds the original SVG fragment for browsers with
native support.  Both are deterministic for fixed options and re-parse as
well-formed XML.

One serializer and one document shell serve both modes.  The mapped
VmlNode tree and the parsed SvgNode tree have the same shape; a per-mode
head function gives each node's output name and rendered attributes (the
style dict for VML, the svg: prefix on implemented tags for SVG), escaping
only a value that holds one of the four characters to escape.  The mappers
write a VML element's childless children (v:fill, v:stroke, v:skew, v:path,
v:textpath) through `vml_leaf`, with the VML head's attribute text, into its
`leaves`, which go ahead of its children; in the passthrough, a child with
no children and no text is written by its parent's loop, without a call of
its own.  The content of a foreignObject is never mapped: in both modes the
host (the v:textbox or the foreignObject) goes on one line, and its parsed
content is written with the SVG head, as it was parsed.

A mapped tree holds a shared use copy at each place it is used.  Within one
emit_vml_html call, a VML node with children that comes back at a depth
where it was already written copies the lines it wrote there.
"""

from __future__ import annotations

from .options import ConvertOptions
from .svg_dom import IMPLEMENTED_TAGS, SVG_NS, XLINK_NS, SvgDocument, SvgNode

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: mappers imports vml_leaf from here
    from collections.abc import Callable
    from .mappers import VmlNode
    Node = VmlNode | SvgNode
    Head = Callable[[Node], tuple[str, str]]

VML_NS = "urn:schemas-microsoft-com:vml"

_INDENT = "  "


# Most values (numbers, colours, ids, path data) need no escaping: check first.
def _escape_text(text: str) -> str:
    if "&" in text or "<" in text or ">" in text:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text


def _escape_attr(value: str) -> str:
    if "&" in value or "<" in value or ">" in value or '"' in value:
        return _escape_text(value).replace('"', "&quot;")
    return value


def _style_text(style: dict[str, str]) -> str:
    return "".join([f"{name}:{value};" for name, value in style.items()])


# Each head writes its attributes with _escape_attr's test inline, so only a
# value that needs escaping costs a call; VML's few attributes take a loop.
def _vml_attributes(pairs) -> str:
    text = ""
    for n, v in pairs:
        text += f' {n}="{_escape_attr(v)}"' if "&" in v or "<" in v or ">" in v or '"' in v else f' {n}="{v}"'
    return text


def vml_leaf(tag: str, pairs) -> str:
    """A VML element with no children, no text and no style, with the (name, value) pairs as attributes."""
    return f"<{tag}{_vml_attributes(pairs)}/>"


def _vml_head(node: VmlNode) -> tuple[str, str]:
    attrs = _vml_attributes(node.attributes.items())
    if node.style:
        attrs += f' style="{_escape_attr(_style_text(node.style))}"'
    return node.tag, attrs


def _svg_head(node: SvgNode) -> tuple[str, str]:
    name = f"svg:{node.name}" if node.tag in IMPLEMENTED_TAGS else node.name
    return name, "".join([
        f' {n}="{_escape_attr(v)}"' if "&" in v or "<" in v or ">" in v or '"' in v else f' {n}="{v}"'
        for n, v in node.attributes.items()
    ])


# A foreignObject's tag in the mapped tree and in the parsed one: its
# content is HTML, where all text, white space included, is character content.
_HTML_HOSTS = ("v:textbox", "foreignObject")


def _serialize(node: Node, head: Head, lines: list[str], depth: int, pretty: bool, extra: str = "",
               written: dict[tuple[int, int], tuple[int, int]] | None = None) -> None:
    """Append one line per element; an HTML host and an element with
    character content go on one line with their whole subtree, so the
    payload stays as written.  The text of an element with no children
    counts even when it is white space.

    written, given for a VML tree, maps each (id, depth) of a node with
    children already written to the range of lines it wrote; a node that
    comes back at that depth copies those lines."""
    pad = _INDENT * depth if pretty else ""
    text, children = node.text, node.children
    if children or head is _vml_head and node.leaves:
        if written is not None and children:
            key = (id(node), depth)
            span = written.get(key)
            if span is not None:
                lines += lines[span[0]:span[1]]
                return
            start = len(lines)
        if node.tag in _HTML_HOSTS or (text and text.strip()) or any([c.tail and c.tail.strip() for c in children]):
            lines.append(pad + _inline(node, head, extra))
        else:
            name, attrs = head(node)
            lines.append(f"{pad}<{name}{extra}{attrs}>")
            child_pad = pad + _INDENT if pretty else ""
            vml = head is _vml_head
            if vml:
                lines += [child_pad + leaf for leaf in node.leaves] if pretty else node.leaves
            for child in children:
                if vml or child.children or child.text:  # a VML child may have leaves
                    _serialize(child, head, lines, depth + 1, pretty, "", written)
                else:
                    child_name, child_attrs = head(child)
                    lines.append(f"{child_pad}<{child_name}{child_attrs}/>")
            lines.append(f"{pad}</{name}>")
        if written is not None and children:
            written[key] = (start, len(lines))
    elif text:
        lines.append(pad + _inline(node, head, extra))
    else:
        name, attrs = head(node)
        lines.append(f"{pad}<{name}{extra}{attrs}/>")


def _inline(node: Node, head: Head, extra: str = "") -> str:
    name, attrs = head(node)
    inner = _escape_text(node.text) if node.text else ""
    if head is _vml_head and node.leaves:
        inner += "".join(node.leaves)
    elif not node.children and not inner:
        return f"<{name}{extra}{attrs}/>"
    if node.tag in _HTML_HOSTS:
        head = _svg_head
    for child in node.children:
        inner += _inline(child, head)
        if child.tail:
            inner += _escape_text(child.tail)
    return f"<{name}{extra}{attrs}>{inner}</{name}>"


def _document(
    opening: str, title: str, head_extra: tuple[str, ...], root: Node, head: Head, extra: str, pretty: bool
) -> str:
    """The html/head/body shell around the serialized root element."""
    pad = _INDENT if pretty else ""
    lines = [
        opening,
        f"{pad}<head>",
        f'{pad}{pad}<meta http-equiv="Content-Type" content="text/html; charset=utf-8"/>',
        f"{pad}{pad}<title>{_escape_text(title)}</title>",
        *(f"{pad}{pad}{line}" for line in head_extra),
        f"{pad}</head>",
        f"{pad}<body>",
    ]
    _serialize(root, head, lines, 2 if pretty else 0, pretty, extra, {} if head is _vml_head else None)
    lines += [f"{pad}</body>", "</html>"]
    return ("\n" if pretty else "").join(lines) + "\n"


def emit_vml_html(tree: VmlNode, options: ConvertOptions | None = None) -> str:
    """Serialize a mapped tree as a complete VML/HTML document."""
    options = options or ConvertOptions()
    return _document(
        f'<html xmlns:v="{VML_NS}">',
        options.title or "Converted SVG",
        ("<style>v\\:* { behavior: url(#default#VML); }</style>",),
        tree,
        _vml_head,
        "",
        options.pretty,
    )


def emit_xhtml_passthrough(doc: SvgDocument, options: ConvertOptions | None = None) -> str:
    """Serialize the parsed SVG unchanged inside an XHTML host document."""
    options = options or ConvertOptions()
    return _document(
        '<?xml version="1.0" encoding="UTF-8"?>\n<html xmlns="http://www.w3.org/1999/xhtml">',
        options.title or "SVG Document",
        (),
        doc.root,
        _svg_head,
        f' xmlns:svg="{SVG_NS}" xmlns:xlink="{XLINK_NS}"',
        options.pretty,
    )
