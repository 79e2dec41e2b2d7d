"""Serialization of the output tree and of the inline-SVG passthrough.

Two modes exist: a VML/HTML document for legacy Internet Explorer, and an
XHTML document that embeds the original SVG fragment for browsers with
native support.  Both are deterministic for fixed options and re-parse as
well-formed XML.

One serializer and one document shell serve both modes.  The mapped
VmlNode tree and the parsed SvgNode tree have the same shape; a per-mode
head function gives each node's output name and rendered attributes (the
style dict and the dropped html: prefix for VML, the svg: prefix on
implemented tags for SVG).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .mappers import VmlNode
from .options import ConvertOptions
from .svg_dom import IMPLEMENTED_TAGS, SVG_NS, XLINK_NS, SvgDocument, SvgNode

VML_NS = "urn:schemas-microsoft-com:vml"

_INDENT = "  "

# Both trees have the same shape; a head function gives a node's output
# name and its rendered attributes.
Node = Union[VmlNode, SvgNode]
Head = Callable[[Node], tuple[str, str]]


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


def _attributes_text(attributes: dict[str, str]) -> str:
    return "".join([f' {n}="{_escape_attr(v)}"' for n, v in attributes.items()])


def _vml_head(node: VmlNode) -> tuple[str, str]:
    attrs = _attributes_text(node.attributes)
    if node.style:
        attrs += f' style="{_escape_attr(_style_text(node.style))}"'
    # Plain HTML elements drop their marker prefix; VML elements keep the
    # v: prefix that the behavior rule binds.
    return (node.tag[5:] if node.tag.startswith("html:") else node.tag), attrs


def _svg_head(node: SvgNode) -> tuple[str, str]:
    name = f"svg:{node.name}" if node.tag in IMPLEMENTED_TAGS else node.name
    return name, _attributes_text(node.attributes)


def _serialize(node: Node, head: Head, lines: list[str], depth: int, pretty: bool, extra: str = "") -> None:
    """Append one line per element; an element with character content goes
    on one line with its whole subtree, so the payload stays intact."""
    pad = _INDENT * depth if pretty else ""
    text, children = node.text, node.children
    if (text and text.strip()) or (children and any([child.tail and child.tail.strip() for child in children])):
        lines.append(pad + _inline(node, head, extra))
        return
    name, attrs = head(node)
    if not children:
        lines.append(f"{pad}<{name}{extra}{attrs}/>")
        return
    lines.append(f"{pad}<{name}{extra}{attrs}>")
    for child in children:
        _serialize(child, head, lines, depth + 1, pretty)
    lines.append(f"{pad}</{name}>")


def _inline(node: Node, head: Head, extra: str = "") -> str:
    name, attrs = head(node)
    if not node.children and not (node.text and node.text.strip()):
        return f"<{name}{extra}{attrs}/>"
    inner = _escape_text(node.text) if node.text else ""
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
    _serialize(root, head, lines, 2 if pretty else 0, pretty, extra)
    lines += [f"{pad}</body>", "</html>"]
    return ("\n" if pretty else "").join(lines) + "\n"


def emit_vml_html(tree: VmlNode, options: Optional[ConvertOptions] = None) -> str:
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


def emit_xhtml_passthrough(doc: SvgDocument, options: Optional[ConvertOptions] = None) -> str:
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
