"""Differential check: convert the same documents with this checkout and another revision.

    python tools/differential.py --against REV [--with REV2] [--fragments N] [--seed S]
    python tools/differential.py --write-ledger

REV (and REV2, when given instead of the working tree) is exported with
`git archive` into a temporary directory under $TMPDIR, which is removed
afterwards; nothing is fetched.  Each checkout
converts every document in its own process, with the converter imported
from that checkout's src/, at the five golden settings (default,
precision 2, pretty, xhtml, xhtml pretty), each with strict off and on.

The documents are:
  * seeded fragments, drawn by `build_fragments` (families below);
  * the golden fixtures in tests/golden of this checkout;
  * the perfbench corpora of every workload at seeds 1 and 2, built by
    perfbench/corpus.py of this checkout, which is only imported.

A document differs when, at any setting, the output bytes, the full
diagnostic text or the exception raised differs.  The report counts the
differing documents of each family, then lists the documents under each
class of difference they show (see `classify`), with the families they
come from and one example.  The exit status is 1 when any document
differs.

The ledger, tests/golden/ledger.txt, pins this checkout's digests of the
first 2,000 seed-1 fragments (the copies family only its first 40; see
`ledger_fragments`) at the same ten settings, one line per fragment, and a
tier-1 test recomputes it.  A behaviour change rewrites it in its own commit
with --write-ledger, which converts with the working tree's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEEDS = (1, 2)

# One document converted at every (settings, strict) pair; the settings are the golden ones.
CONVERT = r"""
import hashlib
from svg2vml import ConvertOptions, convert_text

SETTINGS = (
    dict(), dict(precision=2), dict(pretty=True), dict(mode="xhtml"), dict(mode="xhtml", pretty=True),
)


def convert(text):
    runs = []
    for settings in SETTINGS:
        for strict in (False, True):
            try:
                output, diagnostics = convert_text(text, ConvertOptions(strict=strict, **settings))
            except Exception as error:
                runs.append(["raised " + type(error).__name__])
                continue
            digest = None if output is None else hashlib.sha256(output.encode("utf-8", "replace")).hexdigest()
            runs.append([digest, [str(d) for d in diagnostics]])
    return runs
"""

# Run in a checkout's own process: converts the JSON list of texts on stdin.
WORKER = CONVERT + r"""
import json, sys
json.dump([convert(text) for text in json.load(sys.stdin)], sys.stdout)
"""

SETTING_NAMES = [
    f"{name}{'+strict' if strict else ''}"
    for name in ("default", "precision2", "pretty", "xhtml", "xhtml-pretty")
    for strict in (False, True)
]

# --- seeded fragments ----------------------------------------------------------

FRAGMENT_FAMILIES = (
    "drawing",  # every element family in a plain svg document
    "host-page",  # the drawing nested in an XHTML host page
    "several-top-level",  # elements and text around the svg, no common root
    "sibling-before-svg",  # a non-svg element before the svg
    "undeclared-prefixes",  # svg:, xlink: and foo: used without declarations
    "xlink-bound-elsewhere",  # xmlns:xlink bound to another namespace
    "malformed-with-undeclared-prefix",  # a syntax error plus an undeclared prefix
    "doctype-with-undeclared-prefix",  # a DOCTYPE before undeclared prefixes
    "transforms",  # every transformed element family under nested transformed groups
    "outside-grammar",  # characters outside the number grammar in every numeric attribute
    "inheritance",  # paint values, some faulty, on nested g and a over shapes, text and use
    "copies",  # reference targets used again and again, faulty ones, cycles, the depth cap and the budget
)

NUMBERS = ("0", "1", "2.5", "-3", ".5", "-.5e-2", "1e3", "2em", "10px", "3pt", "nan", "inf", "abc", "",
           "9" * 309, "1" + "0" * 308, "9" * 400)
IDS = ("a", "b", "c", "dup", "track", "fade")
TRANSFORMS = ("translate(3,4)", "scale(2)", "rotate(30)", "rotate(30,5,5)", "skewX(20)", "skewY(90)",
              "matrix(1,0,0,1,2,3)", "translate(1) scale(2)", "scale(2) skewX(10)", "rotate(", "wobble(1)",
              f"rotate({'9' * 400})")
PATHS = ("M 0 0 L 10 10", "m 1 1 l 5 5 h 3 v 4 z", "M 0 0 C 1 2 3 4 5 6", "M 0 0 Q 1 1 2 2",
         "M 0 0 A 1 1 0 0 1 5 5", "M 0 0 L 10", "", "M 0 0 L 1e3 5", f"M 0 0 L {'9' * 309} 1")
# The "transforms" family: every combination of the support grid (each allowed
# on some strategies and rejected on others), lone rotates with and without a
# centre, a lone matrix(), tangent-pole skews and a translation pair that
# overflows; "" leaves an element or group untransformed.
BIG = "1" + "0" * 308
TRANSFORM_LISTS = ("scale(2) translate(1,1)", "scale(2) skewX(10)", "skewX(10) skewY(10)",
                   "scale(2) translate(1,1) skewX(10) skewY(10)", "rotate(30) scale(2)", "rotate(30) translate(1,1)",
                   "rotate(30)", "rotate(-45,5,5)", "matrix(1,0.2,0.3,1,2,3)", "skewX(90)", "skewY(-270)",
                   f"translate({BIG}) translate({BIG})", "translate(3,4)", "scale(1.5,0.5)", "skewY(20)", "")
TRANSFORMED_ELEMENTS = (
    '<rect x="{n}" y="{n}" width="10" height="5"{t}/>',
    '<circle cx="{n}" cy="{n}" r="4"{t}/>',
    '<ellipse cx="{n}" cy="{n}" rx="6" ry="3"{t}/>',
    '<path d="M {n} {n} L 20 10 C 1 2 3 4 5 6 z"{t}/>',
    '<text x="{n}" y="20" font-size="8"{t}>label</text>',
    '<text font-size="8"><textPath xlink:href="#track"{t}>on a path</textPath></text>',
    '<foreignObject x="{n}" y="{n}" width="20" height="10"{t}><div xmlns="http://www.w3.org/1999/xhtml">x</div>'
    "</foreignObject>",
    '<polyline points="{n},{n} 10,0 20,10"{t}/>',
)
# A nested svg's viewBox: mostly space-separated, some with commas, some short.
NESTED_VIEW_BOXES = ((' viewBox="0 0 10 10"',) * 4
                     + (' viewBox="0,0,10,10"', ' viewBox="0, 0 ,10,10"', ' viewBox="0,0,10"', "", ""))
# XML-legal characters that are neither separators nor digits in the number
# grammar: em space, no-break space, ideographic space, NEL, Arabic-Indic three,
# and the underscore, which float() reads as a digit separator.
OUTSIDE_GRAMMAR = ("\u2003", "\u00a0", "\u3000", "\u0085", "\u0663", "_")
# The "inheritance" family: each inheritable paint property with good values
# and faulty ones, set on nested groups and anchors and on what they hold.
PAINT_VALUES = (("fill", ("red", "none", "url(#fade)", "url(#nope)")), ("stroke", ("navy", "none")),
                ("stroke-width", ("2", "-2", "nan", "2em")), ("stroke-linecap", ("butt", "round", "wide")),
                ("stroke-linejoin", ("bevel", "arcs")), ("stroke-miterlimit", ("4", "abc", "0.5")),
                ("stroke-opacity", ("0.5", "2", "half")), ("opacity", ("0.5", "0.25", "2", "lots")))
INHERITING_ELEMENTS = ('<rect width="10" height="5"{p}/>', '<circle r="4"{p}/>', '<path d="M 0 0 L 10 10"{p}/>',
                       '<polyline points="0,0 10,0 20,10"{p}/>', '<text x="1" y="20" font-size="8"{p}>t</text>',
                       '<foreignObject width="5" height="5"{p}/>', '<use xlink:href="#shared"{p}/>')
TEXTS = ("plain", "a &amp; b", "<![CDATA[x<y]]>", "one <!-- c --> two", "&#38;&#169;", "p<?pi x?>q", "\n  ")
# Text around the inline elements of foreignObject content: none (adjacent
# elements), white space, which HTML renders, and a word.
GAPS = ("", "", " ", "\n  ", "x")


class _Fragments:
    """Draws the elements of one fragment; `prefix` is written before element names."""

    def __init__(self, rng: random.Random, prefix: str = "", foreign_prefix: str = ""):
        self.rng = rng
        self.prefix = prefix
        self.foreign_prefix = foreign_prefix

    def number(self) -> str:
        rng = self.rng
        return rng.choice(NUMBERS) if rng.random() < 0.15 else str(rng.randint(-5, 60))

    def attrs(self, *names: str) -> str:
        rng = self.rng
        parts = [f'{name}="{self.number()}"' for name in names if rng.random() < 0.9]
        if rng.random() < 0.3:
            parts.append(f'id="{rng.choice(IDS)}"')
        if rng.random() < 0.3:
            parts.append(f'transform="{rng.choice(TRANSFORMS)}"')
        for name, values in (("fill", ("red", "none", "url(#fade)", "url(#a)", "url(fade)")),
                             ("stroke", ("navy", "#00f")),
                             ("stroke-width", ("2", "1.5px", "nan", "inf", "2em", "1e3")),
                             ("opacity", ("0.5", "2", "lots")),
                             ("fill-opacity", ("0.5",))):
            if rng.random() < 0.15:
                parts.append(f'{name}="{rng.choice(values)}"')
        if self.foreign_prefix and rng.random() < 0.2:
            parts.append(f'{self.foreign_prefix}:{rng.choice(("x", "width", "data"))}="{self.number()}"')
        rng.shuffle(parts)
        return "".join(" " + part for part in parts)

    def href(self) -> str:
        rng = self.rng
        name = rng.choice(("xlink:href", "href", "xlink:href"))
        return f' {name}="{rng.choice(("#", "", "http://x/#a")) if rng.random() < 0.1 else "#" + rng.choice(IDS)}"'

    def element(self, depth: int) -> str:
        rng = self.rng
        p = self.prefix
        kind = rng.choice(("rect", "circle", "ellipse", "line", "polyline", "polygon", "path", "text", "g", "g",
                           "use", "a", "foreignObject", "defs", "svg", "desc", "blink"))
        if kind in ("g", "a", "defs", "svg", "blink") and depth < 3:
            extra = {"a": self.href(), "svg": rng.choice(NESTED_VIEW_BOXES)}.get(kind, "")
            body = "".join(self.element(depth + 1) for _ in range(rng.randint(0, 3)))
            if kind == "defs" and rng.random() < 0.5:
                body += self.gradient()
            return f"<{p}{kind}{self.attrs()}{extra}>{body}</{p}{kind}>"
        if kind == "rect":
            return f"<{p}rect{self.attrs('x', 'y', 'width', 'height', 'rx')}/>"
        if kind == "circle":
            return f"<{p}circle{self.attrs('cx', 'cy', 'r')}/>"
        if kind == "ellipse":
            return f"<{p}ellipse{self.attrs('cx', 'cy', 'rx', 'ry')}/>"
        if kind == "line":
            return f"<{p}line{self.attrs('x1', 'y1', 'x2', 'y2')}/>"
        if kind in ("polyline", "polygon"):
            points = " ".join(self.number() for _ in range(rng.randint(0, 7)))
            return f'<{p}{kind}{self.attrs()} points="{points}"/>'
        if kind == "path":
            return f'<{p}path{self.attrs()} d="{rng.choice(PATHS)}"/>'
        if kind == "text":
            inner = rng.choice(TEXTS)
            if rng.random() < 0.4:
                inner += f"<{p}textPath{self.href()}>{rng.choice(TEXTS)}</{p}textPath>{rng.choice(TEXTS)}"
            return f"<{p}text{self.attrs('x', 'y', 'font-size')}>{inner}</{p}text>"
        if kind == "use":
            return f"<{p}use{self.attrs('x', 'y')}{self.href() if rng.random() < 0.9 else ''}/>"
        if kind == "foreignObject":
            tags = rng.sample(("b", "i", "span"), rng.randint(1, 3))
            run = "".join(f"<{tag}>{tag}</{tag}>{rng.choice(GAPS)}" for tag in tags)
            inner = f'{rng.choice(TEXTS)}<div xmlns="http://www.w3.org/1999/xhtml">{rng.choice(TEXTS + GAPS)}{run}</div>'
            return f"<{p}foreignObject{self.attrs('x', 'y', 'width', 'height')}>{inner}</{p}foreignObject>"
        return f"<{p}{kind}{self.attrs()}>{rng.choice(TEXTS)}</{p}{kind}>"

    def gradient(self) -> str:
        rng = self.rng
        p = self.prefix
        stops = ""
        for _ in range(rng.choice((1, 2, 2, 3))):
            offset = rng.choice(("0", "0%", "1", "100%", "50%", "x"))
            color = f' stop-color="{rng.choice(("red", "blue"))}"' if rng.random() < 0.9 else ""
            stops += f'<{p}stop offset="{offset}"{color}/>'
        axis = rng.choice(('x2="1"', 'y2="1"', 'x1="0" y1="0" x2="1" y2="1"', 'x2="q"'))
        return f'<{p}linearGradient id="{rng.choice(IDS)}" {axis}>{stops}</{p}linearGradient>'

    def drawing(self, declarations: str = "") -> str:
        p = self.prefix
        body = "".join(self.element(0) for _ in range(self.rng.randint(1, 6)))
        return f'<{p}svg{declarations} viewBox="0 0 100 100" width="100" height="100">{body}</{p}svg>'


SVG_DECLARATIONS = ' xmlns="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink"'


def _transformed(rng: random.Random) -> str:
    def transform() -> str:
        chosen = rng.choice(TRANSFORM_LISTS)
        return f' transform="{chosen}"' if chosen else ""

    body = ""
    for _ in range(rng.randint(1, 4)):
        element = rng.choice(TRANSFORMED_ELEMENTS).format(n=rng.randint(-20, 40), t=transform())
        for _ in range(rng.randint(0, 2)):
            element = f"<g{transform() if rng.random() < 0.5 else ''}>{element}</g>"
        body += element
    defs = '<defs><path id="track" d="M 0 0 L 50 20" transform="scale(2)"/></defs>'
    return f'<svg{SVG_DECLARATIONS} viewBox="0 0 100 100" width="100" height="100">{defs}{body}</svg>'


def _outside_grammar(rng: random.Random) -> str:
    """A drawing whose numeric attributes each hold, half the time, one character outside the grammar."""

    def value(text: str) -> str:
        if rng.random() < 0.5:
            return text
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(OUTSIDE_GRAMMAR) + text[at:]

    return (
        f'<svg{SVG_DECLARATIONS} viewBox="{value("0 0 100 100")}" width="{value("100")}" height="100">'
        f'<defs><linearGradient id="fade" x2="1"><stop offset="{value("0")}" stop-color="red"/>'
        f'<stop offset="{value("100%")}" stop-color="blue"/></linearGradient></defs>'
        f'<g transform="{value("translate(3,4) scale(2)")}" opacity="{value("0.5")}">'
        f'<rect x="{value("5")}" y="1" width="{value("10px")}" height="5" fill="url(#fade)"/>'
        f'<path d="{value("M 0 0 L 10 10 C 1 2 3 4 5 6 z")}"/>'
        f'<polyline points="{value("0,0 10,0 20,10")}" opacity="{value("0.75")}"/></g></svg>'
    )


def _inheritance(rng: random.Random) -> str:
    """Paint values from a small alphabet, faulty ones included, on nested g and a over shapes, text and use."""

    def paint(chance: float) -> str:
        parts = [f' {name}="{rng.choice(values)}"' for name, values in PAINT_VALUES if rng.random() < chance]
        rng.shuffle(parts)
        return "".join(parts)

    def element(depth: int) -> str:
        if depth < 3 and rng.random() < 0.5:
            body = "".join(element(depth + 1) for _ in range(rng.randint(1, 3)))
            return rng.choice(("<g{p}>{b}</g>", '<a href="#x"{p}>{b}</a>')).format(p=paint(0.4), b=body)
        return rng.choice(INHERITING_ELEMENTS).format(p=paint(0.15))

    defs = (
        '<defs><linearGradient id="fade" x2="1"><stop offset="0" stop-color="red"/>'
        f'<stop offset="1" stop-color="blue"/></linearGradient><g id="shared"{paint(0.3)}>'
        f'<rect width="3" height="3"{paint(0.15)}/></g></defs>'
    )
    body = "".join(element(0) for _ in range(rng.randint(1, 3)))
    return f'<svg{SVG_DECLARATIONS} viewBox="0 0 100 100" width="100" height="100">{defs}{body}</svg>'


# The "copies" family: reference targets, each used several times under
# transforms and paints drawn from short lists, so that some copies repeat a
# chain and paint and others do not.
COPY_TRANSFORMS = ("", "", "translate(3,4)", "scale(2)", "rotate(30)", "skewX(10)", "scale(2) translate(1,1)")
COPY_PAINTS = ("", "", ' fill="red"', ' fill="url(#fade)"', ' stroke="navy" stroke-width="2"', ' opacity="0.5"',
               ' fill="none"', ' stroke-linecap="wide"')
COPY_TARGETS = (
    # one symbol of every drawn family
    '<g id="sym"><rect x="1" y="1" width="4" height="3"/><circle cx="2" cy="2" r="2" transform="scale(2)"/>'
    '<path d="M 0 0 L 5 5 C 1 2 3 4 5 6"/><polyline points="0,0 3,1 4,4"/>'
    '<text x="1" y="9" font-size="8">t</text></g>',
    # nested symbols: s2 uses s1 twice, s1 uses s0 twice
    '<g id="s0"><rect width="2" height="2"/><ellipse rx="2" ry="1"/></g>'
    '<g id="s1"><use xlink:href="#s0"/><use xlink:href="#s0" x="3" fill="blue"/></g>'
    '<g id="s2" stroke="black"><use xlink:href="#s1"/><use xlink:href="#s1" y="5"/></g>',
    # faulty targets: each reports, so each reference maps them again
    '<rect id="bad-unit" width="1em" height="2"/><path id="bad-path" d="M 0 0 L 10"/>'
    '<rect id="bad-fill" width="2" height="2" fill="url(#nope)"/>'
    '<g id="bad-group" stroke-width="-2"><rect width="2" height="2"/></g>',
    # circular references, direct and through a second target
    '<g id="loop"><rect width="1" height="1"/><use xlink:href="#loop"/></g>'
    '<g id="ping"><use xlink:href="#pong"/></g><g id="pong"><circle r="1"/><use xlink:href="#ping"/></g>',
)
COPY_IDS = ("sym", "s0", "s1", "s2", "bad-unit", "bad-path", "bad-fill", "bad-group", "loop", "ping", "pong")


def _copies(rng: random.Random) -> str:
    """Uses of shared targets under transforms and paints, faulty and circular targets,
    targets whose depth brings their copies to the depth cap, and at times a use tree
    past the expansion budget."""
    ids = list(COPY_IDS)
    deep_levels = rng.randint(185, 198)
    chain = "<g>" * deep_levels + '<rect width="1" height="1"/>' + "</g>" * deep_levels
    # deep, a target that reuses it, and one whose depth comes before a copy it maps first
    defs = "".join(COPY_TARGETS) + f'<g id="deep">{chain}</g><g id="deep-outer"><use xlink:href="#deep"/></g>'
    defs += f'<g id="deep-first">{chain}<use xlink:href="#late"/></g><circle id="late" r="1"/>'
    # and one outside defs, so that its first copy may be the deepest
    ids += ["deep", "deep-outer", "deep-first", "free"] * 3
    if rng.random() < 0.05:
        # 2 ** 16 copies of two rects: far past the budget of so small a document
        defs += '<g id="t0"><rect width="1" height="1"/><rect x="2" width="1" height="1"/></g>'
        defs += "".join(f'<g id="t{level}">' + f'<use xlink:href="#t{level - 1}"/>' * 2 + "</g>" for level in range(1, 17))
        ids.append("t16")
    body = ""
    for _ in range(rng.randint(2, 8)):
        xy = f' x="{rng.randint(-5, 40)}" y="{rng.randint(-5, 40)}"' if rng.random() < 0.5 else ""
        element = f'<use xlink:href="#{rng.choice(ids)}"{xy}{rng.choice(COPY_PAINTS)}/>'
        for _ in range(rng.randint(0, 2)):
            transform = rng.choice(COPY_TRANSFORMS)
            attribute = f' transform="{transform}"' if transform else ""
            element = f"<g{attribute}{rng.choice(COPY_PAINTS)}>{element}</g>"
        if rng.random() < 0.3:
            levels = rng.randint(1, 14)  # the deep targets' copies then cross the cap by a few levels
            element = "<g>" * levels + element + "</g>" * levels
        body += element
    gradient = ('<linearGradient id="fade" x2="1"><stop offset="0" stop-color="red"/>'
                '<stop offset="1" stop-color="blue"/></linearGradient>')
    body += f'<g id="free">{chain}</g>'
    return f'<svg{SVG_DECLARATIONS} viewBox="0 0 100 100" width="100" height="100"><defs>{gradient}{defs}</defs>{body}</svg>'


# Families that draw from a generator of their own, so adding one leaves the
# fragments of every other family as they were.
OWN_GENERATOR = {"outside-grammar": _outside_grammar, "inheritance": _inheritance, "copies": _copies}


def _fragment(family: str, rng: random.Random) -> str:
    if family == "transforms":
        return _transformed(rng)
    if family == "drawing":
        return _Fragments(rng).drawing(SVG_DECLARATIONS)
    if family == "host-page":
        drawing = _Fragments(rng, "s:").drawing(' xmlns:s="http://www.w3.org/2000/svg"')
        return (
            '<?xml version="1.0"?>\n<!-- host -->\n<html xmlns="http://www.w3.org/1999/xhtml" '
            f'xmlns:xl="http://www.w3.org/1999/xlink"><body><p>a &amp; b</p><div>{drawing} tail</div>'
            f'{drawing if rng.random() < 0.3 else ""}</body></html>'
        ).replace("xlink:href", "xl:href")
    if family == "several-top-level":
        fragments = _Fragments(rng)
        before = "".join(fragments.element(1) for _ in range(rng.randint(0, 2)))
        after = "".join(fragments.element(1) for _ in range(rng.randint(1, 2)))
        return f"{rng.choice(TEXTS)}{before}{fragments.drawing()} tail {after}"
    if family == "sibling-before-svg":
        gap = rng.choice(("", "\n"))
        return f"<desc>first</desc>{gap}{_Fragments(rng).drawing()}"
    if family == "undeclared-prefixes":
        return _Fragments(rng, rng.choice(("svg:", "")), "foo").drawing()
    if family == "xlink-bound-elsewhere":
        return _Fragments(rng, foreign_prefix=rng.choice(("", "foo"))).drawing(' xmlns:xlink="urn:other"')
    drawing = _Fragments(rng, "svg:", "foo").drawing()
    if family == "malformed-with-undeclared-prefix":
        cut = rng.randrange(len(drawing))
        return drawing[:cut] + rng.choice(("<", "&", "</x>", '"')) + drawing[cut:]
    assert family == "doctype-with-undeclared-prefix", family
    return "<!DOCTYPE svg>" + drawing


def build_fragments(seed: int, count: int) -> list[tuple[str, str, str]]:
    """`count` fragments as (family, name, text), the families in turn; the same for the same seed.

    The families in OWN_GENERATOR each draw from a generator of their own,
    so the other families draw the same fragments as before those were added.
    """
    rng = random.Random(seed)
    own_rngs = {family: random.Random(f"{family}-{seed}") for family in OWN_GENERATOR}
    fragments = []
    for index in range(count):
        family = FRAGMENT_FAMILIES[index % len(FRAGMENT_FAMILIES)]
        own = OWN_GENERATOR.get(family)
        text = own(own_rngs[family]) if own is not None else _fragment(family, rng)
        fragments.append((family, f"{family}-{index}", text))
    return fragments


def build_documents(seed: int, count: int) -> list[tuple[str, str, str]]:
    """The fragments, the golden fixtures and the perfbench corpora as (family, name, text)."""
    documents = build_fragments(seed, count)
    for path in sorted((ROOT / "tests" / "golden").glob("*.svg")):
        documents.append(("golden", path.stem, path.read_text()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from corpus import WORKLOADS, build_corpus

    for workload in WORKLOADS:
        for corpus_seed in CORPUS_SEEDS:
            for doc in build_corpus(workload, corpus_seed).documents:
                documents.append((f"perfbench-{workload}", f"{doc.doc_id}@{corpus_seed}", doc.text))
    return documents


# --- the output ledger --------------------------------------------------------------

LEDGER = ROOT / "tests" / "golden" / "ledger.txt"
LEDGER_SEED = 1
LEDGER_FRAGMENTS = 2000
# A copies fragment, with its chains near the depth cap, takes about fifty
# times as long as another family's, so the ledger keeps its first ones only.
LEDGER_CAPS = {"copies": 40}


def ledger_fragments() -> list[tuple[str, str, str]]:
    """The fragments the ledger records: the first LEDGER_FRAGMENTS of LEDGER_SEED, each family capped by LEDGER_CAPS."""
    drawn: dict[str, int] = defaultdict(int)
    kept = []
    for family, name, text in build_fragments(LEDGER_SEED, LEDGER_FRAGMENTS):
        drawn[family] += 1
        if drawn[family] <= LEDGER_CAPS.get(family, LEDGER_FRAGMENTS):
            kept.append((family, name, text))
    return kept


def ledger_line(family: str, name: str, runs: list) -> str:
    """A fragment's ledger line: its family, its name and 16 hex digits of a sha256 over its runs.

    A MALFORMED_XML line enters the digest as its severity and code only:
    its message is expat's, which differs between expat versions.
    """
    stable = [
        run if len(run) == 1
        else [run[0], [line.split(":", 1)[0] if _split(line)[0] == "MALFORMED_XML" else line for line in run[1]]]
        for run in runs
    ]
    return f"{family} {name} {hashlib.sha256(json.dumps(stable).encode('ascii')).hexdigest()[:16]}"


def local_converter() -> Callable[[str], list]:
    """The runs of one document with the svg2vml this process imports, as the worker gives them."""
    namespace: dict = {}
    exec(CONVERT, namespace)
    return namespace["convert"]


# --- running both checkouts ------------------------------------------------------


def convert_all(checkout: Path, texts: list[str]) -> list:
    result = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps(texts),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        check=False,
    )
    if result.returncode != 0:
        raise SystemExit(f"differential: the worker failed in {checkout}:\n{result.stderr}")
    return json.loads(result.stdout)


def export(revision: str, directory: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory)


def _split(line: str) -> tuple[str, str]:
    """A diagnostic line's code and location."""
    head, _, location = line.rpartition(" @")
    return line.split(" ", 2)[1].rstrip(":"), location if head else ""


def classify(old: list, new: list) -> dict[str, str]:
    """The classes of difference in one document, each with an example.

    Classes come from the lenient settings, which write output whatever is
    reported: "~CODE" for a message changed at the same location, "-CODE"
    and "+CODE" for a diagnostic gone or new, "repeats" for the same lines
    in another order or number, "bytes" for changed output, and one class
    for a parse that now succeeds.  A document that differs only at the
    strict settings is classified the same way there, each class name
    prefixed "strict ".
    """
    runs = list(zip(SETTING_NAMES, old, new))
    classes = _classes([run for run in runs if not run[0].endswith("+strict")])
    if classes:
        return classes
    strict = _classes([run for run in runs if run[0].endswith("+strict")])
    return {f"strict {kind}": example for kind, example in strict.items()}


def _classes(runs: list) -> dict[str, str]:
    classes: dict[str, str] = {}
    for setting, a, b in runs:
        if a == b:
            continue
        if len(a) == 1 or len(b) == 1:
            classes.setdefault(f"raised: {a[0] if len(a) == 1 else 'returned'} -> {b[0] if len(b) == 1 else 'returned'}", setting)
            continue
        gone = [line for line in a[1] if line not in b[1]]
        came = [line for line in b[1] if line not in a[1]]
        example = f"{setting}: {gone[:1]} -> {came[:1]}"
        if any(_split(line)[0] == "MALFORMED_XML" for line in gone) and not any(
            _split(line)[0] == "MALFORMED_XML" for line in came
        ):
            return {"parses now, was MALFORMED_XML": example}
        changed = {_split(line) for line in gone} & {_split(line) for line in came}
        for sign, lines in (("-", gone), ("+", came)):
            for line in lines:
                key = _split(line)
                classes.setdefault(f"~{key[0]}" if key in changed else f"{sign}{key[0]}", f"{setting}: {line}")
        if not gone and not came and a[1] != b[1]:
            classes.setdefault("repeats", f"{setting}: {a[1]} -> {b[1]}")
        if a[0] != b[0]:
            classes.setdefault("bytes", f"{setting}: output {a[0]} -> {b[0]}")
    return classes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="the revision to compare with")
    parser.add_argument("--with", dest="mine", metavar="REV", help="compare this revision instead of the working tree")
    parser.add_argument("--fragments", type=int, default=4000, help="seeded fragments to draw (default 4000)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the fragments (default 1)")
    parser.add_argument("--write-ledger", action="store_true",
                        help=f"rewrite {LEDGER.relative_to(ROOT)} from the working tree instead of comparing")
    args = parser.parse_args(argv)
    if args.write_ledger:
        fragments = ledger_fragments()
        runs = convert_all(ROOT, [text for _, _, text in fragments])
        lines = [ledger_line(family, name, run) for (family, name, _), run in zip(fragments, runs)]
        LEDGER.write_text("".join(line + "\n" for line in lines))
        print(f"wrote {len(lines)} lines to {LEDGER.relative_to(ROOT)}")
        return 0
    if args.against is None:
        parser.error("--against is required unless --write-ledger is given")

    documents = build_documents(args.seed, args.fragments)
    texts = [text for _, _, text in documents]
    with tempfile.TemporaryDirectory(prefix="differential-") as scratch:
        export(args.against, Path(scratch, "old"))
        theirs = convert_all(Path(scratch, "old"), texts)
        if args.mine:
            export(args.mine, Path(scratch, "new"))
        mine = convert_all(Path(scratch, "new") if args.mine else ROOT, texts)

    totals: dict[str, int] = defaultdict(int)
    differing: dict[str, int] = defaultdict(int)
    classes: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
    for (family, name, _), old, new in zip(documents, theirs, mine):
        totals[family] += 1
        if old != new:
            differing[family] += 1
            for kind, example in classify(old, new).items():
                classes[kind].append((family, name, example))
    print(f"{len(documents)} documents x {len(SETTING_NAMES)} settings, {args.against} -> {args.mine or 'working tree'}")
    for family, total in totals.items():
        print(f"  {family}: {differing[family]} of {total} differ")
    for kind, cases in sorted(classes.items(), key=lambda item: -len(item[1])):
        families = defaultdict(int)
        for family, _, _ in cases:
            families[family] += 1
        print(f"class {kind}: {len(cases)} ({', '.join(f'{f} {n}' for f, n in families.items())})")
        print(f"  e.g. {cases[0][1]} at {cases[0][2]}")
    return 1 if classes else 0


if __name__ == "__main__":
    raise SystemExit(main())
