"""HTML rendering helpers.

Small, deliberately framework-free: escape-by-default builders for the
handful of structures every screen needs (page chrome, tables, forms,
drop-downs filled from vocabularies).  Every builder returns
:class:`Html`; :func:`table` puts such cells in as they are and escapes
every other cell.
"""

from __future__ import annotations

import html
import re
from typing import Any, Iterable, Sequence

_special = re.compile("[&<>\"']").search


class Html(str):
    """Text that is already HTML, such as a builder's output.

    Concatenating it with a plain ``str`` gives a plain ``str``: wrap
    the result again when it is ready HTML too.
    """

    __slots__ = ()


def esc(value: Any) -> str:
    """``html.escape(str(value), quote=True)``, without its five
    ``str.replace`` passes when there is nothing to escape: an ``int``,
    or text without any of ``&<>"'`` (one regex scan)."""
    if type(value) is str:
        text = value
    elif type(value) is int:
        return str(value)
    else:
        text = str(value)
    if _special(text) is None:
        return text
    return html.escape(text, quote=True)


def page(title: str, body: str, *, user: str = "", flash: str = "") -> Html:
    """The portal chrome around a screen body."""
    nav = ""
    if user:
        nav = (
            '<nav><a href="/">Home</a> | <a href="/projects">Projects</a> | '
            '<a href="/annotations/review">Annotation Review</a> | '
            '<a href="/search">Search</a> | <a href="/browse">Browse</a> | '
            '<a href="/admin">Admin</a> | '
            f"logged in as <b>{esc(user)}</b> "
            '(<a href="/logout">logout</a>)</nav><hr>'
        )
    flash_html = f'<p class="flash"><em>{esc(flash)}</em></p>' if flash else ""
    return Html(
        "<!doctype html><html><head>"
        f"<title>B-Fabric — {esc(title)}</title>"
        "<style>body{font-family:sans-serif;margin:2em} "
        "table{border-collapse:collapse} td,th{border:1px solid #999;"
        "padding:4px 8px} .flash{color:#060}</style>"
        f"</head><body>{nav}{flash_html}<h1>{esc(title)}</h1>{body}"
        "</body></html>"
    )


def table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> Html:
    """A table; :class:`Html` cells go in as they are, every other cell
    is escaped."""
    head = "".join(f"<th>{esc(h)}</th>" for h in headers)
    body_rows = []
    for row in rows:
        cells = []
        for cell in row:
            # esc()'s fast paths inlined: a list page has thousands of cells.
            kind = type(cell)
            if kind is Html or kind is str and _special(cell) is None:
                cells.append(cell)
            elif kind is int:
                cells.append(str(cell))
            else:
                cells.append(esc(cell))
        body_rows.append(
            f"<tr><td>{'</td><td>'.join(cells)}</td></tr>" if cells else "<tr></tr>"
        )
    return Html(f"<table><tr>{head}</tr>{''.join(body_rows)}</table>")


def link(href: str, label: Any) -> Html:
    # esc()'s fast path inlined, as in table().
    if type(href) is not str or _special(href):
        href = esc(href)
    if type(label) is not str or _special(label):
        label = esc(label)
    return Html(f'<a href="{href}">{label}</a>')


def text_input(name: str, *, value: str = "", label: str = "") -> Html:
    caption = label or name.replace("_", " ")
    return Html(
        f"<label>{esc(caption)}: "
        f'<input type="text" name="{esc(name)}" value="{esc(value)}"></label><br>'
    )


def dropdown(
    name: str,
    options: Sequence[tuple[Any, str]],
    *,
    selected: Any = None,
    label: str = "",
    allow_new: bool = False,
) -> Html:
    """A select filled from a vocabulary.

    With ``allow_new`` a free-text companion field ``new_<name>`` is
    rendered — the demo's "if a user does not find a needed annotation
    ... the user can create a new one" path.
    """
    caption = label or name.replace("_", " ")
    option_html = ['<option value="">—</option>']
    for value, text in options:
        marker = " selected" if value == selected else ""
        option_html.append(
            f'<option value="{esc(value)}"{marker}>{esc(text)}</option>'
        )
    widget = (
        f"<label>{esc(caption)}: "
        f'<select name="{esc(name)}">{"".join(option_html)}</select></label>'
    )
    if allow_new:
        widget += (
            f' or new: <input type="text" name="new_{esc(name)}" value="">'
        )
    return Html(widget + "<br>")


def form(action: str, body: str, *, submit: str = "Save") -> Html:
    return Html(
        f'<form method="post" action="{esc(action)}">{body}'
        f'<button type="submit">{esc(submit)}</button></form>'
    )


def definition_list(pairs: Iterable[tuple[str, Any]]) -> Html:
    items = "".join(
        f"<dt><b>{esc(key)}</b></dt><dd>{esc(value)}</dd>" for key, value in pairs
    )
    return Html(f"<dl>{items}</dl>")
