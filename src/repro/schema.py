"""Artifact shapes declared once: field tables, the one loader that walks
them, and the one writer.

Every JSON document the program reads back -- a run manifest, a campaign
spec, a perf-ledger entry, a Chrome trace -- declares
its shape as a :func:`table` of :class:`Field` s.  :func:`load` raises one
error naming the dotted path of the first value that does not fit.  A
list or map of a plain kind is checked with one set of element types,
not per element: a warm result-store read loads a manifest per campaign
cell.  :func:`write_json` writes every JSON file the program writes whole.
This module imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Tuple, Type, Union

__all__ = [
    "Interval", "NON_EMPTY", "Kind", "Field", "STR", "INT", "NUMBER", "OBJECT", "ANY",
    "list_of", "map_of", "table", "load", "write_json",
]


@dataclass(frozen=True)
class Interval:
    """An interval domain, parsed once from its notation (``"[1, inf)"``)."""

    text: str
    low: float
    high: float
    closed_low: bool
    closed_high: bool

    @classmethod
    def parse(cls, text: str) -> "Interval":
        low, comma, high = text[1:-1].partition(",")
        try:
            if not (comma and text[0] in "[(" and text[-1] in "])"):
                raise ValueError(text)
            interval = cls(text, float(low), float(high), text[0] == "[", text[-1] == "]")
        except ValueError:
            raise ValueError(f"domain {text!r} is not an interval such as '[1, inf)'") from None
        # Written as "not <=" so a NaN bound, which admits nothing, is empty too.
        if not interval.low <= interval.high or (
            interval.low == interval.high
            and not (interval.closed_low and interval.closed_high)
        ):
            raise ValueError(f"domain {text!r} is empty")
        return interval

    def __contains__(self, item: object) -> bool:
        above_low = self.low < item or self.closed_low and item == self.low  # type: ignore[operator]
        return above_low and (item < self.high or self.closed_high and item == self.high)  # type: ignore[operator]

    def __str__(self) -> str:
        return self.text


#: The domain of a string, list or object that must not be empty.
NON_EMPTY = "non-empty"


@dataclass(frozen=True)
class Kind:
    """What a value must be: one of ``types`` (exact, so a bool is no int;
    ``None``: anything), finite if ``finite``, in ``domain`` (an
    :class:`Interval` or :data:`NON_EMPTY`); ``item`` is a list's or map's
    element kind, ``fields`` an object's table, which refuses undeclared
    keys if ``closed``.  ``name`` reads into messages."""

    name: str
    types: Optional[Tuple[type, ...]] = None
    finite: bool = False
    domain: Union[Interval, str, None] = None
    item: Optional["Kind"] = None
    fields: Optional[Tuple["Field", ...]] = None
    closed: bool = False

    def within(self, domain: Union[Interval, str]) -> "Kind":
        """This kind restricted to ``domain`` (an interval string is parsed)."""
        if isinstance(domain, str) and domain != NON_EMPTY:
            domain = Interval.parse(domain)
        return replace(self, domain=domain)

    def or_null(self) -> "Kind":
        return replace(self, types=self.types + (type(None),))  # type: ignore[operator]

    @property
    def nested(self) -> bool:
        """A list, map or table: what it holds has kinds of its own."""
        return self.item is not None or self.fields is not None

    def accepts(self, value: Any) -> bool:
        """Type, finiteness and domain; a container's contents are not looked at."""
        if self.types is not None and type(value) not in self.types:
            return False
        if value is None or self.domain is None:
            return not (self.finite and type(value) is float and not math.isfinite(value))
        return len(value) > 0 if self.domain == NON_EMPTY else value in self.domain


class Field(NamedTuple):
    name: str
    kind: Kind
    required: bool = False


STR = Kind("string", (str,))
INT = Kind("integer", (int,))
NUMBER = Kind("number", (int, float), finite=True)
OBJECT = Kind("object", (dict,))
ANY = Kind("value")


def list_of(item: Kind) -> Kind:
    return Kind("list", (list,), item=item)


def map_of(item: Kind) -> Kind:
    """An object whose every value is an ``item`` (its keys are names)."""
    return Kind("object", (dict,), item=item)


def table(*fields: Field, closed: bool = False, name: str = "object") -> Kind:
    """An object with a field table; TOML documents call it a ``"table"``."""
    return Kind(name, (dict,), fields=fields, closed=closed)


def _adjective(domain: object) -> str:
    if domain == NON_EMPTY:
        return NON_EMPTY
    if isinstance(domain, Interval) and domain.low == 0 and domain.high == math.inf:
        return "non-negative" if domain.closed_low else "positive"
    return ""


def _words(kind: Kind, plural: bool = False) -> str:
    """``kind`` in words: "a non-negative integer", "lists of objects"."""
    adjective = _adjective(kind.domain)
    words = f"{adjective} {kind.name}{'s' if plural else ''}".lstrip()
    if kind.item is not None:
        words += f" of {_words(kind.item, plural=True)}"
    if kind.domain is not None and not adjective:
        words += f" in {kind.domain}"
    if kind.types is not None and type(None) in kind.types:
        words += " or nulls" if plural else " or null"
    return words if plural else f"{'an' if words[0] in 'aeiou' else 'a'} {words}"


def load(kind: Kind, data: Any, label: str, error: Type[Exception] = ValueError) -> Dict[str, Any]:
    """Check ``data`` against the table ``kind`` and return its declared
    fields, or raise ``error`` -- ``label`` (``"manifest"``) and the
    dotted path of the first value that does not fit."""
    if type(data) is not dict:
        raise error(f"{label} must be {_words(kind)}, got {_shown(data)}")
    return _walk(kind, data, "", label, error)


def _shown(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _refusal(error: Type[Exception], label: str, path: str, text: str) -> Exception:
    return error(f"{label} field {path!r} {text}" if path else f"{label} {text}")


def _walk(kind: Kind, data: Any, path: str, label: str, error) -> Dict[str, Any]:
    """The contents of ``data``, already of ``kind``'s type: a table's
    fields (returned), or a list's or map's elements."""
    known: Dict[str, Any] = {}
    if kind.fields is None:
        item: Kind = kind.item  # type: ignore[assignment]
        plain = not item.nested and item.domain is None and not item.finite
        values = data if type(data) is list else data.values()
        if item.types is None or plain and set(map(type, values)).issubset(item.types):
            return known
        for key, element in enumerate(data) if type(data) is list else data.items():
            step = f"[{key}]" if type(data) is list else f"[{key!r}]"
            if not item.accepts(element):
                text = f"item {step} is not {_words(item)}, got {_shown(element)}"
                raise _refusal(error, label, path, text)
            if item.nested and element is not None:
                _walk(item, element, path + step, label, error)
        return known
    for name, child, _ in kind.fields:
        value = data.get(name, _ABSENT)
        if value is _ABSENT:
            continue
        known[name] = value
        if not child.accepts(value):
            where = f"{path}.{name}" if path else name
            raise _refusal(error, label, where, f"is not {_words(child)}, got {_shown(value)}")
        if value is not None and child.nested:
            _walk(child, value, f"{path}.{name}" if path else name, label, error)
    missing = len(known) < len(kind.fields) and [
        f"{_adjective(f.kind.domain)} {f.name!r}".lstrip()
        for f in kind.fields
        if f.required and f.name not in known
    ]
    if missing:
        raise _refusal(error, label, path, f"is missing required fields: {', '.join(missing)}")
    if kind.closed and len(known) < len(data):
        raise _refusal(error, label, path, f"has unknown keys: {sorted(set(data) - set(known))}")
    return known


_ABSENT = object()


def write_json(path: Union[str, Path], document: Any, indent: int) -> Path:
    """Write ``document`` as stable JSON (sorted keys, ``indent``, one final
    newline), creating the parent directory; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(document, indent=indent, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target
