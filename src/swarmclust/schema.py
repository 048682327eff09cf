"""An in-house checker for the part of JSON Schema (draft 2020-12) that
:data:`swarmclust.bench.CONFIG_SCHEMA` uses.

The keywords are ``type``, ``enum``, ``required``, ``properties``,
``additionalProperties: false``, ``items``, ``minItems``, ``minimum``,
``maximum``, ``exclusiveMinimum``, ``exclusiveMaximum`` and ``if``/``then``.
A :class:`SchemaChecker` refuses a schema that uses any other keyword, any
other form of ``additionalProperties``, an unknown type name or an ``enum``
of anything but strings, so it never passes a value by ignoring a rule.

It reports what ``jsonschema`` would: the error that
``jsonschema.exceptions.best_match`` picks (its ``relevance`` key: the
shortest instance path, then the greatest path, then an error whose
subschema's ``type`` the value fails, then the first found), with
jsonschema's wording. Errors are found in jsonschema's order: a schema's
keywords in turn, ``properties`` in schema order, list items by index,
and ``then`` in the place of ``if``. Unlike JSON Schema, an ``integer`` is
an integral non-bool number, numpy ints included, and never ``2.0``, since
counts, sizes and seeds are used as ints; a ``number`` is a finite non-bool
real, never NaN or an infinity; and an ``array`` may be a tuple.

A dataclass field declared with :func:`rule` carries its schema, which
:func:`check_fields` enforces from ``__post_init__`` and :func:`field_rules`
hands to a config schema, so the library and configs accept the same values.
A rule that depends on another field, such as the params a synthetic kind
takes, is the dataclass's own ``__post_init__`` check.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import MISSING, field, fields
from math import inf
from typing import Iterator, Optional

KEYWORDS = frozenset({
    "type", "enum", "required", "properties", "additionalProperties", "items",
    "minItems", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "if", "then",
})

TYPES = {
    "array": lambda v: isinstance(v, (list, tuple)),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) < inf,
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

# keyword -> (fails(value, bound), message between value and bound)
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


class SchemaChecker:
    """Checks instances against ``schema``; raises ``ValueError`` at
    construction if ``schema`` goes beyond :data:`KEYWORDS`."""

    def __init__(self, schema: dict):
        _check_keywords(schema, ())
        self.schema = schema

    def best_error(self, instance) -> Optional[tuple[tuple, str]]:
        """(instance path, message) of the error jsonschema's ``best_match``
        would report for ``instance``, or None if it is valid."""
        best = max(_errors(self.schema, instance, ()), key=_relevance, default=None)
        return None if best is None else best[:2]


def rule(default=MISSING, *, default_factory=MISSING, **schema):
    """A dataclass field, with ``default`` or ``default_factory`` unless both
    are left out, whose values must meet ``schema``: JSON Schema keywords,
    ``type`` first."""
    return field(default=default, default_factory=default_factory, metadata={"schema": schema})


def field_rules(cls) -> dict:
    """Name -> schema of each field of the dataclass ``cls`` made by :func:`rule`."""
    return {f.name: f.metadata["schema"] for f in fields(cls) if "schema" in f.metadata}


def check_fields(obj, error: type) -> None:
    """Raise ``error("<field>: <message>")`` if a field of the dataclass
    ``obj`` breaks its rule, with the error a config would get."""
    checker = _fields_checker(type(obj))
    found = checker.best_error({name: getattr(obj, name) for name in checker.schema["properties"]})
    if found is not None:
        raise error(f"{'/'.join(map(str, found[0]))}: {found[1]}")


@functools.cache
def _fields_checker(cls) -> SchemaChecker:
    return SchemaChecker({"properties": field_rules(cls)})


def _check_keywords(schema, at: tuple) -> None:
    where = "/".join(at) or "<root>"
    if not isinstance(schema, dict):
        raise ValueError(f"schema at {where} is not a mapping")
    for keyword, arg in schema.items():
        if keyword not in KEYWORDS:
            raise ValueError(f"unsupported schema keyword {keyword!r} at {where}")
        if keyword == "additionalProperties" and arg is not False:
            raise ValueError(f"only additionalProperties: false is supported, at {where}")
        if keyword == "type" and not set(_names(arg)) <= set(TYPES):
            raise ValueError(f"unknown type in {arg!r} at {where}")
        if keyword == "enum" and not all(isinstance(v, str) for v in arg):
            raise ValueError(f"only enums of strings are supported, at {where}")
        if keyword == "properties":
            for name, sub in arg.items():
                _check_keywords(sub, at + (keyword, name))
        elif keyword in ("items", "if", "then"):
            _check_keywords(arg, at + (keyword,))


def _names(types) -> list:
    """A ``type`` keyword's type names: one name or a list of them."""
    return [types] if isinstance(types, str) else types


def _is_a(value, types) -> bool:
    return any(TYPES[t](value) for t in _names(types))


def _relevance(error) -> tuple:
    path, _, schema, value = error
    return -len(path), path, not ("type" in schema and _is_a(value, schema["type"]))


def _errors(schema: dict, value, path: tuple) -> Iterator[tuple]:
    """(path, message, schema, value) for each way ``value`` at ``path``
    breaks ``schema``, in jsonschema's order; ``schema`` is the subschema
    holding the broken keyword."""
    for keyword, arg in schema.items():
        message = None
        if keyword == "type":
            if not _is_a(value, arg):
                names = ", ".join(repr(t) for t in _names(arg))
                message = f"{value!r} is not of type {names}"
        elif keyword == "enum":
            if not (isinstance(value, str) and value in arg):
                message = f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS:
            fails, words = _BOUNDS[keyword]
            if TYPES["number"](value) and fails(value, arg):
                message = f"{value!r} {words} {arg!r}"
        elif keyword == "minItems":
            if TYPES["array"](value) and len(value) < arg:
                message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "if":
            if "then" in schema and next(_errors(arg, value, path), None) is None:
                yield from _errors(schema["then"], value, path)
        elif keyword == "items":
            if TYPES["array"](value):
                for i, item in enumerate(value):
                    yield from _errors(arg, item, path + (i,))
        elif isinstance(value, dict):
            if keyword == "required":
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property", schema, value
            elif keyword == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _errors(sub, value[name], path + (name,))
            elif keyword == "additionalProperties":
                extras = sorted((k for k in value if k not in schema.get("properties", {})),
                                key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    message = ("Additional properties are not allowed "
                               f"({', '.join(repr(k) for k in extras)} {verb} unexpected)")
        if message is not None:
            yield path, message, schema, value
