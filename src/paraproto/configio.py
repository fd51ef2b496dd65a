"""Flat key=value config text: the interchange format for decode and run
configurations. Lines starting with # and blank lines are ignored.

The dataclass fields are the schema: `dataclass_to_kv` and
`dataclass_from_kv` derive the keys and value types from them, so a new
field needs no serializer edit, and `check_json_values` checks values read
from JSON against the same annotations."""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints


def parse_kv_text(text: str) -> dict[str, str]:
    """The key=value pairs of config text; a key set on two lines is an error."""
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = (part.strip() for part in stripped.partition("="))
        if key in set_on:
            raise ValueError(f"line {lineno}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        out[key] = value
    return out


def format_kv(pairs: dict[str, object]) -> str:
    return "".join(f"{key}={value}\n" for key, value in pairs.items())


def dataclass_to_kv(obj) -> dict[str, str]:
    """Flat string pairs in field order. Tuples are comma-joined reprs; a
    nested dataclass field `f` becomes `f.*` keys after the plain ones."""
    plain: dict[str, str] = {}
    nested: dict[str, str] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            nested.update({f"{f.name}.{k}": v for k, v in dataclass_to_kv(value).items()})
        elif isinstance(value, tuple):
            plain[f.name] = ",".join(repr(v) for v in value)
        else:
            plain[f.name] = str(value)
    return {**plain, **nested}


_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string"}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(name: str, hint, value: str):
    """`value` as the annotated type, or a ValueError naming the key and `text_kind(hint)`."""
    try:
        if hint is bool:
            return _BOOLS[value.strip().lower()]
        if get_origin(hint) is tuple:
            args = get_args(hint)
            items = value.split(",")
            if args[-1] is Ellipsis:
                args = (args[0],) * len(items)
            return tuple(t(s) for t, s in zip(args, items, strict=True))
        return hint(value)
    except (KeyError, ValueError):
        raise ValueError(f"{name} must be {text_kind(hint)}, got {value!r}") from None


def text_kind(hint) -> str:
    """How a config value of the annotated type is named, e.g. `an integer` or `3 comma-separated numbers`."""
    if hint is bool:
        return "a boolean (true or false)"
    if get_origin(hint) is tuple:
        args = get_args(hint)
        count = "" if args[-1] is Ellipsis else f"{len(args)} "
        return f"{count}comma-separated {_JSON_KINDS[args[0]]}s"
    return _json_kind(hint)


def _json_fits(value, hint) -> bool:
    """Whether a value read from JSON has the annotated type: a bool for
    bool, any other int for int, an int or float for float, a str for str,
    null or a fit for `X | None`, a list for a list (of anything, for a list
    of dataclass objects, whose caller checks them), and a list of the same
    length for a tuple."""
    if get_origin(hint) is UnionType:
        return any(value is None if arg is type(None) else _json_fits(value, arg) for arg in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return isinstance(value, list) and (is_dataclass(item) or all(_json_fits(v, item) for v in value))
    if get_origin(hint) is tuple:
        args = get_args(hint)
        return isinstance(value, list) and len(value) == len(args) and all(map(_json_fits, value, args))
    if hint is bool or isinstance(value, bool):
        return hint is bool and isinstance(value, bool)
    return isinstance(value, {float: (int, float), str: str}.get(hint, int))


def _json_kind(hint) -> str:
    """How an error names the annotated type, e.g. `a list of [integer, number] rows`."""
    if get_origin(hint) is UnionType:
        return " or ".join("null" if arg is type(None) else _json_kind(arg) for arg in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        if is_dataclass(item):
            return f"a list of {item.__name__} objects"
        return f"a list of [{', '.join(_JSON_KINDS[t] for t in get_args(item))}] rows"
    return f"{'an' if hint is int else 'a'} {_JSON_KINDS[hint]}"


def check_json_values(what: str, cls, obj: dict) -> None:
    """Name the first field of dataclass `cls` whose value in `obj`, a JSON
    object with every field's key, does not have the field's annotated type:
    a bool, int, float or str, a list of tuples of those or of dataclass
    objects, or any of these or null."""
    for name, hint in get_type_hints(cls).items():
        if not _json_fits(obj[name], hint):
            raise ValueError(f"{what} field {name!r} must be {_json_kind(hint)}, got {type(obj[name]).__name__}")


def dataclass_from_kv(cls, raw: dict[str, str], prefix: str = ""):
    """Build `cls` from string pairs as written by `dataclass_to_kv`, typing
    each value from the field annotations. Unknown keys, values that do not
    parse and missing required fields raise ValueError naming the whole key:
    `prefix` (`decode.` within a RunConfig) followed by the field."""
    hints = get_type_hints(cls)
    kwargs: dict = {}
    nested: dict[str, dict[str, str]] = {}
    for key, value in raw.items():
        name, dot, rest = key.partition(".")
        hint = hints.get(name)
        if name not in hints or bool(dot) != is_dataclass(hint):
            raise ValueError(f"unknown {cls.__name__} key: {prefix + key!r}")
        if dot:
            nested.setdefault(name, {})[rest] = value
        else:
            kwargs[name] = _parse_value(prefix + name, hint, value)
    for name, sub in nested.items():
        kwargs[name] = dataclass_from_kv(hints[name], sub, f"{prefix}{name}.")
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in kwargs:
            raise ValueError(f"{prefix}{f.name} is required")
    return cls(**kwargs)
