"""One serialization codec for every checkpointable config and record.

Configs and records are dataclasses that inherit :class:`Record`, and
their JSON form is derived from their fields in one place, here:

* :meth:`Record.as_dict` is :func:`~repro.utils.io.to_jsonable`: fields
  in declaration order, tuples as lists, sets as sorted lists, nested
  records recursively.
* :meth:`Record.from_dict` reads the field annotations and decodes every
  value strictly, under one rule for every record.  An omitted key takes
  the field's default.  An unknown key raises :class:`TypeError` naming
  it.  A missing required key, a value of the wrong type, or ``null`` for
  a field that is not optional raises
  :class:`~repro.errors.ConfigError` naming the dotted field path, e.g.
  ``ServingConfig.fleet.hedge.percentile: expected a number, got str``.
  A JSON int is accepted where a float is declared (and becomes one);
  ``int``, ``bool`` and ``str`` must match exactly.  ``__post_init__``
  then validates the values as it does for any construction.

A few classes keep hand-written ``as_dict()`` / ``from_dict()`` pairs,
because their pinned export is not their field list:
:class:`~repro.serve.types.ServeResponse` (its own key order, the derived
``augmented`` key, ``strategy`` only when set),
:class:`~repro.pipeline.collect.CollectionResult` (sorted stats keys,
set-valued stats), and :class:`~repro.obs.trace.Trace`,
:class:`~repro.policy.bandit.ContextualBandit` and
:class:`~repro.policy.feedback.GoldenRefresh`, which are not dataclasses
(the bandit writes exact fractions as ``[num, den]``).  Export-only
views (stats, metrics, spans, events) have an ``as_dict()`` and no
inverse.

On top of the per-class round trip, :func:`serialize` wraps
``obj.as_dict()`` with a versioned ``"schema"`` key (``"ClassName/1"``)
and :func:`deserialize` dispatches on it through a registry, so one
loader can restore a mixed checkpoint stream without guessing shapes.
Classes opt in with :func:`register` at definition time.  The envelope
is additive: ``deserialize`` strips the schema key before calling
``from_dict``.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Callable
from typing import Any, Protocol, TypeVar, runtime_checkable

from repro.errors import ConfigError
from repro.utils.io import to_jsonable

__all__ = [
    "SCHEMA_KEY",
    "Record",
    "Serializable",
    "deserialize",
    "register",
    "registered_schemas",
    "schema_id",
    "serialize",
]

#: The envelope's discriminator key.  No ``as_dict()`` payload may use it.
SCHEMA_KEY = "schema"

_REGISTRY: dict[str, type] = {}
_IDS: dict[type, str] = {}

_R = TypeVar("_R", bound="Record")

#: Decodes one JSON value found at a dotted field path.
_Decoder = Callable[[Any, str], Any]


@runtime_checkable
class Serializable(Protocol):
    """The repo-wide serialization contract.

    ``as_dict()`` returns a JSON-safe dict and ``from_dict(data)`` is its
    lossless inverse: ``type(obj).from_dict(obj.as_dict())`` must equal
    ``obj`` (or, for classes without ``__eq__``, re-export identically).
    """

    def as_dict(self) -> dict: ...

    @classmethod
    def from_dict(cls, data: dict) -> Any: ...


class Record:
    """Mixin for a dataclass whose JSON form is its fields (see module doc)."""

    def as_dict(self) -> dict:
        """JSON-safe dict of every field, in declaration order."""
        return to_jsonable(self)

    @classmethod
    def from_dict(cls: type[_R], data: dict) -> _R:
        """Inverse of :meth:`as_dict`: ``from_dict(r.as_dict()) == r``."""
        return _record_decoder(cls)(data, cls.__name__)


def _kind(value: Any) -> str:
    return "null" if value is None else type(value).__name__


#: Plain annotation -> (accepted JSON types, what the error says).
_PLAIN: dict[type, tuple[tuple[type, ...], str]] = {
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    dict: ((dict,), "an object"),
}


def _plain(tp: type) -> _Decoder:
    accepted, expected = _PLAIN[tp]

    def decode(value: Any, path: str) -> Any:
        # bool is an int subclass, and never a valid number.
        if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
            raise ConfigError(f"{path}: expected {expected}, got {_kind(value)}")
        return float(value) if tp is float else value

    return decode


def _array(value: Any, path: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected an array, got {_kind(value)}")
    return value


def _decoder_for(tp: Any, where: str) -> _Decoder:
    """Compile the decoder for one field annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        inner = [arg for arg in args if arg is not type(None)]
        if len(inner) == 1 and len(args) == 2:
            decode_inner = _decoder_for(inner[0], where)
            return lambda value, path: None if value is None else decode_inner(value, path)
    elif origin in (frozenset, list) or (origin is tuple and args[1:] == (Ellipsis,)):
        item = _decoder_for(args[0], where)
        return lambda value, path: origin(
            item(v, f"{path}[{i}]") for i, v in enumerate(_array(value, path))
        )
    elif origin is tuple and args:
        items = [_decoder_for(arg, where) for arg in args]

        def fixed(value: Any, path: str) -> tuple:
            if len(_array(value, path)) != len(items):
                raise ConfigError(f"{path}: expected {len(items)} items, got {len(value)}")
            return tuple(d(v, f"{path}[{i}]") for i, (d, v) in enumerate(zip(items, value)))

        return fixed
    elif isinstance(tp, type) and issubclass(tp, Record):
        return _record_decoder(tp)
    elif tp in _PLAIN:
        return _plain(tp)
    raise TypeError(f"{where}: no JSON decoder for the annotation {tp!r}")


@functools.cache
def _record_decoder(cls: type) -> _Decoder:
    """Compile ``cls``'s decoder from its field annotations (once per class)."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    decoders = {f.name: _decoder_for(hints[f.name], f"{cls.__name__}.{f.name}") for f in fields}
    required = [
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]

    def decode(data: Any, path: str) -> Any:
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object, got {_kind(data)}")
        kwargs = {}
        for key, value in data.items():
            decoder = decoders.get(key)
            if decoder is None:
                raise TypeError(
                    f"{path}: unknown key {key!r}; {cls.__name__} has {sorted(decoders)}"
                )
            kwargs[key] = decoder(value, f"{path}.{key}")
        for name in required:
            if name not in kwargs:
                raise ConfigError(f"{path}.{name}: missing required key")
        return cls(**kwargs)

    return decode


def register(cls: type, *, version: int = 1) -> type:
    """Register ``cls`` under ``"{cls.__name__}/{version}"``.

    Callable at class-definition sites (``register(MyClass)`` after the
    class body); returns the class so it also works as a decorator.
    Registering a name twice is a programming error unless it is the
    same class re-imported (idempotent for module reloads).
    """
    if not callable(getattr(cls, "as_dict", None)) or not callable(
        getattr(cls, "from_dict", None)
    ):
        raise TypeError(
            f"{cls.__name__} is not Serializable: it needs as_dict() and "
            "from_dict() to register"
        )
    key = f"{cls.__name__}/{int(version)}"
    existing = _REGISTRY.get(key)
    if existing is not None and existing is not cls:
        if existing.__qualname__ != cls.__qualname__ or existing.__module__ != cls.__module__:
            raise ValueError(f"schema {key!r} is already registered to {existing!r}")
    _REGISTRY[key] = cls
    _IDS[cls] = key
    return cls


def schema_id(cls: type) -> str:
    """The registered schema id of ``cls`` (raises for unregistered)."""
    try:
        return _IDS[cls]
    except KeyError:
        raise KeyError(f"{cls.__name__} is not a registered Serializable") from None


def registered_schemas() -> dict[str, type]:
    """A copy of the registry: ``{"ClassName/version": class}``."""
    return dict(_REGISTRY)


def serialize(obj: Serializable) -> dict:
    """``obj.as_dict()`` wrapped with the versioned ``"schema"`` key."""
    key = schema_id(type(obj))
    data = obj.as_dict()
    if not isinstance(data, dict):
        raise TypeError(
            f"{type(obj).__name__}.as_dict() must return a dict to serialize, "
            f"got {type(data).__name__}"
        )
    if SCHEMA_KEY in data:
        raise ValueError(
            f"{type(obj).__name__}.as_dict() already uses the reserved "
            f"{SCHEMA_KEY!r} key"
        )
    return {SCHEMA_KEY: key, **data}


def deserialize(data: dict) -> Any:
    """Inverse of :func:`serialize`: dispatch on ``data["schema"]``."""
    if not isinstance(data, dict) or SCHEMA_KEY not in data:
        raise ValueError(
            f"payload has no {SCHEMA_KEY!r} key; was it produced by serialize()?"
        )
    key = data[SCHEMA_KEY]
    cls = _REGISTRY.get(key)
    if cls is None:
        raise ValueError(
            f"unknown schema {key!r}; registered: {sorted(_REGISTRY)}"
        )
    payload = {k: v for k, v in data.items() if k != SCHEMA_KEY}
    return cls.from_dict(payload)
