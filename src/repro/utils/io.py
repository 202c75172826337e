"""JSONL persistence helpers for datasets and experiment results."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

__all__ = ["dump_jsonl", "load_jsonl", "to_jsonable"]


#: Exact types that are JSON values already (a numpy scalar that
#: subclasses ``float`` still goes through ``item()``).
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / sets / numpy scalars to JSON types."""
    if type(obj) in _JSON_SCALARS:
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(v) for v in obj)
    if hasattr(obj, "item") and callable(obj.item):  # numpy scalar
        return obj.item()
    return obj


def dump_jsonl(records: Iterable[Any], path: str | Path) -> int:
    """Write records to ``path`` as JSON lines; returns the record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(to_jsonable(record), ensure_ascii=False))
            fh.write("\n")
            count += 1
    return count


def load_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield each JSON object from a JSONL file, skipping blank lines."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)
