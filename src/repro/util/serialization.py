"""JSON persistence for experiment results.

Experiment outputs are plain nested dicts/lists/scalars plus numpy types;
this module converts numpy scalars/arrays to built-ins on the way out and
validates on the way in.  Keeping results as JSON makes the benchmark
artifacts diffable and machine-readable.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SerializationError


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serializable built-ins."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                key = str(key)
            out[key] = to_jsonable(item)
        return out
    if hasattr(value, "to_dict"):
        return to_jsonable(value.to_dict())
    raise SerializationError(
        f"cannot serialize object of type {type(value).__name__} to JSON"
    )


def to_json_file(value: Any, path: "str | Path", *, indent: int = 2) -> Path:
    """Atomically write ``value`` (after :func:`to_jsonable`) to ``path``.

    The document is serialized fully in memory first (a value that fails
    :func:`to_jsonable` never touches the file), written to a same-
    directory temp file, fsynced, and renamed over the target — so a
    crash at any instant leaves either the old complete file or the new
    complete file, never a torn one.  Checkpoint resume depends on this.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(to_jsonable(value), indent=indent, sort_keys=True) + "\n"
    tmp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        # Durability of the rename itself (best effort; not all
        # platforms/filesystems support fsyncing a directory).
        dir_fd = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return target


def from_json_file(path: "str | Path") -> Any:
    """Read a JSON file written by :func:`to_json_file`."""
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"no such result file: {source}")
    with open(source, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON in {source}: {exc}") from exc
