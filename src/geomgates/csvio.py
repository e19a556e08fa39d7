"""Deterministic CSV/JSON table writers.

Every table carries its full parameter set as leading '# key = value'
comment lines so a data file is self-describing.  Formatting is fixed
(repr-precision floats, no timestamps) so repeated runs on one platform
produce bit-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

__all__ = ["format_value", "write_table", "write_json", "table_to_json"]


def format_value(v):
    """Stable text form for header values and cells."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_table(path, params, columns):
    """Write a CSV table.

    Parameters
    ----------
    path : str or Path
    params : dict
        Emitted as '# key = value' lines, in insertion order.
    columns : list of (name, array)
        Equal-length 1-d columns.
    """
    names = [name for name, _ in columns]
    arrays = [np.asarray(col) for _, col in columns]
    n = len(arrays[0])
    for name, arr in zip(names, arrays):
        if len(arr) != n:
            raise ValueError(f"column {name!r} has length {len(arr)}, expected {n}")
    lines = [f"# {k} = {format_value(v)}" for k, v in params.items()]
    lines.append(",".join(names))
    for i in range(n):
        lines.append(",".join(format_value(arr[i]) for arr in arrays))
    text = "\n".join(lines) + "\n"
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _jsonable(v):
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def write_json(path, obj):
    """Write a JSON document with sorted keys and a trailing newline."""
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def table_to_json(params, columns):
    """JSON-ready dict mirroring write_table's CSV layout."""
    return {
        "params": _jsonable(dict(params)),
        "columns": {name: _jsonable(np.asarray(col)) for name, col in columns},
    }
