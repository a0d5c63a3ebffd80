"""The route `cli._emit_json` printed through before its one-pass writer,
kept as its oracle: `_jsonable` as it was, then the stdlib's encoder.

With `indent` set, `json.dumps` runs its pure-Python encoder, and
`_jsonable` first copies the whole tree; the writer must print the same
bytes, or raise the same TypeError, for every input.
"""

import json

import numpy as np


def _old_jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_old_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _old_jsonable(v) for k, v in obj.items()}
    return obj


def stdlib_json(obj) -> str:
    """The text `_emit_json(obj)` prints, without its final newline."""
    return json.dumps(_old_jsonable(obj), indent=2, sort_keys=True)
