"""REP008 known-bad: a hot-path module caching draw buffers at module level."""

import numpy as np

_SCRATCH = {}
_CALLS = 0
_SEEN = []


def scratch(rows, half):
    key = (rows, half)
    buffers = _SCRATCH.get(key)
    if buffers is None:
        if len(_SCRATCH) >= 8:
            _SCRATCH.clear()
        buffers = np.empty((rows, half))
        _SCRATCH[key] = buffers
    return buffers


def count_call():
    global _CALLS
    _CALLS += 1
    _SEEN.append(_CALLS)
