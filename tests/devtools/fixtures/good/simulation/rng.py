"""REP008 known-good: read-only module tables, buffers owned by the caller."""

import numpy as np

_LIMITS = {"rows": 64}
_STREAMS = (42, 43)


class Buffers:
    def __init__(self):
        self._arrays = {}

    def array(self, shape):
        array = self._arrays.get(shape)
        if array is None:
            array = self._arrays[shape] = np.empty(shape)
        return array


def scratch(rows, half, buffers=None):
    if rows > _LIMITS["rows"]:
        raise ValueError("too many rows")
    if buffers is None:
        return np.empty((rows, half))
    return buffers.array((rows, half))


def shadowed(_STREAMS):
    # A parameter named like a module constant is local, not module state.
    _STREAMS.append(len(_STREAMS))
    return _STREAMS
