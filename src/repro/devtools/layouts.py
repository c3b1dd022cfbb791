"""Frozen draw-stream and decision-column layout snapshots (REP004).

These are the public, append-only layouts every persisted result and
every counter-mode draw coordinate depends on.  The values here are a
*snapshot*, not a second source of truth: REP004 compares the live
definitions against this table and fails when an existing entry is
renumbered or reordered.  **Appending** new streams or columns is always
allowed — extend the layout, then extend this snapshot in the same
change (which is exactly the reviewable diff the rule exists to force).
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

__all__ = ["FROZEN_STREAM_CONSTANTS", "FROZEN_DECISION_SUFFIX"]

#: Module-level stream-id constants of ``simulation/rng.py``.  A counter
#: draw's generator key embeds its stream id, so renumbering any of these
#: silently changes every persisted counter-mode result.
FROZEN_STREAM_CONSTANTS: Dict[str, Union[int, Tuple[int, int]]] = {
    "AGE_STREAMS": (42, 43),
    "TRAINED_STREAM": 44,
    "SPOOF_STREAM": 45,
    "NOISE_STREAMS": (46, 47),
    "DECISION_STREAM_BASE": 48,
}

#: The fixed tail of ``core.pipeline.decision_columns``: after the
#: per-stage columns, these keys occupy consecutive offsets 0..3 past the
#: stage block, in exactly this order.  Matrix-mode draw layout and
#: counter-mode stream ids (``DECISION_STREAM_BASE + column``) both
#: depend on it.
FROZEN_DECISION_SUFFIX: Tuple[str, ...] = (
    "override",
    "intention",
    "capability",
    "behavior",
)
