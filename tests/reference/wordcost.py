"""The uncached word-cost walk that :func:`repro.pim.default_word_cost`
must agree with.

It re-resolves the dispatch for every object; the shipped function
memoizes the same decision per concrete type.  The lockstep assertions
are in ``tests/test_wordcost_fastpath.py``.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np


def reflective_word_cost(obj: Any) -> int:
    """Cost, in machine words, of shipping ``obj`` between CPU and PIM:
    1 per scalar, ceil(bits/w) per string or buffer, the element sum for
    containers, ``obj.word_cost()`` when the object declares one, and
    the sum over its attribute values otherwise."""
    if obj is None or isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 1
    cost_fn = getattr(obj, "word_cost", None)
    if cost_fn is not None:
        return int(cost_fn())
    if isinstance(obj, str):
        return max(1, -(-len(obj) * 8 // 64))
    if isinstance(obj, bytes):
        return max(1, -(-len(obj) // 8))
    if isinstance(obj, np.ndarray):
        return max(1, -(-obj.nbytes // 8))
    if isinstance(obj, Mapping):
        return sum(
            reflective_word_cost(k) + reflective_word_cost(v)
            for k, v in obj.items()
        ) or 1
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(reflective_word_cost(x) for x in obj) or 1
    # dataclass-ish fallback: sum of public attribute costs
    d = getattr(obj, "__dict__", None)
    if d is None and hasattr(obj, "__slots__"):
        d = {s: getattr(obj, s) for s in obj.__slots__ if hasattr(obj, s)}
    if d:
        return sum(reflective_word_cost(v) for v in d.values()) or 1
    return 1
