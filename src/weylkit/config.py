"""Process-wide strictness switch.

Strict mode makes every word-composed operator check that all reduced words
of its group element w give one value: it walks every x below w in the left
weak order, shortest first, computes x once from each left descent j as the
step j applied to the value of s_j x, and raises WordMismatch on the first
two that differ. Every reduced word of w is a path through these edges, so
edgewise agreement is agreement along every word (demazure._walk). It costs
the sum of the left descents over the elements below w, |W| rank / 2 steps for
the longest element, against one step per letter when off. Strict mode also
makes repring.decompose_over_invariants reconstruct u from its coordinates
and raise InternalInvariantError on a mismatch. It exists to catch
bugs, so the library default is off; the test suite turns it on, and the
WEYLKIT_STRICT=1 environment variable forces it everywhere.
"""

from __future__ import annotations

import os

_strict_default: bool | None = None


def strict_default() -> bool:
    if _strict_default is not None:
        return _strict_default
    return os.environ.get("WEYLKIT_STRICT", "") == "1"


def set_strict_default(value: bool | None) -> None:
    """Override the default (None restores env-var behaviour)."""
    global _strict_default
    _strict_default = value


def resolve_strict(strict: bool | None) -> bool:
    return strict_default() if strict is None else strict
