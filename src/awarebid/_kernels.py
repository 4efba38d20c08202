"""Per-draw second-price outcome kernel.

The core, ``top_two``, takes one contiguous bid column per bidder and makes
a single pass over the columns, keeping per draw the highest bid ``first``,
the second-highest bid ``second`` and finally the number of bidders ``n_top``
who bid ``first``:

    first = max(c0, c1); second = min(c0, c1)
    for each further column x: second = max(second, min(first, x));
                               first = max(first, x)
    n_top = sum over columns of (x == first)

The second-highest bid counts duplicates, so it equals the highest bid
whenever the top is tied.  Each top bidder's win credit is 1/n_top and its
surplus is first - second; a tied top therefore pays its own bid and has
surplus exactly 0.0 without a separate uniqueness mask.  Monte Carlo
estimation calls the core per viewpoint and derives credit and surplus only
for the bidder columns it needs; ``second_price_stats`` wraps the same core
for a (draws x bidders) matrix and returns all four per-draw outcomes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["second_price_stats", "top_two"]


def top_two(cols):
    """Return (first, second, n_top) per draw over >= 2 equal-length bid columns."""
    first = np.maximum(cols[0], cols[1])
    second = np.minimum(cols[0], cols[1])
    for x in cols[2:]:
        np.maximum(second, np.minimum(first, x), out=second)
        np.maximum(first, x, out=first)
    n_top = sum(x == first for x in cols)
    return first, second, n_top


def second_price_stats(bids: np.ndarray):
    """Return (first, second, credit, surplus) per draw; see the module docstring."""
    bids = np.ascontiguousarray(bids, dtype=np.float64)
    if bids.ndim != 2 or bids.shape[1] < 2:
        raise ValueError("need a (draws, >=2 bidders) bid matrix")
    first, second, n_top = top_two(list(np.asfortranarray(bids).T))
    is_top = bids == first[:, None]
    credit = is_top / n_top[:, None]
    surplus = np.where(is_top, (first - second)[:, None], 0.0)
    return first, second, credit, surplus
