"""Per-draw second-price outcome kernel.

The core, ``top_two``, takes one contiguous bid column per bidder and makes
a single pass over the columns, keeping per draw the highest bid ``first``
and the second-highest bid ``second``; a second pass marks each column's
top draws and counts the bidders ``n_top`` who bid ``first``:

    first = max(c0, c1); second = min(c0, c1)
    for each further column x: second = max(second, min(first, x));
                               first = max(first, x)
    for each column k: masks[k] = (x_k == first); n_top += masks[k]

``n_top`` is counted in place, in the smallest unsigned integer type that
holds the number of columns.  The second-highest bid counts duplicates, so
it equals the highest bid whenever the top is tied.  Each top bidder's win
credit is 1/n_top and its surplus is first - second; a tied top therefore
pays its own bid and has surplus exactly 0.0 without a separate uniqueness
mask.  For finite bids the gap is never -0.0, so a mask times the share or
the gap is the same float as a masked select.  Monte Carlo estimation calls
the core per viewpoint and derives credit and surplus from the masks of only
the bidder columns it needs; ``second_price_stats`` wraps the same core for
a (draws x bidders) matrix and returns all four per-draw outcomes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["second_price_stats", "top_two"]


def top_two(cols):
    """Return (first, second, n_top, masks) per draw over >= 2 equal-length
    bid columns; ``masks`` is a (columns, draws) boolean block whose row k
    marks the draws where column k bids ``first``."""
    first = np.maximum(cols[0], cols[1])
    second = np.minimum(cols[0], cols[1])
    for x in cols[2:]:
        np.maximum(second, np.minimum(first, x), out=second)
        np.maximum(first, x, out=first)
    masks = np.empty((len(cols), first.size), dtype=bool)
    n_top = np.zeros(first.size, dtype=np.min_scalar_type(len(cols)))
    for x, mask in zip(cols, masks):
        np.equal(x, first, out=mask)
        n_top += mask
    return first, second, n_top, masks


def second_price_stats(bids: np.ndarray):
    """Return (first, second, credit, surplus) per draw; see the module
    docstring.  Credit and surplus are (draws, bidders) views of
    (bidders, draws) blocks."""
    bids = np.asarray(bids, dtype=np.float64)
    if bids.ndim != 2 or bids.shape[1] < 2:
        raise ValueError("need a (draws, >=2 bidders) bid matrix")
    first, second, n_top, masks = top_two(list(np.asfortranarray(bids).T))
    credit = masks * (1.0 / n_top)
    surplus = masks * (first - second)
    return first, second, credit.T, surplus.T
