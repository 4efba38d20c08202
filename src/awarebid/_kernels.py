"""Per-draw second-price outcome kernel.

Given a (draws x bidders) bid matrix the kernel produces, per draw: the
highest bid, the second-highest bid, each bidder's fractional win credit
(1/#ties for the top bidders, 0 otherwise) and each bidder's surplus
(bid - price for the top bidders, 0 otherwise).  The second-highest bid
counts duplicates, so it equals the highest bid whenever the top is tied;
the price then equals the bid and a tied top bidder's surplus is exactly
0.0 without a separate uniqueness mask.  This is the inner loop of Monte
Carlo estimation; it is a single vectorised numpy pass over the matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["second_price_stats"]


def second_price_stats(bids: np.ndarray):
    """Return (first, second, credit, surplus) per draw; see the module docstring."""
    bids = np.ascontiguousarray(bids, dtype=np.float64)
    if bids.ndim != 2 or bids.shape[1] < 2:
        raise ValueError("need a (draws, >=2 bidders) bid matrix")
    first = bids.max(axis=1)
    is_top = bids == first[:, None]
    n_top = is_top.sum(axis=1)
    # second-highest including duplicates; equals the price a unique winner pays
    # and equals `first` whenever the top is tied.
    second = np.partition(bids, bids.shape[1] - 2, axis=1)[:, -2]
    credit = is_top / n_top[:, None]
    surplus = np.where(is_top, (first - second)[:, None], 0.0)
    return first, second, credit, surplus

