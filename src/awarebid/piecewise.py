"""The exact expected maximum by the names the ``analytic-search``
benchmark's oracle calls: each is one call into ``orderstats.law_grid``."""

from .orderstats import law_grid

__all__ = ["order_stat_rational", "expected_value"]


def order_stat_rational(laws, rank: int):
    """The grid of laws without a normal part, for their highest (rank 1)."""
    if rank != 1:
        raise ValueError("rational route supports rank 1")
    return law_grid(laws)


def expected_value(g):
    """E of the highest law on a grid from ``order_stat_rational``."""
    return g.expected(1)
