"""Builders the tests share that no engine calls."""

from imj.gmod import ModMatrix


def zeros(rows: int, cols: int, p: int, N: int) -> ModMatrix:
    """The rows x cols zero matrix over Z/p^N, its width kept when it has
    no rows."""
    return ModMatrix([[0] * cols for _ in range(rows)], p, N, cols)
