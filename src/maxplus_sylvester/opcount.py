"""Tally of scalar semiring operations performed by the matrix kernels.

The counter is the deterministic backbone of the benchmark harness:
wall time is noisy, operation counts are not.  One multiply-accumulate
step inside a tropical product counts as a single operation; an
entrywise ⊕, which occurs only folded into a product's accumulate mode
or into the oracle's Kronecker matrix, counts one per cell; Kronecker
entry formation counts one per output cell.  Negation, transposition
and the oracle's vec/unvec are data movement and cost nothing.  So p
terms at an m×n C count 2·(p·mn + rows·inner·cols of each product formed):
``2·p·(m²n + mn² + mn)``, and ``2·(m²n + mn² + 2mn)`` for the two-sided
form, whose unit factors form no product; the oracle ``2·(p+1)·(mn)²``.

A plain module-level counter is enough here: benchmark runs are
single-threaded by contract, and callers measure with snapshot
differences rather than resets.
"""


class OpCounter:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, n: int) -> None:
        self.total += n


semiring_ops = OpCounter()
