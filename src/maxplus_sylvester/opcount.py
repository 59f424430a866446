"""Tally of scalar semiring operations performed by the matrix kernels.

The counter is the deterministic backbone of the benchmark harness:
wall time is noisy, operation counts are not.  One multiply-accumulate
step inside a tropical product counts as a single operation; an
entrywise ⊕, which occurs only folded into a product's accumulate mode
or into the oracle's Kronecker matrix, counts one per cell; Kronecker
entry formation counts one per output cell.  Negation, transposition
and vec/unvec are data movement and cost nothing.

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
