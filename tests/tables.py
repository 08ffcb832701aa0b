"""count's table as whole columns: the blocks of monoid.table_blocks
concatenated, which the tests read as (norm, omega, gsum) arrays."""
from typing import NamedTuple

import numpy as np

from monoidldp.monoid import table_blocks
from monoidldp.systems import Beurling, Integers, primes_upto


class Table(NamedTuple):
    norm: np.ndarray
    omega: np.ndarray
    gsum: np.ndarray

    @property
    def count(self) -> int:
        return int(self.norm.size)


def count_table(system, X: int, g) -> Table:
    """The (norm, omega, gsum) columns of the elements of norm <= X, sorted
    by (norm, omega, gsum): table_blocks' blocks, concatenated."""
    return Table(*map(np.concatenate, zip(*table_blocks(system, X, g)[1])))


def frontier_table(system, X: int, g) -> Table:
    """The table as the frontier builds it, on the integers too: there it
    runs over the rational primes <= X, given as a Beurling system."""
    if isinstance(system, Integers):
        system = Beurling(tuple(primes_upto(X).tolist()))
    return count_table(system, X, g)
