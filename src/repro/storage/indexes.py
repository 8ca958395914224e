"""Fragment-local indexes.

Two index kinds back the paper's join algorithms:

* :class:`HashIndex` — the classic equi-join build structure.
* :class:`SortedIndex` — the "temporary index built on the fly" used in
  Experiment 3 (Figure 17): a sorted array with binary-search lookup,
  whose ``n log n`` build cost is what makes high partitioning degrees
  profitable (smaller fragments build super-linearly cheaper).

Indexes store rows directly (fragments are memory-resident), and both
expose ``lookup(key) -> list[Row]`` plus build statistics used by the
cost model.  :func:`build_lookup_table` is the one equi-join table
builder: :class:`HashIndex` wraps it, and
:meth:`~repro.storage.fragment.Fragment.lookup_table` memoizes it per
fragment for the join operators.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from repro.storage.tuples import Row

#: Equi-join build table: key value -> the rows carrying it, in order.
LookupTable = dict[object, tuple[Row, ...]]


def build_lookup_table(rows: Iterable[Row], key_position: int) -> LookupTable:
    """Group *rows* by the attribute at *key_position*.

    Each key maps to its rows in input order.  The groups are tuples,
    so a table shared by several operators (or queries) cannot be
    mutated through any one of them.
    """
    table: dict[object, list[Row]] = {}
    for row in rows:
        table.setdefault(row[key_position], []).append(row)
    for key, group in table.items():
        table[key] = tuple(group)  # same keys: safe while iterating
    return table  # type: ignore[return-value]


class HashIndex:
    """Hash index on one attribute position of a set of rows."""

    __slots__ = ("key_position", "_table", "build_rows")

    def __init__(self, rows: Iterable[Row], key_position: int) -> None:
        self.key_position = key_position
        self._table = build_lookup_table(rows, key_position)
        self.build_rows = sum(len(group) for group in self._table.values())

    def __len__(self) -> int:
        return self.build_rows

    def lookup(self, key: object) -> list[Row]:
        """All rows whose key attribute equals *key* (possibly empty)."""
        return list(self._table.get(key, ()))

    def distinct_keys(self) -> int:
        """Number of distinct key values indexed."""
        return len(self._table)

    @staticmethod
    def build_cost_units(cardinality: int) -> float:
        """Abstract cost units to build the index: linear in rows."""
        return float(cardinality)


class SortedIndex:
    """Sorted-array index with binary search — the paper's temp index.

    Build sorts the rows on the key (``O(n log n)``); lookups use
    ``bisect`` (``O(log n)`` plus the match count).
    """

    __slots__ = ("key_position", "_keys", "_rows", "build_rows")

    def __init__(self, rows: Iterable[Row], key_position: int) -> None:
        self.key_position = key_position
        pairs = sorted(((row[key_position], row) for row in rows),
                       key=lambda pair: pair[0])
        self._keys = [key for key, _ in pairs]
        self._rows = [row for _, row in pairs]
        self.build_rows = len(self._rows)

    def __len__(self) -> int:
        return self.build_rows

    def lookup(self, key: object) -> list[Row]:
        """All rows whose key attribute equals *key* (possibly empty)."""
        lo = bisect_left(self._keys, key)
        hi = bisect_right(self._keys, key)
        return self._rows[lo:hi]

    def range_lookup(self, low: object, high: object) -> list[Row]:
        """Rows with ``low <= key <= high`` (inclusive range scan)."""
        lo = bisect_left(self._keys, low)
        hi = bisect_right(self._keys, high)
        return self._rows[lo:hi]

    @staticmethod
    def build_cost_units(cardinality: int) -> float:
        """Abstract cost units to build: ``n * log2(n)`` comparisons."""
        if cardinality <= 1:
            return float(cardinality)
        return cardinality * math.log2(cardinality)


def build_index(rows: Sequence[Row], key_position: int, kind: str = "hash"):
    """Factory: build a ``hash`` or ``sorted`` index over *rows*."""
    if kind == "hash":
        return HashIndex(rows, key_position)
    if kind == "sorted":
        return SortedIndex(rows, key_position)
    raise ValueError(f"unknown index kind {kind!r}")
