"""Fragments: the unit of static partitioning.

A fragment is one horizontal slice of a partitioned relation.  In
Lera-par each operator whose input is a partitioned relation gets one
*instance per fragment*, so fragments are also the unit of
intra-operator parallelism and — for triggered operators — the unit of
sequential work.

Fragments also own the read-only join build structures over their rows
(:meth:`Fragment.lookup_table`, :meth:`Fragment.sorted_index`).  As in
DBS3, where fragments live in shared memory and every thread of every
query reads them, each structure is built once and shared by every
operator and query that joins on the same attribute.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.storage.indexes import LookupTable, SortedIndex, build_lookup_table
from repro.storage.schema import Schema
from repro.storage.tuples import Row, row_size_bytes


class Fragment:
    """One fragment of a partitioned relation.

    Attributes:
        relation_name: Name of the relation this fragment belongs to.
        index: Fragment number within the partitioning (0-based).
        schema: Schema shared with the parent relation.
        rows: The fragment's rows.
        disk: Identifier of the (simulated) disk holding the fragment,
            assigned round-robin by the placement policy; ``None`` for
            transient fragments produced at run time.
    """

    __slots__ = ("relation_name", "index", "schema", "rows", "disk",
                 "_size_cache", "_lookup_tables", "_sorted_indexes")

    def __init__(self, relation_name: str, index: int, schema: Schema,
                 rows: Iterable[Row] = (), disk: int | None = None) -> None:
        self.relation_name = relation_name
        self.index = index
        self.schema = schema
        self.rows: list[Row] = list(rows)
        self.disk = disk
        self._size_cache: int | None = None
        # Join build structures keyed by attribute position; None until
        # the first join asks for one.
        self._lookup_tables: dict[int, LookupTable] | None = None
        self._sorted_indexes: dict[int, SortedIndex] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return (f"Fragment({self.relation_name!r}[{self.index}], "
                f"|rows|={len(self.rows)}, disk={self.disk})")

    @property
    def cardinality(self) -> int:
        """Number of rows in the fragment."""
        return len(self.rows)

    def size_bytes(self) -> int:
        """Approximate footprint of the fragment, in bytes.

        Memoized — the engine's cost accounting asks for footprints on
        hot paths; :meth:`append` invalidates the cache.  Mutating
        ``rows`` directly bypasses the invalidation (of this and of the
        join build structures), so incremental builders must go through
        :meth:`append`.
        """
        size = self._size_cache
        if size is None:
            size = sum(row_size_bytes(row) for row in self.rows)
            self._size_cache = size
        return size

    def lookup_table(self, position: int) -> LookupTable:
        """The fragment's rows grouped by the attribute at *position*.

        Built on first use and shared by every caller until
        :meth:`append` invalidates it.  Callers must treat the table as
        read-only (its groups are tuples).
        """
        tables = self._lookup_tables
        if tables is None:
            tables = self._lookup_tables = {}
        table = tables.get(position)
        if table is None:
            table = tables[position] = build_lookup_table(self.rows, position)
        return table

    def sorted_index(self, position: int) -> SortedIndex:
        """The :class:`SortedIndex` over the whole fragment on *position*.

        Memoized and invalidated like :meth:`lookup_table`.
        """
        indexes = self._sorted_indexes
        if indexes is None:
            indexes = self._sorted_indexes = {}
        index = indexes.get(position)
        if index is None:
            index = indexes[position] = SortedIndex(self.rows, position)
        return index

    def append(self, row: Row) -> None:
        """Add one row (used when building fragments incrementally).

        Invalidates the memoized footprint and join build structures.
        """
        self.rows.append(row)
        self._size_cache = None
        self._lookup_tables = None
        self._sorted_indexes = None
