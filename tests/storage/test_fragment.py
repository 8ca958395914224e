"""Fragment-resident join build structures: memoized, shared, invalidated."""

from repro.storage.fragment import Fragment
from repro.storage.indexes import SortedIndex, build_lookup_table
from repro.storage.schema import Schema

SCHEMA = Schema.of_ints("key", "payload")
ROWS = [(3, 30), (1, 10), (2, 20), (1, 11)]


def _fragment(rows=ROWS):
    return Fragment("R", 0, SCHEMA, rows)


class TestLookupTable:
    def test_groups_rows_in_order(self):
        table = _fragment().lookup_table(0)
        assert table == {3: ((3, 30),), 1: ((1, 10), (1, 11)),
                         2: ((2, 20),)}

    def test_groups_are_read_only_tuples(self):
        table = _fragment().lookup_table(0)
        assert all(isinstance(group, tuple) for group in table.values())

    def test_memoized_per_position(self):
        fragment = _fragment()
        assert fragment.lookup_table(0) is fragment.lookup_table(0)
        assert fragment.lookup_table(1) is not fragment.lookup_table(0)
        assert fragment.lookup_table(1)[30] == ((3, 30),)


class TestSortedIndex:
    def test_covers_the_whole_fragment(self):
        index = _fragment().sorted_index(0)
        assert isinstance(index, SortedIndex)
        assert len(index) == len(ROWS)
        assert index.lookup(1) == [(1, 10), (1, 11)]

    def test_memoized_per_position(self):
        fragment = _fragment()
        assert fragment.sorted_index(0) is fragment.sorted_index(0)
        assert fragment.sorted_index(1) is not fragment.sorted_index(0)


class TestInvalidation:
    def test_append_rebuilds_structures_taken_on_an_empty_fragment(self):
        fragment = Fragment("T", 0, SCHEMA)
        empty_table = fragment.lookup_table(0)
        empty_index = fragment.sorted_index(0)
        assert empty_table == {}
        assert len(empty_index) == 0
        for row in ROWS:
            fragment.append(row)
        table = fragment.lookup_table(0)
        index = fragment.sorted_index(0)
        assert table is not empty_table
        assert index is not empty_index
        assert table == build_lookup_table(ROWS, 0)
        assert len(index) == len(ROWS)
        assert index.lookup(1) == [(1, 10), (1, 11)]

    def test_append_invalidates_every_position(self):
        fragment = _fragment(ROWS[:1])
        fragment.lookup_table(0)
        fragment.lookup_table(1)
        fragment.append((1, 10))
        assert fragment.lookup_table(0)[1] == ((1, 10),)
        assert fragment.lookup_table(1)[10] == ((1, 10),)

    def test_append_invalidates_size(self):
        fragment = Fragment("T", 0, SCHEMA)
        assert fragment.size_bytes() == 0
        fragment.append((1, 10))
        assert fragment.size_bytes() > 0
