"""A mapping whose versions share one dict: shallow binding.

Baker's shallow binding (1978), as in the persistent arrays of Conchon and
Filliâtre (2007).  The newest version of a map owns the one dict.  `updated`
writes its changes into that dict, in the order given, and hands the dict to
the new version; the version it came from keeps only an undo record of the
keys written (each one's old value, or DELETE) and a link to the newer
version.  A version made by k changes so costs O(k), whatever the map's size,
and the newest version iterates as a dict given the same writes would.

An older version reads as it did when it was made.  Its first read
materializes its own dict once: a copy of the newest version's, with the undo
records between the two applied newest first, O(n + changes since).  That
reader pays for it, and `updated` on an older version likewise copies once.
A version holds no link to the versions before it, so those are freed when
nothing else refers to them; an older version that is kept keeps the undo
records of every version after it until it is read.

The views and iterators of a version are those of the dict it reads, and
`updated` hands that dict on: a view taken before an `updated` of its
version shows the new version's entries after it.  Use a view before the
next update of its version, or copy it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

DELETE = object()  # the value of a change that removes its key


def _write(table: dict, changes: Iterable[tuple[Hashable, object]]) -> list:
    """Apply (key, value or DELETE) changes to `table`, in order; returns
    the changes that undo them, in the same order."""
    undo = []
    for key, value in changes:
        undo.append((key, table.get(key, DELETE)))
        if value is DELETE:
            del table[key]
        else:
            table[key] = value
    return undo


class PersistentMap(Mapping):
    """One version of a map; see the module docstring."""

    __slots__ = ("_table", "_newer", "_undo")

    def __init__(self, table: dict):
        """The first version of a map, which takes `table` over: the caller
        must not change it afterwards."""
        self._table = table
        self._newer: PersistentMap | None = None
        self._undo: list | None = None

    @classmethod
    def of(cls, entries: Mapping) -> PersistentMap:
        """`entries` itself if it is a version, else a first version holding
        a copy of it."""
        return entries if isinstance(entries, cls) else cls(dict(entries))

    def read(self) -> dict:
        """This version's entries as a dict, for reading only; it stays this
        version's until `updated` is called on the version."""
        if self._newer is not None:
            undos, v = [], self
            while v._newer is not None:
                undos.append(v._undo)
                v = v._newer
            table = v._table.copy()
            for undo in reversed(undos):
                _write(table, reversed(undo))
            self._table, self._newer, self._undo = table, None, None
        return self._table

    def updated(self, changes: Iterable[tuple[Hashable, object]]) -> PersistentMap:
        """The version with `changes`, (key, value or DELETE) pairs, applied
        in order; a DELETE must name a present key."""
        table = self.read()
        undo = _write(table, changes)
        new = PersistentMap(table)
        self._table, self._newer, self._undo = None, new, undo
        return new

    def __getitem__(self, key):
        return (self._table if self._newer is None else self.read())[key]

    def get(self, key, default=None):
        return (self._table if self._newer is None else self.read()).get(key, default)

    def __contains__(self, key) -> bool:
        return key in (self._table if self._newer is None else self.read())

    def __iter__(self):
        return iter(self.read())

    def __len__(self) -> int:
        return len(self.read())

    def keys(self):
        return self.read().keys()

    def values(self):
        return self.read().values()

    def items(self):
        return self.read().items()

    def __eq__(self, other) -> bool:
        return self.read() == (other.read() if isinstance(other, PersistentMap) else other)

    def __repr__(self) -> str:
        return f"PersistentMap({self.read()!r})"
