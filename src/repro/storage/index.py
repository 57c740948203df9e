"""Secondary indexes.

Two flavours:

* :class:`HashIndex` — equality lookups; used for plain and composite
  secondary indexes and for unique constraints.
* :class:`OrderedIndex` — equality, prefix, and range lookups over one
  or more columns, kept as a sorted list of composite keys (binary
  search via :mod:`bisect`).

Indexes map a key (tuple of column values) to the set of primary keys of
rows carrying that key.  They are maintained synchronously by the table
on every insert/update/delete so reads never rebuild anything.

Planner support: both flavours maintain an O(1) entry counter
(``len(index)`` is a hot path for metrics and cost estimation) and
expose cheap cardinality probes — :meth:`HashIndex.bucket_size` is an
O(1) dict hit, :meth:`OrderedIndex.estimate_range` is two binary
searches — so the cost-based planner can price candidate plans without
executing them.  Range reads are **iterator-based**:
:meth:`OrderedIndex.seek` walks the sorted keys lazily instead of
materializing a pk set, which is what makes LIMIT-aware early exit
worth planning.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator

from repro.errors import UniqueViolation
from repro.storage.types import sort_key

#: Compares greater than every :func:`sort_key` result (type tags are
#: 0..5); appended to a wrapped prefix it forms the exclusive upper
#: bound of that prefix's key range.
_KEY_INFINITY = (6,)


class HashIndex:
    """Equality index over one or more columns.

    Keys are tuples of the indexed column values.  With ``unique=True``
    the index additionally enforces at most one row per fully-non-null
    key (SQL semantics: NULLs never collide).
    """

    def __init__(self, table: str, columns: tuple[str, ...], *, unique: bool = False):
        self.table = table
        self.columns = columns
        self.unique = unique
        self._buckets: dict[tuple, set[Any]] = {}
        #: Total pk entries across buckets; kept current on add/remove
        #: so ``len(index)`` is O(1) (it feeds metrics and plan costs).
        self._entries = 0

    @property
    def name(self) -> str:
        prefix = "uq" if self.unique else "ix"
        return f"{prefix}_{self.table}_{'_'.join(self.columns)}"

    def key_for(self, row: dict[str, Any]) -> tuple:
        return tuple(row[c] for c in self.columns)

    def _enforceable(self, key: tuple) -> bool:
        """Unique constraints ignore keys containing NULL."""
        return self.unique and all(part is not None for part in key)

    def check_insert(self, row: dict[str, Any], pk: Any) -> None:
        """Raise :class:`UniqueViolation` if inserting *row* would collide."""
        key = self.key_for(row)
        if self._enforceable(key):
            existing = self._buckets.get(key)
            if existing and any(other != pk for other in existing):
                raise UniqueViolation(
                    f"duplicate value {key!r} for unique index "
                    f"{self.name!r}",
                    table=self.table,
                    constraint=self.name,
                )

    def add(self, row: dict[str, Any], pk: Any) -> None:
        bucket = self._buckets.setdefault(self.key_for(row), set())
        before = len(bucket)
        bucket.add(pk)
        self._entries += len(bucket) - before

    def add_many(self, entries: "Iterable[tuple[dict[str, Any], Any]]") -> None:
        """:meth:`add` every ``(row, pk)`` pair (bulk load; no checks)."""
        buckets = self._buckets
        added = 0
        for row, pk in entries:
            key = self.key_for(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = {pk}
                added += 1
            elif pk not in bucket:
                bucket.add(pk)
                added += 1
        self._entries += added

    def remove(self, row: dict[str, Any], pk: Any) -> None:
        key = self.key_for(row)
        bucket = self._buckets.get(key)
        if bucket is not None:
            before = len(bucket)
            bucket.discard(pk)
            self._entries -= before - len(bucket)
            if not bucket:
                del self._buckets[key]

    def lookup(self, key: tuple) -> set[Any]:
        """Return the pks of rows whose indexed columns equal *key*."""
        return set(self._buckets.get(key, ()))

    def members(self, key: tuple) -> "set[Any] | tuple":
        """The live pk set under *key*, uncopied.  Read-only: a caller
        that holds it across a write copies it first (one ``sorted``
        or ``set`` call does)."""
        return self._buckets.get(key, ())

    def bucket_size(self, key: tuple) -> int:
        """Exact row count under *key* without copying the bucket (O(1)).

        The planner prices candidate equality plans with this, so plan
        selection never materializes pk sets it may discard.
        """
        bucket = self._buckets.get(key)
        return 0 if bucket is None else len(bucket)

    def distinct_keys(self) -> int:
        """Number of distinct key tuples currently indexed (O(1))."""
        return len(self._buckets)

    def keys(self) -> Iterator[tuple]:
        return iter(self._buckets)

    def __len__(self) -> int:
        return self._entries

    def clear(self) -> None:
        self._buckets.clear()
        self._entries = 0


class OrderedIndex:
    """Ordered (range-capable) index over one or more columns.

    Maintains a sorted list of distinct composite keys alongside a hash
    map to pk-sets.  Each component is wrapped with
    :func:`repro.storage.types.sort_key` so mixed/None values stay
    ordered; composite keys compare lexicographically, which is what
    makes **prefix seeks** work: every key extending prefix ``p`` sorts
    inside ``[p, p + infinity)``.

    The index is *covering* for any column subset of :attr:`columns`:
    entries retain the raw column values, so a plan whose selected and
    residual columns all live here can be answered without touching the
    row store (see :meth:`covers` / :meth:`seek`).
    """

    def __init__(self, table: str, columns: "tuple[str, ...] | str"):
        if isinstance(columns, str):
            columns = (columns,)
        self.table = table
        self.columns = tuple(columns)
        self._sorted_keys: list[tuple] = []   # sort_key-wrapped composites
        #: wrapped key -> (raw value tuple, pk set)
        self._by_key: dict[tuple, tuple[tuple, set[Any]]] = {}
        #: Total pk entries; O(1) ``len`` for metrics and plan costing.
        self._entries = 0

    @property
    def name(self) -> str:
        # Single-column ordered indexes keep the historical sx_ prefix
        # (explain() strategies like "range:sx_t_c" are asserted by the
        # ablation benchmarks); composites get their own ox_ family.
        if len(self.columns) == 1:
            return f"sx_{self.table}_{self.columns[0]}"
        return f"ox_{self.table}_{'_'.join(self.columns)}"

    def key_for(self, row: dict[str, Any]) -> tuple:
        return tuple(row[c] for c in self.columns)

    @staticmethod
    def _wrap(raw: tuple) -> tuple:
        return tuple(sort_key(part) for part in raw)

    def covers(self, columns: Iterable[str]) -> bool:
        """Whether every column in *columns* is stored in this index."""
        own = set(self.columns)
        return all(c in own for c in columns)

    # -- maintenance -------------------------------------------------------

    def add(self, row: dict[str, Any], pk: Any) -> None:
        raw = self.key_for(row)
        wrapped = self._wrap(raw)
        entry = self._by_key.get(wrapped)
        if entry is None:
            bisect.insort(self._sorted_keys, wrapped)
            self._by_key[wrapped] = (raw, {pk})
            self._entries += 1
        else:
            before = len(entry[1])
            entry[1].add(pk)
            self._entries += len(entry[1]) - before

    def add_many(self, entries: "Iterable[tuple[dict[str, Any], Any]]") -> None:
        """:meth:`add` every ``(row, pk)`` pair, then sort the keys once.

        One ``sorted()`` over the distinct keys instead of one
        ``insort`` per new key: O(n log n) rather than O(n²) moves.
        """
        by_key = self._by_key
        added = 0
        for row, pk in entries:
            raw = self.key_for(row)
            wrapped = self._wrap(raw)
            entry = by_key.get(wrapped)
            if entry is None:
                by_key[wrapped] = (raw, {pk})
                added += 1
            elif pk not in entry[1]:
                entry[1].add(pk)
                added += 1
        self._entries += added
        self._sorted_keys = sorted(by_key)

    def remove(self, row: dict[str, Any], pk: Any) -> None:
        wrapped = self._wrap(self.key_for(row))
        entry = self._by_key.get(wrapped)
        if entry is None:
            return
        before = len(entry[1])
        entry[1].discard(pk)
        self._entries -= before - len(entry[1])
        if not entry[1]:
            del self._by_key[wrapped]
            # The key was present in _by_key, so it is present in the
            # sorted list at exactly bisect_left — a single probe, no
            # re-check needed (the old code bisected and then compared).
            del self._sorted_keys[bisect.bisect_left(self._sorted_keys, wrapped)]

    def clear(self) -> None:
        self._sorted_keys.clear()
        self._by_key.clear()
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    # -- point lookups -----------------------------------------------------

    def lookup_key(self, values: tuple) -> set[Any]:
        """Pks of rows whose indexed columns equal *values* (full key)."""
        entry = self._by_key.get(self._wrap(values))
        return set(entry[1]) if entry else set()

    def distinct_keys(self) -> int:
        """Number of distinct composite keys currently indexed (O(1))."""
        return len(self._by_key)

    def min_key(self) -> "tuple | None":
        """Smallest raw key tuple, or ``None`` when empty (O(1))."""
        if not self._sorted_keys:
            return None
        return self._by_key[self._sorted_keys[0]][0]

    def max_key(self) -> "tuple | None":
        """Largest raw key tuple, or ``None`` when empty (O(1))."""
        if not self._sorted_keys:
            return None
        return self._by_key[self._sorted_keys[-1]][0]

    # -- range machinery ---------------------------------------------------

    def _bounds(
        self,
        prefix: tuple,
        low: Any,
        high: Any,
        include_low: bool,
        include_high: bool,
        exclude_null: bool = False,
    ) -> tuple[int, int]:
        """Positions ``[lo, hi)`` in the sorted key list for a seek with
        equality on *prefix* and an optional range on the next column.

        ``exclude_null`` skips keys whose range column is NULL — range
        predicates never match NULL (SQL three-valued logic), so a seek
        with only an upper bound must not start at the NULL keys that
        sort below everything.
        """
        wrapped_prefix = self._wrap(prefix)
        if low is None:
            if exclude_null and len(prefix) < len(self.columns):
                lo_pos = bisect.bisect_left(
                    self._sorted_keys,
                    wrapped_prefix + (sort_key(None), _KEY_INFINITY),
                )
            else:
                lo_pos = bisect.bisect_left(self._sorted_keys, wrapped_prefix)
        else:
            bound = wrapped_prefix + (sort_key(low),)
            lo_pos = (
                bisect.bisect_left(self._sorted_keys, bound)
                if include_low
                else bisect.bisect_left(self._sorted_keys, bound + (_KEY_INFINITY,))
            )
        if high is None:
            hi_pos = bisect.bisect_left(
                self._sorted_keys, wrapped_prefix + (_KEY_INFINITY,)
            )
        else:
            bound = wrapped_prefix + (sort_key(high),)
            hi_pos = (
                bisect.bisect_left(self._sorted_keys, bound + (_KEY_INFINITY,))
                if include_high
                else bisect.bisect_left(self._sorted_keys, bound)
            )
        return lo_pos, hi_pos

    def estimate_range(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        exclude_null: bool = False,
    ) -> tuple[int, float]:
        """``(distinct_keys, estimated_rows)`` for a seek, in O(log n).

        Equality on the whole key is exact and one dict hit, as
        :meth:`HashIndex.bucket_size` is.  Otherwise the row estimate is
        matching keys × average bucket size: exact when every key holds
        one pk (unique-ish columns), a guess on skewed columns.  This is
        the planner's costing probe — nothing is materialized.
        """
        if len(prefix) == len(self.columns) and low is None and high is None:
            entry = self._by_key.get(self._wrap(prefix))
            return (0, 0.0) if entry is None else (1, float(len(entry[1])))
        lo_pos, hi_pos = self._bounds(
            prefix, low, high, include_low, include_high, exclude_null
        )
        keys = max(0, hi_pos - lo_pos)
        if not self._by_key:
            return 0, 0.0
        avg_bucket = self._entries / len(self._by_key)
        return keys, keys * avg_bucket

    def seek(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        descending: bool = False,
        exclude_null: bool = False,
    ) -> Iterator[tuple[tuple, set[Any]]]:
        """Lazily yield ``(raw_key, pk_set)`` entries in key order.

        Equality on *prefix* (possibly empty), optional range bounds on
        the column right after the prefix.  Non-materializing: the
        caller can stop after LIMIT rows and the remaining key range is
        never touched.  The yielded pk set is the live set — callers
        must not mutate it and should copy if they hold it across a
        write.
        """
        lo_pos, hi_pos = self._bounds(
            prefix, low, high, include_low, include_high, exclude_null
        )
        positions: Iterable[int] = (
            range(hi_pos - 1, lo_pos - 1, -1) if descending else range(lo_pos, hi_pos)
        )
        for pos in positions:
            # Lock-free readers can race a writer shrinking the key
            # list; results are best-effort latest-state (exactly like
            # the old materializing range()) and the query layer's
            # epoch checks keep torn results out of the cache.
            try:
                wrapped = self._sorted_keys[pos]
            except IndexError:
                break
            entry = self._by_key.get(wrapped)
            if entry is not None:
                yield entry

    def range_pks(
        self,
        prefix: tuple = (),
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        descending: bool = False,
        exclude_null: bool = False,
    ) -> Iterator[Any]:
        """Lazily yield pks for a seek (ties in arbitrary order)."""
        for _raw, pks in self.seek(
            prefix,
            low,
            high,
            include_low=include_low,
            include_high=include_high,
            descending=descending,
            exclude_null=exclude_null,
        ):
            yield from pks

    def ordered_pks(self, *, descending: bool = False) -> Iterable[Any]:
        """Yield pks in indexed-key order (ties in arbitrary order)."""
        keys = reversed(self._sorted_keys) if descending else self._sorted_keys
        for wrapped in keys:
            yield from self._by_key[wrapped][1]
