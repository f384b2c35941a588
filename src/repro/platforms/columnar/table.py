"""Tables over compressed columns, plus the partitioned hash table.

:class:`ColumnTable` holds named compressed columns of equal length;
the edge table ``sp_edge(spe_from, spe_to)`` is stored sorted by
``spe_from`` so outbound-edge lookups are binary searches over the
delta-compressed key column.

:class:`PartitionedHashTable` is the paper's border structure: "The
state of the computation is kept in a partitioned hash table, with one
thread reading/writing each partition, with an exchange operator
between the lookup of outbound edges and the recording of the new
border." Probe/insert counts are kept per partition so the executor
can both charge CPU and report the per-partition balance.
"""

from __future__ import annotations

import numpy as np

from repro.platforms.columnar.columns import CompressedColumn, FloatColumn
from repro.platforms.hashing import hash_worker, hash_workers

__all__ = ["ColumnTable", "PartitionedHashTable"]

class ColumnTable:
    """A named, immutable table of compressed columns."""

    def __init__(self, name: str, columns: dict[str, CompressedColumn]):
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns of {name!r} differ in length: {lengths}")
        self.name = name
        self.columns = dict(columns)
        self.num_rows = lengths.pop() if lengths else 0

    @classmethod
    def edge_table(cls, edges, name: str = "sp_edge") -> "ColumnTable":
        """Build ``sp_edge`` sorted by source (directed arc list)."""
        arcs = sorted((int(s), int(t)) for s, t in edges)
        sources = np.array([a[0] for a in arcs], dtype=np.int64)
        targets = np.array([a[1] for a in arcs], dtype=np.int64)
        return cls(
            name,
            {
                "spe_from": CompressedColumn(sources, "spe_from"),
                "spe_to": CompressedColumn(targets, "spe_to"),
            },
        )

    @classmethod
    def weighted_edge_table(cls, edges, name: str = "sp_edge") -> "ColumnTable":
        """``sp_edge`` plus an aligned ``spe_weight`` property column.

        Arcs are sorted by (source, target) exactly as the unweighted
        table, so the plain float weight column shares the key column's
        row ranges: ``spe_weight[left:right]`` aligns with the
        ``spe_to`` span of the same lookup.
        """
        arcs = sorted((int(s), int(t), float(w)) for s, t, w in edges)
        sources = np.array([a[0] for a in arcs], dtype=np.int64)
        targets = np.array([a[1] for a in arcs], dtype=np.int64)
        weights = np.array([a[2] for a in arcs], dtype=np.float64)
        return cls(
            name,
            {
                "spe_from": CompressedColumn(sources, "spe_from"),
                "spe_to": CompressedColumn(targets, "spe_to"),
                "spe_weight": FloatColumn(weights, "spe_weight"),
            },
        )

    def column(self, name: str) -> CompressedColumn:
        """Look up a column by name."""
        if name not in self.columns:
            raise KeyError(f"table {self.name!r} has no column {name!r}")
        return self.columns[name]

    @property
    def compressed_bytes(self) -> float:
        """Total compressed size of all columns."""
        return sum(column.compressed_bytes for column in self.columns.values())

    def key_range(self, key_column: str, key: int) -> tuple[int, int]:
        """Row range holding ``key`` in a sorted key column.

        This is the "random lookup" of the paper's profile: a binary
        search over the sorted, compressed key column.
        """
        keys = self.column(key_column).to_numpy()
        left = int(np.searchsorted(keys, key, side="left"))
        right = int(np.searchsorted(keys, key, side="right"))
        return left, right


class PartitionedHashTable:
    """Hash set partitioned across threads (the traversal border)."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        self.num_partitions = num_partitions
        self._partitions: list[set[int]] = [set() for _ in range(num_partitions)]
        self.probes = [0] * num_partitions
        self.inserts = [0] * num_partitions

    def partition_of(self, value: int) -> int:
        """Partition owning a value (stable hash)."""
        return hash_worker(value, self.num_partitions)

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Exchange operator: split a vector into per-partition vectors."""
        parts = hash_workers(values, self.num_partitions)
        return [values[parts == p] for p in range(self.num_partitions)]

    def insert_new(self, partition: int, values: np.ndarray) -> np.ndarray:
        """Probe + insert; returns the values not previously present."""
        table = self._partitions[partition]
        fresh = []
        for value in values.tolist():
            self.probes[partition] += 1
            if value not in table:
                table.add(value)
                self.inserts[partition] += 1
                fresh.append(value)
        return np.array(fresh, dtype=np.int64)

    def __contains__(self, value: int) -> bool:
        return int(value) in self._partitions[self.partition_of(value)]

    def __len__(self) -> int:
        return sum(len(partition) for partition in self._partitions)
