"""Columnar chunks: the unit of batch-at-a-time execution.

The physical engine (:mod:`repro.engine.physical`) passes :class:`Chunk`
objects between operators: a chunk is a plain column store — ``{column
name: list of values}`` plus a row count — and ``chunk.env_at(i)`` is row
*i* as an environment dict (what the reference evaluators bind).

Two invariants keep chunked execution faithful to the row-at-a-time
semantics of the calculus and algebra evaluators:

* **Chunks are never empty.**  Producers only yield chunks with at least
  one row, so a batch kernel is never invoked over zero rows — its
  column-hoisting prologue would otherwise raise an unbound-variable
  error on a stream that should drain silently.
* **Errors are delivered lazily.**  Every producer yields the rows that
  preceded a mid-stream failure as a final partial chunk *before*
  re-raising, so a consumer that short-circuits — an ``exists`` satisfied
  by an early row — never observes an error of a row it did not need.
"""

from __future__ import annotations

from typing import Any, Iterator

Env = dict[str, Any]

#: Default rows per chunk.  Large enough to amortize the per-batch Python
#: overhead (one kernel call, a few list allocations) over ~1k rows, small
#: enough that short-circuiting consumers do not overshoot by much.
DEFAULT_BATCH_SIZE = 1024


class Chunk:
    """A columnar block of rows: ``columns[name][i]`` is row *i*'s binding."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict[str, list], length: int):
        self.columns = columns
        self.length = length

    def env_at(self, i: int) -> Env:
        """Row *i* as an environment dict."""
        return {name: col[i] for name, col in self.columns.items()}

    def envs(self) -> Iterator[Env]:
        """Every row, in order, as environment dicts."""
        columns = self.columns
        for i in range(self.length):
            yield {name: col[i] for name, col in columns.items()}

    @classmethod
    def from_envs(cls, envs: list[Env]) -> "Chunk":
        """Build a chunk from a non-empty list of same-keyed environments."""
        if not envs:
            raise ValueError(
                "Chunk.from_envs requires at least one row: chunks are "
                "never empty (producers must skip the yield instead)"
            )
        names = list(envs[0])
        columns = {name: [env[name] for env in envs] for name in names}
        return cls(columns, len(envs))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Chunk({sorted(self.columns)}, rows={self.length})"

