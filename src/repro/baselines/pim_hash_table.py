"""A distributed PIM hash table (paper [30]'s building block, §3.4).

Keys are hashed to a uniformly random module ("bucket-to-module"
placement); batched get/insert/delete operations execute in one BSP
round each.  This is the substrate beneath the distributed x-fast
baseline (Table 1 row 2) and is also useful on its own as the simplest
PIM-balanced index for exact-match keys.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Optional, Sequence

from ..pim import ModuleContext, PIMSystem

__all__ = ["PIMHashTable"]


class PIMHashTable:
    """A batch-parallel hash table over ``P`` PIM modules."""

    _COUNTER = 0

    def __init__(self, system: PIMSystem, *, seed: int = 0, name: str | None = None):
        self.system = system
        self.seed = seed
        PIMHashTable._COUNTER += 1
        self.name = name or f"pimht{PIMHashTable._COUNTER}"
        self._size = 0

        def kernel(ctx: ModuleContext, reqs: list) -> list:
            table = ctx.scratch.setdefault(self.name, {})
            out = []
            for op, key, value in reqs:
                ctx.tick(1)
                if op == "get":
                    out.append(table.get(key))
                elif op == "put":
                    out.append(key not in table)
                    table[key] = value
                elif op == "del":
                    out.append(table.pop(key, None) is not None)
                else:
                    raise ValueError(f"bad op {op!r}")
            return out

        system.register_kernel(f"{self.name}.kernel", kernel)
        self._kernel = f"{self.name}.kernel"

    # ------------------------------------------------------------------
    def _module_of(self, key: Hashable) -> int:
        return hash((self.seed, key)) % self.system.num_modules

    def _batch(
        self, ops: Sequence[tuple[str, Hashable, Any]]
    ) -> list[Any]:
        """One BSP round executing mixed operations, replies in order."""
        out: list[Any] = [None] * len(ops)
        for i, r in self.system.exchange(self._kernel, [
            (self._module_of(op[1]), op, i) for i, op in enumerate(ops)
        ]):
            out[i] = r
        return out

    # ------------------------------------------------------------------
    def get_batch(self, keys: Sequence[Hashable]) -> list[Any]:
        return self._batch([("get", k, None) for k in keys])

    def put_batch(
        self, keys: Sequence[Hashable], values: Sequence[Any]
    ) -> int:
        fresh = self._batch(
            [("put", k, v) for k, v in zip(keys, values)]
        )
        added = sum(bool(f) for f in fresh)
        self._size += added
        return added

    def delete_batch(self, keys: Sequence[Hashable]) -> int:
        removed = sum(bool(f) for f in self._batch([("del", k, None) for k in keys]))
        self._size -= removed
        return removed

    def __len__(self) -> int:
        return self._size
