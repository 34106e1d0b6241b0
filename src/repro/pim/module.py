"""A single simulated PIM module: private memory plus a metered processor.

Each module owns a local object heap addressed by integer handles (the
"local memory address" half of the paper's PIM address).  Kernels run on
a :class:`ModuleContext` which exposes the heap and a ``work`` counter;
kernel code calls ``ctx.tick(n)`` to meter its PIM work.  Modules can
only touch their own memory — the simulator enforces the PIM Model's
isolation by construction (kernels are handed their own context only).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["ModuleContext", "PIMModule"]


class ModuleContext:
    """Execution context handed to a kernel running on one module."""

    __slots__ = ("module_id", "heap", "work", "_next_addr", "scratch")

    def __init__(self, module_id: int):
        self.module_id = module_id
        self.heap: dict[int, Any] = {}
        #: named persistent per-module state (hash tables, replicas, ...)
        self.scratch: dict[str, Any] = {}
        self.work = 0
        self._next_addr = 1

    # ------------------------------------------------------------------
    # local memory management
    # ------------------------------------------------------------------
    def alloc(self, obj: Any) -> int:
        """Store ``obj`` in local memory; return its local address."""
        addr = self._next_addr
        self._next_addr += 1
        self.heap[addr] = obj
        return addr

    def load(self, addr: int) -> Any:
        try:
            return self.heap[addr]
        except KeyError:
            raise KeyError(
                f"module {self.module_id}: no object at local address {addr}"
            ) from None

    # ------------------------------------------------------------------
    # work metering
    # ------------------------------------------------------------------
    def tick(self, n: int = 1) -> None:
        """Meter ``n`` units of PIM processor work."""
        self.work += n

    def wipe(self) -> None:
        """Power-cycle the module: all local memory is lost.

        The ``work`` meter survives — it is the simulator's odometer
        (kernel-work deltas are computed against it mid-round), not
        module state.  The allocation counter also survives: local
        addresses are never reused across a crash, so a stale host-side
        handle from before the wipe faults loudly (``KeyError``) instead
        of silently resolving to whatever object recovery happened to
        place at the recycled address.
        """
        self.heap.clear()
        self.scratch.clear()

    def memory_words(self, sizer: Optional[Callable[[Any], int]] = None) -> int:
        """Approximate local memory footprint in words."""
        if sizer is None:
            from .system import default_word_cost

            sizer = default_word_cost
        return sum(sizer(v) for v in self.heap.values()) + sum(
            sizer(v) for v in self.scratch.values()
        )


class PIMModule:
    """A PIM module: wraps the context its kernels run on."""

    __slots__ = ("context",)

    def __init__(self, module_id: int):
        self.context = ModuleContext(module_id)

    def wipe(self) -> None:
        """Crash the module: its local memory is lost."""
        self.context.wipe()

    @property
    def module_id(self) -> int:
        return self.context.module_id
