"""A single simulated PIM module: private memory plus a metered processor.

Each module owns a local memory, ``scratch``: named persistent state
(blocks, meta pieces, the master replica, ...) that kernels read and
write.  Kernels run on a :class:`ModuleContext` which exposes that
memory and a ``work`` counter; kernel code calls ``ctx.tick(n)`` to
meter its PIM work.  Modules can only touch their own memory — the
simulator enforces the PIM Model's isolation by construction (kernels
are handed their own context only).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["ModuleContext", "PIMModule"]


class ModuleContext:
    """Execution context handed to a kernel running on one module."""

    __slots__ = ("module_id", "work", "scratch")

    def __init__(self, module_id: int):
        self.module_id = module_id
        #: the module's local memory: named persistent state (blocks,
        #: meta pieces, the master replica, ...)
        self.scratch: dict[str, Any] = {}
        self.work = 0

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
        module state.
        """
        self.scratch.clear()

    def memory_words(self, sizer: Optional[Callable[[Any], int]] = None) -> int:
        """Approximate local memory footprint in words."""
        if sizer is None:
            from .system import default_word_cost

            sizer = default_word_cost
        return sum(sizer(v) for v in self.scratch.values())


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
