"""Executable PIM Model simulator (paper §2): modules, BSP rounds, metrics."""

from .metrics import MetricsCollector, MetricsSnapshot, RoundRecord
from .module import ModuleContext, PIMModule
from .system import PIMSystem, default_word_cost

__all__ = [
    "MetricsCollector",
    "MetricsSnapshot",
    "RoundRecord",
    "ModuleContext",
    "PIMModule",
    "PIMSystem",
    "default_word_cost",
]
