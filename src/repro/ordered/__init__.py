"""repro.ordered — the ordered-index query surface.

:class:`OrderedSnapshot` — one sorted key list answered with
``bisect`` — is the consistent host-side ordered view the
:class:`repro.core.PIMTrie` batch ops (``predecessor_batch`` /
``successor_batch`` / ``range_batch`` / ``prefix_count_batch`` /
``top_k``) answer from; :mod:`repro.ordered.bench` is the scenario
behind ``python -m repro bench ordered`` (→ ``BENCH_ordered.json``).

The bench module is imported lazily by the bench runner (it pulls in
the serve and cluster layers); importing this package only loads the
snapshot.
"""

from .snapshot import OrderedSnapshot

__all__ = ["OrderedSnapshot"]
