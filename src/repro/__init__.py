"""PIM-trie reproduction: a skew-resistant trie for Processing-in-Memory
(Kang et al., SPAA 2023), on an executable PIM Model simulator.

Quickstart::

    from repro import PIMSystem, PIMTrie, BitString

    system = PIMSystem(num_modules=16, seed=1)
    trie = PIMTrie(system, keys=[BitString.from_str("0101"),
                                 BitString.from_str("0110")])
    trie.lcp_batch([BitString.from_str("0111")])   # -> [2]
"""

from .bits import BitString, HashValue, IncrementalHasher
from .core import MatchOutcome, PIMTrie, PIMTrieConfig
from .pim import MetricsSnapshot, PIMSystem
from . import faults
from . import obs
from . import serve

__version__ = "4.0.0"

__all__ = [
    "BitString",
    "HashValue",
    "IncrementalHasher",
    "MatchOutcome",
    "PIMTrie",
    "PIMTrieConfig",
    "MetricsSnapshot",
    "PIMSystem",
    "faults",
    "obs",
    "serve",
    "__version__",
]
