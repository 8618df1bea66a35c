"""Hierarchical (XML-like) document storage — the last named extension.

Tree documents are flattened into path postings stored in bucket-chained
flash logs; queries support exact paths, ``//suffix`` and ``*`` patterns,
value equality and conjunctions, all in the token's RAM budget.
"""

from repro.hierarchical.paths import SEP, flatten, path_matches
from repro.hierarchical.store import HierarchicalStore

__all__ = [
    "SEP",
    "HierarchicalStore",
    "flatten",
    "path_matches",
]
