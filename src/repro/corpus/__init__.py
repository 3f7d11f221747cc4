"""Persistent corpus subsystem: store and distillation.

See ``docs/corpus.md`` for the store layout, signature scheme,
sharding semantics and the determinism contract.
"""

from repro.corpus.codec import (
    decode_program,
    encode_program,
    program_digest,
)
from repro.corpus.distill import distill_entries, distill_store
from repro.corpus.store import (
    CorpusEntry,
    CorpusStore,
    merge_stores,
)

__all__ = [
    "CorpusEntry",
    "CorpusStore",
    "decode_program",
    "distill_entries",
    "distill_store",
    "encode_program",
    "merge_stores",
    "program_digest",
]
