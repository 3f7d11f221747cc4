"""The content-addressed on-disk corpus store.

Layout of a store directory::

    <root>/
      manifest.json           # single-writer stores
      manifest.<writer>.json  # one segment per fleet shard
      programs/<digest>.json  # canonical program bytes (codec.py)

Program bodies are immutable and content-addressed, so concurrent
writers can never conflict on them: two shards that discover the same
program write the same bytes to the same path (atomically, via
write-then-rename).  Mutable state lives only in the manifest, and a
sharded store gives every writer its *own* segment file — readers
union all segments, keyed by digest, which makes the merged view a
set union: order-independent by construction, no locks anywhere.

The manifest is versioned and carries the firmware identity: a corpus
grown on one firmware refuses to seed a campaign on another, the same
way checkpoints validate their identity fields.  Each entry records
the coverage *signature* of its program — the sorted coverage points
the program touched when it was inserted — which is what distillation
(greedy minset) consumes.

Every structural failure raises :class:`~repro.errors.CorpusError`
(a :class:`~repro.errors.FuzzerError`), mirroring the checkpoint
layer's :class:`~repro.errors.CheckpointError` contract: corrupt
stores are diagnosable and discardable, never a raw traceback.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.corpus.codec import (
    decode_program,
    digest_of_bytes,
    encode_program,
    program_digest,
)
from repro.errors import CorpusError
from repro.fuzz.program import Program

MANIFEST_VERSION = 1

#: entry kinds: ``cover`` entries earn their place by coverage
#: signature; ``crash`` entries are (minimized) bug reproducers and
#: survive distillation unconditionally; ``seed`` entries are corpus
#: programs persisted only so checkpoints can reference them by digest
KINDS = ("cover", "crash", "seed")


@dataclass(frozen=True)
class CorpusEntry:
    """One manifest row: a program's identity and why it is here."""

    digest: str
    signature: Tuple[int, ...]
    kind: str = "cover"
    execs: int = 0  #: exec count when the program was inserted

    def to_json(self) -> dict:
        return {
            "signature": list(self.signature),
            "kind": self.kind,
            "execs": self.execs,
        }

    @staticmethod
    def from_json(digest: str, data, source: Optional[str] = None
                  ) -> "CorpusEntry":
        if not isinstance(data, dict):
            raise CorpusError(
                f"manifest entry {digest[:12]} is not an object",
                path=source,
            )
        signature = data.get("signature", [])
        kind = data.get("kind", "cover")
        execs = data.get("execs", 0)
        if (
            not isinstance(signature, list)
            or not all(isinstance(p, int) for p in signature)
            or kind not in KINDS
            or not isinstance(execs, int)
        ):
            raise CorpusError(
                f"manifest entry {digest[:12]} is structurally broken",
                path=source,
            )
        return CorpusEntry(digest, tuple(sorted(signature)), kind, execs)


def _atomic_write(path: str, data: bytes) -> None:
    """Write-then-rename, the same durability story checkpoints use.

    Both the temp file and the parent directory are fsync'd: rename
    alone only orders the swap against other metadata, it does not
    force either the new data blocks or the directory entry to disk,
    so a host crash could otherwise surface an empty or stale file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_parent_dir(path)


def _fsync_parent_dir(path: str) -> None:
    """Make the rename durable by syncing the containing directory.

    Platforms that refuse fsync on a directory fd are tolerated — the
    write-then-rename above already bounds the damage to "old file".
    """
    parent = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _prefer(a: CorpusEntry, b: CorpusEntry) -> CorpusEntry:
    """Deterministic winner when two segments carry the same digest.

    Two shards can insert the same program with different metadata
    (different insertion execs, even different signatures when they
    reached it from different session states).  The merged view must
    not depend on which segment was read first, so collisions resolve
    to the smallest ``(execs, kind, signature)`` — earliest generation
    wins, which also makes the entry visible to sync watermarks as
    early as any writer saw it.
    """
    ka = (a.execs, a.kind, a.signature)
    kb = (b.execs, b.kind, b.signature)
    return a if ka <= kb else b


class CorpusStore:
    """A persistent, shardable, content-addressed program corpus."""

    def __init__(
        self,
        root: str,
        firmware: Optional[str] = None,
        writer: Optional[str] = None,
    ):
        self.root = root
        self.writer = writer
        self.firmware = firmware
        #: merged view across every manifest segment, digest -> entry
        self.entries: Dict[str, CorpusEntry] = {}
        #: digests this handle's writer segment owns (cumulative)
        self._own: Dict[str, CorpusEntry] = {}
        #: coverage-signature index for dedup-by-signature on insert
        self._by_signature: Dict[Tuple[int, ...], str] = {}
        #: session counters, harvested into ``corpus.*`` metrics
        self.inserts = 0
        self.dedup_hits = 0
        os.makedirs(self._programs_dir, exist_ok=True)
        self.reload()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def _programs_dir(self) -> str:
        return os.path.join(self.root, "programs")

    def _program_path(self, digest: str) -> str:
        return os.path.join(self._programs_dir, f"{digest}.json")

    @property
    def manifest_path(self) -> str:
        if self.writer is None:
            return os.path.join(self.root, "manifest.json")
        return os.path.join(self.root, f"manifest.{self.writer}.json")

    def _segment_paths(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in names
            if name == "manifest.json"
            or (name.startswith("manifest.") and name.endswith(".json"))
        ]

    # ------------------------------------------------------------------
    # manifest I/O
    # ------------------------------------------------------------------
    def reload(self) -> "CorpusStore":
        """(Re-)read every manifest segment from disk.

        The merged view is the union of all segments keyed by digest —
        a set union, so the result is independent of which shard wrote
        which segment first.  Called at open, and again at fleet sync
        points to pick up sibling shards' discoveries.
        """
        merged: Dict[str, CorpusEntry] = {}
        own_disk: Dict[str, CorpusEntry] = {}
        for path in self._segment_paths():
            segment = self._read_segment(path)
            for digest, entry in segment.items():
                existing = merged.get(digest)
                merged[digest] = entry if existing is None else \
                    _prefer(existing, entry)
            if path == self.manifest_path:
                own_disk = segment
        # a reopened handle adopts its own segment's prior entries, and
        # this handle's unflushed inserts survive a reload
        own_disk.update(self._own)
        self._own = own_disk
        for digest, entry in self._own.items():
            existing = merged.get(digest)
            merged[digest] = entry if existing is None else \
                _prefer(existing, entry)
        self.entries = merged
        self._index_signatures()
        return self

    def _index_signatures(self) -> None:
        """Rebuild the signature-dedup index from this writer's OWN
        entries: dedup against a sibling's segment would make an insert
        depend on sibling timing, breaking the sharded determinism
        contract (see docs/corpus.md)."""
        self._by_signature = {}
        for digest in sorted(self._own):
            entry = self._own[digest]
            if entry.signature and entry.kind == "cover":
                self._by_signature.setdefault(entry.signature, digest)

    def _read_segment(self, path: str) -> Dict[str, CorpusEntry]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CorpusError(
                f"not a valid corpus manifest (truncated or corrupt): "
                f"{exc}",
                path=path,
            ) from exc
        except OSError as exc:
            raise CorpusError(f"unreadable: {exc}", path=path) from exc
        if not isinstance(doc, dict):
            raise CorpusError(
                f"expected a manifest object, found {type(doc).__name__}",
                path=path,
            )
        if doc.get("version") != MANIFEST_VERSION:
            raise CorpusError(
                f"manifest format {doc.get('version')!r} not supported "
                f"(store speaks version {MANIFEST_VERSION})",
                path=path,
            )
        firmware = doc.get("firmware")
        if firmware is not None:
            if self.firmware is None:
                self.firmware = firmware
            elif firmware != self.firmware:
                raise CorpusError(
                    f"corpus belongs to firmware {firmware!r}, "
                    f"not {self.firmware!r}",
                    path=path,
                )
        raw = doc.get("entries")
        if not isinstance(raw, dict):
            raise CorpusError("manifest has no entries object", path=path)
        return {
            digest: CorpusEntry.from_json(digest, data, source=path)
            for digest, data in raw.items()
        }

    def flush(self) -> None:
        """Atomically persist this writer's manifest segment."""
        doc = {
            "version": MANIFEST_VERSION,
            "firmware": self.firmware,
            "writer": self.writer,
            "entries": {
                digest: self._own[digest].to_json()
                for digest in sorted(self._own)
            },
        }
        _atomic_write(
            self.manifest_path,
            json.dumps(doc, sort_keys=True, indent=1).encode("utf-8"),
        )

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self.entries

    def digests(self) -> List[str]:
        """Every entry digest, deterministically ordered."""
        return sorted(self.entries)

    def get(self, digest: str) -> Program:
        """Load one program body, verifying its content address."""
        if digest not in self.entries:
            raise CorpusError(f"no corpus entry {digest[:12]}",
                              path=self.root)
        path = self._program_path(digest)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CorpusError(
                f"entry {digest[:12]} body missing: {exc}", path=path
            ) from exc
        if digest_of_bytes(data) != digest:
            raise CorpusError(
                f"entry {digest[:12]} failed its integrity check "
                f"(content does not match its digest)",
                path=path,
            )
        return decode_program(data, source=path)

    def programs(self) -> Iterator[Tuple[str, Program]]:
        """Iterate ``(digest, program)`` in deterministic digest order."""
        for digest in self.digests():
            yield digest, self.get(digest)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add(
        self,
        program: Program,
        signature: Sequence[int] = (),
        kind: str = "cover",
        execs: int = 0,
    ) -> Tuple[str, bool]:
        """Insert one program; returns ``(digest, inserted)``.

        Dedup happens twice: by digest (this writer never stores the
        same program twice) and — for ``cover`` entries — by coverage
        signature (a different program that covers exactly the same
        points adds nothing to the minset and is rejected).  Both count
        as ``dedup_hits``, and both are scoped to this writer's OWN
        segment: whether a *sibling* shard already found the program
        must not change what this writer does, or sharded fleets would
        depend on worker timing.  Cross-shard duplicates are cheap
        (same body bytes, one extra manifest row) and distillation
        prunes them.
        """
        if kind not in KINDS:
            raise CorpusError(f"unknown corpus entry kind {kind!r}")
        digest = program_digest(program)
        if digest in self._own:
            self.dedup_hits += 1
            return digest, False
        sig = tuple(sorted(int(p) for p in signature))
        if sig and kind == "cover":
            existing = self._by_signature.get(sig)
            if existing is not None:
                self.dedup_hits += 1
                return existing, False
        _atomic_write(self._program_path(digest), encode_program(program))
        entry = CorpusEntry(digest, sig, kind, execs)
        merged = self.entries.get(digest)
        self.entries[digest] = entry if merged is None else \
            _prefer(merged, entry)
        self._own[digest] = entry
        if sig and kind == "cover":
            self._by_signature[sig] = digest
        self.inserts += 1
        self.flush()
        return digest, True

    def ensure(self, program: Program, kind: str = "seed",
               execs: int = 0) -> str:
        """Persist ``program`` if absent (checkpoint-by-digest support);
        never counts as an insert or a dedup hit.

        ``execs`` should be the writer's current exec count: sync
        watermarks treat it as the entry's generation, and a
        checkpoint-time bookkeeping row must not masquerade as a
        generation-zero seed (fresh sharded starts import those).
        """
        digest = program_digest(program)
        if digest not in self.entries:
            _atomic_write(self._program_path(digest),
                          encode_program(program))
            entry = CorpusEntry(digest, (), kind, execs)
            self.entries[digest] = entry
            self._own[digest] = entry
            self.flush()
        return digest

    # ------------------------------------------------------------------
    # merge / export / import
    # ------------------------------------------------------------------
    def absorb(self, other: "CorpusStore") -> int:
        """Union another store into this one; returns entries copied.

        Keyed purely by digest — signature dedup is deliberately *not*
        applied here, so absorbing A then B equals absorbing B then A
        (distillation is where signature-duplicates get pruned).
        """
        return self._merge(other.firmware, other.entries, other.get,
                           source=other.root)

    def _merge(self, firmware: Optional[str],
               entries: Dict[str, CorpusEntry], load, source: str) -> int:
        """The one store merge behind :meth:`absorb` and
        :meth:`import_bundle_obj`; returns entries added.

        ``load(digest)`` returns an entry's verified program body; only
        digests new to this store load theirs.  A digest this store
        already holds keeps the :func:`_prefer` winner of the two
        entries, exactly like :meth:`reload` resolves colliding
        segments, so merging A and B gives the same manifest in either
        order.
        """
        if firmware is not None and self.firmware is not None \
                and firmware != self.firmware:
            raise CorpusError(
                f"corpus belongs to firmware {firmware!r}, "
                f"not {self.firmware!r}",
                path=source,
            )
        if self.firmware is None:
            self.firmware = firmware
        added = 0
        changed = False
        for digest in sorted(entries):
            entry = entries[digest]
            existing = self.entries.get(digest)
            if existing is not None:
                entry = _prefer(existing, entry)
                if entry == existing:
                    continue
            else:
                _atomic_write(self._program_path(digest),
                              encode_program(load(digest)))
                added += 1
            self.entries[digest] = entry
            self._own[digest] = entry
            changed = True
        if changed:
            self._index_signatures()
            self.flush()
        return added

    def export_bundle_obj(self) -> dict:
        """The whole store as one JSON-encodable bundle object.

        The same document :meth:`export_bundle` writes to disk; the
        fleet transport ships it inline over the wire as the corpus
        payload of job and ``corpus_sync`` frames.
        """
        return {
            "version": MANIFEST_VERSION,
            "firmware": self.firmware,
            "entries": {
                digest: dict(self.entries[digest].to_json(),
                             program=self.get(digest).to_json())
                for digest in self.digests()
            },
        }

    def export_bundle(self, path: str) -> int:
        """Write the whole store as one portable JSON file."""
        bundle = self.export_bundle_obj()
        _atomic_write(
            path, json.dumps(bundle, sort_keys=True, indent=1).encode()
        )
        return len(bundle["entries"])

    def import_bundle_obj(self, bundle, source: str = "bundle") -> int:
        """Merge an in-memory bundle object; returns entries added.

        ``source`` labels the provenance in entry records and error
        messages (a file path for :meth:`import_bundle`, a peer name
        for network sync).  Importing a store's bundle and absorbing
        the store give the same manifest (see :meth:`_merge`).
        """
        from repro.corpus.codec import program_from_payload

        if not isinstance(bundle, dict) or \
                bundle.get("version") != MANIFEST_VERSION:
            raise CorpusError("unsupported corpus bundle", path=source)
        entries = bundle.get("entries")
        if not isinstance(entries, dict):
            raise CorpusError("bundle has no entries object", path=source)

        def load(digest: str) -> Program:
            program = program_from_payload(
                entries[digest].get("program"), source=source)
            if program_digest(program) != digest:
                raise CorpusError(
                    f"bundle entry {digest[:12]} failed its integrity "
                    f"check",
                    path=source,
                )
            return program

        return self._merge(
            bundle.get("firmware"),
            {digest: CorpusEntry.from_json(digest, data, source=source)
             for digest, data in entries.items()},
            load, source=source,
        )

    def import_bundle(self, path: str) -> int:
        """Load an :meth:`export_bundle` file; returns entries added."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                bundle = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CorpusError(
                f"not a valid corpus bundle: {exc}", path=path
            ) from exc
        return self.import_bundle_obj(bundle, source=path)

    # ------------------------------------------------------------------
    def prune_to(self, keep: Sequence[str]) -> int:
        """Consolidate the store down to ``keep`` digests (distill).

        Collapses every manifest segment into a single
        ``manifest.json`` and deletes unreferenced program bodies;
        returns the number of entries dropped.  Surviving entries are
        rebased to generation zero (``execs = 0``): a distilled corpus
        *is* the seed set of whatever campaign consumes it next, which
        is what lets sharded fleets adopt it at a fresh start (their
        sync watermark only admits generation-zero entries there).
        """
        keep_set = set(keep)
        unknown = keep_set - set(self.entries)
        if unknown:
            raise CorpusError(
                f"cannot keep unknown digests: "
                f"{sorted(d[:12] for d in unknown)}",
                path=self.root,
            )
        dropped = len(self.entries) - len(keep_set)
        kept = {
            d: CorpusEntry(d, self.entries[d].signature,
                           self.entries[d].kind, 0)
            for d in sorted(keep_set)
        }
        doc = {
            "version": MANIFEST_VERSION,
            "firmware": self.firmware,
            "writer": None,
            "entries": {d: e.to_json() for d, e in kept.items()},
        }
        consolidated = os.path.join(self.root, "manifest.json")
        _atomic_write(
            consolidated,
            json.dumps(doc, sort_keys=True, indent=1).encode("utf-8"),
        )
        for path in self._segment_paths():
            if path != consolidated:
                os.unlink(path)
        for digest in set(self.entries) - keep_set:
            try:
                os.unlink(self._program_path(digest))
            except OSError:
                pass
        self.writer = None
        self.entries = kept
        self._own = dict(kept)
        self._index_signatures()
        return dropped

    def stats(self) -> Dict[str, int]:
        """Session counters for the ``corpus.*`` metric family.

        ``size`` counts this writer's OWN segment — for a single-writer
        store that is the whole corpus, and for a fleet shard it is a
        number that does not depend on sibling timing (the merged-view
        size mid-round would; campaign diagnostics must stay
        deterministic).  Readers wanting the merged size use
        ``len(store)``.
        """
        return {
            "size": len(self._own),
            "inserts": self.inserts,
            "dedup_hits": self.dedup_hits,
        }


def merge_stores(dest_root: str, source_roots: Sequence[str],
                 firmware: Optional[str] = None) -> CorpusStore:
    """Merge several stores into ``dest_root`` (order-independent)."""
    dest = CorpusStore(dest_root, firmware=firmware)
    for root in source_roots:
        dest.absorb(CorpusStore(root))
    return dest
