"""Tests: the persistent corpus subsystem.

Covers the four layers ``src/repro/corpus`` stacks up:

* the deterministic program codec (round-trip property, content
  addressing, defensive decoding),
* the on-disk :class:`CorpusStore` (dedup, atomicity, corrupt-manifest
  recovery with structured errors, order-independent merging),
* distillation (greedy minset correctness, crash retention,
  generation-zero rebasing), and
* the campaign/fleet integration: a campaign resumed from a distilled
  corpus reaches the full bug census in measurably fewer executions,
  and a sharded fleet is deterministic and finds a superset-or-equal
  census versus a single worker at equal total budget.
"""

import json
import os
import random
import shutil

import pytest

from repro.corpus import (
    CorpusStore,
    decode_program,
    distill_entries,
    distill_store,
    encode_program,
    merge_stores,
    program_digest,
)
from repro.corpus.store import CorpusEntry
from repro.errors import CorpusError, FuzzerError
from repro.fuzz.program import Call, Program
from repro.fuzz.spec import CampaignSpec

#: fastest-booting firmware; seed 1 matches all three catalog rows
FW = "InfiniTime"


def _program(spec=((1, (0, 1, 2, 3)), (2, (7,)))) -> Program:
    return Program([Call(nr, args) for nr, args in spec])


def _random_program(rng: random.Random) -> Program:
    calls = []
    for _ in range(rng.randint(1, 6)):
        args = [
            ("res", "fd", rng.randint(0, 3)) if rng.random() < 0.3
            else rng.randint(0, 1 << 32)
            for _ in range(rng.randint(0, 4))
        ]
        produces = "fd" if rng.random() < 0.3 else None
        calls.append(Call(rng.randint(0, 40), args, produces))
    return Program(calls)


class TestCodec:
    def test_round_trip_property(self):
        rng = random.Random(7)
        for _ in range(50):
            program = _random_program(rng)
            clone = decode_program(encode_program(program))
            assert clone.to_json() == program.to_json()
            assert program_digest(clone) == program_digest(program)

    def test_digest_is_content_address(self):
        a, b = _program(), _program()
        assert program_digest(a) == program_digest(b)
        b.calls[0].args[0] = 999
        assert program_digest(a) != program_digest(b)

    def test_decode_rejects_garbage_with_structured_error(self):
        for blob in (b"\xff\xfe", b"{\"not\": ", b"{}", b"[{\"nr\": []}]"):
            with pytest.raises(CorpusError):
                decode_program(blob, source="unit-test")

    def test_corpus_error_is_a_fuzzer_error(self):
        with pytest.raises(FuzzerError):
            decode_program(b"broken")


class TestStore:
    def test_insert_and_reload(self, tmp_path):
        store = CorpusStore(str(tmp_path), firmware=FW)
        digest, inserted = store.add(_program(), signature=[3, 1, 2])
        assert inserted
        reopened = CorpusStore(str(tmp_path))
        assert reopened.firmware == FW
        assert reopened.digests() == [digest]
        assert reopened.entries[digest].signature == (1, 2, 3)
        assert reopened.get(digest).to_json() == _program().to_json()

    def test_digest_and_signature_dedup(self, tmp_path):
        store = CorpusStore(str(tmp_path), firmware=FW)
        digest, _ = store.add(_program(), signature=[1, 2])
        assert store.add(_program(), signature=[9]) == (digest, False)
        other = _program(((5, (5,)),))
        assert store.add(other, signature=[2, 1]) == (digest, False)
        assert store.stats() == {"size": 1, "inserts": 1, "dedup_hits": 2}
        # crash entries are never signature-deduplicated: two different
        # reproducers for the same trail are both census evidence
        _, inserted = store.add(other, signature=[1, 2], kind="crash")
        assert inserted

    def test_atomic_write_fsyncs_file_and_directory(
            self, tmp_path, monkeypatch):
        """The store's write-then-rename must fsync both the data and
        the directory entry, or a host crash can roll a manifest back
        to an empty/old file after the rename appeared to succeed."""
        from repro.corpus.store import _atomic_write

        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        path = str(tmp_path / "manifest.json")
        _atomic_write(path, b'{"entries": []}')
        assert os.stat(path).st_ino in synced
        assert os.stat(tmp_path).st_ino in synced

    def test_no_temp_files_survive(self, tmp_path):
        store = CorpusStore(str(tmp_path), firmware=FW)
        for nr in range(5):
            store.add(_program(((nr, ()),)), signature=[nr])
        leftovers = [
            name for _root, _dirs, names in os.walk(tmp_path)
            for name in names if ".tmp." in name
        ]
        assert leftovers == []

    def test_corrupt_manifest_raises_structured_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{\"version\": 1, trunc")
        with pytest.raises(CorpusError) as err:
            CorpusStore(str(tmp_path))
        assert err.value.path.endswith("manifest.json")
        assert "corrupt" in str(err.value)

    def test_unsupported_manifest_version_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"version": 99, "entries": {}})
        )
        with pytest.raises(CorpusError, match="version"):
            CorpusStore(str(tmp_path))

    def test_firmware_identity_enforced(self, tmp_path):
        CorpusStore(str(tmp_path), firmware=FW).add(_program())
        with pytest.raises(CorpusError, match="belongs to firmware"):
            CorpusStore(str(tmp_path), firmware="OpenWRT-armvirt")

    def test_body_integrity_check(self, tmp_path):
        store = CorpusStore(str(tmp_path), firmware=FW)
        digest, _ = store.add(_program())
        body = tmp_path / "programs" / f"{digest}.json"
        body.write_bytes(b"[]")
        with pytest.raises(CorpusError, match="integrity"):
            CorpusStore(str(tmp_path)).get(digest)

    def test_merge_is_order_independent(self, tmp_path):
        a_root, b_root = str(tmp_path / "a"), str(tmp_path / "b")
        a, b = (CorpusStore(r, firmware=FW) for r in (a_root, b_root))
        shared = _program(((9, (9,)),))
        a.add(shared, signature=[1], execs=40)
        a.add(_program(((1, ()),)), signature=[2])
        b.add(shared, signature=[5], execs=10)
        b.add(_program(((2, ()),)), signature=[3], kind="crash")

        ab = merge_stores(str(tmp_path / "ab"), [a_root, b_root])
        ba = merge_stores(str(tmp_path / "ba"), [b_root, a_root])
        assert ab.digests() == ba.digests()
        assert len(ab) == 3
        for digest in ab.digests():
            assert ab.entries[digest] == ba.entries[digest]
        # the shared digest resolved to the earliest generation
        assert ab.entries[program_digest(shared)].execs == 10

    def test_merge_and_import_agree_in_either_order(self, tmp_path):
        # `corpus merge` (absorb) and `corpus import` (bundles) are one
        # merge: a digest both stores hold keeps the same metadata
        roots = {name: str(tmp_path / name) for name in "ab"}
        a, b = (CorpusStore(roots[n], firmware=FW) for n in "ab")
        shared = _program(((9, (9,)),))
        a.add(shared, signature=[1], execs=40)
        a.add(_program(((1, ()),)), signature=[2])
        b.add(shared, signature=[5], kind="crash", execs=10)
        b.add(_program(((2, ()),)), signature=[2], execs=7)
        bundles = {}
        for name, store in (("a", a), ("b", b)):
            bundles[name] = str(tmp_path / f"{name}.bundle.json")
            store.export_bundle(bundles[name])

        manifests = []
        for order in ("ab", "ba"):
            merged = merge_stores(str(tmp_path / f"merge-{order}"),
                                  [roots[n] for n in order])
            imported = CorpusStore(str(tmp_path / f"import-{order}"))
            for name in order:
                imported.import_bundle(bundles[name])
            for store in (merged, imported):
                with open(store.manifest_path, encoding="utf-8") as fh:
                    manifests.append(json.load(fh))
        assert all(m == manifests[0] for m in manifests)
        entry = manifests[0]["entries"][program_digest(shared)]
        assert (entry["execs"], entry["kind"]) == (10, "crash")

    def test_export_import_bundle_round_trip(self, tmp_path):
        src = CorpusStore(str(tmp_path / "src"), firmware=FW)
        src.add(_program(), signature=[1, 2])
        src.add(_program(((3, (1,)),)), signature=[4], kind="crash")
        bundle = str(tmp_path / "corpus.bundle.json")
        assert src.export_bundle(bundle) == 2
        dest = CorpusStore(str(tmp_path / "dest"))
        assert dest.import_bundle(bundle) == 2
        assert dest.firmware == FW
        assert dest.digests() == src.digests()
        with pytest.raises(CorpusError):
            dest.import_bundle(str(tmp_path / "missing.json"))


class TestDistillation:
    def _entries(self, spec):
        out = {}
        for idx, (kind, signature) in enumerate(spec):
            digest = f"{idx:02d}" * 32
            out[digest] = CorpusEntry(digest, tuple(signature), kind, idx)
        return out

    def test_minset_covers_frontier_without_redundancy(self):
        entries = self._entries([
            ("cover", (1, 2, 3)),
            ("cover", (1, 2)),      # subset of the first: dropped
            ("cover", (4,)),
            ("cover", (3, 4)),      # covered by 0 + 2: dropped
            ("seed", ()),           # bookkeeping rows never survive
        ])
        kept = distill_entries(entries)
        assert kept == sorted(["00" * 32, "02" * 32])
        covered = set()
        for digest in kept:
            covered |= set(entries[digest].signature)
        assert covered == {1, 2, 3, 4}

    def test_crashes_kept_unconditionally_and_seed_the_cover(self):
        entries = self._entries([
            ("crash", (1, 2)),
            ("cover", (1, 2)),      # only repeats the reproducer trail
            ("cover", (5,)),
        ])
        kept = distill_entries(entries)
        assert "00" * 32 in kept
        assert "01" * 32 not in kept
        assert "02" * 32 in kept

    def test_distill_store_rebases_to_generation_zero(self, tmp_path):
        store = CorpusStore(str(tmp_path / "s"), firmware=FW)
        store.add(_program(((1, ()),)), signature=[1, 2], execs=300)
        store.add(_program(((2, ()),)), signature=[1], execs=500)
        store.add(_program(((3, ()),)), signature=[9],
                  kind="crash", execs=700)
        out = distill_store(store, out_root=str(tmp_path / "min"))
        assert len(out) == 2
        assert all(e.execs == 0 for e in out.entries.values())
        # in-place distillation consolidates and rebases the same way
        dropped = distill_store(store)
        assert dropped is store and len(store) == 2
        assert all(e.execs == 0 for e in store.entries.values())
        assert store.manifest_path.endswith(os.sep + "manifest.json")


class TestCampaignIntegration:
    def _result_key(self, result):
        from repro.fuzz.checkpoint import result_to_json

        data = result_to_json(result)
        data.pop("diagnostics", None)
        return json.dumps(data, sort_keys=True)

    def test_default_census_unchanged_by_empty_store(self, tmp_path):
        from repro.fuzz.campaign import run_campaign

        plain = run_campaign(FW, budget=200, seed=1)
        stored = run_campaign(FW, budget=200, seed=1,
                              corpus_dir=str(tmp_path / "c"))
        assert self._result_key(stored) == self._result_key(plain)
        assert stored.diagnostics.corpus["size"] > 0

    def test_distilled_resume_reaches_census_in_fewer_execs(self, tmp_path):
        from repro.fuzz.campaign import run_campaign

        corpus = str(tmp_path / "corpus")
        first = run_campaign(FW, budget=400, seed=1, corpus_dir=corpus)
        assert len(first.missed) == 0, "seed run must saturate the census"
        distill_store(CorpusStore(corpus))

        # scratch at a small budget is nowhere near the full census...
        scratch = run_campaign(FW, budget=50, seed=1)
        assert len(scratch.matched) < len(first.matched)
        # ...while a resume from the distilled corpus replays the kept
        # reproducers in its triage pass and matches every row — the
        # full census in an eighth of the original budget
        resumed = run_campaign(FW, budget=50, seed=1, corpus_dir=corpus)
        assert sorted(resumed.matched) == sorted(first.matched)
        assert resumed.execs < first.execs
        assert resumed.diagnostics.corpus["imported"] > 0

    def test_checkpoint_references_corpus_by_digest(self, tmp_path):
        from repro.fuzz.campaign import run_campaign

        ckpt = str(tmp_path / "cp.json")
        corpus = str(tmp_path / "c")
        ref = run_campaign(FW, budget=300, seed=2, corpus_dir=corpus,
                           checkpoint_path=str(tmp_path / "ref.json"),
                           checkpoint_every=150)
        state = json.load(open(str(tmp_path / "ref.json")))
        assert "corpus_digests" in state and "corpus" not in state
        store = CorpusStore(corpus)
        assert set(state["corpus_digests"]) <= set(store.digests())

        # kill/resume round-trip: the fuzz trajectory is byte-identical
        shutil.rmtree(corpus)
        run_campaign(FW, budget=150, seed=2, corpus_dir=corpus,
                     checkpoint_path=ckpt, checkpoint_every=150)
        resumed = run_campaign(FW, budget=300, seed=2, corpus_dir=corpus,
                               checkpoint_path=ckpt, checkpoint_every=150)
        assert self._result_key(resumed) == self._result_key(ref)

    def test_repeated_campaigns_carry_corpus(self, tmp_path):
        from repro.fuzz.campaign import run_campaign_repeated

        result = run_campaign_repeated(
            FW, budget=200, seeds=(1, 2), carry_corpus=True,
            corpus_dir=str(tmp_path / "c"),
        )
        inherited = result.diagnostics.inherited_corpus
        assert inherited is not None and inherited[0] == 0
        if len(inherited) > 1:
            # every later seed starts from the accumulated corpus
            assert all(count > 0 for count in inherited[1:])


class TestShardedFleet:
    BUDGET, SYNC = 600, 150

    def _run(self, tmp_path, tag, workers):
        from repro.fuzz.supervisor import make_jobs, run_fleet

        jobs = make_jobs(
            CampaignSpec(FW, self.BUDGET, seed=1, checkpoint_every=self.SYNC),
            shards=2, corpus_dir=str(tmp_path / tag / "corpus"),
            checkpoint_dir=str(tmp_path / tag / "ck"))
        return run_fleet(jobs, workers=workers)

    def _digests(self, fleet):
        from repro.fuzz.checkpoint import result_digest

        return [result_digest(r) for r in fleet.merged + fleet.results]

    def test_sharded_fleet_deterministic_and_superset(self, tmp_path):
        from repro.fuzz.campaign import run_campaign

        serial = self._run(tmp_path, "w1", workers=1)
        parallel = self._run(tmp_path, "w2", workers=2)
        assert self._digests(serial) == self._digests(parallel)
        assert not serial.degraded
        merged = serial.merged[0]
        assert merged.execs == self.BUDGET

        single = run_campaign(FW, budget=self.BUDGET, seed=1)
        assert set(single.matched) <= set(merged.matched)

        syncs = [e for e in serial.events if e["event"] == "corpus_synced"]
        assert len(syncs) == syncs[0]["rounds"] == 2
        assert syncs[-1]["entries"] >= syncs[0]["entries"]
        assert all(e["firmware"] == FW for e in syncs)

    def test_shard_validation(self, tmp_path):
        from repro.fuzz.supervisor import make_jobs

        dirs = dict(corpus_dir=str(tmp_path / "c"),
                    checkpoint_dir=str(tmp_path / "k"))
        with pytest.raises(FuzzerError, match="shard"):
            make_jobs(CampaignSpec(FW, 100), shards=-1, **dirs)
        with pytest.raises(FuzzerError, match="split"):
            make_jobs(CampaignSpec(FW, 1), shards=2, **dirs)
        with pytest.raises(FuzzerError, match="corpus_dir"):
            make_jobs(CampaignSpec(FW, 100), shards=2)
