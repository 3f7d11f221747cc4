"""Campaign checkpoint/resume: JSON serialization of fuzzer state.

A long census sweep must survive interruption.  ``run_campaign``
periodically serializes the complete deterministic state of its
:class:`~repro.fuzz.engine.FuzzerEngine` — corpus, remaining triage
queue, findings, exec counters, quarantine records, and the exact
Mersenne-Twister state of the campaign RNG (plus the fault plan's RNG
when one is attached) — so a killed campaign resumes mid-budget and
produces byte-identical results to an uninterrupted run.

Checkpoints are only written at engine refresh boundaries (fresh
target, empty session), which is why the file does not need to capture
guest memory: the resumed run rebuilds the target from the firmware
recipe exactly as the uninterrupted run refreshes it.

File format (``version`` 1): one JSON object with
``firmware``/``fuzzer``/``seed``/``budget`` identity fields (validated
on resume), the campaign spec's ``identity`` (see below), counters,
``rng_state``/``fault_rng_state``, ``corpus`` and ``triage`` as
program lists, ``findings`` as full report records, and
``quarantined`` diagnostics records.  When the engine has a persistent
corpus store attached, the inline ``corpus`` list is replaced by
``corpus_digests`` — an ordered list of content addresses resolved
against the store on resume (see ``docs/corpus.md``).
See ``docs/robustness.md``.

Spec identity: a checkpoint written by ``run_campaign`` records every
:class:`~repro.fuzz.spec.CampaignSpec` field that changes the
campaign's trajectory — ``firmware``, ``seed``, ``seeds``,
``sanitizers`` (resolved to the set actually attached), ``faults``,
``fault_seed``, ``crash_budget``, ``watchdog_insns``,
``watchdog_cycles``, ``checkpoint_every`` (the effective cadence:
checkpoint cadence is part of the identity) and ``surface``.  A resume
under a different value is refused with :class:`FuzzerError`, as a
seed mismatch is.  ``budget`` is exempt (sharded rounds extend it), and
so is the exec mode, under which the census is invariant by contract
(:data:`~repro.fuzz.spec.RESUMABLE_FIELDS`).
Checkpoints without an ``identity`` (older files) resume as before.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro.errors import CheckpointError, CorpusError, FuzzerError
from repro.fuzz.diagnostics import CampaignDiagnostics, CrashRecord
from repro.fuzz.engine import Finding, FuzzerEngine
from repro.fuzz.program import Program
from repro.sanitizers.runtime.reports import BugType, SanitizerReport

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# leaf encoders
# ----------------------------------------------------------------------
def _rng_state_to_json(state) -> list:
    # random.Random.getstate() == (version, (int, ...), gauss_next)
    return [state[0], list(state[1]), state[2]]


def _rng_state_from_json(data) -> tuple:
    return (data[0], tuple(data[1]), data[2])


def _key_to_json(key: tuple) -> list:
    return list(key)


def _key_from_json(data: list) -> tuple:
    return tuple(data)


def _report_to_json(report: SanitizerReport) -> dict:
    return {
        "tool": report.tool,
        "bug_type": report.bug_type.value,
        "addr": report.addr,
        "size": report.size,
        "is_write": report.is_write,
        "pc": report.pc,
        "task": report.task,
        "location": report.location,
        "detail": report.detail,
        "alloc_pc": report.alloc_pc,
        "free_pc": report.free_pc,
        "second_pc": report.second_pc,
        "shadow_dump": report.shadow_dump,
    }


def _report_from_json(data: dict) -> SanitizerReport:
    return SanitizerReport(
        data["tool"],
        BugType(data["bug_type"]),
        data["addr"],
        data["size"],
        data["is_write"],
        data["pc"],
        data["task"],
        location=data["location"],
        detail=data["detail"],
        alloc_pc=data["alloc_pc"],
        free_pc=data["free_pc"],
        second_pc=data["second_pc"],
        shadow_dump=data["shadow_dump"],
    )


def _finding_to_json(finding: Finding) -> dict:
    return {
        "key": _key_to_json(finding.key),
        "report": _report_to_json(finding.report),
        "program": finding.program.to_json(),
        "context": [p.to_json() for p in finding.context],
        "reproducible": finding.reproducible,
        "reproducer": (
            None
            if finding.reproducer is None
            else [p.to_json() for p in finding.reproducer]
        ),
        "seed": finding.seed,
    }


def _finding_from_json(data: dict) -> Finding:
    finding = Finding(
        _key_from_json(data["key"]),
        _report_from_json(data["report"]),
        Program.from_json(data["program"]),
        context=[Program.from_json(p) for p in data["context"]],
        seed=data.get("seed"),
    )
    finding.reproducible = data["reproducible"]
    if data["reproducer"] is not None:
        finding.reproducer = [Program.from_json(p) for p in data["reproducer"]]
    return finding


# ----------------------------------------------------------------------
# engine <-> checkpoint state
# ----------------------------------------------------------------------
def _restore_corpus_from_store(fuzzer: FuzzerEngine, digests) -> None:
    """Resolve a checkpoint's ``corpus_digests`` against the store."""
    store = getattr(fuzzer, "corpus_store", None)
    if store is None:
        raise CheckpointError(
            "checkpoint references corpus entries by digest but the "
            "engine has no corpus store attached (resume with the same "
            "corpus directory the campaign was started with)"
        )
    store.reload()
    corpus = []
    for digest in digests:
        try:
            corpus.append(store.get(digest))
        except CorpusError as exc:
            raise CheckpointError(
                f"corpus entry referenced by the checkpoint is missing "
                f"or corrupt: {exc}"
            ) from exc
    fuzzer.corpus = corpus
    fuzzer._known_digests = set(digests)


def engine_state(
    fuzzer: FuzzerEngine, firmware: str, budget: int
) -> dict:
    """Snapshot a fuzzer's deterministic state as a JSON-encodable dict."""
    state = {
        "version": FORMAT_VERSION,
        "firmware": firmware,
        "fuzzer": type(fuzzer).__name__,
        "seed": fuzzer.seed,
        "budget": budget,
        "execs": fuzzer.execs,
        "crashes": fuzzer.crashes,
        "host_crashes": fuzzer.host_crashes,
        "degraded": fuzzer.degraded,
        "watchdog_trips": fuzzer.watchdog_trips(),
        "rng_state": _rng_state_to_json(fuzzer.rng.getstate()),
        "triage": [p.to_json() for p in fuzzer._triage],
        "triage_crash": [p.to_json() for p in fuzzer._triage_crash],
        "findings": [_finding_to_json(f) for f in fuzzer.findings.values()],
        "quarantined": [r.to_json() for r in fuzzer.quarantined],
    }
    if fuzzer.campaign_identity is not None:
        state["identity"] = fuzzer.campaign_identity
    store = getattr(fuzzer, "corpus_store", None)
    if store is not None:
        # corpus-by-reference: every corpus program lives in the store
        # (persisted here if it is not yet), and the checkpoint carries
        # only the ordered digest list — bodies are never inlined twice
        state["corpus_digests"] = [
            store.ensure(program, execs=fuzzer.execs)
            for program in fuzzer.corpus
        ]
    else:
        state["corpus"] = [p.to_json() for p in fuzzer.corpus]
    if fuzzer.fault_plan is not None:
        state["fault_rng_state"] = _rng_state_to_json(
            fuzzer.fault_plan.save_rng_state()
        )
    return state


def restore_engine(fuzzer: FuzzerEngine, state: dict, firmware: str) -> None:
    """Load a checkpoint into a freshly constructed fuzzer.

    The fuzzer must have been built with the same firmware, seed and
    spec identity the checkpoint was taken from; mismatches raise
    :class:`FuzzerError` rather than silently producing a different
    campaign.
    """
    if state.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {state.get('version')!r} not supported "
            f"(engine speaks version {FORMAT_VERSION})"
        )
    if "firmware" not in state or "seed" not in state:
        raise CheckpointError("checkpoint is missing its identity fields")
    if state["firmware"] != firmware:
        raise FuzzerError(
            f"checkpoint is for firmware {state['firmware']!r}, "
            f"not {firmware!r}"
        )
    if state["seed"] != fuzzer.seed:
        raise FuzzerError(
            f"checkpoint was taken with seed {state['seed']}, "
            f"engine has seed {fuzzer.seed}"
        )
    saved, current = state.get("identity"), fuzzer.campaign_identity
    if saved is not None and current is not None and saved != current:
        changed = sorted(
            name for name in set(saved) | set(current)
            if saved.get(name) != current.get(name)
        )
        raise FuzzerError(
            f"checkpoint was taken under different campaign settings "
            f"({', '.join(changed)}); refusing to resume"
        )
    try:
        fuzzer.execs = state["execs"]
        fuzzer.crashes = state["crashes"]
        fuzzer.host_crashes = state["host_crashes"]
        fuzzer.degraded = state["degraded"]
        fuzzer._watchdog_trips_retired = state.get("watchdog_trips", 0)
        fuzzer.rng.setstate(_rng_state_from_json(state["rng_state"]))
        if "corpus_digests" in state:
            _restore_corpus_from_store(fuzzer, state["corpus_digests"])
        else:
            fuzzer.corpus = [Program.from_json(p) for p in state["corpus"]]
        fuzzer._triage = [Program.from_json(p) for p in state["triage"]]
        fuzzer._triage_crash = [
            Program.from_json(p) for p in state.get("triage_crash", [])
        ]
        fuzzer.findings = {}
        for entry in state["findings"]:
            finding = _finding_from_json(entry)
            fuzzer.findings[finding.key] = finding
        fuzzer.quarantined = [
            CrashRecord.from_json(entry) for entry in state["quarantined"]
        ]
        if fuzzer.fault_plan is not None and "fault_rng_state" in state:
            fuzzer.fault_plan.load_rng_state(
                _rng_state_from_json(state["fault_rng_state"])
            )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # the engine may be partially mutated at this point; callers
        # recover by constructing a fresh one (see run_campaign)
        raise CheckpointError(
            f"checkpoint payload is structurally broken: {exc!r}"
        ) from exc
    # checkpoints are written at refresh boundaries: the engine starts
    # from a fresh target with an empty session, matching that state
    fuzzer._session.clear()
    fuzzer._execs_since_refresh = 0
    # a resume imports nothing: a single writer's store may hold crash
    # entries that never belonged to the checkpoint corpus, and a shard
    # imports when its next sync round starts (FuzzerEngine.run), so a
    # resumed round that is already complete changes no corpus


# ----------------------------------------------------------------------
# campaign results (cross-process transport + byte-identity checks)
# ----------------------------------------------------------------------
def result_to_json(result) -> dict:
    """Serialize a :class:`~repro.fuzz.campaign.CampaignResult`.

    Used by fleet workers to ship results over the supervisor's queue
    and by ``--results`` files; :func:`result_digest` hashes it.
    """
    return {
        "firmware": result.firmware,
        "fuzzer": result.fuzzer,
        "execs": result.execs,
        "coverage": result.coverage,
        "crashes": result.crashes,
        "seed": result.seed,
        "budget": result.budget,
        "findings": [_finding_to_json(f) for f in result.findings],
        "matched": {
            bug_id: _key_to_json(finding.key)
            for bug_id, finding in result.matched.items()
        },
        "missed": [record.bug_id for record in result.missed],
        "diagnostics": (
            None if result.diagnostics is None
            else result.diagnostics.to_json()
        ),
    }


def result_digest(result) -> str:
    """The determinism contract's one comparison: a result's digest.

    The sha256 of the canonical (``sort_keys``) :func:`result_to_json`
    document, with the wall-clock ``diagnostics.phase_timings`` that
    only observed runs carry dropped.  Two runs of a campaign agree iff
    their digests do, whatever path ran them (see the "Determinism
    contract" section of ``docs/robustness.md``).
    """
    import hashlib

    doc = result_to_json(result)
    if doc["diagnostics"] is not None:
        doc["diagnostics"].pop("phase_timings", None)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def result_from_json(data: dict):
    """Rebuild a :class:`~repro.fuzz.campaign.CampaignResult`."""
    from repro.bugs.catalog import record_by_id
    from repro.fuzz.campaign import CampaignResult

    findings = [_finding_from_json(entry) for entry in data["findings"]]
    by_key = {finding.key: finding for finding in findings}
    matched = {}
    for bug_id, key in data["matched"].items():
        try:
            matched[bug_id] = by_key[_key_from_json(key)]
        except KeyError:
            raise CheckpointError(
                f"matched bug {bug_id!r} references a finding key "
                f"absent from the findings list"
            ) from None
    return CampaignResult(
        firmware=data["firmware"],
        fuzzer=data["fuzzer"],
        execs=data["execs"],
        coverage=data["coverage"],
        crashes=data["crashes"],
        findings=findings,
        matched=matched,
        missed=[record_by_id(bug_id) for bug_id in data["missed"]],
        seed=data["seed"],
        budget=data["budget"],
        diagnostics=(
            None if data["diagnostics"] is None
            else CampaignDiagnostics.from_json(data["diagnostics"])
        ),
    )


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------
def write_checkpoint_state(path: str, state: dict) -> None:
    """Atomically write an already-built checkpoint state dict.

    Validates the shape before touching disk so a remote peer cannot
    make a supervisor persist garbage that later masquerades as a
    checkpoint: the fleet's TCP transport ships checkpoint custody
    through this function (see ``docs/robustness.md``).
    """
    if not isinstance(state, dict) or \
            state.get("version") != FORMAT_VERSION:
        found = (state.get("version") if isinstance(state, dict)
                 else type(state).__name__)
        raise CheckpointError(
            f"refusing to persist a non-checkpoint payload "
            f"(version {found!r}, expected {FORMAT_VERSION})",
            path=path,
        )
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_parent_dir(path)


def fsync_parent_dir(path: str) -> None:
    """fsync the directory holding ``path`` so the rename itself is
    durable — without it a host crash can roll the directory entry back
    to the old (or no) file even though the data blocks were synced.
    Platforms that refuse fsync on a directory fd are tolerated."""
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


def save_checkpoint(
    path: str, fuzzer: FuzzerEngine, firmware: str, budget: int
) -> None:
    """Atomically write a checkpoint file (write-then-rename)."""
    write_checkpoint_state(path, engine_state(fuzzer, firmware, budget))


def load_checkpoint(path: str) -> Optional[dict]:
    """Read a checkpoint file; None when it does not exist.

    A file that exists but cannot be parsed — truncated by a hard kill
    of a pre-atomic-write tool, hand-edited, disk corruption — raises
    :class:`CheckpointError` instead of a raw traceback, so callers can
    uniformly treat the job as "start from scratch".
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"not a valid checkpoint (truncated or corrupt): {exc}",
            path=path,
        ) from exc
    except OSError as exc:
        raise CheckpointError(f"unreadable: {exc}", path=path) from exc
    if not isinstance(state, dict):
        raise CheckpointError(
            f"expected a checkpoint object, found {type(state).__name__}",
            path=path,
        )
    return state
