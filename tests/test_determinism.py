"""The determinism contract: one digest, every run path.

A campaign must find the same bugs however it is run.  For each spec
below the runner computes the reference digest once (the in-process
journal run through the fleet entry, pinned to :data:`RECORDED`) and
asserts that every cell of the matrix

    path       in-process | spawn fleet | TCP fleet (``repro worker``
               subprocesses)
  x interrupt  none | SIGKILL right after checkpoint k, then resume
  x exec mode  journal | forkserver

reproduces it, as :func:`repro.fuzz.checkpoint.result_digest` sees it
(the wall-clock ``phase_timings`` dropped).  TP-Link WDR-7660, the one
catalog firmware running guest ISA code, adds the reference ``Cpu``
engine as an axis.  A SIGKILL cell arms the victim process itself: it
kills itself once, the moment the checkpoint at exec ``k`` is durable
(on disk, or shipped home by a TCP worker), so the kill lands after
checkpoint k and before the budget ends on every run.  See the
"Determinism contract" section of ``docs/robustness.md``.
"""

import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import pytest

from repro.fuzz.checkpoint import result_digest
from repro.fuzz.spec import CATALOG, CampaignSpec
from repro.fuzz.supervisor import make_jobs, run_fleet

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIR = ("InfiniTime", "OpenHarmony-stm32f407")


@dataclass(frozen=True)
class Spec:
    """A campaign (or sweep) whose result digests every cell must match."""

    template: CampaignSpec
    firmware: Tuple[str, ...] = ()
    shards: int = 0
    #: the checkpoint a SIGKILL cell kills right after (0: no such cell)
    kill_at: int = 0

    def jobs(self, root: str, exec_mode: str):
        return make_jobs(
            replace(self.template, exec_mode=exec_mode),
            firmware=self.firmware or None,
            checkpoint_dir=os.path.join(root, "ck"),
            shards=self.shards,
            corpus_dir=os.path.join(root, "corpus") if self.shards else None,
        )

    def round_starts(self) -> int:
        """Attempts an uninterrupted run starts from a checkpoint: every
        shard round after the first resumes the one before it."""
        if not self.shards:
            return 0
        per_shard = self.template.budget // self.shards
        rounds = -(-per_shard // self.template.checkpoint_every)
        return self.shards * (rounds - 1)

    def digests(self, fleet) -> List[Optional[str]]:
        """One digest per campaign, then one per shard of a sharded spec."""
        results = fleet.merged + (fleet.results if self.shards else [])
        return [None if r is None else result_digest(r) for r in results]


SPECS = {
    "sweep": Spec(
        CampaignSpec(CATALOG, budget=1500, seed=1, checkpoint_every=500),
        firmware=PAIR,
        kill_at=500,
    ),
    "resume": Spec(
        CampaignSpec("InfiniTime", budget=400, seed=3, checkpoint_every=200),
        kill_at=200,
    ),
    "driver": Spec(
        CampaignSpec("OpenWRT-armvirt", budget=300, seed=1, surface="driver"),
    ),
    "driver-resume": Spec(
        CampaignSpec(
            "OpenWRT-armvirt",
            budget=300,
            seed=3,
            surface="driver",
            checkpoint_every=150,
        ),
        kill_at=150,
    ),
    "tplink": Spec(CampaignSpec("TP-Link WDR-7660", budget=300, seed=1)),
    "shard": Spec(
        CampaignSpec("InfiniTime", budget=1500, seed=1, checkpoint_every=250),
        shards=2,
    ),
    "observed": Spec(CampaignSpec(CATALOG, budget=200, seed=1), firmware=PAIR),
}

#: each spec's digests as ``run_campaign`` (for ``shard``, the sharded
#: fleet) produced them before the fleet entry points were folded into
#: one; a change here is a change to what campaigns find
RECORDED = {
    "sweep": [
        "1a5d41804bf160764110d04a6063a2ae3757990799f99e40235992a5a5e477f4",
        "97b022959b8570a9dc94a18b0e9104be5f0e78101c48de497291ed6587a9788b",
    ],
    "resume": [
        "bd26bf9ad83f87729c3710031715c90c1f7baa4e46f79be936915cf4ff1f78c3",
    ],
    "driver": [
        "ca154321cc321b96c8472a86d83ee79f4762c47a4d482e5229c8fa9589b4cb09",
    ],
    "driver-resume": [
        "aa7dfc95d97a6fda6e0431b0fc3920783931e0aa44481381288cdc39426b53c7",
    ],
    "tplink": [
        "a46631e211b9cf969cc34721c9d5db4ef9cec71b801ab13ed39fce2b8a61d36c",
    ],
    "shard": [
        "d1d7b3dc39de9b042ccd774e729c85c866c8a722664fea8ecf0fb65a5b88fb25",
        "3f9ea548d5a414799fb7e398d0d46564108f761cd9fb62858f0473999e1a12d6",
        "27efc75f3ad9d37e69a76d0e66680ceadc7cae3860be1e23995997656c4be8a5",
    ],
    "observed": [
        "93819a315426fc2aea64682ef24749e7cc50b46c6b27ea839cf322936debd3ca",
        "6ec859233b034e50dddb31fa1ae1cc8ad53468a721bbfaa4ac8e3ff5a0e3f1aa",
    ],
}


@dataclass(frozen=True)
class Cell:
    path: str  # in-process | spawn | tcp
    interrupt: str = "none"  # none | sigkill
    exec_mode: str = "journal"
    engine: str = "tcg"  # tcg | cpu
    #: the checkpoint a SIGKILL lands after (0: the spec's ``kill_at``)
    kill_at: int = 0

    def __str__(self) -> str:
        engine = "" if self.engine == "tcg" else f"-{self.engine}"
        at = f"{self.kill_at}" if self.kill_at else ""
        return f"{self.path}-{self.interrupt}{at}-{self.exec_mode}{engine}"

    def kill_point(self, spec: "Spec") -> int:
        return self.kill_at or spec.kill_at


#: a SIGKILL after a shard's final checkpoint still diverges: the
#: resumed last round is a no-op, and its corpus diagnostics are that
#: session's counters (inserts, dedup hits, imports), not the round's
FINAL_SHARD_CHECKPOINT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a resumed no-op last round reports session-local corpus "
    "counters in its diagnostics",
)


CELLS = [
    ("sweep", Cell("spawn")),
    ("sweep", Cell("spawn", "sigkill")),
    ("sweep", Cell("tcp")),
    ("sweep", Cell("tcp", "sigkill")),
    ("sweep", Cell("in-process", exec_mode="forkserver")),
    ("resume", Cell("in-process", "sigkill")),
    ("resume", Cell("in-process", "sigkill", "forkserver")),
    ("resume", Cell("spawn", "sigkill", "forkserver")),
    ("driver", Cell("in-process", exec_mode="forkserver")),
    ("driver-resume", Cell("in-process", "sigkill", "forkserver")),
    ("tplink", Cell("in-process", exec_mode="forkserver")),
    ("tplink", Cell("in-process", engine="cpu")),
    ("tplink", Cell("in-process", exec_mode="forkserver", engine="cpu")),
    ("shard", Cell("spawn")),
    ("shard", Cell("tcp")),
    ("shard", Cell("in-process", exec_mode="forkserver")),
    ("shard", Cell("in-process", "sigkill", kill_at=250)),
    ("shard", Cell("in-process", "sigkill", kill_at=500)),
    ("shard", Cell("spawn", "sigkill", kill_at=250)),
    ("shard", Cell("spawn", "sigkill", kill_at=500)),
    pytest.param(
        "shard",
        Cell("spawn", "sigkill", kill_at=750),
        marks=FINAL_SHARD_CHECKPOINT,
        id="shard-spawn-sigkill750-journal",
    ),
]


# ----------------------------------------------------------------------
# the SIGKILL arm, installed in the process that is to die
# ----------------------------------------------------------------------
def arm_kill(k: int, marker: str, after: str = "save"):
    """SIGKILL this process once, right after the checkpoint at exec
    ``k`` is durable.

    ``after="save"`` fires when the checkpoint file is written;
    ``after="sync"`` when a TCP worker has shipped it home.  ``marker``
    records the exec count killed at; only the process that creates it
    dies, so the resumed attempts run to the end.
    """
    import repro.fuzz.campaign as campaign

    def kill():
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.write(fd, str(k).encode())
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)

    if after == "save":
        save = campaign.save_checkpoint

        def saving(path, fuzzer, firmware, budget):
            save(path, fuzzer, firmware, budget)
            if fuzzer.execs == k:
                kill()

        campaign.save_checkpoint = saving
    else:
        from repro.fuzz.transport import _JobSession

        sync = _JobSession._sync_checkpoint

        def syncing(session, saved_path, corpus_dir):
            sync(session, saved_path, corpus_dir)
            with open(saved_path, encoding="utf-8") as fh:
                if json.load(fh)["execs"] == k:
                    kill()

        _JobSession._sync_checkpoint = syncing


def _armed_worker_main(k, marker, job, events):
    """A spawn worker that dies once, after checkpoint ``k``."""
    from repro.fuzz.worker import worker_main

    arm_kill(k, marker)
    worker_main(job, events)


def armed_worker(argv: List[str]) -> int:
    """``repro worker`` armed to die after a sync home: ``K MARKER ARGS...``."""
    arm_kill(int(argv[0]), argv[1], after="sync")
    from repro.cli import main

    return main(argv[2:])


def _entry_child(spec: Spec, k: int, exec_mode: str, root: str, marker: str):
    """The in-process fleet entry, armed to die after checkpoint k."""
    arm_kill(k, marker)
    run_fleet(spec.jobs(root, exec_mode))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def reference(tmp_path_factory):
    """Each spec's reference digests, computed once per session."""
    root = tmp_path_factory.mktemp("reference")
    digests = {}

    def of(name: str) -> List[Optional[str]]:
        if name not in digests:
            spec = SPECS[name]
            fleet = run_fleet(spec.jobs(str(root / name), "journal"))
            digests[name] = spec.digests(fleet)
        return digests[name]

    return of


def check_cell(name: str, cell: Cell, got, want) -> None:
    """Fail naming the spec, path and interrupt when a cell diverges."""
    if got != want:
        raise AssertionError(
            f"spec {name!r} diverged on path {cell.path}, interrupt "
            f"{cell.interrupt}, exec mode {cell.exec_mode}, engine "
            f"{cell.engine}: {got} != reference {want}"
        )


def _repro(args, marker=None, k=0):
    """Start ``repro ARGS`` in a subprocess, armed when ``marker`` is set."""
    argv = [sys.executable, "-m", "repro", *args]
    if marker is not None:
        armed = "import sys; from tests.test_determinism import armed_worker; "
        armed += "sys.exit(armed_worker(sys.argv[1:]))"
        argv = [sys.executable, "-c", armed, str(k), marker, *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(REPO_ROOT, "src"), REPO_ROOT])
    return subprocess.Popen(
        argv,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _attempts(events, kind=("job_started", "job_resumed")) -> List[dict]:
    return [e for e in events if e["event"] in kind]


def _killed_at(marker: str) -> int:
    with open(marker, encoding="utf-8") as fh:
        return int(fh.read())


def run_cell(spec: Spec, cell: Cell, root: str, monkeypatch):
    """Run ``spec`` through ``cell``; returns its digests."""
    if cell.engine == "cpu":
        from repro.isa.cpu import Cpu

        monkeypatch.setattr("repro.emulator.machine.TcgEngine", Cpu)
    jobs = spec.jobs(root, cell.exec_mode)
    marker = os.path.join(root, "killed")
    kill = cell.interrupt == "sigkill"
    k = cell.kill_point(spec)
    #: checkpoints a killed in-process fleet left for the rerun
    carried = 0
    if cell.path == "in-process":
        if kill:
            child = multiprocessing.get_context("spawn").Process(
                target=_entry_child,
                args=(spec, k, cell.exec_mode, root, marker),
            )
            child.start()
            child.join(timeout=300)
            assert child.exitcode == -signal.SIGKILL, child.exitcode
            carried = sum(os.path.exists(job.checkpoint_path) for job in jobs)
        fleet = run_fleet(jobs)
    elif cell.path == "spawn":
        if kill:
            armed = functools.partial(_armed_worker_main, k, marker)
            monkeypatch.setattr("repro.fuzz.worker.worker_main", armed)
        fleet = run_fleet(jobs, workers=2, heartbeat_interval=0.2, backoff_base=0.05)
        restarts = [r["cause"] for d in fleet.diagnostics.jobs for r in d.restarts]
        assert restarts == (["signal:SIGKILL"] if kill else [])
    else:
        fleet = _run_tcp(jobs, spec, cell, marker)
    assert not fleet.degraded and not fleet.interrupted
    restarts = _attempts(fleet.events, kind=("job_resumed",))
    if kill:
        # the kill landed after checkpoint k and before the budget
        # ended, and a rerun or restart picked a checkpoint up
        assert _killed_at(marker) == k < spec.template.budget
        assert carried + len(restarts) >= 1
    else:
        assert not restarts
    # every attempt that starts from a checkpoint is a shard round
    # continuing the one before it, or resumes what the kill left
    resumed = [e for e in _attempts(fleet.events) if e["from_checkpoint"]]
    assert len(resumed) == spec.round_starts() + carried + len(restarts), (
        fleet.events
    )
    return spec.digests(fleet)


def _run_tcp(jobs, spec: Spec, cell: Cell, marker: str):
    from repro.fuzz.transport import TcpJsonlTransport

    transport = TcpJsonlTransport(port=0, spawn_fallback=False)
    armed = {}
    if cell.interrupt == "sigkill":
        armed = dict(marker=marker, k=cell.kill_point(spec))
    connect = ["--connect", f"127.0.0.1:{transport.port}", "--max-reconnects", "0"]
    workers = [
        _repro(["worker", *connect, "--name", f"w{i}"], **armed) for i in range(2)
    ]
    try:
        assert transport.wait_for_workers(2, timeout=120)
        fleet = run_fleet(
            jobs,
            workers=2,
            heartbeat_interval=0.2,
            backoff_base=0.05,
            transport=transport,
        )
    finally:
        transport.close()
        for worker in workers:
            try:
                worker.wait(timeout=60)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
    codes = sorted(worker.returncode for worker in workers)
    assert codes == ([-signal.SIGKILL, 0] if armed else [0, 0])
    # every attempt ran on a remote peer; none fell back to spawn
    attempts = _attempts(fleet.events)
    assert all(e["where"].startswith("remote:") for e in attempts)
    stats = fleet.diagnostics.transport
    assert stats["remote_attempts"] == len(attempts)
    assert stats["spawn_fallbacks"] == 0
    return fleet


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SPECS))
def test_reference_matches_recorded(name, reference):
    assert reference(name) == RECORDED[name]


@pytest.mark.parametrize(
    "name,cell",
    CELLS,
    ids=[
        f"{entry[0]}-{entry[1]}" if isinstance(entry, tuple) else entry.id
        for entry in CELLS
    ],
)
def test_cell(name, cell, reference, tmp_path, monkeypatch):
    got = run_cell(SPECS[name], cell, str(tmp_path), monkeypatch)
    check_cell(name, cell, got, reference(name))


def test_runner_reports_divergence(reference, tmp_path, monkeypatch):
    spec = SPECS["resume"]
    perturbed = replace(spec, template=replace(spec.template, seed=4))
    cell = Cell("in-process")
    got = run_cell(perturbed, cell, str(tmp_path), monkeypatch)
    with pytest.raises(AssertionError) as info:
        check_cell("resume", cell, got, reference("resume"))
    message = str(info.value)
    assert "spec 'resume'" in message
    assert "path in-process, interrupt none" in message


def test_observing_is_invisible(reference, tmp_path):
    """Observing changes nothing but the observer's own document: an
    in-process run and a 2-worker spawn fleet agree on every counter
    outside ``fleet.*``, and both keep the unobserved digests."""
    from repro.obs import Observer

    spec = SPECS["observed"]
    counters, digests = [], []
    for workers in (1, 2):
        observer = Observer(trace=False)
        jobs = spec.jobs(str(tmp_path / str(workers)), "journal")
        fleet = run_fleet(jobs, workers=workers, observer=observer)
        document = observer.registry.to_json()["counters"]
        kept = {k: v for k, v in document.items() if not k.startswith("fleet.")}
        counters.append(kept)
        digests.append(spec.digests(fleet))
    assert counters[0] == counters[1]
    assert counters[0]["campaign.execs"] == 2 * spec.template.budget
    want = reference("observed")
    assert digests == [want, want]
