"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the paper's workflow:

* ``list``     — the Table-1 firmware registry
* ``probe``    — run the Prober on one firmware and print the DSL specs
* ``replay``   — replay a catalog bug's reproducer under a deployment
* ``fuzz``     — run a fuzzing campaign with EMBSAN attached
* ``fuzz-all`` — the full Table-3 sweep, optionally as a supervised
  multi-process fleet (``--workers N``) or a sharded single-firmware
  fleet (``--shard N``) cooperating through a shared corpus store
* ``corpus``   — inspect and maintain persistent corpus stores
  (``ls`` / ``distill`` / ``merge`` / ``export`` / ``import``)
* ``stats``    — render a ``--metrics`` JSON file as a readable table
* ``overhead`` — measure Figure-2 slowdowns for one or all firmware
* ``table2``   — the known-bug detection matrix
* ``worker``   — run fleet jobs for a ``fuzz-all --listen`` supervisor

Exit codes: 0 success, 1 replay miss, 2 usage error, 3 degraded — a
campaign exhausted its crash budget, or a fleet job exhausted its
retry budget and was abandoned; 4 interrupted — SIGTERM/SIGINT drained
a sweep cleanly (with ``--checkpoint-dir``, a rerun with the same flags
resumes it from its checkpoints).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple


def _cmd_list(_args) -> int:
    from repro.firmware.registry import all_firmware

    print(f"{'Firmware':24s} {'Base OS':15s} {'Arch':5s} {'Mode':9s} "
          f"{'Source':7s} Fuzzer")
    for spec in all_firmware():
        print(f"{spec.name:24s} {spec.base_os:15s} {spec.arch:5s} "
              f"{spec.inst_mode.value:9s} {spec.source:7s} {spec.fuzzer}")
    return 0


def _cmd_probe(args) -> int:
    from repro import prepare

    deployment = prepare(args.firmware, sanitizers=tuple(args.sanitizers))
    print(deployment.dsl_text())
    return 0


def _cmd_replay(args) -> int:
    from repro.bugs.catalog import TABLE2_BUGS, TABLE4_BUGS
    from repro.bugs.replay import replay_on_embsan, replay_on_native
    from repro.firmware.instrument import InstrumentationMode
    from repro.firmware.registry import firmware_spec

    catalog = {record.bug_id: record for record in TABLE2_BUGS + TABLE4_BUGS}
    record = catalog.get(args.bug)
    if record is None:
        print(f"unknown bug id {args.bug!r}; known ids: "
              f"{', '.join(sorted(catalog))}", file=sys.stderr)
        return 2
    if args.deployment == "native":
        result = replay_on_native(record)
    else:
        mode = (InstrumentationMode.EMBSAN_C if args.deployment == "embsan-c"
                else InstrumentationMode.EMBSAN_D if args.deployment == "embsan-d"
                else firmware_spec(record.firmware).inst_mode
                if record.firmware else InstrumentationMode.EMBSAN_C)
        result = replay_on_embsan(record, mode)
    print(f"bug {record.bug_id} ({record.location}) under {result.mode}: "
          f"{'DETECTED' if result.detected else 'not detected'}")
    for report in result.reports:
        print()
        print(report)
    return 0 if result.detected else 1


def _make_observer(args):
    """Build an Observer when ``--metrics``/``--trace`` asked for one."""
    if not (getattr(args, "metrics", None) or getattr(args, "trace", None)):
        return None
    from repro.obs import Observer

    return Observer(metrics=bool(args.metrics), trace=bool(args.trace))


def _write_observer(observer, args) -> None:
    """Flush an Observer's sinks to the paths the CLI was given."""
    if observer is None:
        return
    if args.metrics:
        observer.write_metrics(args.metrics)
        print(f"metrics written to {args.metrics}")
    if args.trace:
        observer.write_trace(args.trace)
        print(f"trace written to {args.trace}")


def _spec_from_args(args, firmware: str):
    """The CampaignSpec named by the shared spec flags (``fuzz`` and
    ``fuzz-all`` both build theirs here)."""
    from dataclasses import fields

    from repro.errors import FuzzerError
    from repro.fuzz.spec import CampaignSpec

    values = {
        field.name: getattr(args, field.name)
        for field in fields(CampaignSpec)
        if field.name != "firmware" and hasattr(args, field.name)
    }
    try:
        return CampaignSpec(firmware=firmware, **values)
    except FuzzerError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_fuzz(args) -> int:
    import json

    from repro.emulator.faults import plan_for
    from repro.fuzz.campaign import run_spec
    from repro.obs.observer import ensure_parent

    spec = _spec_from_args(args, args.firmware)
    observer = _make_observer(args)
    result = run_spec(spec, checkpoint_path=args.checkpoint,
                      corpus_dir=args.corpus_dir, observer=observer)
    print(f"fuzzer: {result.fuzzer}, seed: {result.seed}, "
          f"budget: {result.budget}, execs: {result.execs}, "
          f"coverage: {result.coverage}, crashes: {result.crashes}")
    if spec.faults:
        print(f"fault plan: {plan_for(spec.faults).describe()}")
    reproducible = [f for f in result.findings if f.reproducible]
    print(f"{len(reproducible)} reproducible unique finding(s):")
    for finding in reproducible:
        print(f"  {finding.report.dedup_key()}")
    if result.matched:
        print(f"catalog rows matched: {sorted(result.matched)}")
    if result.missed:
        print(f"catalog rows missed: {[r.bug_id for r in result.missed]}")
    diagnostics = result.diagnostics
    degraded = False
    if diagnostics is not None:
        if diagnostics.corpus:
            stats = diagnostics.corpus
            print(f"corpus: {stats.get('size', 0)} entr(ies), "
                  f"{stats.get('inserts', 0)} insert(s), "
                  f"{stats.get('dedup_hits', 0)} dedup hit(s), "
                  f"{stats.get('imported', 0)} imported")
        print(f"diagnostics: {diagnostics.summary()}")
        if diagnostics.checkpoint_discarded:
            print(f"checkpoint discarded as corrupt: "
                  f"{diagnostics.checkpoint_discarded}")
        if args.diagnostics:
            with open(ensure_parent(args.diagnostics), "w",
                      encoding="utf-8") as fh:
                json.dump(diagnostics.to_json(), fh, indent=2)
            print(f"diagnostics written to {args.diagnostics}")
        degraded = diagnostics.degraded
    if args.results:
        from repro.fuzz.checkpoint import result_to_json

        with open(ensure_parent(args.results), "w", encoding="utf-8") as fh:
            json.dump(result_to_json(result), fh, sort_keys=True)
        print(f"results written to {args.results}")
    _write_observer(observer, args)
    return 3 if degraded else 0


def _install_drain_handlers(supervisor):
    """SIGTERM/SIGINT -> graceful drain for long sweeps.

    The signal interrupts the fleet: running attempts stop, their
    checkpoints stay, and ``run()`` returns with ``interrupted=True``.
    Returns the previous handlers for restoration.
    """
    import signal

    def _graceful(_signum, _frame):
        supervisor.interrupt()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _graceful)
        except ValueError:  # not the main thread (tests)
            pass
    return previous


def _restore_handlers(previous) -> None:
    import signal

    for sig, handler in previous.items():
        signal.signal(sig, handler)


def _cmd_fuzz_all(args) -> int:
    import json
    import os
    import tempfile
    from dataclasses import replace

    from repro.fuzz.checkpoint import result_to_json
    from repro.fuzz.spec import CATALOG
    from repro.fuzz.supervisor import FleetSupervisor, make_jobs
    from repro.obs.observer import ensure_parent

    if args.shard and (not args.firmware or len(args.firmware) != 1):
        print("--shard fuzzes ONE firmware with N cooperating workers; "
              "pass exactly one --firmware NAME", file=sys.stderr)
        return 2
    observer = _make_observer(args)
    template = _spec_from_args(args, CATALOG)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-all-") as scratch:
        checkpoint_dir, corpus_dir = args.checkpoint_dir, args.corpus_dir
        if args.shard:
            # shards sync at their checkpoints, through a shared store;
            # both live in a temporary directory unless given
            template = replace(template, checkpoint_every=args.sync_every)
            checkpoint_dir = checkpoint_dir or os.path.join(scratch, "ck")
            corpus_dir = corpus_dir or os.path.join(scratch, "corpus")
        jobs = make_jobs(template=template, firmware=args.firmware or None,
                         checkpoint_dir=checkpoint_dir, shards=args.shard,
                         corpus_dir=corpus_dir)
        transport = None
        if args.listen:
            from repro.fuzz.transport import TcpJsonlTransport

            host, port = args.listen
            transport = TcpJsonlTransport(
                host, port, token=args.token,
                spawn_fallback=not args.no_spawn_fallback,
            )
            print(f"listening for remote workers on {transport.address}")
        try:
            supervisor = FleetSupervisor(
                jobs,
                workers=args.workers,
                heartbeat_timeout=args.heartbeat_timeout,
                max_retries=args.max_retries,
                backoff_base=args.backoff,
                events_path=args.events_log,
                observer=observer,
                transport=transport,
            )
            previous_handlers = _install_drain_handlers(supervisor)
            try:
                if transport is not None and args.wait_remote and \
                        not transport.wait_for_workers(
                            args.wait_remote,
                            timeout=args.wait_remote_timeout):
                    print(f"only some of the {args.wait_remote} remote "
                          f"worker(s) arrived within "
                          f"{args.wait_remote_timeout}s", file=sys.stderr)
                    return 2
                fleet = supervisor.run()
            finally:
                _restore_handlers(previous_handlers)
        finally:
            if transport is not None:
                transport.close()

    degraded = False
    # checkpoints outlive this run only in a directory the user named;
    # a shard run's default one is deleted on exit
    resumable = args.checkpoint_dir is not None
    label = "Shard" if args.shard else "Firmware"
    print(f"{label:24s} {'Execs':>6s} {'Crashes':>8s} {'Found':>6s}")
    for job, result in zip(jobs, fleet.results):
        name = str(job.shard[0]) if job.shard else job.spec.firmware
        if result is None:
            if job.job_id in fleet.unfinished:
                print(f"{name:24s} {'-':>6s} {'-':>8s} {'-':>6s}  "
                      f"INTERRUPTED"
                      + (" (checkpoint resumes it)" if resumable else ""))
                continue
            degraded = True
            print(f"{name:24s} {'-':>6s} {'-':>8s} {'-':>6s}  "
                  f"DEGRADED (abandoned after retries)")
            continue
        total = result.found_count() + len(result.missed)
        print(f"{name:24s} {result.execs:6d} "
              f"{result.crashes:8d} {result.found_count():3d}/{total:d}")
        if result.diagnostics is not None:
            if result.diagnostics.checkpoint_discarded:
                print(f"  checkpoint discarded as corrupt: "
                      f"{result.diagnostics.checkpoint_discarded}")
            degraded = degraded or result.diagnostics.degraded
    if args.shard and fleet.merged[0] is not None:
        merged = fleet.merged[0]
        total = merged.found_count() + len(merged.missed)
        syncs = sum(1 for e in fleet.events if e["event"] == "corpus_synced")
        print(f"merged: {merged.execs} execs over {args.shard} shard(s), "
              f"{syncs} sync round(s), found {merged.found_count()}/{total}")
        if merged.matched:
            print(f"catalog rows matched: {sorted(merged.matched)}")
    print(f"fleet: {fleet.diagnostics.summary()}")
    if args.events_log:
        print(f"events written to {args.events_log}")
    if args.diagnostics:
        with open(ensure_parent(args.diagnostics), "w",
                  encoding="utf-8") as fh:
            json.dump(fleet.diagnostics.to_json(), fh, indent=2)
        print(f"fleet diagnostics written to {args.diagnostics}")
    if args.results:
        def _json(results):
            return [None if r is None else result_to_json(r) for r in results]

        payload = _json(fleet.results)
        if args.shard:
            payload = {"merged": _json(fleet.merged)[0], "shards": payload}
        with open(ensure_parent(args.results), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        print(f"results written to {args.results}")
    _write_observer(observer, args)
    if fleet.interrupted:
        print(f"interrupted: {len(fleet.unfinished)} campaign(s) "
              f"unfinished; " + (
                  "re-run with the same flags to resume from checkpoints"
                  if resumable else
                  "no checkpoints were kept (pass --checkpoint-dir to "
                  "make a sweep resumable)"))
        return 4
    return 3 if degraded else 0


def _cmd_worker(args) -> int:
    """``repro worker --connect HOST:PORT``: serve a remote fleet."""
    from repro.errors import TransportError
    from repro.fuzz.transport import run_worker

    host, port = args.connect
    try:
        stats = run_worker(
            host,
            port,
            token=args.token,
            name=args.name,
            max_jobs=args.max_jobs,
            max_reconnects=args.max_reconnects,
            reconnect_base=args.reconnect_base,
            reconnect_max=args.reconnect_max,
            seed=args.seed,
            chaos=args.chaos,
            log=lambda line: print(f"worker: {line}", flush=True),
        )
    except TransportError as exc:
        # version/auth rejections are permanent: retrying would hammer
        # a server that already said no
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(f"worker: served {stats.jobs_run} job(s), "
          f"{stats.jobs_failed} failed, {stats.reconnects} reconnect(s), "
          f"{stats.resends} resend(s), "
          f"{stats.checkpoints_synced} checkpoint sync(s)")
    return 1 if stats.jobs_failed else 0


def _cmd_corpus(args) -> int:
    """The ``corpus`` maintenance subcommands."""
    from repro.corpus import CorpusStore, distill_store, merge_stores
    from repro.errors import CorpusError

    try:
        if args.corpus_command == "ls":
            store = CorpusStore(args.dir)
            by_kind = {}
            for digest in store.digests():
                entry = store.entries[digest]
                by_kind[entry.kind] = by_kind.get(entry.kind, 0) + 1
                if args.long:
                    print(f"{digest[:16]} {entry.kind:5s} "
                          f"execs={entry.execs:<6d} "
                          f"signature={len(entry.signature)} point(s)")
            kinds = ", ".join(f"{count} {kind}"
                              for kind, count in sorted(by_kind.items()))
            print(f"{len(store)} entr(ies) ({kinds or 'empty'}) "
                  f"for firmware {store.firmware!r}")
        elif args.corpus_command == "distill":
            store = CorpusStore(args.dir)
            before = len(store)
            distilled = distill_store(store, out_root=args.out)
            where = args.out or args.dir
            print(f"distilled {before} -> {len(distilled)} entr(ies) "
                  f"into {where}")
        elif args.corpus_command == "merge":
            dest = merge_stores(args.dest, args.sources)
            print(f"merged {len(args.sources)} store(s) -> "
                  f"{len(dest)} entr(ies) in {args.dest}")
        elif args.corpus_command == "export":
            store = CorpusStore(args.dir)
            count = store.export_bundle(args.bundle)
            print(f"exported {count} entr(ies) to {args.bundle}")
        elif args.corpus_command == "import":
            store = CorpusStore(args.dir)
            count = store.import_bundle(args.bundle)
            print(f"imported {count} new entr(ies) from {args.bundle} "
                  f"({len(store)} total)")
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(args) -> int:
    import json

    from repro.obs import format_metrics
    from repro.obs.metrics import SCHEMA

    try:
        with open(args.metrics_file, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics file {args.metrics_file!r}: {exc}",
              file=sys.stderr)
        return 2
    if data.get("schema") != SCHEMA:
        print(f"{args.metrics_file!r} is not a {SCHEMA} document "
              f"(schema: {data.get('schema')!r})", file=sys.stderr)
        return 2
    print(format_metrics(data))
    return 0


def _cmd_overhead(args) -> int:
    from repro.bench.overhead import figure2, format_rows, measure_firmware

    if args.firmware:
        rows = measure_firmware(args.firmware,
                                sanitizers=tuple(args.sanitizers))
    else:
        rows = figure2(sanitizers=tuple(args.sanitizers))
    print(format_rows(rows))
    return 0


def _cmd_table2(_args) -> int:
    from repro.bugs.catalog import TABLE2_BUGS
    from repro.bugs.replay import replay_on_embsan, replay_on_native
    from repro.firmware.instrument import InstrumentationMode

    print(f"{'bug':26s} {'kernel':10s} {'C':4s} {'D':4s} KASAN")
    for record in TABLE2_BUGS:
        c = replay_on_embsan(record, InstrumentationMode.EMBSAN_C).detected
        d = replay_on_embsan(record, InstrumentationMode.EMBSAN_D).detected
        k = replay_on_native(record).detected
        print(f"{record.location:26s} {record.kernel_version:10s} "
              f"{'Yes' if c else 'No':4s} {'Yes' if d else 'No':4s} "
              f"{'Yes' if k else 'No'}")
    return 0


def _address(value: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> (host, port): the one parser of ``--listen`` and
    ``--connect``.  argparse turns a rejection into a usage error."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(
            f"want HOST:PORT with a port in 0-65535, got {value!r}")
    return host, int(port)


def _add_spec_args(parser) -> None:
    """The campaign-spec flags ``fuzz`` and ``fuzz-all`` share;
    :func:`_spec_from_args` turns them into a CampaignSpec."""
    from repro.fuzz.spec import EXEC_MODES, SURFACES

    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault plan DSL, e.g. "
                             "'alloc:every=50;bitflip:0x20000000-0x20001000:"
                             "p=0.001;irq:drop=0.05' (compiled per campaign)")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="execs between checkpoints (0 = default "
                             "cadence); results are deterministic per "
                             "(seed, cadence) pair")
    parser.add_argument("--crash-budget", type=int, default=None,
                        help="host crashes tolerated before degradation")
    parser.add_argument("--watchdog-insns", type=int, default=None,
                        help="per-program instruction budget before "
                             "GuestHang")
    parser.add_argument("--watchdog-cycles", type=float, default=None,
                        help="per-program cycle budget before GuestHang")
    parser.add_argument("--exec-mode", default="journal", choices=EXEC_MODES,
                        help="target reset strategy: per-program journal + "
                             "rebuild-per-refresh, or a golden fork-server "
                             "snapshot with dirty-page delta restores "
                             "(same census, higher execs/s)")
    parser.add_argument("--surface", default="syscall", choices=SURFACES,
                        help="fuzz surface: the syscall/task API (default) "
                             "or the driver-op surface of a build with "
                             "modeled peripherals (docs/peripherals.md); "
                             "fuzz-all sweeps only firmware modeling "
                             "peripherals")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EMBSAN reproduction: sanitize embedded OS firmware "
                    "at the emulator boundary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the Table-1 firmware registry")

    probe = sub.add_parser("probe", help="probe a firmware, print DSL specs")
    probe.add_argument("firmware")
    probe.add_argument("--sanitizers", nargs="+", default=["kasan"])

    replay = sub.add_parser("replay", help="replay a catalog bug")
    replay.add_argument("bug", help="bug id, e.g. t2_01 or t4_tp_01")
    replay.add_argument("--deployment", default="paper",
                        choices=["paper", "embsan-c", "embsan-d", "native"])

    fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    fuzz.add_argument("firmware")
    _add_spec_args(fuzz)
    fuzz.add_argument("--checkpoint", default=None, metavar="PATH",
                      help="checkpoint file; resumes if it exists")
    fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                      help="persistent corpus store: existing entries seed "
                           "the campaign, discoveries persist back")
    fuzz.add_argument("--diagnostics", default=None, metavar="PATH",
                      help="write campaign diagnostics JSON here")
    fuzz.add_argument("--results", default=None, metavar="PATH",
                      help="write the campaign result JSON here")
    fuzz.add_argument("--metrics", default=None, metavar="PATH",
                      help="write the campaign metrics JSON here "
                           "(render with 'repro stats PATH')")
    fuzz.add_argument("--trace", default=None, metavar="PATH",
                      help="write a Perfetto-loadable Chrome trace here")

    fuzz_all = sub.add_parser(
        "fuzz-all",
        help="run every firmware's campaign, optionally as a worker fleet",
    )
    fuzz_all.add_argument("--workers", type=int, default=1,
                          help="jobs run at once (1 = in this process, "
                               "unless --listen sends them to remote "
                               "workers)")
    _add_spec_args(fuzz_all)
    fuzz_all.add_argument("--firmware", action="append", default=None,
                          metavar="NAME",
                          help="restrict the sweep (repeatable); "
                               "default is the whole Table-1 catalog")
    fuzz_all.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="per-firmware checkpoint files; fleet "
                               "workers resume from these after a crash")
    fuzz_all.add_argument("--shard", type=int, default=0, metavar="N",
                          help="fuzz ONE firmware (exactly one --firmware) "
                               "with N cooperating shards syncing through "
                               "a shared corpus store")
    fuzz_all.add_argument("--sync-every", type=int, default=0,
                          metavar="EXECS",
                          help="per-shard execs between corpus syncs "
                               "(0 = one round, sync only at the end)")
    fuzz_all.add_argument("--corpus-dir", default=None, metavar="DIR",
                          help="shared persistent corpus store for "
                               "--shard mode (temporary if omitted)")
    fuzz_all.add_argument("--heartbeat-timeout", type=float, default=30.0,
                          help="seconds of worker silence before it is "
                               "declared hung and killed")
    fuzz_all.add_argument("--max-retries", type=int, default=3,
                          help="restarts per job before it is abandoned")
    fuzz_all.add_argument("--backoff", type=float, default=0.5,
                          help="first retry delay; doubles per retry")
    fuzz_all.add_argument("--events-log", default=None, metavar="PATH",
                          help="append structured fleet events as JSONL")
    fuzz_all.add_argument("--diagnostics", default=None, metavar="PATH",
                          help="write FleetDiagnostics JSON here")
    fuzz_all.add_argument("--results", default=None, metavar="PATH",
                          help="write per-firmware campaign results JSON "
                               "(the byte-identity artifact)")
    fuzz_all.add_argument("--metrics", default=None, metavar="PATH",
                          help="write fleet-merged metrics JSON here")
    fuzz_all.add_argument("--trace", default=None, metavar="PATH",
                          help="write a Perfetto-loadable Chrome trace "
                               "merging supervisor and worker timelines")
    fuzz_all.add_argument("--listen", default=None, type=_address,
                          metavar="HOST:PORT",
                          help="accept remote `repro worker --connect` "
                               "peers on this address and dispatch fleet "
                               "jobs to them (port 0 picks a free port); "
                               "local spawn workers remain the fallback")
    fuzz_all.add_argument("--token", default=None,
                          help="shared secret remote workers must present "
                               "in their hello frame")
    fuzz_all.add_argument("--wait-remote", type=int, default=0, metavar="N",
                          help="block until N remote workers are connected "
                               "before starting the fleet")
    fuzz_all.add_argument("--wait-remote-timeout", type=float, default=60.0,
                          help="seconds to wait for --wait-remote peers "
                               "before giving up")
    fuzz_all.add_argument("--no-spawn-fallback", action="store_true",
                          help="with --listen: never fall back to local "
                               "spawn workers; jobs wait for a remote")

    worker = sub.add_parser(
        "worker",
        help="serve fleet jobs from a fuzz-all --listen supervisor",
    )
    worker.add_argument("--connect", required=True, type=_address,
                        metavar="HOST:PORT",
                        help="supervisor address to dial")
    worker.add_argument("--token", default=None,
                        help="shared secret for the hello handshake")
    worker.add_argument("--name", default=None,
                        help="stable worker name (reconnects under the "
                             "same name resume the same fleet identity)")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after completing this many jobs")
    worker.add_argument("--max-reconnects", type=int, default=None,
                        help="give up after this many failed re-dials "
                             "(default: keep trying forever)")
    worker.add_argument("--reconnect-base", type=float, default=0.5,
                        help="first reconnect delay in seconds; doubles "
                             "per consecutive failure")
    worker.add_argument("--reconnect-max", type=float, default=15.0,
                        help="ceiling on the reconnect backoff delay")
    worker.add_argument("--seed", type=int, default=0,
                        help="seeds reconnect jitter (and any chaos plan)")
    worker.add_argument("--chaos", default=None, metavar="SPEC",
                        help="chaos plan DSL applied to this worker's "
                             "outbound frames, e.g. "
                             "'drop:kind=heartbeat,p=1;disconnect:nth=9'")

    corpus = sub.add_parser(
        "corpus", help="inspect and maintain persistent corpus stores"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_ls = corpus_sub.add_parser("ls", help="summarize a store")
    corpus_ls.add_argument("dir", help="corpus store directory")
    corpus_ls.add_argument("--long", action="store_true",
                           help="one line per entry")
    corpus_distill = corpus_sub.add_parser(
        "distill",
        help="greedy coverage minset (keeps every crash reproducer)",
    )
    corpus_distill.add_argument("dir", help="corpus store directory")
    corpus_distill.add_argument("--out", default=None, metavar="DIR",
                                help="write the minset to a fresh store "
                                     "instead of pruning in place")
    corpus_merge = corpus_sub.add_parser(
        "merge", help="union several stores into one"
    )
    corpus_merge.add_argument("dest", help="destination store directory")
    corpus_merge.add_argument("sources", nargs="+",
                              help="source store directories")
    corpus_export = corpus_sub.add_parser(
        "export", help="write a store as one portable JSON bundle"
    )
    corpus_export.add_argument("dir", help="corpus store directory")
    corpus_export.add_argument("bundle", help="bundle file to write")
    corpus_import = corpus_sub.add_parser(
        "import", help="load an exported bundle into a store"
    )
    corpus_import.add_argument("dir", help="corpus store directory")
    corpus_import.add_argument("bundle", help="bundle file to read")

    stats = sub.add_parser(
        "stats", help="render a --metrics JSON file as a readable table"
    )
    stats.add_argument("metrics_file", help="path written by --metrics")

    overhead = sub.add_parser("overhead", help="measure Figure-2 slowdowns")
    overhead.add_argument("firmware", nargs="?", default=None)
    overhead.add_argument("--sanitizers", nargs="+", default=["kasan"])

    sub.add_parser("table2", help="the known-bug detection matrix")
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "probe": _cmd_probe,
    "replay": _cmd_replay,
    "fuzz": _cmd_fuzz,
    "fuzz-all": _cmd_fuzz_all,
    "worker": _cmd_worker,
    "corpus": _cmd_corpus,
    "stats": _cmd_stats,
    "overhead": _cmd_overhead,
    "table2": _cmd_table2,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
