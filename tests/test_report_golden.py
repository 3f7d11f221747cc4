"""Report golden: what the fuzzer sees of KASAN reports, per exec.

A repeated KASAN report (same dedup key in one exec) is counted rather
than built again, so the engine's listener receives the exec's first
report object for every later hit.  These campaigns pin, per exec, the
dedup keys the listener receives and ``runtime.stats()``, and per
finding its key and report fields (address, size, direction, pcs, task,
location, shadow dump), reproduction included.  The digests were
recorded on the engine that built every report in full.
"""

import hashlib
import json

import pytest

from repro.firmware.registry import firmware_spec
from repro.fuzz.checkpoint import _report_to_json
from repro.fuzz.syzkaller import SyzkallerFuzzer
from repro.fuzz.tardis import TardisFuzzer


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _record(firmware, seed, budget, exec_mode, refresh=None,
            reproduce=False):
    cls = (SyzkallerFuzzer if firmware_spec(firmware).fuzzer == "syzkaller"
           else TardisFuzzer)
    fuzzer = cls(firmware, seed=seed, exec_mode=exec_mode)
    if refresh is not None:
        fuzzer.refresh_interval = refresh
    target = fuzzer.target
    execute = target.execute
    execs = []

    def recording_execute(program, style):
        try:
            return execute(program, style)
        finally:
            execs.append([
                [list(report.dedup_key())
                 for report in fuzzer._current_reports],
                target.runtime.stats(),
            ])

    target.execute = recording_execute
    fuzzer.run(budget)
    if reproduce:
        fuzzer.reproduce_findings()
    findings = {
        repr(key): _digest([_report_to_json(finding.report),
                            finding.reproducible])
        for key, finding in fuzzer.findings.items()
    }
    return {
        "execs": len(execs),
        "keys": sum(len(keys) for keys, _stats in execs),
        "stream": _digest(execs),
        "findings": findings,
    }


CAMPAIGNS = {
    # EMBSAN-D, guest ISA code, the fork-server cadence of perfbench's
    # ``vxworks`` workload
    "tplink-forkserver": dict(firmware="TP-Link WDR-7660", seed=1000,
                              budget=150, exec_mode="forkserver",
                              refresh=1),
    # the same firmware in journal mode, at the campaign default refresh
    # interval, with reproduction
    "tplink-journal": dict(firmware="TP-Link WDR-7660", seed=1001,
                           budget=150, exec_mode="journal", reproduce=True),
    # EMBSAN-C (compile-time hypercalls), journal mode with reproduction
    "x86_64-journal": dict(firmware="OpenWRT-x86_64", seed=1000, budget=250,
                           exec_mode="journal", reproduce=True),
    # EMBSAN-D on a rehosted RTOS, journal mode with reproduction
    "stm32f407-journal": dict(firmware="OpenHarmony-stm32f407", seed=1000,
                              budget=250, exec_mode="journal",
                              reproduce=True),
}

#: recorded on the engine that built every report in full
EXPECTED = {
    "stm32f407-journal": {
        "execs": 416, "keys": 934, "stream": "5f823155f5879d61",
        "findings": {
            "('kasan', 'slab-out-of-bounds', 'liteos_fat.fat_read_lfn')":
                "4a397a029fa100e4",
            "('kasan', 'slab-out-of-bounds', 'liteos_vfs.vfs_normalize_path')":
                "9a26f687113686fe",
        },
    },
    "tplink-forkserver": {
        "execs": 150, "keys": 2623, "stream": "b8aad490b1ada558",
        "findings": {
            "('kasan', 'slab-out-of-bounds', 'dhcpsd')":
                "06eacfe08117ec40",
            "('kasan', 'slab-out-of-bounds', 'pppoed')":
                "6b1f94562b5e68ad",
            "('kasan', 'use-after-free', 'pppoed')":
                "0a4fccacfdfa273e",
            "('kasan', 'use-after-free', 'dhcpsd')":
                "11c3eedd6b5b18b5",
        },
    },
    "tplink-journal": {
        "execs": 154, "keys": 386, "stream": "1e1a343346e78f50",
        "findings": {
            "('kasan', 'slab-out-of-bounds', 'pppoed')":
                "4a895bd9cdc82cf9",
            "('kasan', 'slab-out-of-bounds', 'dhcpsd')":
                "9a6755d302f2e9f6",
        },
    },
    "x86_64-journal": {
        "execs": 414, "keys": 2309, "stream": "d9df958eb744e5d2",
        "findings": {
            "('kasan', 'slab-out-of-bounds', 'eth_realtek.eth_xmit')":
                "f2f1a45b18fefc16",
            "('kasan', 'slab-out-of-bounds', 'wifi_b43.wifi_parse_beacon')":
                "383fe048153b149c",
            "('kasan', 'slab-out-of-bounds', 'iommu.iommu_unmap')":
                "7c7501709cbbb966",
            "('kasan', 'use-after-free', 'wifi_b43.wifi_parse_beacon')":
                "0db20deff318db36",
            "('kasan', 'slab-out-of-bounds', 'eth_stmicro.eth_xmit')":
                "7047cf3d710880d9",
        },
    },
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_report_stream_matches_golden(name):
    assert _record(**CAMPAIGNS[name]) == EXPECTED[name]


if __name__ == "__main__":  # print the observations, to re-record
    for name in sorted(CAMPAIGNS):
        print(f"    {name!r}: {_record(**CAMPAIGNS[name])!r},")
