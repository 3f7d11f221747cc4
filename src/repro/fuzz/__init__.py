"""Kernel fuzzers: the bug drivers of the paper's evaluation.

* :mod:`repro.fuzz.syzkaller` — a Syzkaller-shaped syscall fuzzer:
  template-based program generation with resource wiring, kcov-style
  coverage feedback, corpus mutation.
* :mod:`repro.fuzz.tardis` — a Tardis-shaped RTOS fuzzer: executor
  programs over the OS task API and *OS-agnostic* coverage collected at
  the emulator level (function-entry events), so closed-source targets
  fuzz exactly like open ones.
* :mod:`repro.fuzz.spec` — :class:`CampaignSpec`, the one validated,
  versioned description of a campaign that every layer consumes.
* :mod:`repro.fuzz.campaign` — campaign orchestration: run a fuzzer
  against a Table-1 firmware with EMBSAN attached, dedup and reproduce
  findings, map them back to the bug catalog.
"""

from repro.fuzz.coverage import CoverageMap, EmulatorCoverage, KcovCoverage
from repro.fuzz.program import Call, Program
from repro.fuzz.campaign import (
    CampaignResult,
    run_all_campaigns,
    run_campaign,
    run_campaign_repeated,
)
from repro.fuzz.spec import CampaignSpec
from repro.fuzz.syzkaller import SyzkallerFuzzer
from repro.fuzz.tardis import TardisFuzzer

__all__ = [
    "Call",
    "CampaignResult",
    "CampaignSpec",
    "CoverageMap",
    "EmulatorCoverage",
    "KcovCoverage",
    "Program",
    "SyzkallerFuzzer",
    "TardisFuzzer",
    "run_all_campaigns",
    "run_campaign",
    "run_campaign_repeated",
]
