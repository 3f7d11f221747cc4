"""CI perf-regression gate for committed benchmark artifacts.

Compares a freshly measured benchmark JSON against the committed
baseline and fails (exit 1) on a relative regression beyond
``--max-drop`` (default 25%).  The document kind is auto-detected:

``BENCH_fleet.json`` (recognized by its ``workers`` key; wall-clock,
lower is better) gates the 4-worker sharded-sweep wall time:

* ``workers.4.wall_s`` — a rise beyond the threshold fails the gate

``BENCH_execs.json`` (recognized by its ``cases`` key; throughput,
higher is better) gates the fork-server headline numbers on the
large-RAM firmware:

* ``cases.large.forkserver.execs_per_sec`` — delta-restore throughput
* ``cases.large.speedup``                  — fork-server vs journal ratio

``BENCH_isa.json`` (recognized by its ``spec_bare`` key; throughput,
higher is better) gates the TCG engine's hot-loop rates:

* ``spec_bare.insn_per_sec``        — bare TCG throughput
* ``spec_kasan_kcsan.insn_per_sec`` — fully sanitized TCG throughput

Improvements and small fluctuations pass; CI runners are noisy, which
is why the threshold is generous and why only *relative* changes gate.

Usage::

    python benchmarks/check_bench_regression.py BASELINE CURRENT \
        [--max-drop 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: (worker count, metric) pairs gated in fleet documents (lower = better)
FLEET_GATED = (("4", "wall_s"),)

#: dotted paths gated in execs documents (higher = better)
EXECS_GATED = (
    "cases.large.forkserver.execs_per_sec",
    "cases.large.speedup",
)

#: (json key, metric) pairs gated in isa documents (higher = better)
ISA_GATED = (
    ("spec_bare", "insn_per_sec"),
    ("spec_kasan_kcsan", "insn_per_sec"),
)


def load(path: str) -> dict:
    """Read one benchmark JSON document."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read benchmark file {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def check_fleet(baseline: dict, current: dict, max_drop: float) -> list:
    """Fleet gate: wall-clock metrics, where a *rise* is a regression."""
    cpus = os.cpu_count() or 1
    if cpus < 2:
        # the committed BENCH_fleet baseline was recorded on a 1-CPU
        # host where multi-worker speedup < 1 is expected; wall-clock
        # comparisons between such hosts measure scheduler noise, not
        # regressions, so the gate stands down rather than cry wolf
        print(
            f"notice: fleet wall-clock gate skipped on a {cpus}-CPU host "
            f"(multi-worker wall time is not meaningful below 2 CPUs)"
        )
        return []
    failures = []
    for workers, metric in FLEET_GATED:
        name = f"workers.{workers}.{metric}"
        try:
            base = float(baseline["workers"][workers][metric])
            cur = float(current["workers"][workers][metric])
        except (KeyError, TypeError, ValueError):
            failures.append((name, None, None, None))
            continue
        if base <= 0:
            continue
        rise = (cur - base) / base
        status = "FAIL" if rise > max_drop else "ok"
        row = (
            f"baseline {base:10,.2f}s  current {cur:10,.2f}s  "
            f"change {rise:+7.1%}  (cpus={cpus})"
        )
        print(f"{status:4s} {name:32s} {row}")
        if rise > max_drop:
            failures.append((f"{name} [cpus={cpus}]", base, cur, rise))
    return failures


def check_execs(baseline: dict, current: dict, max_drop: float) -> list:
    """Execs gate: throughput metrics, where a *drop* is a regression."""

    def dig(doc, path):
        value = doc
        for part in path.split("."):
            value = value[part]
        return float(value)

    failures = []
    for name in EXECS_GATED:
        try:
            base = dig(baseline, name)
            cur = dig(current, name)
        except (KeyError, TypeError, ValueError):
            failures.append((name, None, None, None))
            continue
        if base <= 0:
            continue
        drop = (base - cur) / base
        status = "FAIL" if drop > max_drop else "ok"
        row = f"baseline {base:14,.2f}  current {cur:14,.2f}  change {-drop:+7.1%}"
        print(f"{status:4s} {name:40s} {row}")
        if drop > max_drop:
            failures.append((name, base, cur, drop))
    return failures


def check_isa(baseline: dict, current: dict, max_drop: float) -> list:
    """ISA gate: relative drops of the TCG hot-loop throughput."""
    failures = []
    for key, metric in ISA_GATED:
        name = f"{key}.{metric}"
        try:
            base = float(baseline[key][metric])
            cur = float(current[key][metric])
        except (KeyError, TypeError, ValueError):
            failures.append((name, None, None, None))
            continue
        if base <= 0:
            continue
        drop = (base - cur) / base
        status = "FAIL" if drop > max_drop else "ok"
        row = f"baseline {base:14,.0f}  current {cur:14,.0f}  change {-drop:+7.1%}"
        print(f"{status:4s} {name:32s} {row}")
        if drop > max_drop:
            failures.append((name, base, cur, drop))
    return failures


def check(baseline: dict, current: dict, max_drop: float) -> list:
    """Return [(name, base, cur, drop)] for every gated regression."""
    if "workers" in baseline or "workers" in current:
        return check_fleet(baseline, current, max_drop)
    if "cases" in baseline or "cases" in current:
        return check_execs(baseline, current, max_drop)
    if "spec_bare" in baseline or "spec_bare" in current:
        return check_isa(baseline, current, max_drop)
    print("error: unrecognized benchmark document kind", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="freshly measured BENCH_*.json")
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.25,
        help="relative throughput drop tolerated (default 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    baseline = load(args.baseline)
    current = load(args.current)
    failures = check(baseline, current, args.max_drop)
    if failures:
        print()
        for name, base, cur, drop in failures:
            if drop is None:
                print(f"error: metric {name} missing from a file", file=sys.stderr)
            else:
                arrow = f"{base:,.0f} -> {cur:,.0f}"
                allowed = f"> {args.max_drop:.0%} allowed"
                print(
                    f"error: {name} regressed {drop:.1%} ({allowed}): {arrow}",
                    file=sys.stderr,
                )
        return 1
    limit = f"{args.max_drop:.0%}"
    print(f"perf gate passed: no gated metric dropped more than {limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
