"""Property: EMBSAN never reports on bug-free firmware.

The dual of the detection experiments: arbitrary (valid or garbage)
program streams against fixed builds must produce zero sanitizer
reports in every deployment mode.  This is the property that makes a
sanitizer usable at all — KCSAN's false-positive problem is exactly why
the paper validates Table 2 on KASAN.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import GuestFault
from repro.firmware.builder import attach_runtime
from repro.firmware.instrument import InstrumentationMode
from repro.firmware.registry import build_firmware
from repro.fuzz.ifspec import interface_for
from repro.fuzz.program import ResourcePool, resolve_args

import random


def run_random_workload(image, runtime, seed, programs=12):
    rng = random.Random(seed)
    spec = interface_for(image.kernel)
    kernel, ctx = image.kernel, image.ctx
    for _ in range(programs):
        pool = ResourcePool()
        length = rng.randint(1, 5)
        for _ in range(length):
            call = spec.generate_call(rng)
            args = resolve_args(call.args, pool)
            try:
                if spec.style == "syscall":
                    result = kernel.do_syscall(ctx, call.nr, *args)
                else:
                    result = kernel.invoke(ctx, call.nr, *args[:3])
            except GuestFault:
                return  # bug-free builds never fault; asserted by caller
            if call.produces and isinstance(result, int):
                pool.put(call.produces, result)


# The closed-source VxWorks target is deliberately absent: its daemons
# are vulnerable *binaries* — there is no patched build to test, and
# random packets legitimately trigger their missing bounds checks.
# OpenWRT-mt7629 is absent until its bug-free build stops reporting; see
# test_mt7629_bug_free_send_is_clean below.
CASES = [
    ("OpenWRT-armvirt", InstrumentationMode.EMBSAN_C, ("kasan",)),
    ("OpenWRT-bcm63xx", InstrumentationMode.EMBSAN_D, ("kasan",)),
    ("OpenWRT-ipq807x", InstrumentationMode.EMBSAN_C, ("kasan",)),
    ("OpenWRT-rtl839x", InstrumentationMode.EMBSAN_D, ("kasan",)),
    ("OpenWRT-x86_64", InstrumentationMode.EMBSAN_C, ("kasan", "kcsan")),
    ("OpenHarmony-rk3566", InstrumentationMode.EMBSAN_C, ("kasan",)),
    ("OpenHarmony-stm32mp1", InstrumentationMode.EMBSAN_D, ("kasan",)),
    ("InfiniTime", InstrumentationMode.EMBSAN_D, ("kasan",)),
    ("OpenHarmony-stm32f407", InstrumentationMode.EMBSAN_D, ("kasan",)),
]


@pytest.mark.parametrize("firmware,mode,sanitizers", CASES,
                         ids=[c[0] for c in CASES])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_no_reports_on_bug_free_builds(firmware, mode, sanitizers, seed):
    image = build_firmware(firmware, mode=mode, with_bugs=False, boot=False)
    runtime = attach_runtime(image, sanitizers=sanitizers)
    image.boot()
    run_random_workload(image, runtime, seed)
    assert runtime.sink.count() == 0, [
        str(r).splitlines()[0] for r in runtime.sink.unique.values()
    ]


@pytest.mark.xfail(strict=True, reason=(
    "known defect: NetCoreModule.sock_sendmsg copies min(size, "
    "_SOCK_BUF_BYTES) bytes out of a _SKB_BYTES (64-byte) skb, so a "
    "delivered send over 64 bytes reads past the skb on a bug-free "
    "build; the fix moves the recorded census and waits for a "
    "benchmark re-record"))
def test_mt7629_bug_free_send_is_clean():
    from repro.os.embedded_linux.syscalls import Syscall

    image = build_firmware("OpenWRT-mt7629", mode=InstrumentationMode.EMBSAN_C,
                           with_bugs=False, boot=False)
    runtime = attach_runtime(image, sanitizers=("kasan",))
    image.boot()
    kernel, ctx = image.kernel, image.ctx
    fd = kernel.do_syscall(ctx, Syscall.SOCKET, 1)
    assert fd >= 0
    # seed bit 0x10 clear: the frame is delivered into the socket buffer
    assert kernel.do_syscall(ctx, Syscall.SENDMSG, fd, 108, 0) == 108
    assert runtime.sink.count() == 0, [
        str(r).splitlines()[0] for r in runtime.sink.unique.values()
    ]


def _netrom(with_bugs):
    image = build_firmware("OpenWRT-rtl839x", mode=InstrumentationMode.EMBSAN_D,
                           with_bugs=with_bugs, boot=False)
    runtime = attach_runtime(image, sanitizers=("kasan",))
    image.boot()
    module = next(m for m in image.kernel.modules if m.name == "netrom")
    module.fs_mount(image.ctx, 0)
    return image.ctx, module, runtime


@pytest.mark.parametrize("with_bugs", [False, True])
def test_netrom_route_flush_then_node_del(with_bugs):
    # flushing the route drops its reference to a node the table still
    # owns; deleting the node afterwards is its only free on a bug-free
    # build (a Hypothesis run of the property above found seed 362)
    ctx, netrom, runtime = _netrom(with_bugs)
    assert netrom.nr_node_add(ctx, 5) == 5
    assert netrom.nr_route_flush(ctx) == 1
    assert netrom.nr_node_del(ctx, 5) == 0
    reports = [str(r).splitlines()[0] for r in runtime.sink.unique.values()]
    if with_bugs:
        # the seeded build keeps freeing on both paths
        assert reports == ["BUG: KASAN: double-free in netrom.nr_node_del"]
    else:
        assert reports == []
