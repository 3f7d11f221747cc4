"""Virtual filesystem layer: fd table, device nodes, struct file objects.

``struct file`` objects live in guest slab memory and are touched through
the bus, so lifetime bugs on them (the Table-2 ``filp_close`` and
``dev_uevent`` use-after-frees) produce genuine bad accesses a sanitizer
can catch.

Layout of the 64-byte guest ``struct file``::

    +0  dev_id     +4  refcount   +8  flags      +12 pos
    +16 private    +20 mode       +24..63 reserved
"""

from __future__ import annotations

from typing import Dict

from repro.guest.context import GuestContext
from repro.guest.module import GuestModule, guestfn
from repro.os.embedded_linux.syscalls import EBADF, EINVAL, ENODEV, ENOMEM

FILE_SIZE = 64
F_DEV = 0
F_REFCOUNT = 4
F_FLAGS = 8
F_POS = 12
F_PRIVATE = 16
F_MODE = 20


class DeviceNode:
    """Protocol driver modules implement to back a device file.

    All hooks are optional; defaults behave like a null device.
    """

    def dev_open(self, ctx: GuestContext, file: int) -> int:
        """Called with the new guest ``struct file``; nonzero fails open."""
        return 0

    def dev_release(self, ctx: GuestContext, file: int) -> None:
        """Called when the last reference drops."""

    def dev_read(self, ctx: GuestContext, file: int, size: int, off: int) -> int:
        """Returns bytes read or negative errno."""
        return 0

    def dev_write(self, ctx: GuestContext, file: int, size: int, seed: int) -> int:
        """Returns bytes written or negative errno."""
        return size

    def dev_ioctl(
        self, ctx: GuestContext, file: int, cmd: int, a2: int, a3: int
    ) -> int:
        """Returns result or negative errno."""
        return EINVAL


class NullConsoleDevice(GuestModule, DeviceNode):
    """``/dev/console``-style character device every build ships.

    Writes buffer into a kernel line buffer; reads drain it.  This is
    the uniform I/O path core workloads exercise on every firmware.
    """

    location = "drivers/char"

    _BUF_BYTES = 48

    def __init__(self, kernel):
        super().__init__(name="chardev")
        self.kernel = kernel
        self.buf = 0

    def late_init(self, ctx: GuestContext) -> None:
        self.buf = self.kernel.mm.kzalloc(ctx, self._BUF_BYTES)

    def dev_write(self, ctx: GuestContext, file: int, size: int, seed: int) -> int:
        if self.buf == 0:
            return EINVAL
        span = min(size, self._BUF_BYTES)
        user = self.kernel.user_payload(ctx, seed, span)
        for offset in range(0, span, 4):
            ctx.st32(self.buf + offset, ctx.ld32(user + offset))
        ctx.st32(file + F_POS, ctx.ld32(file + F_POS) + span)
        return span

    def dev_read(self, ctx: GuestContext, file: int, size: int, off: int) -> int:
        if self.buf == 0:
            return EINVAL
        span = min(size, self._BUF_BYTES)
        checksum = 0
        for offset in range(0, span, 4):
            checksum = (checksum + ctx.ld32(self.buf + offset)) & 0xFFFFFFFF
        return checksum & 0x7FFFFFFF


class Vfs(GuestModule):
    """File descriptor table and device registry."""

    location = "fs/vfs"

    def __init__(self, kernel):
        super().__init__(name="vfs")
        self.kernel = kernel
        self.devices: Dict[int, DeviceNode] = {}
        #: fd -> guest address of struct file
        self.fd_table: Dict[int, int] = {}
        self._next_fd = 3
        self.open_count = 0
        self.close_count = 0

    # ------------------------------------------------------------------
    def register_device(self, dev_id: int, node: DeviceNode) -> None:
        """Attach a driver's device node at ``dev_id``."""
        self.devices[dev_id] = node

    # ------------------------------------------------------------------
    @guestfn(name="do_open")
    def do_open(self, ctx: GuestContext, dev_id: int) -> int:
        """Open a device node; returns fd or negative errno."""
        node = self.devices.get(dev_id)
        if node is None:
            return ENODEV
        file = self.kernel.mm.kmalloc(ctx, FILE_SIZE)
        if file == 0:
            return ENOMEM
        ctx.memset(file, 0, FILE_SIZE)
        ctx.st32(file + F_DEV, dev_id)
        ctx.st32(file + F_REFCOUNT, 1)
        rc = node.dev_open(ctx, file)
        if rc != 0:
            self.kernel.mm.kfree(ctx, file)
            return rc
        fd = self._next_fd
        self._next_fd += 1
        self.fd_table[fd] = file
        self.open_count += 1
        ctx.cov(1)
        return fd

    @guestfn(name="filp_close")
    def filp_close(self, ctx: GuestContext, fd: int) -> int:
        """Close an fd, dropping the struct-file reference."""
        file = self.fd_table.pop(fd, 0)
        if file == 0:
            return EBADF
        self.close_count += 1
        refs = ctx.ld32(file + F_REFCOUNT) - 1
        ctx.st32(file + F_REFCOUNT, refs)
        if refs <= 0:
            dev_id = ctx.ld32(file + F_DEV)
            node = self.devices.get(dev_id)
            if node is not None:
                node.dev_release(ctx, file)
            self.kernel.mm.kfree(ctx, file)
            if self.kernel.bugs.enabled("t2_16_filp_close"):
                # CVE-shaped 5.18 bug: flags read after the final fput
                ctx.ld32(file + F_FLAGS)
        ctx.cov(2)
        return 0

    @guestfn(name="vfs_read")
    def vfs_read(self, ctx: GuestContext, fd: int, size: int, off: int) -> int:
        """Dispatch a read to the backing device node."""
        file = self.fd_table.get(fd, 0)
        if file == 0:
            return EBADF
        node = self.devices.get(ctx.ld32(file + F_DEV))
        if node is None:
            return ENODEV
        ctx.cov(3)
        return node.dev_read(ctx, file, size & 0xFFFF, off)

    @guestfn(name="vfs_write")
    def vfs_write(self, ctx: GuestContext, fd: int, size: int, seed: int) -> int:
        """Dispatch a write to the backing device node."""
        file = self.fd_table.get(fd, 0)
        if file == 0:
            return EBADF
        node = self.devices.get(ctx.ld32(file + F_DEV))
        if node is None:
            return ENODEV
        ctx.st32(file + F_POS, ctx.ld32(file + F_POS) + (size & 0xFFFF))
        ctx.cov(4)
        return node.dev_write(ctx, file, size & 0xFFFF, seed)

    @guestfn(name="do_ioctl")
    def do_ioctl(self, ctx: GuestContext, fd: int, cmd: int, a2: int, a3: int) -> int:
        """Dispatch an ioctl to the backing device node."""
        file = self.fd_table.get(fd, 0)
        if file == 0:
            return EBADF
        node = self.devices.get(ctx.ld32(file + F_DEV))
        if node is None:
            return ENODEV
        ctx.cov(5)
        return node.dev_ioctl(ctx, file, cmd, a2, a3)
