"""fs/netrom (as the paper lists it): NET/ROM node tables.

Table-4 defect: ``t4_rtl839x_netrom_double_free`` — removing a node that
is also the route's neighbour frees the record on both paths.
"""

from __future__ import annotations

from typing import Dict

from repro.guest.context import GuestContext
from repro.guest.module import GuestModule, guestfn
from repro.os.embedded_linux.syscalls import EINVAL, ENOMEM

OP_NODE_ADD = 1
OP_NODE_DEL = 2
OP_ROUTE_FLUSH = 3

_NODE_BYTES = 40


class NetromModule(GuestModule):
    """A miniature NET/ROM routing table."""

    location = "fs/netrom"

    def __init__(self, kernel):
        super().__init__(name="netrom")
        self.kernel = kernel
        self.mounted = False
        self.nodes: Dict[int, int] = {}
        self.neighbour = 0

    def on_install(self, ctx: GuestContext) -> None:
        self.kernel.register_filesystem(6, self)

    def fs_mount(self, ctx: GuestContext, flags: int) -> int:
        self.mounted = True
        ctx.cov(1)
        return 0

    def fs_umount(self, ctx: GuestContext) -> int:
        self.mounted = False
        return 0

    def fs_op(self, ctx: GuestContext, op: int, a2: int, a3: int) -> int:
        if op == OP_NODE_ADD:
            return self.nr_node_add(ctx, a2)
        if op == OP_NODE_DEL:
            return self.nr_node_del(ctx, a2)
        if op == OP_ROUTE_FLUSH:
            return self.nr_route_flush(ctx)
        return EINVAL

    # ------------------------------------------------------------------
    @guestfn(name="nr_node_add")
    def nr_node_add(self, ctx: GuestContext, callsign: int) -> int:
        """Add a node record; the first node becomes the neighbour."""
        if not self.mounted:
            return EINVAL
        callsign &= 0xFF
        if callsign in self.nodes:
            return EINVAL
        node = self.kernel.mm.kzalloc(ctx, _NODE_BYTES)
        if node == 0:
            return ENOMEM
        ctx.st32(node, callsign)
        self.nodes[callsign] = node
        if self.neighbour == 0:
            self.neighbour = node
        ctx.cov(2)
        return callsign

    @guestfn(name="nr_node_del")
    def nr_node_del(self, ctx: GuestContext, callsign: int) -> int:
        """Remove a node record."""
        node = self.nodes.pop(callsign & 0xFF, None)
        if node is None:
            return EINVAL
        ctx.cov(3)
        self.kernel.mm.kfree(ctx, node)
        if node == self.neighbour and not self.kernel.bugs.enabled(
            "t4_rtl839x_netrom_double_free"
        ):
            self.neighbour = 0
        # the buggy kernel keeps the freed node as the route neighbour
        return 0

    @guestfn(name="nr_route_flush")
    def nr_route_flush(self, ctx: GuestContext) -> int:
        """Flush the route, releasing the neighbour reference."""
        if self.neighbour == 0:
            return 0
        ctx.cov(4)
        node, self.neighbour = self.neighbour, 0
        if not self.kernel.bugs.enabled("t4_rtl839x_netrom_double_free"):
            # the node table owns the record: nr_node_del frees it, and
            # clears the neighbour first, so here it is always still owned
            return 1
        self.kernel.mm.kfree(ctx, node)  # double free after node_del
        return 1
