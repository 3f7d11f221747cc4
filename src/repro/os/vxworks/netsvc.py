"""The WDR-7660's closed-source network services, as EVM32 binaries.

``pppoed`` and ``dhcpsd`` are assembled from the sources below into
stripped blobs at firmware build time and execute on the machine's TCG
engine.  Their Table-4 defects are real missing bounds checks in the
binary code: both daemons copy an attacker-controlled length field's
worth of bytes into a fixed-size response buffer allocated from
memPartLib.

Packet layouts (as the daemons parse them):

pppoed (PPPoE discovery)::

    +0 ver/type  +1 code (0x09 = PADI)  +2..3 session
    +4..5 tag_type  +6..7 tag_length  +8.. tag payload

dhcpsd (BOOTP/DHCP)::

    +0 op (1 = BOOTREQUEST)  +1 htype  +2 option code
    +3 option length  +4.. option payload
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from repro.isa.assembler import assemble

#: response scratch buffers the daemons fill (allocated per packet)
PPPOE_RESP_BYTES = 32
DHCP_RESP_BYTES = 24

PPPOED_SOURCE = """
; pppoed packet parser -- stripped build, no symbol table shipped
; in: a0 = packet, a1 = packet length, a2 = response buffer
; out: a0 = 0 ok / -22 reject
.org {base}
.global pppoed_entry
pppoed_entry:
    ld8   t0, [a0 + 1]          ; discovery code
    movi  t3, 0x09              ; PADI
    bne   t0, t3, pppoed_reject
    ld16  t1, [a0 + 6]          ; tag_length (attacker controlled)
    movi  t2, 0
pppoed_copy:
    bgeu  t2, t1, pppoed_done   ; no clamp against the 32-byte response
    add   t3, a0, t2
    ld8   s0, [t3 + 8]
    add   t3, a2, t2
    st8   s0, [t3]
    addi  t2, t2, 1
    jmp   pppoed_copy
pppoed_done:
    mov   a0, t2
    ret
pppoed_reject:
    movi  a0, -22
    ret
"""

DHCPSD_SOURCE = """
; dhcpsd option parser -- stripped build, no symbol table shipped
; in: a0 = packet, a1 = packet length, a2 = response buffer
; out: a0 = 0 ok / -22 reject
.org {base}
.global dhcpsd_entry
dhcpsd_entry:
    ld8   t0, [a0]              ; BOOTP op
    movi  t3, 1                 ; BOOTREQUEST
    bne   t0, t3, dhcpsd_reject
    ld8   t1, [a0 + 3]          ; option length (attacker controlled)
    movi  t2, 0
dhcpsd_copy:
    bgeu  t2, t1, dhcpsd_done   ; no clamp against the 24-byte response
    add   t3, a0, t2
    ld8   s0, [t3 + 4]
    add   t3, a2, t2
    st8   s0, [t3]
    addi  t2, t2, 1
    jmp   dhcpsd_copy
dhcpsd_done:
    mov   a0, t2
    ret
dhcpsd_reject:
    movi  a0, -22
    ret
"""

#: a one-instruction landing pad the kernel points ``lr`` at
HALT_PAD_SOURCE = """
.org {base}
.global halt_pad
halt_pad:
    hlt
"""


@lru_cache(maxsize=None)
def _assemble_blob(source: str, base: int, entry_label: str) -> tuple:
    """Assemble one formatted blob source at ``base``, once per process."""
    result = assemble(source, base=base)
    return (result.image, base, result.symbols[entry_label])


def assemble_services(pppoed_base: int, dhcpsd_base: int,
                      pad_base: int) -> Dict[str, tuple]:
    """Assemble all three blobs; returns name -> (image, base, entry).

    Each blob is assembled once per source text and origin; the dict is
    fresh on every call, so no two kernels share one.
    """
    return {
        name: _assemble_blob(source.format(base=hex(base)), base, label)
        for name, source, base, label in (
            ("pppoed", PPPOED_SOURCE, pppoed_base, "pppoed_entry"),
            ("dhcpsd", DHCPSD_SOURCE, dhcpsd_base, "dhcpsd_entry"),
            ("halt_pad", HALT_PAD_SOURCE, pad_base, "halt_pad"),
        )
    }
