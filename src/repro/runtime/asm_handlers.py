"""Assembly event and message handlers (the Section 4.2 runtime).

These are the software handlers that, together with the hardware mechanisms,
implement transparent non-cached access to remote memory:

* the **priority-0 message dispatch handler** runs in the event V-Thread on
  cluster 2; it blocks on the register-mapped message queue, jumps to the
  DIP of each arriving message and executes the remote-store / remote-load
  handlers (Figure 7 of the paper shows exactly this code shape);
* the **priority-1 handler** runs on cluster 3 and decodes reply messages,
  writing the returned data directly into the destination register of the
  faulting load with the privileged ``xregwr`` operation;
* the **LTLB-miss handler** runs on cluster 1; it walks the memory-resident
  LPT image with physical loads, installs the translation and replays the
  access if the page is local, or probes the GTLB and sends a remote
  read/write request message if the page is homed on another node
  (Section 4.2's seven-step remote read).

The handlers are genuine MAP assembly assembled by :mod:`repro.isa.assembler`
and executed by the simulator, so every latency reported by the Table 1 /
Figure 9 benchmarks is measured, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.events.records import INFO_IS_STORE_SHIFT, INFO_REGSPEC_MASK
from repro.isa.assembler import assemble_cached
from repro.isa.program import Program
from repro.memory.page_table import LPT_ENTRIES, LPT_ENTRY_WORDS, PAGE_SIZE_WORDS
from repro.runtime.layout import RETURN_NODE_SHIFT, RETURN_REGSPEC_MASK


@dataclass
class AsmRuntimePrograms:
    """The assembled event-V-Thread programs plus the DIP table."""

    ltlb_handler: Program
    message_p0_handler: Program
    message_p1_handler: Program
    dips: Dict[str, int]


def message_p1_source() -> str:
    """Priority-1 (system reply) handler: decode a remote-load reply."""
    return """
    ; Priority-1 message handler (event V-Thread, cluster 3).
    ; Replies carry [regspec, data]; the handler writes the data directly
    ; into the destination register of the faulting load (Section 4.2 step 7).
dispatch:
    jmp net                    ; wait for a message, jump to its DIP
reply_load:
    mov i1, net                ; destination-address word (unused for replies)
    mov i2, net                ; regspec of the original load destination
    mov i3, net                ; the data value
    xregwr i2, i3              ; deliver it to the faulting thread's register
    jmp dispatch
"""


def message_p0_source(reply_dip: int) -> str:
    """Priority-0 (user request) handler: remote store and remote load."""
    return f"""
    ; Priority-0 message handler (event V-Thread, cluster 2).
    ; Message queue words arrive as [DIP, address, body...]; "jmp net"
    ; dequeues the DIP and dispatches (Figure 7(b) of the paper).
dispatch:
    jmp net
remote_store:
    mov i1, net                ; destination virtual address
    st net, i1                 ; store the single body word at that address
    jmp dispatch
remote_load:
    mov i1, net                ; virtual address to read
    mov i2, net                ; return info: (source node << {RETURN_NODE_SHIFT}) | regspec
    ld i3, i1                  ; perform the load from local memory
    shr i4, i2, #{RETURN_NODE_SHIFT}     ; requesting node id
    and i5, i2, #{RETURN_REGSPEC_MASK:#x} ; destination regspec
    mov m0, i5                 ; reply body word 0: regspec
    mov m1, i3                 ; reply body word 1: data (waits for the load)
    sendp i4, #{reply_dip}, #2 ; system reply at priority 1
    jmp dispatch
"""


def ltlb_miss_source(
    page_shift: int,
    lpt_slot_mask: int,
    lpt_phys_base: int,
    remote_load_dip: int,
    remote_store_dip: int,
) -> str:
    """LTLB-miss handler (event V-Thread, cluster 1)."""
    return f"""
    ; LTLB-miss handler (event V-Thread, cluster 1).
    ; Event records are 4 words: [type, va, data, info].
loop:
    mov i1, evq                ; event type (always an LTLB miss on this queue)
    mov i2, evq                ; faulting virtual address
    mov i3, evq                ; store data (0 for loads)
    mov i4, evq                ; info word (regspec | is-store | ...)
    shr i5, i2, #{page_shift}  ; virtual page number
    and i6, i5, #{lpt_slot_mask:#x}   ; direct-mapped LPT image slot
    shl i7, i6, #{(LPT_ENTRY_WORDS - 1).bit_length()}  ; slot * entry size
    add i7, i7, #{lpt_phys_base}      ; physical address of the LPT entry
    pld i8, i7                 ; entry word 0: (vpage << 1) | valid
    pld i9, i7, #1             ; entry word 1: (frame << 1) | writable
    and i10, i8, #1
    brz i10, not_local         ; invalid entry: page is not local
    shr i11, i8, #1
    eq i12, i11, i5
    brz i12, not_local         ; tag mismatch: page is not local
    ; --- the page is local: install the translation and replay ---
    shr i13, i9, #1            ; physical frame
    and i14, i9, #1            ; writable flag
    or i14, i14, #2            ; ltlbw flags: writable | blocks-valid
    ltlbw i2, i13, i14
    shr i15, i4, #{INFO_IS_STORE_SHIFT}
    and i15, i15, #1
    br i15, local_store
    ld i13, i2                 ; replay the load
    and i14, i4, #{INFO_REGSPEC_MASK:#x}
    xregwr i14, i13            ; deliver the value to the original destination
    jmp loop
local_store:
    st i3, i2                  ; replay the store
    jmp loop
    ; --- the page is homed on another node: forward over the network ---
not_local:
    gprobe i8, i2              ; home node of the faulting address
    lt i9, i8, #0
    br i9, unmapped
    shr i15, i4, #{INFO_IS_STORE_SHIFT}
    and i15, i15, #1
    br i15, remote_store_req
    and i10, i4, #{INFO_REGSPEC_MASK:#x}
    mov i11, nid
    shl i11, i11, #{RETURN_NODE_SHIFT}
    or i10, i10, i11           ; return info: (this node << shift) | regspec
    mov m0, i10
    send i2, #{remote_load_dip}, #1   ; request message to the home node
    jmp loop
remote_store_req:
    mov m0, i3                 ; the data to store
    send i2, #{remote_store_dip}, #1
    jmp loop
unmapped:
    halt                       ; address mapped by no page-group: fatal
"""


def build_asm_runtime(lpt_phys_base: int) -> AsmRuntimePrograms:
    """Assemble the three event-V-Thread handler programs for a machine.

    All nodes have the same SDRAM, hence the same LPT image base, so a
    single set of programs is loaded on every node.  The programs come from
    :func:`~repro.isa.assembler.assemble_cached`: every machine built in a
    process, and every machine restored from a snapshot of one, shares them,
    and with them their compiled issue plans.  The DIP table is the
    caller's own.
    """
    p1_program = assemble_cached(message_p1_source(), "runtime-msg-p1")
    reply_dip = p1_program.label_address("reply_load")

    p0_program = assemble_cached(message_p0_source(reply_dip), "runtime-msg-p0")
    remote_store_dip = p0_program.label_address("remote_store")
    remote_load_dip = p0_program.label_address("remote_load")

    page_shift = (PAGE_SIZE_WORDS - 1).bit_length()
    lpt_slot_mask = LPT_ENTRIES - 1
    ltlb_program = assemble_cached(
        ltlb_miss_source(
            page_shift=page_shift,
            lpt_slot_mask=lpt_slot_mask,
            lpt_phys_base=lpt_phys_base,
            remote_load_dip=remote_load_dip,
            remote_store_dip=remote_store_dip,
        ),
        "runtime-ltlb-miss",
    )

    return AsmRuntimePrograms(
        ltlb_handler=ltlb_program,
        message_p0_handler=p0_program,
        message_p1_handler=p1_program,
        dips={
            "remote_store": remote_store_dip,
            "remote_load": remote_load_dip,
            "reply_load": reply_dip,
        },
    )
