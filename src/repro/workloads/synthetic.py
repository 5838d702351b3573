"""Synthetic communication workloads.

Used by the throttling ablation (many producers flooding one consumer, which
exercises the return-to-sender protocol of Section 4.1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.assembler import assemble
from repro.isa.program import Program


def remote_store_sender_program(
    dest_address: int,
    store_dip: int,
    num_messages: int,
    stride: int = 1,
    value_base: int = 1000,
) -> Program:
    """A user thread that sends *num_messages* remote-store messages with the
    user-level SEND instruction (Figure 7(a) of the paper)."""
    source = f"""
    ; remote-store flood sender
    mov i1, #{dest_address}      ; destination virtual address
    mov i2, #{num_messages}
    mov i3, #0                   ; messages sent
    mov i4, #{value_base}        ; value to store
loop:
    mov m0, i4                   ; message body: the value
    send i1, #{store_dip}, #1    ; remote store message
    add i1, i1, #{stride}
    add i4, i4, #1
    add i3, i3, #1
    lt i5, i3, i2
    br i5, loop
    halt
"""
    return assemble(source, name="remote-store-sender")


def many_to_one_store_programs(
    num_senders: int,
    words_per_sender: int,
    dest_base_address: int,
    store_dip: int,
) -> Dict[int, Program]:
    """One sender program per source node, all targeting (disjoint slices of)
    a region homed on a single consumer node."""
    programs = {}
    for sender in range(num_senders):
        base = dest_base_address + sender * words_per_sender
        programs[sender] = remote_store_sender_program(
            dest_address=base,
            store_dip=store_dip,
            num_messages=words_per_sender,
            stride=1,
            value_base=10_000 * (sender + 1),
        )
    return programs


def expected_many_to_one_values(num_senders: int, words_per_sender: int) -> List[Tuple[int, int]]:
    """(offset, value) pairs the consumer's region should contain after a
    many-to-one run completes."""
    expected = []
    for sender in range(num_senders):
        for index in range(words_per_sender):
            offset = sender * words_per_sender + index
            expected.append((offset, 10_000 * (sender + 1) + index))
    return expected
