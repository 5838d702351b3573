"""Checkpoint/resume walkthrough: snapshot a running machine, restore it,
and prove the resumed run is bit-exact.

Builds a two-node machine running a chain of dependent remote reads, runs it
halfway, snapshots it to a file, restores the snapshot into a brand-new
machine (as a fresh process would), finishes both, and compares final cycle
counts and statistics.  Run with::

    python examples/checkpoint_resume.py
"""

import os
import tempfile

from repro import MMachine, MachineConfig

REGION = 0x40000
REPEATS = 12


def build_machine() -> MMachine:
    config = MachineConfig.small(2, 1, 1)
    machine = MMachine(config)
    # The word lives on node 1; node 0 reads it repeatedly, paying a full
    # network round trip per iteration -- a long-running workload in miniature.
    machine.map_on_node(1, REGION, num_pages=1)
    machine.write_word(REGION, 5)
    machine.load_hthread(
        node_id=0,
        slot=0,
        cluster=0,
        program=f"""
            mov  i3, #0
            mov  i5, #0
    loop:   ld   i4, i1           ; remote load
            add  i5, i5, i4
            add  i3, i3, #1
            lt   i6, i3, #{REPEATS}
            br   i6, loop
            halt
        """,
        registers={"i1": REGION},
    )
    return machine


def main() -> None:
    snapshot_path = os.path.join(tempfile.mkdtemp(), "warm.json")

    # --- run halfway and snapshot -------------------------------------------
    machine = build_machine()
    machine.run(300)
    machine.save_snapshot(snapshot_path)
    print(f"snapshot at cycle {machine.cycle} -> {snapshot_path} "
          f"({os.path.getsize(snapshot_path)} bytes)")

    # Snapshotting does not perturb the original: finish it normally.
    machine.run_until_user_done()
    print(f"original run finished at cycle {machine.cycle}")

    # --- restore and finish --------------------------------------------------
    # MMachine.from_snapshot rebuilds the machine from the configuration
    # embedded in the file, then loads the state; this works identically in
    # a completely fresh process (see `repro resume`).
    restored = MMachine.from_snapshot(snapshot_path)
    print(f"restored machine resumes at cycle {restored.cycle}")
    restored.run_until_user_done()
    print(f"restored run finished at cycle {restored.cycle}")

    assert restored.cycle == machine.cycle
    assert restored.stats().summary() == machine.stats().summary()
    assert restored.register_value(0, 0, 0, "i5") == 5 * REPEATS
    print("resumed run is bit-exact (same final cycle, same statistics)")

    # Restoring into a differently-configured machine is refused.
    from repro.snapshot import ConfigMismatchError, read_snapshot

    other = MMachine(MachineConfig.small(2, 2, 1))
    try:
        other.restore_snapshot(read_snapshot(snapshot_path))
    except ConfigMismatchError as error:
        print(f"config mismatch correctly refused: {error}")


if __name__ == "__main__":
    main()
