"""Malformed programs fail with a named error on the cycle they are reached.

Each program first waits for a load (so the bad instruction is reached a
few cycles in, after the event kernel has had a chance to put the node to
sleep) and then hits one malformed instruction.  The exception type, its
exact message and the machine cycle at which it escapes the run loop must
be the same under both simulation kernels.
"""

import pytest

from repro import MMachine, MachineConfig

REGION = 0x40000

#: Waits for a load, so the instruction after it is reached on cycle 14.
PREAMBLE = """
    ld i4, i1
    add i5, i4, #1
"""

#: (case id, malformed instruction, config overrides, exception type,
#: message, cycle).
CASES = (
    (
        "remote-source",
        "add i2, c1.i3, #1",
        {},
        "SimulationError",
        "remote register c1.i3 cannot be used as a source operand "
        "(instruction add i2, c1.i3, #1)",
        14,
    ),
    (
        # The HEP barrel visits slot 0 only every sixth cycle; in between the
        # event kernel's sleep check meets the bad instruction first.
        "remote-source-hep",
        "add i2, c1.i3, #1",
        {"issue_policy": "hep"},
        "SimulationError",
        "remote register c1.i3 cannot be used as a source operand "
        "(instruction add i2, c1.i3, #1)",
        24,
    ),
    (
        "empty-remote",
        "empty c1.i2",
        {},
        "SimulationError",
        "empty cannot target a remote register",
        14,
    ),
    (
        "load-remote",
        "ld c1.i2, i1",
        {},
        "SimulationError",
        "loads cannot target a remote register",
        14,
    ),
    (
        "label-condition",
        "done: br done, done",
        {},
        "SimulationError",
        "branch condition of br done, done is a label",
        14,
    ),
    (
        "send-register-length",
        "send i1, i1, i1",
        {},
        "SimulationError",
        "send length must be an immediate (instruction send i1, i1, i1)",
        14,
    ),
)


def _machine(kernel, instruction, cluster_overrides):
    config = MachineConfig.single_node()
    config.sim.kernel = kernel
    for attr, value in cluster_overrides.items():
        setattr(config.cluster, attr, value)
    machine = MMachine(config)
    machine.map_on_node(0, REGION, num_pages=1)
    machine.load_hthread(
        0, 0, 0, PREAMBLE + instruction + "\nhalt", registers={"i1": REGION}
    )
    return machine


@pytest.mark.parametrize("kernel", ["event", "naive"])
@pytest.mark.parametrize(
    "instruction, overrides, error, message, cycle",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_malformed_instruction(kernel, instruction, overrides, error, message, cycle):
    machine = _machine(kernel, instruction, overrides)
    with pytest.raises(Exception) as caught:
        machine.run_until_user_done(max_cycles=200)
    assert type(caught.value).__name__ == error
    assert str(caught.value) == message
    assert machine.cycle == cycle


#: (case id, instruction, operand registers, operand list of the message).
#: Each evaluator error -- a negative shift count, a float with no integer
#: value, an integer no float can hold -- is reported like a wrong operand
#: type: a SimulationError naming the operands and the instruction.
BAD_OPERAND_CASES = (
    ("shl-negative-immediate", "shl i2, i1, #-1", {"i1": 5}, [5, -1]),
    ("shr-negative-register", "shr i2, i1, i3", {"i1": 5, "i3": -2}, [5, -2]),
    ("ftoi-infinity", "ftoi i2, f1", {"f1": float("inf")}, [float("inf")]),
    ("ftoi-nan", "ftoi i2, f1", {"f1": float("nan")}, [float("nan")]),
    ("itof-huge", "itof f2, i1", {"i1": 2**2000}, [2**2000]),
)


@pytest.mark.parametrize("kernel", ["event", "naive"])
@pytest.mark.parametrize(
    "instruction, registers, operands",
    [case[1:] for case in BAD_OPERAND_CASES],
    ids=[case[0] for case in BAD_OPERAND_CASES],
)
def test_bad_operands_name_the_instruction(kernel, instruction, registers, operands):
    config = MachineConfig.single_node()
    config.sim.kernel = kernel
    machine = MMachine(config)
    machine.map_on_node(0, REGION, num_pages=1)
    machine.load_hthread(
        0, 0, 0, "ld i4, i9\nadd i5, i4, #1\n" + instruction + "\nhalt",
        registers=dict(registers, i9=REGION),
    )
    with pytest.raises(Exception) as caught:
        machine.run_until_user_done(max_cycles=200)
    assert type(caught.value).__name__ == "SimulationError"
    name = instruction.split()[0]
    assert str(caught.value) == (
        f"bad operands for {name}: {operands!r} (instruction {instruction})"
    )
    assert machine.cycle == 14
