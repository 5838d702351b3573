"""Exhaustive unit tests for the (72, 64) SECDED code and its SDRAM hookup.

ROADMAP item 3 flags `memory/secded.py` as effectively untested: the fuzzing
PR makes the SECDED path load-bearing (seeded bit-flip injection), so this
file pins every branch of the encoder/decoder — every single-bit position in
every region of the codeword (data, Hamming check, overall parity), the
double-bit detected-uncorrectable path with syndrome accounting, and the
corrected/detected counters of the `Sdram` model including their snapshot
round-trip and pre-counter snapshot back-compat.

`_reference_encode` and `_reference_decode` are the positional loops the
module was first written with, kept here verbatim as the oracle: the codec
must give the same codeword, the same ``(data, corrected)`` pair and the same
`SecdedError` message for every input, including ints that no encode
produces (negative ones, bits above 71), because a restored snapshot can
carry any int.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro import MMachine, MachineConfig
from repro.memory.sdram import Sdram
from repro.memory.secded import (
    CHECK_BITS,
    CODEWORD_BITS,
    DATA_BITS,
    SecdedError,
    _CHECK_POSITIONS,
    _DATA_POSITIONS,
    inject_error,
    secded_decode,
    secded_encode,
)

_WORD_MASK = (1 << DATA_BITS) - 1


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


def _reference_encode(word: int) -> int:
    """Encode a 64-bit data word into a 72-bit SECDED codeword."""
    word &= _WORD_MASK
    codeword = 0
    for bit_index, position in enumerate(_DATA_POSITIONS):
        if (word >> bit_index) & 1:
            codeword |= 1 << position
    # Hamming check bits.
    for i, position in enumerate(_CHECK_POSITIONS):
        covered = 0
        for pos in range(1, CODEWORD_BITS):
            if pos & position and (codeword >> pos) & 1:
                covered ^= 1
        if covered:
            codeword |= 1 << position
    # Overall parity over positions 1..71 stored at position 0.
    if _parity(codeword >> 1):
        codeword |= 1
    return codeword


def _reference_decode(codeword: int):
    """Decode a 72-bit codeword.

    Returns ``(data_word, corrected)`` where *corrected* is True when a
    single-bit error was found and repaired.

    Raises
    ------
    SecdedError
        When a double-bit error is detected.
    """
    syndrome = 0
    for i, position in enumerate(_CHECK_POSITIONS):
        covered = 0
        for pos in range(1, CODEWORD_BITS):
            if pos & position and (codeword >> pos) & 1:
                covered ^= 1
        if covered:
            syndrome |= position
    overall = _parity(codeword)

    corrected = False
    if syndrome != 0 and overall == 1:
        # Single-bit error at position `syndrome`: correct it.
        codeword ^= 1 << syndrome
        corrected = True
    elif syndrome != 0 and overall == 0:
        # Non-zero syndrome but even overall parity: two bits flipped.
        raise SecdedError(f"uncorrectable double-bit error (syndrome {syndrome:#x})")
    elif syndrome == 0 and overall == 1:
        # The parity bit itself flipped; data is intact.
        codeword ^= 1
        corrected = True

    data = 0
    for bit_index, position in enumerate(_DATA_POSITIONS):
        if (codeword >> position) & 1:
            data |= 1 << bit_index
    return data, corrected


def _outcome(decode, codeword):
    """What *decode* makes of *codeword*: its result or its error message."""
    try:
        return decode(codeword)
    except SecdedError as error:
        return "SecdedError", str(error)


WORD = st.integers(min_value=0, max_value=_WORD_MASK)

#: 1-3 distinct flips inside the codeword.
FLIPS = st.lists(
    st.integers(min_value=0, max_value=CODEWORD_BITS - 1), min_size=1, max_size=3, unique=True
)

WORDS = [
    0,
    1,
    0xDEADBEEF,
    (1 << 64) - 1,
    0x0123_4567_89AB_CDEF,
    0xA5A5_5A5A_0F0F_F0F0,
    1 << 63,
]


class TestCodeGeometry:
    def test_codeword_layout(self):
        assert DATA_BITS == 64
        assert CHECK_BITS == 7
        assert CODEWORD_BITS == 72
        assert len(_DATA_POSITIONS) == DATA_BITS
        assert len(_CHECK_POSITIONS) == CHECK_BITS
        # Data, check and parity positions partition the codeword.
        occupied = set(_DATA_POSITIONS) | set(_CHECK_POSITIONS) | {0}
        assert occupied == set(range(CODEWORD_BITS))

    def test_encode_masks_to_64_bits(self):
        assert secded_encode(1 << 64) == secded_encode(0)
        assert secded_encode((1 << 65) | 5) == secded_encode(5)


class TestReference:
    """The codec against the positional loops it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers())
    def test_encode_matches_reference(self, word):
        assert secded_encode(word) == _reference_encode(word)

    @settings(max_examples=200, deadline=None)
    @given(WORD)
    def test_clean_decode_matches_reference(self, word):
        codeword = _reference_encode(word)
        assert _outcome(secded_decode, codeword) == _outcome(_reference_decode, codeword)

    @settings(max_examples=300, deadline=None)
    @given(WORD, FLIPS)
    def test_flipped_decode_matches_reference(self, word, flips):
        codeword = inject_error(_reference_encode(word), flips)
        assert _outcome(secded_decode, codeword) == _outcome(_reference_decode, codeword)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(), st.integers(min_value=-(1 << 90), max_value=1 << 90)))
    def test_any_int_decodes_like_reference(self, codeword):
        # Negative ints and bits above 71: a restored snapshot can hold them.
        assert _outcome(secded_decode, codeword) == _outcome(_reference_decode, codeword)


class TestRoundTrip:
    @pytest.mark.parametrize("word", WORDS)
    def test_clean_decode(self, word):
        data, corrected = secded_decode(secded_encode(word))
        assert data == word
        assert not corrected


class TestSingleBitCorrection:
    @pytest.mark.parametrize("word", [0, (1 << 64) - 1, 0xA5A5_5A5A_0F0F_F0F0])
    def test_every_position_corrected(self, word):
        codeword = secded_encode(word)
        for position in range(CODEWORD_BITS):
            data, corrected = secded_decode(inject_error(codeword, [position]))
            assert data == word, f"flip at bit {position} not corrected"
            assert corrected

    def test_data_bit_flip_corrected(self):
        codeword = secded_encode(0x1234)
        flipped = inject_error(codeword, [_DATA_POSITIONS[17]])
        assert secded_decode(flipped) == (0x1234, True)

    def test_check_bit_flip_leaves_data_intact(self):
        # A flipped Hamming check bit yields its own position as syndrome;
        # the data bits are untouched either way.
        codeword = secded_encode(0xFEED)
        for position in _CHECK_POSITIONS:
            assert secded_decode(inject_error(codeword, [position])) == (0xFEED, True)

    def test_parity_bit_flip_is_the_syndrome_zero_branch(self):
        # Position 0 is the overall parity bit: flipping it gives syndrome 0
        # with odd overall parity, the third corrected branch of the decoder.
        codeword = secded_encode(0xBEEF)
        assert secded_decode(inject_error(codeword, [0])) == (0xBEEF, True)


class TestDoubleBitDetection:
    @pytest.mark.parametrize("word", [0, 0xDEADBEEF, (1 << 64) - 1])
    def test_every_pair_detected_like_reference(self, word):
        codeword = secded_encode(word)
        pairs = list(combinations(range(CODEWORD_BITS), 2))
        assert len(pairs) == 2556
        for pair in pairs:
            flipped = inject_error(codeword, pair)
            expected = _outcome(_reference_decode, flipped)
            assert expected[0] == "SecdedError", pair
            assert _outcome(secded_decode, flipped) == expected, pair

    def test_parity_plus_data_pair_detected(self):
        # Parity bit + any other bit: non-zero syndrome with even overall
        # parity, so it must land in the uncorrectable branch.
        codeword = secded_encode(42)
        with pytest.raises(SecdedError):
            secded_decode(inject_error(codeword, [0, _DATA_POSITIONS[5]]))

    def test_spread_pairs_detected(self):
        codeword = secded_encode(0x0F0F_F0F0_A5A5_5A5A)
        for pair in [(1, 64), (2, 71), (3, 40), (8, 9), (33, 66)]:
            with pytest.raises(SecdedError):
                secded_decode(inject_error(codeword, list(pair)))

    def test_syndrome_reported(self):
        with pytest.raises(SecdedError, match="syndrome"):
            secded_decode(inject_error(secded_encode(7), [3, 40]))


class TestInjectError:
    def test_flips_are_involutive(self):
        codeword = secded_encode(99)
        assert inject_error(inject_error(codeword, [7, 13]), [13, 7]) == codeword

    @pytest.mark.parametrize("position", [-1, CODEWORD_BITS, 1000])
    def test_out_of_range_positions_rejected(self, position):
        with pytest.raises(ValueError):
            inject_error(secded_encode(1), [position])


class TestSdramAccounting:
    def test_corrected_counter_and_scrub(self):
        sdram = Sdram()
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [5])
        assert sdram.read_word(3) == 777
        assert (sdram.corrected_errors, sdram.detected_errors) == (1, 0)
        # The scrub rewrote the codeword: a second read is clean.
        assert sdram.read_word(3) == 777
        assert (sdram.corrected_errors, sdram.detected_errors) == (1, 0)

    def test_detected_counter_increments_per_failed_read(self):
        sdram = Sdram()
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [5, 9])
        for attempt in range(1, 3):
            with pytest.raises(SecdedError):
                sdram.read_word(3)
            assert sdram.detected_errors == attempt
        assert sdram.corrected_errors == 0

    def test_mixed_workload_accounting(self):
        sdram = Sdram()
        for address in range(8):
            sdram.write_word(address, 1000 + address)
        for address in (1, 4, 6):
            sdram.inject_bit_error(address, [address + 10])
        sdram.inject_bit_error(7, [2, 30])
        values = [sdram.read_word(address) for address in range(7)]
        assert values == [1000 + address for address in range(7)]
        with pytest.raises(SecdedError):
            sdram.read_word(7)
        assert (sdram.corrected_errors, sdram.detected_errors) == (3, 1)

    @pytest.mark.parametrize("positions", [[72], [80], [-1], [5, 72]])
    def test_injection_outside_the_codeword_rejected(self, positions):
        sdram = Sdram()
        sdram.write_word(3, 777)
        before = sdram.state_dict()["words"]
        with pytest.raises(ValueError, match="outside the 72-bit codeword"):
            sdram.inject_bit_error(3, positions)
        # Nothing was stored, not even a valid flip named before the bad one.
        assert sdram.state_dict()["words"] == before
        assert sdram.read_word(3) == 777
        assert (sdram.corrected_errors, sdram.detected_errors) == (0, 0)

    def test_bools_are_stored_as_codewords(self):
        sdram = Sdram()
        sdram.write_word(3, True)
        sdram.write_word(4, False)
        assert sdram.read_word(3) == 1 and sdram.read_word(4) == 0
        assert (sdram.corrected_errors, sdram.detected_errors) == (0, 0)

    def test_bool_written_through_the_machine_loads_unchanged(self):
        machine = MMachine(MachineConfig.single_node())
        machine.map_on_node(0, 0x40000)
        machine.write_word(0x40000, True)
        machine.write_word(0x40001, False)
        machine.load_hthread(0, 0, 0, "ld i5, i1\nld i6, i1, #1\nhalt",
                             registers={"i1": 0x40000})
        machine.run_until_user_done(max_cycles=10_000)
        assert machine.register_value(0, 0, 0, "i5") == 1
        assert machine.register_value(0, 0, 0, "i6") == 0
        assert machine.nodes[0].sdram.corrected_errors == 0

    def test_injection_rejects_tagged_words(self):
        sdram = Sdram()
        sdram.write_word(3, 1.5)
        with pytest.raises(RuntimeError):
            sdram.inject_bit_error(3, [5])

    def test_counters_survive_snapshot_round_trip(self):
        sdram = Sdram()
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [1])
        sdram.write_word(4, 888)
        sdram.inject_bit_error(4, [2, 9])
        sdram.read_word(3)
        with pytest.raises(SecdedError):
            sdram.read_word(4)
        state = sdram.state_dict()
        restored = Sdram()
        restored.load_state_dict(state)
        assert restored.corrected_errors == 1
        assert restored.detected_errors == 1
        # The poisoned codeword travels through the snapshot verbatim.
        with pytest.raises(SecdedError):
            restored.read_word(4)
        assert restored.detected_errors == 2

    def test_snapshots_without_detected_counter_still_load(self):
        sdram = Sdram()
        sdram.write_word(3, 777)
        state = sdram.state_dict()
        del state["detected_errors"]
        restored = Sdram()
        restored.load_state_dict(state)
        assert restored.detected_errors == 0
        assert restored.read_word(3) == 777
