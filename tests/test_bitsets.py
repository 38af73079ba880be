import re

import pytest
from hypothesis import example, given, strategies as st

from valsketch import bitsets
from valsketch.errors import MalformedBundleError

masks = st.integers(min_value=0, max_value=(1 << 20) - 1)
# dense and sparse bitsets over 2048 items, the xos-demand benchmark's n
wide_masks = st.one_of(
    st.integers(min_value=0, max_value=(1 << 2048) - 1),
    st.sets(st.integers(min_value=0, max_value=2047)).map(bitsets.from_items),
)


def test_from_items_round_trip():
    assert bitsets.from_items([0, 3, 5]) == 0b101001
    assert list(bitsets.iter_items(0b101001)) == [0, 3, 5]
    assert list(bitsets.iter_items(0)) == []


@pytest.mark.parametrize("items", [[0, -1], [-5], [True], [2, False]])
def test_from_items_refuses_negative_and_bool(items):
    with pytest.raises(MalformedBundleError, match=f"item {items[-1]!r} "):
        bitsets.from_items(items)


def test_hex_round_trip_examples():
    assert bitsets.to_hex(0) == "0"
    assert bitsets.to_hex(0xF) == "f"
    assert bitsets.from_hex("1a") == 26


def test_from_hex_rejects_negative():
    with pytest.raises(MalformedBundleError):
        bitsets.from_hex("-4")


@pytest.mark.parametrize(
    "text", ["0x3", " +1 ", "+1", "1_0", "03", "00", "", " 1", "1\n", "\u0663", "\uff11",
             "zz", "0x", "-", "g1", "1.0"]
)
def test_from_hex_refuses_other_spellings(text):
    # each would parse, or fail to, differently from the bare form serialize writes;
    # the error names the text, also where int() refuses it
    with pytest.raises(MalformedBundleError, match=re.escape(f"bundle {text!r} is not bare")):
        bitsets.from_hex(text)


def test_base64_examples():
    # the shortest little-endian bytes: item 0 is bit 0 of the first byte
    assert bitsets.to_base64(0) == ""
    assert bitsets.to_base64(1) == "AQ=="
    assert bitsets.to_base64(1 << 8) == "AAE="
    assert bitsets.to_base64(0xFFFFFF) == "////"
    assert bitsets.from_base64("AQID") == 0x030201


@given(wide_masks)
@example(0)
@example(1)
@example(1 << 7)
@example(1 << 8)
@example(1 << 63)
@example(1 << 64)
@example(1 << 2047)
@example((1 << 2048) - 1)
def test_base64_round_trip(mask):
    text = bitsets.to_base64(mask)
    assert bitsets.from_base64(text) == mask
    assert len(text) == ((mask.bit_length() + 7) // 8 + 2) // 3 * 4


@pytest.mark.parametrize(
    "text",
    [
        "AQ== ", " AQ==", "A Q==", "AQ==\n", "AQ\n==",  # a2b_base64 skips spaces and newlines
        "-_8=", "_w==", "+-8=",  # url-safe characters (to_base64 writes + and /)
        "AQ==AQ==", "AQ==A", "AQ===",  # text after the padding
        "AQ", "AQ=", "AQI", "A", "=", "==",  # missing or short padding
        "AA==", "AAA=", "AQAA", "AAAA",  # a trailing zero byte, or only zero bytes
        "AR==", "AQJ=", "Af==", "/9/=",  # nonzero unused bits in the last character
        "AQ\u00e9=", "\u0661Q==", "\uff21Q==",  # non-ASCII text
        "0x1", "1", "ff",  # hex, as a v1 file writes bundles
    ],
)
def test_from_base64_refuses_other_spellings(text):
    with pytest.raises(MalformedBundleError, match=re.escape(f"bundle {text!r} is not canonical")):
        bitsets.from_base64(text)


def test_check_bundle():
    bitsets.check_bundle(0b111, 3)
    with pytest.raises(MalformedBundleError):
        bitsets.check_bundle(0b1000, 3)
    with pytest.raises(MalformedBundleError):
        bitsets.check_bundle(-1, 3)


@given(masks)
def test_hex_round_trip(mask):
    assert bitsets.from_hex(bitsets.to_hex(mask)) == mask


@given(masks)
def test_items_round_trip(mask):
    items = list(bitsets.iter_items(mask))
    assert bitsets.from_items(items) == mask
    assert len(items) == mask.bit_count()


@given(st.integers(min_value=0, max_value=(1 << 14) - 1))
def test_submasks_ascending_and_complete(mask):
    seen = list(bitsets.submasks(mask))
    assert seen[0] == 0 and seen[-1] == mask
    assert all(a < b for a, b in zip(seen, seen[1:]))
    assert len(seen) == 1 << mask.bit_count()
    assert all(sub & mask == sub for sub in seen)


@given(masks.filter(lambda m: m > 0))
def test_lower_half_splits_by_id(mask):
    left = bitsets.lower_half(mask)
    right = mask ^ left
    assert left | right == mask and left & right == 0
    assert left.bit_count() == (mask.bit_count() + 1) // 2
    if right:
        assert max(bitsets.iter_items(left)) < min(bitsets.iter_items(right))


def _prefix_by_peeling(mask, count):
    """Reference: peel the lowest set bit until count bits are taken."""
    out = 0
    for _ in range(min(count, mask.bit_count())):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


@given(wide_masks)
def test_lower_half_matches_peeling(mask):
    assert bitsets.lower_half(mask) == _prefix_by_peeling(mask, (mask.bit_count() + 1) // 2)


@given(wide_masks, st.integers(min_value=0, max_value=2100))
@example(0, 0)
@example(0, 3)
@example(0b1011, 0)
@example(0b1011, 3)
@example(0b1011, 4)
@example((1 << 2047) | 1, 2)
def test_prefix_matches_peeling(mask, count):
    assert bitsets.prefix(mask, count) == _prefix_by_peeling(mask, count)


@given(wide_masks)
@example(0)
@example(1 << 2047)
def test_prefix_of_one_is_the_lowest_item(mask):
    assert bitsets.prefix(mask, 1) == _prefix_by_peeling(mask, 1)
    assert bitsets.chunks(mask, 1) == _chunks_by_walking(mask, 1)


def _chunks_by_walking(mask, k):
    """Reference: walk the items in ascending order, closing a block at k."""
    out, block, count = [], 0, 0
    for j in bitsets.iter_items(mask):
        block |= 1 << j
        count += 1
        if count == k:
            out.append(block)
            block, count = 0, 0
    if block:
        out.append(block)
    return out


@given(masks, st.integers(min_value=1, max_value=8))
def test_chunks_partition_in_order(mask, k):
    blocks = bitsets.chunks(mask, k)
    union = 0
    for block in blocks:
        assert block.bit_count() <= k
        assert union & block == 0
        union |= block
    assert union == mask
    assert all(b.bit_count() == k for b in blocks[:-1])


@given(wide_masks, st.integers(min_value=1, max_value=300))
@example(0, 1)
@example(0b1011, 3)
@example(0b1011, 100)
@example(0b11 << 63, 1)  # items 63 and 64: a cut between two words
@example((1 << 64) - 1, 64)  # one full word, one block
@example((1 << 2048) - 1, 46)  # cuts inside words and on word ends
def test_chunks_matches_item_walk(mask, k):
    assert bitsets.chunks(mask, k) == _chunks_by_walking(mask, k)


@given(wide_masks)
@example(0)
@example(1)
@example(1 << 63)
@example(1 << 64)  # the first item of a second word
@example(1 << 511)
@example((1 << 2048) - 1)
def test_item_ids_matches_iter_items(mask):
    assert bitsets.item_ids(mask) == list(bitsets.iter_items(mask))
    assert all(type(j) is int for j in bitsets.item_ids(mask))


def test_chunks_rejects_bad_block_size():
    with pytest.raises(ValueError):
        bitsets.chunks(0b111, 0)


def test_full_mask():
    assert bitsets.full_mask(0) == 0
    assert bitsets.full_mask(4) == 0xF
