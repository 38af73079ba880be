"""Bundles as dense bitsets.

A bundle over the ground set {0, ..., n-1} is a plain int: bit j is set iff
item j is in the bundle. A sketch file writes it as padded standard base64
of its shortest little-endian bytes, so bit 0 of the first byte stands for
item 0: every bundle in schema v2 and v3, a group's items in v4, whose
member table is one deflated stream of fixed-width entries. v1 files and
the command line use lowercase hex.
"""

import binascii

import numpy as np

from .errors import MalformedBundleError


def from_items(items) -> int:
    """The bundle of the given item ids; a negative id or a bool is refused."""
    mask = 0
    for j in items:
        if j < 0 or j is True or j is False:
            raise MalformedBundleError(f"item {j!r} is not a nonnegative integer id")
        mask |= 1 << j
    return mask


def check_ids(ids, bound: int, what: str) -> None:
    """Refuse an id of `bound` or more before `from_items` shifts by it:
    1 << j is an int of j / 8 bytes, so an id read from a file is bounded first."""
    for j in ids:
        if j >= bound:
            raise MalformedBundleError(f"{what} {j!r} is outside 0..{bound - 1}")


def iter_items(mask: int):
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def item_ids(mask: int) -> list[int]:
    """The set bit positions in ascending order, as a list read in one numpy pass."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def to_words(masks, n: int) -> np.ndarray:
    """Row i holds masks[i] < 2^n as ceil(n/64) little-endian uint64 words."""
    width = (n + 63) // 64
    raw = b"".join([m.to_bytes(8 * width, "little") for m in masks])
    return np.frombuffer(raw, dtype="<u8").reshape(-1, width)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_bundle(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise MalformedBundleError(f"bundle {mask:#x} uses items outside 0..{n - 1}")


def to_hex(mask: int) -> str:
    return format(mask, "x")


def from_hex(text: str) -> int:
    """Parse the serialized form, refusing other spellings int() accepts:
    a sign, 0x, underscores, spaces, leading zeros, non-ASCII digits.
    Uppercase digits pass; to_hex writes them back in lowercase."""
    try:
        mask = int(text, 16)
    except ValueError:  # no digits, or a character that is not one
        mask = None
    # any sign, prefix, separator, space or leading zero makes the text longer
    if mask is None or len(text) != ((mask.bit_length() + 3) >> 2 or 1) or not text.isascii():
        raise MalformedBundleError(f"bundle {text!r} is not bare lowercase hex")
    return mask


def encode_base64(raw: bytes) -> str:
    """Padded standard base64 of raw, with no newline."""
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def to_base64(mask: int) -> str:
    return encode_base64(mask.to_bytes((mask.bit_length() + 7) // 8, "little"))


# the characters whose unused low bits are zero, before one and before two pads
_LAST_BEFORE_PADS = {1: "AEIMQUYcgkosw048", 2: "AQgw"}


def decode_base64(text: str) -> bytes | None:
    """The bytes of encode_base64's output, or None for any other text.
    a2b_base64 skips what is not in the alphabet (spaces, newlines,
    url-safe - and _) and stops at the padding, so a skipped character
    makes the text longer than its bytes need. Also refused: nonzero
    unused bits in the last character, non-ASCII text."""
    try:
        raw = binascii.a2b_base64(text)
    except ValueError:  # binascii.Error (bad padding) or non-ASCII text
        return None
    pads = -len(raw) % 3
    if (len(text) != (len(raw) + pads) // 3 * 4
            or pads and text[-1 - pads] not in _LAST_BEFORE_PADS[pads]):
        return None
    return raw


def from_base64(text: str) -> int:
    """Parse to_base64's output and nothing else: decode_base64's text,
    without a trailing zero byte."""
    raw = decode_base64(text)
    if raw is None or raw[-1:] == b"\0":
        raise MalformedBundleError(f"bundle {text!r} is not canonical base64")
    return int.from_bytes(raw, "little")


def submasks(mask: int):
    """All submasks of mask in ascending numeric order, 0 and mask included."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def prefix(mask: int, count: int) -> int:
    """The `count` smallest-id items of mask, or all of them if it has fewer:
    the shortest low-bit prefix holding that many, found by bisecting on its
    length. One item is the lowest set bit, read off directly."""
    if count == 1:
        return mask & -mask
    lo, hi = 0, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() >= count:
            hi = mid
        else:
            lo = mid + 1
    return mask & ((1 << lo) - 1)


def lower_half(mask: int) -> int:
    """The smaller-id half of a nonempty bitset, rounded up."""
    return prefix(mask, (mask.bit_count() + 1) // 2)


def chunks(mask: int, k: int) -> list[int]:
    """Split into consecutive ascending-id blocks of at most k items each, in
    one pass over the 64-bit words of mask: a block is cut at its k-th item."""
    if k < 1:
        raise ValueError("block size must be at least 1")
    out, need, low = [], k, 0  # need: the open block's missing items; low: mask below the last cut
    words = np.frombuffer(mask.to_bytes(8 * ((mask.bit_length() + 63) // 64), "little"), "<u8")
    for i, word in enumerate(words.tolist()):
        count = word.bit_count()
        while count >= need:
            head = prefix(word, need)
            word ^= head
            cut = mask & ((1 << (64 * i + head.bit_length())) - 1)
            out.append(cut ^ low)
            low, count, need = cut, count - need, k
        need -= count
    if mask != low:
        out.append(mask ^ low)
    return out
