"""Wire format and bit accounting (§III-E).

Payload overheads are deliberately minimal:

- a 1-bit flag saying whether the data is compressed at all;
- when compressed, a 2-bit reference count (0–3);
- one RemoteLID per reference (17 bits in the off-chip buffer
  configuration, Table III);
- the variable-length DIFF. No length field is needed because the
  decompressed size is fixed at one line.

An uncompressed payload is the flag plus the raw line. The link layer
(:mod:`repro.link.channel`) packs these bit counts into 16-bit flits,
which is what caps the effective ratio at 32× for a 64-byte line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from repro.cache.setassoc import LineId
from repro.compression.base import CompressedBlock
from repro.util.kernels import DATACLASS_SLOTS

#: Compressed/uncompressed selector.
FLAG_BITS = 1
#: Number-of-references field.
REFCOUNT_BITS = 2


class PayloadKind(Enum):
    UNCOMPRESSED = "uncompressed"
    NO_REFERENCE = "no_reference"
    WITH_REFERENCES = "with_references"


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Payload:
    """One line's worth of link traffic, home → remote or back."""

    kind: PayloadKind
    line_addr: int
    line_bytes: int
    remote_lids: Tuple[LineId, ...] = ()
    block: Optional[CompressedBlock] = None
    raw: Optional[bytes] = field(default=None, repr=False)
    remotelid_bits: int = 17
    #: Line addresses of the references, in pointer order. This is
    #: *model metadata*, not wire content (hardware gets the guarantee
    #: from link ordering / the eviction-buffer protocol of §IV-A); the
    #: decoder uses it to detect stale slots and fall back to the
    #: eviction buffer. Never counted in :attr:`size_bits`.
    ref_addrs: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is PayloadKind.UNCOMPRESSED:
            if self.raw is None:
                raise ValueError("uncompressed payloads carry the raw line")
        elif self.block is None:
            raise ValueError("compressed payloads carry a CompressedBlock")
        if self.kind is PayloadKind.WITH_REFERENCES and not self.remote_lids:
            raise ValueError("with_references payloads need at least one pointer")
        if self.kind is PayloadKind.NO_REFERENCE and self.remote_lids:
            raise ValueError("no_reference payloads carry no pointers")
        if len(self.remote_lids) > 3:
            raise ValueError("at most three references fit the 2-bit count")

    @property
    def size_bits(self) -> int:
        """Exact payload size on the wire."""
        if self.kind is PayloadKind.UNCOMPRESSED:
            return FLAG_BITS + self.line_bytes * 8
        pointer_bits = len(self.remote_lids) * self.remotelid_bits
        return FLAG_BITS + REFCOUNT_BITS + pointer_bits + self.block.size_bits

    @property
    def compression_ratio(self) -> float:
        return (self.line_bytes * 8) / self.size_bits


def choose_payload(
    line_addr: int,
    line: bytes,
    with_refs: Optional[Tuple[CompressedBlock, Tuple[LineId, ...], Tuple[int, ...]]],
    no_ref: CompressedBlock,
    no_reference_threshold: float,
    remotelid_bits: int,
) -> Payload:
    """Apply §III-E's selection rule.

    The no-reference compression runs concurrently with the search; it
    wins outright when its ratio clears the threshold (such lines are
    trivially compressible — no point paying for pointers), otherwise
    the smaller of the two candidates is sent. Anything that would
    exceed the raw line is sent uncompressed.
    """
    # Decide on sizes alone, then construct exactly one Payload — this
    # runs once per encoded line, and payload construction (a frozen
    # dataclass) costs more than the whole arithmetic below.
    line_bytes = len(line)
    line_bits = line_bytes * 8
    no_ref_bits = FLAG_BITS + REFCOUNT_BITS + no_ref.size_bits
    shortcut = line_bits / no_ref_bits >= no_reference_threshold

    best_bits = no_ref_bits
    if not shortcut and with_refs is not None:
        block, lids, addrs = with_refs
        with_refs_bits = (
            FLAG_BITS + REFCOUNT_BITS + len(lids) * remotelid_bits + block.size_bits
        )
        # Ties go to no_ref (min() keeps the first minimal candidate).
        if with_refs_bits < no_ref_bits:
            best_bits = with_refs_bits
            if best_bits < FLAG_BITS + line_bits:
                return Payload(
                    kind=PayloadKind.WITH_REFERENCES,
                    line_addr=line_addr,
                    line_bytes=line_bytes,
                    remote_lids=lids,
                    block=block,
                    remotelid_bits=remotelid_bits,
                    ref_addrs=addrs,
                )
    if not shortcut and best_bits >= FLAG_BITS + line_bits:
        return Payload(
            kind=PayloadKind.UNCOMPRESSED,
            line_addr=line_addr,
            line_bytes=line_bytes,
            raw=line,
            remotelid_bits=remotelid_bits,
        )
    return Payload(
        kind=PayloadKind.NO_REFERENCE,
        line_addr=line_addr,
        line_bytes=line_bytes,
        block=no_ref,
        remotelid_bits=remotelid_bits,
    )
