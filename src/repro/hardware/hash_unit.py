"""Hardware hash unit for Rule Filter addressing.

Section IV.A of the paper: *"The final address to store each rule in the Rule
Filter block is performed using a hash function implemented in hardware"*, and
section IV.C.1: the highest-priority labels of every field are *"merged in one
large data segment (68 bits) in which a hash function is used to obtain the
HPMR address"*.

The model implements a simple multiplicative/XOR-fold hash over the packed
68-bit label key, plus linear probing for collision resolution so the
behavioural model never loses a rule to a hash collision (the FPGA design
would size the table and pick the hash to make collisions rare; the probing
steps are visible in the access counts, so collision cost is still modelled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import ConfigurationError

try:  # NumPy backs hash_batch and hash_limbs; the scalar path needs nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

__all__ = ["LabelKeyLayout", "HashUnit", "DEFAULT_LABEL_LAYOUT"]


@dataclass(frozen=True)
class LabelKeyLayout:
    """Bit widths used to pack per-field labels into the combined key.

    The paper uses 13-bit IP-segment labels, 7-bit port labels and a 2-bit
    protocol label, giving 4x13 + 2x7 + 2 = 68 bits.
    """

    ip_label_bits: int = 13
    port_label_bits: int = 7
    protocol_label_bits: int = 2

    @property
    def total_bits(self) -> int:
        """Width of the packed key in bits (68 with the paper's layout)."""
        return 4 * self.ip_label_bits + 2 * self.port_label_bits + self.protocol_label_bits

    def field_widths(self) -> Tuple[int, ...]:
        """Per-component widths in canonical order.

        Order: src-IP-high, src-IP-low, dst-IP-high, dst-IP-low, src-port,
        dst-port, protocol — the same order the label combiner produces.
        """
        return (
            self.ip_label_bits,
            self.ip_label_bits,
            self.ip_label_bits,
            self.ip_label_bits,
            self.port_label_bits,
            self.port_label_bits,
            self.protocol_label_bits,
        )

    def pack(self, labels: Sequence[int]) -> int:
        """Pack seven per-field label values into the combined integer key."""
        widths = self.field_widths()
        if len(labels) != len(widths):
            raise ConfigurationError(
                f"expected {len(widths)} labels to pack, got {len(labels)}"
            )
        key = 0
        for label, width in zip(labels, widths):
            if label < 0 or label >= (1 << width):
                raise ConfigurationError(
                    f"label value {label} does not fit in {width} bits"
                )
            key = (key << width) | label
        return key

    def shifts(self) -> Tuple[int, ...]:
        """Per-component left-shift amounts of :meth:`pack`, canonical order.

        ``pack(labels) == OR(label << shift for label, shift in
        zip(labels, shifts()))`` — the one derivation shared by the fast
        packer and the combiner's staged walks.
        """
        amounts = []
        total = 0
        for width in reversed(self.field_widths()):
            amounts.append(total)
            total += width
        return tuple(reversed(amounts))

    def make_packer(self):
        """Return a fast ``labels -> key`` closure equivalent to :meth:`pack`.

        The closure precomputes the per-field shift amounts and skips the
        range validation — callers feed it labels that already passed through
        the label tables, so the checks :meth:`pack` performs for arbitrary
        input are redundant on the lookup hot path.  ``pack(labels) ==
        make_packer()(labels)`` for every valid label sequence.
        """
        s0, s1, s2, s3, s4, s5, s6 = self.shifts()

        def fast_pack(labels, _s0=s0, _s1=s1, _s2=s2, _s3=s3, _s4=s4, _s5=s5, _s6=s6):
            l0, l1, l2, l3, l4, l5, l6 = labels
            return (
                (l0 << _s0) | (l1 << _s1) | (l2 << _s2) | (l3 << _s3)
                | (l4 << _s4) | (l5 << _s5) | (l6 << _s6)
            )

        return fast_pack

    def unpack(self, key: int) -> Tuple[int, ...]:
        """Inverse of :meth:`pack`."""
        widths = self.field_widths()
        values = []
        for width in reversed(widths):
            values.append(key & ((1 << width) - 1))
            key >>= width
        return tuple(reversed(values))


#: Layout used throughout the library unless a caller overrides it.
DEFAULT_LABEL_LAYOUT = LabelKeyLayout()


class HashUnit:
    """Multiplicative/XOR-fold hash with a power-of-two table size."""

    #: 64-bit odd multiplicative constant (splitmix64 finaliser flavour).
    _MULTIPLIER = 0x9E3779B97F4A7C15
    #: The finaliser's second multiplier.
    _MIXER = 0xBF58476D1CE4E5B9

    def __init__(self, table_bits: int = 14) -> None:
        if not 1 <= table_bits <= 30:
            raise ConfigurationError(f"table_bits must be in [1, 30], got {table_bits}")
        self.table_bits = table_bits

    @property
    def table_size(self) -> int:
        """Number of slots the hash addresses (2**table_bits)."""
        return 1 << self.table_bits

    def hash(self, key: int) -> int:
        """Map a packed label key to a table slot index."""
        if key < 0:
            raise ConfigurationError(f"hash keys must be non-negative, got {key}")
        value = key & 0xFFFFFFFFFFFFFFFF
        # Fold anything above 64 bits back in so the full 68-bit key matters.
        value ^= key >> 64
        value = (value * self._MULTIPLIER) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 29
        value = (value * self._MIXER) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 32
        return value & (self.table_size - 1)

    def hash_batch(self, keys: Sequence[int]) -> List[int]:
        """Vectorized :meth:`hash` over many keys (bit-identical per key).

        Keys are split into two 64-bit limbs and mixed by :meth:`hash_limbs`
        when NumPy is available and the batch is big enough to amortise the
        array round-trip; otherwise one loop mixes every key as :meth:`hash`
        does, with the masks and multipliers hoisted out of it.  Callers pass
        packed label keys, which are non-negative by construction, so the
        loop skips :meth:`hash`'s sign check.
        """
        mask64 = 0xFFFFFFFFFFFFFFFF
        if _np is None or len(keys) < 32:
            multiplier = self._MULTIPLIER
            mixer = self._MIXER
            slot_mask = self.table_size - 1
            slots = []
            for key in keys:
                value = (((key & mask64) ^ (key >> 64)) * multiplier) & mask64
                value ^= value >> 29
                value = (value * mixer) & mask64
                slots.append((value ^ (value >> 32)) & slot_mask)
            return slots
        count = len(keys)
        low = _np.fromiter((key & mask64 for key in keys), dtype=_np.uint64, count=count)
        # hash() folds every bit above 63 in before a multiply masked to 64
        # bits, so only the low 64 bits of ``key >> 64`` reach the slot.
        high = _np.fromiter(
            ((key >> 64) & mask64 for key in keys), dtype=_np.uint64, count=count
        )
        return self.hash_limbs(low, high).tolist()

    def hash_limbs(self, low, high):
        """:meth:`hash` over NumPy ``uint64`` limb arrays, as ``int64`` slots.

        ``low`` holds bits 0-63 of each key and ``high`` its bits 64-127 (the
        low 64 bits of ``key >> 64``).  The splitmix-style mixing runs as
        ``uint64`` arithmetic, which wraps modulo 2**64 exactly like the
        masked Python arithmetic of :meth:`hash`.
        """
        value = low ^ high
        value *= _np.uint64(self._MULTIPLIER)
        value ^= value >> _np.uint64(29)
        value *= _np.uint64(self._MIXER)
        value ^= value >> _np.uint64(32)
        value &= _np.uint64(self.table_size - 1)
        return value.astype(_np.int64)

    def probe_sequence(self, key: int, limit: int):
        """Yield the first ``limit`` linear-probing slots for ``key``.

        The sequence is generated lazily: callers normally stop at the first
        empty slot, so materialising the full table-sized sequence would be
        wasted work.
        """
        if limit <= 0:
            raise ConfigurationError(f"probe limit must be positive, got {limit}")
        start = self.hash(key)
        mask = self.table_size - 1
        return ((start + offset) & mask for offset in range(limit))
