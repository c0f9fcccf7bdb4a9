"""Pluggable packed-word kernels for the bitset mask substrate.

Every hot loop of the partitioning engines — K-L gain scans, cut-evaluator
closure/IO probes, frontier-stack popcounts, genetic chromosome scoring —
bottoms out in AND/OR/popcount over node-set *masks*.  The canonical mask
representation is a Python big-int with bit ``i`` = node ``i`` (arbitrary
width, hashable, picklable); this module abstracts the *operations* over
masks and over per-node mask **tables** behind a small kernel protocol so
the heavy batched scans can run on packed ``uint64`` lane arrays instead of
one big-int op per row:

* :class:`PurePythonKernel` — the current big-int semantics, extracted
  unchanged.  It is the reference implementation and the only one required
  at runtime (the package must import and pass tier-1 without numpy).
* :class:`NumpyKernel` — masks as little-endian ``uint64`` lane vectors,
  tables as ``(rows, lanes)`` arrays, row-parallel ops via
  ``numpy.bitwise_count`` / ``bitwise_or.reduce``.  All table ops are pure
  integer arithmetic, so results are bit-identical to the pure kernel's by
  construction; the Hypothesis differential suite pins it.

The block's size chooses the kernel, in :func:`kernel_for` alone: numpy
when it is importable and the block's masks need more than one ``uint64``
lane (more than 64 nodes), pure otherwise.  Measured on K-L runs, pure is
the faster kernel up to about 45 nodes and numpy from about 80, with the
two level in between (PERFORMANCE.md, "Mask kernels").  Scalar mask math
(single AND/popcount on one big-int) stays on the big-int fast path in both
kernels: converting an int to lanes costs more than the op it would
accelerate, so the numpy kernel only pays the conversion for *batched*
table scans.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ..errors import ISEGenError

#: Bits per numpy lane: blocks with more nodes than this run on numpy.
LANE_BITS = 64

_np = None
_np_checked = False


def _numpy_module():
    """The numpy module when usable as a mask kernel backend, else None.

    Requires ``numpy.bitwise_count`` (numpy >= 2.0); older numpys are
    treated as absent rather than partially supported.
    """
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy

            if hasattr(numpy, "bitwise_count"):
                _np = numpy
        except ImportError:  # pragma: no cover - depends on environment
            _np = None
    return _np


def numpy_available() -> bool:
    """Whether the numpy kernel can be constructed in this environment."""
    return _numpy_module() is not None


class MaskKernel:
    """Protocol for mask and mask-table operations.

    Masks at the protocol boundary are always Python big-ints (bit ``i`` =
    row/node ``i``); tables are kernel-owned handles built by
    :meth:`make_table`, so each kernel stores rows in its native packing.
    Scalar results (counts, masks) are plain ints; batched results are
    sequences indexable like lists.
    """

    name: str = "abstract"

    # -- scalar mask ops ------------------------------------------------
    def and_(self, a: int, b: int) -> int:
        return a & b

    def or_(self, a: int, b: int) -> int:
        return a | b

    def andnot(self, a: int, b: int) -> int:
        """``a & ~b`` (the inner-loop "outside the cut" op)."""
        return a & ~b

    def popcount(self, mask: int) -> int:
        return mask.bit_count()

    def lowest_set(self, mask: int) -> int:
        """Index of the lowest set bit, ``-1`` for the empty mask."""
        if not mask:
            return -1
        return (mask & -mask).bit_length() - 1

    def iter_set_bits(self, mask: int) -> Iterator[int]:
        """Set-bit indices in ascending order (low-bit extraction)."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # -- table ops (implemented per kernel) -----------------------------
    def make_table(self, masks: Sequence[int], num_bits: int):
        raise NotImplementedError

    def table_row(self, table, row: int) -> int:
        """Row *row* of the table as a big-int mask."""
        raise NotImplementedError

    def popcount_many(self, table) -> Sequence[int]:
        """Per-row popcount over the whole table."""
        raise NotImplementedError

    def and_popcount_many(self, table, mask: int) -> Sequence[int]:
        """Per-row ``popcount(row & mask)`` over the whole table."""
        raise NotImplementedError

    def union_selected(self, table, selector: int) -> int:
        """OR of the rows whose index is a set bit of *selector*."""
        raise NotImplementedError

    def nonzero_rows_and(self, table, mask: int) -> int:
        """Bitmask of the rows with ``row & mask != 0``."""
        raise NotImplementedError


class PurePythonKernel(MaskKernel):
    """Reference kernel: tables are plain lists of Python big-ints.

    The table ops below are the exact loops the consumers ran before the
    kernel layer existed, kept as the executable specification the numpy
    kernel is differentially tested against.
    """

    name = "pure"

    def make_table(self, masks: Sequence[int], num_bits: int) -> list[int]:
        del num_bits  # big-ints carry their own width
        return list(masks)

    def table_row(self, table: list[int], row: int) -> int:
        return table[row]

    def popcount_many(self, table: list[int]) -> list[int]:
        return [mask.bit_count() for mask in table]

    def and_popcount_many(self, table: list[int], mask: int) -> list[int]:
        return [(row & mask).bit_count() for row in table]

    def union_selected(self, table: list[int], selector: int) -> int:
        union = 0
        while selector:
            low = selector & -selector
            union |= table[low.bit_length() - 1]
            selector ^= low
        return union

    def nonzero_rows_and(self, table: list[int], mask: int) -> int:
        result = 0
        bit = 1
        for row in table:
            if row & mask:
                result |= bit
            bit <<= 1
        return result


class LaneTable:
    """A mask table packed as a ``(rows, lanes)`` uint64 array.

    ``num_bits`` is the width of the mask space the rows live in (node or
    external-id space); rows are little-endian, so lane ``j`` holds bits
    ``64*j .. 64*j+63``.
    """

    __slots__ = ("array", "num_bits")

    def __init__(self, array, num_bits: int):
        self.array = array
        self.num_bits = num_bits

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.array)


class NumpyKernel(MaskKernel):
    """uint64-lane kernel: table ops vectorized across rows with numpy.

    Only integer bitwise arithmetic is involved, so every result is
    bit-identical to :class:`PurePythonKernel`'s; the lane packing is an
    implementation detail that never leaks (masks cross the protocol
    boundary as big-ints via little-endian byte round-trips).
    """

    name = "numpy"

    def __init__(self):
        np = _numpy_module()
        if np is None:
            raise ISEGenError(
                "the numpy mask kernel requires numpy >= 2.0"
            )
        self.np = np

    # -- conversions ----------------------------------------------------
    @staticmethod
    def lane_count(num_bits: int) -> int:
        return max(1, (num_bits + 63) >> 6)

    def lanes_of(self, mask: int, num_bits: int):
        """Pack a big-int mask into a uint64 lane vector."""
        np = self.np
        lanes = self.lane_count(num_bits)
        data = mask.to_bytes(lanes * 8, "little")
        return np.frombuffer(data, dtype="<u8").astype(np.uint64)

    def mask_of_lanes(self, lanes) -> int:
        """Unpack a uint64 lane vector back into a big-int mask."""
        return int.from_bytes(self.np.ascontiguousarray(lanes).tobytes(), "little")

    def bits_of(self, mask: int, num_bits: int):
        """Expand a big-int mask into a boolean array of length *num_bits*."""
        np = self.np
        nbytes = max(1, (num_bits + 7) >> 3)
        limit = (1 << num_bits) - 1
        data = np.frombuffer((mask & limit).to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(data, count=num_bits, bitorder="little").view(np.bool_)

    def mask_of_bits(self, bits) -> int:
        """Pack a boolean array back into a big-int mask."""
        np = self.np
        data = np.packbits(np.ascontiguousarray(bits), bitorder="little")
        return int.from_bytes(data.tobytes(), "little")

    def indices_of(self, mask: int, num_bits: int):
        """Set-bit indices of *mask* as an ascending int64 array."""
        return self.np.nonzero(self.bits_of(mask, num_bits))[0]

    # -- tables ---------------------------------------------------------
    def make_table(self, masks: Sequence[int], num_bits: int) -> LaneTable:
        np = self.np
        lanes = self.lane_count(num_bits)
        width = lanes * 8
        data = b"".join(mask.to_bytes(width, "little") for mask in masks)
        array = np.frombuffer(data, dtype="<u8").astype(np.uint64)
        return LaneTable(array.reshape(len(masks), lanes), num_bits)

    def table_row(self, table: LaneTable, row: int) -> int:
        return self.mask_of_lanes(table.array[row])

    def popcount_many(self, table: LaneTable):
        np = self.np
        return np.bitwise_count(table.array).sum(axis=1, dtype=np.int64)

    def and_popcount_many(self, table: LaneTable, mask: int):
        np = self.np
        lanes = self.lanes_of(mask, table.num_bits)
        return np.bitwise_count(table.array & lanes).sum(axis=1, dtype=np.int64)

    def union_selected(self, table: LaneTable, selector: int) -> int:
        np = self.np
        rows = self.indices_of(selector, len(table.array))
        if rows.size == 0:
            return 0
        return self.mask_of_lanes(np.bitwise_or.reduce(table.array[rows], axis=0))

    def union_rows(self, table: LaneTable, rows):
        """OR of the rows given as an index array, as a lane vector."""
        np = self.np
        if rows.size == 0:
            return np.zeros(table.array.shape[1], dtype=np.uint64)
        return np.bitwise_or.reduce(table.array[rows], axis=0)

    def nonzero_rows_and(self, table: LaneTable, mask: int) -> int:
        np = self.np
        lanes = self.lanes_of(mask, table.num_bits)
        nonzero = (table.array & lanes).any(axis=1)
        return self.mask_of_bits(nonzero)


PURE_KERNEL = PurePythonKernel()
_NUMPY_KERNEL: NumpyKernel | None = None

#: Per-process tally of :func:`~repro.core.bipartition` calls by the kernel
#: each ran on — a metrics source for the telemetry registry (``repro run``
#: reports it alongside the engine trace counters; reset is per-process,
#: like ``table_builds``).
dispatch_counts: dict[str, int] = {}


def numpy_kernel() -> NumpyKernel:
    """The shared numpy kernel.

    Raises :class:`~repro.errors.ISEGenError` when numpy is absent rather
    than silently handing out the pure kernel.
    """
    global _NUMPY_KERNEL
    if _NUMPY_KERNEL is None:
        _NUMPY_KERNEL = NumpyKernel()
    return _NUMPY_KERNEL


def kernel_for(num_nodes: int) -> MaskKernel:
    """The kernel that runs a block of *num_nodes* nodes.

    Numpy when it is available and the masks span more than one lane;
    pure otherwise.
    """
    if num_nodes > LANE_BITS and numpy_available():
        return numpy_kernel()
    return PURE_KERNEL


__all__ = [
    "LANE_BITS",
    "LaneTable",
    "MaskKernel",
    "NumpyKernel",
    "PURE_KERNEL",
    "PurePythonKernel",
    "kernel_for",
    "numpy_available",
    "numpy_kernel",
]
