"""Data-flow graph (DFG) representation of a basic block.

The DFG is the object every ISE-identification algorithm in this library
operates on.  Following the paper's problem definition (Section 2):

* nodes represent instructions of a single basic block,
* edges capture data dependencies between them,
* values flowing into the block from outside are *external inputs*,
* values consumed after the block are *live-out*,
* memory and control operations can never be part of a cut ("we do not allow
  memory access from AFUs") and additionally act as *barriers* for cut
  growth.

Every node produces at most one value, identified by the node's name.  A
node's operands are either names of other nodes in the same DFG or names of
external inputs.

The class precomputes, on :meth:`DataFlowGraph.prepare`, the data structures
the partitioning engines need in their inner loop:

* predecessor / successor index lists,
* strict ancestor / descendant sets encoded as Python-int bitsets (bit *i*
  corresponds to the node with index *i*), which make the convexity check of
  a candidate cut a couple of word operations,
* a topological order,
* per-node distances to the nearest upward / downward barrier (used by the
  "large cut" component of the gain function).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from ..errors import DFGError
from ..isa import Opcode, arity_of, hardware_delay, is_forbidden, software_cycles


def _is_latency(value) -> bool:
    """A real, finite, non-negative number (bools are not latencies)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value) and value >= 0
    except OverflowError:  # an int beyond float range
        return False


@dataclass
class DFGNode:
    """A single instruction in the data-flow graph.

    Attributes
    ----------
    index:
        Position of the node in :attr:`DataFlowGraph.nodes` (assigned when
        the graph is prepared; ``-1`` before that).
    name:
        Unique name of the value produced by this node.
    opcode:
        Operation performed by the node.
    operands:
        Names of the consumed values (other node names or external inputs).
    live_out:
        True when the produced value is consumed after the basic block and
        therefore always counts as a cut output when the node is in hardware.
    sw_latency:
        Software latency in processor cycles.
    hw_delay:
        Hardware delay normalized to a 32-bit MAC.
    forbidden:
        True when the node may never be mapped to an ISE.
    """

    name: str
    opcode: Opcode
    operands: tuple[str, ...] = ()
    live_out: bool = False
    sw_latency: int = 1
    hw_delay: float = 0.0
    forbidden: bool = False
    index: int = -1
    #: Free-form metadata (source line, kernel role, ...). Never interpreted
    #: by the algorithms; preserved by serialization.
    attrs: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(self.operands)
        return f"{self.name} = {self.opcode.value} {ops}"


class DataFlowGraph:
    """A directed acyclic graph of instructions within one basic block."""

    def __init__(self, name: str = "bb"):
        self.name = name
        self._nodes: list[DFGNode] = []
        self._by_name: dict[str, DFGNode] = {}
        self._external_inputs: list[str] = []
        self._external_set: set[str] = set()
        self._prepared = False
        # Caches filled by prepare().
        self._preds: list[tuple[int, ...]] = []
        self._succs: list[tuple[int, ...]] = []
        self._ext_operands: list[tuple[str, ...]] = []
        self._ancestors: list[int] = []
        self._descendants: list[int] = []
        self._topo_order: list[int] = []
        self._forbidden_mask = 0
        self._consumers_of_external: dict[str, tuple[int, ...]] = {}
        self._bitset_index = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_external_input(self, name: str) -> str:
        """Declare *name* as a value produced outside the basic block."""
        if name in self._by_name:
            raise DFGError(f"{name!r} is already a node of DFG {self.name!r}")
        if name not in self._external_set:
            self._external_set.add(name)
            self._external_inputs.append(name)
        self._prepared = False
        self._bitset_index = None
        return name

    def add_node(
        self,
        name: str,
        opcode: Opcode,
        operands: Sequence[str] = (),
        *,
        live_out: bool = False,
        sw_latency: int | None = None,
        hw_delay: float | None = None,
        forbidden: bool | None = None,
        attrs: Mapping | None = None,
    ) -> DFGNode:
        """Add an instruction node.

        Operands must already exist either as nodes or as external inputs;
        unknown operand names are implicitly registered as external inputs,
        which keeps kernel-construction code compact.
        """
        if name in self._by_name:
            raise DFGError(f"duplicate node name {name!r} in DFG {self.name!r}")
        if name in self._external_set:
            raise DFGError(
                f"{name!r} is already an external input of DFG {self.name!r}"
            )
        expected = arity_of(opcode)
        if expected and len(operands) != expected:
            raise DFGError(
                f"node {name!r}: opcode {opcode.value} expects {expected} "
                f"operands, got {len(operands)}"
            )
        for label, value in (("sw_latency", sw_latency), ("hw_delay", hw_delay)):
            if value is not None and not _is_latency(value):
                raise DFGError(
                    f"node {name!r}: {label} must be a finite, non-negative "
                    f"number, got {value!r}"
                )
        for operand in operands:
            if operand not in self._by_name and operand not in self._external_set:
                self.add_external_input(operand)
        node = DFGNode(
            name=name,
            opcode=opcode,
            operands=tuple(operands),
            live_out=live_out,
            sw_latency=software_cycles(opcode) if sw_latency is None else sw_latency,
            hw_delay=hardware_delay(opcode) if hw_delay is None else hw_delay,
            forbidden=is_forbidden(opcode) if forbidden is None else forbidden,
            attrs=dict(attrs or {}),
        )
        self._nodes.append(node)
        self._by_name[name] = node
        self._prepared = False
        self._bitset_index = None
        return node

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Sequence[DFGNode]:
        """All nodes in insertion order (which is a valid topological order
        because operands must exist before their consumers)."""
        return tuple(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def external_inputs(self) -> tuple[str, ...]:
        return tuple(self._external_inputs)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[DFGNode]:
        return iter(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def node(self, name: str) -> DFGNode:
        """Look a node up by name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise DFGError(f"no node named {name!r} in DFG {self.name!r}") from exc

    def node_by_index(self, index: int) -> DFGNode:
        return self._nodes[index]

    def is_external(self, name: str) -> bool:
        return name in self._external_set

    def indices_of(self, names: Iterable[str]) -> frozenset[int]:
        """Map node names to indices (preparing the graph if necessary)."""
        self.prepare()
        return frozenset(self.node(name).index for name in names)

    def names_of(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(self._nodes[i].name for i in sorted(indices))

    # ------------------------------------------------------------------
    # Prepared structures
    # ------------------------------------------------------------------
    def prepare(self) -> "DataFlowGraph":
        """Compute the cached adjacency / closure structures (idempotent)."""
        if self._prepared:
            return self
        n = len(self._nodes)
        for index, node in enumerate(self._nodes):
            node.index = index
        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        ext_ops: list[list[str]] = [[] for _ in range(n)]
        consumers_ext: dict[str, list[int]] = {name: [] for name in self._external_inputs}
        for node in self._nodes:
            for operand in node.operands:
                if operand in self._by_name:
                    producer = self._by_name[operand]
                    if producer.index >= node.index:
                        raise DFGError(
                            f"DFG {self.name!r} is not in topological order: "
                            f"{node.name!r} uses {operand!r} defined later"
                        )
                    preds[node.index].append(producer.index)
                    succs[producer.index].append(node.index)
                else:
                    ext_ops[node.index].append(operand)
                    consumers_ext[operand].append(node.index)
        self._preds = [tuple(p) for p in preds]
        self._succs = [tuple(s) for s in succs]
        self._ext_operands = [tuple(e) for e in ext_ops]
        self._consumers_of_external = {k: tuple(v) for k, v in consumers_ext.items()}
        self._topo_order = list(range(n))
        # Strict ancestor / descendant closures as bitsets.
        ancestors = [0] * n
        for i in range(n):
            mask = 0
            for p in preds[i]:
                mask |= ancestors[p] | (1 << p)
            ancestors[i] = mask
        descendants = [0] * n
        for i in range(n - 1, -1, -1):
            mask = 0
            for s in succs[i]:
                mask |= descendants[s] | (1 << s)
            descendants[i] = mask
        self._ancestors = ancestors
        self._descendants = descendants
        forbidden_mask = 0
        for node in self._nodes:
            if node.forbidden:
                forbidden_mask |= 1 << node.index
        self._forbidden_mask = forbidden_mask
        self._prepared = True
        return self

    def preds(self, index: int) -> tuple[int, ...]:
        """Indices of the nodes producing operands of node *index*."""
        self.prepare()
        return self._preds[index]

    def succs(self, index: int) -> tuple[int, ...]:
        """Indices of the nodes consuming the value of node *index*."""
        self.prepare()
        return self._succs[index]

    def external_operands(self, index: int) -> tuple[str, ...]:
        """External-input names consumed by node *index* (with repetitions
        collapsed by the I/O counting, not here)."""
        self.prepare()
        return self._ext_operands[index]

    def consumers_of_external(self, name: str) -> tuple[int, ...]:
        self.prepare()
        return self._consumers_of_external.get(name, ())

    def ancestors_mask(self, index: int) -> int:
        """Bitset of strict ancestors of node *index*."""
        self.prepare()
        return self._ancestors[index]

    def descendants_mask(self, index: int) -> int:
        """Bitset of strict descendants of node *index*."""
        self.prepare()
        return self._descendants[index]

    @property
    def forbidden_mask(self) -> int:
        """Bitset of nodes that may never be part of a cut."""
        self.prepare()
        return self._forbidden_mask

    @property
    def topo_order(self) -> Sequence[int]:
        self.prepare()
        return tuple(self._topo_order)

    def full_mask(self) -> int:
        """Bitset with one bit set per node."""
        return (1 << len(self._nodes)) - 1

    def bitset_index(self):
        """The shared :class:`~repro.dfg.bitset.BitsetIndex` of this graph.

        Built lazily on first use and cached for the graph's lifetime, so
        every evaluator / cache over the same DFG shares one set of mask
        tables.  Mutating the graph (``add_node``) invalidates the cache
        together with the other prepared structures.  Construction goes
        through the per-process :func:`repro.dfg.bitset.shared_index` memo,
        so structurally identical graphs (the same workload block unpickled
        by several sweep cells in one worker) share one set of tables.
        """
        if self._bitset_index is None or not self._prepared:
            from .bitset import shared_index

            self.prepare()
            self._bitset_index = shared_index(self)
        return self._bitset_index

    def __getstate__(self) -> dict:
        # The bitset index is pure derived data; dropping it keeps pickles
        # (process-pool job payloads, sweep cells) small.  Rebuilt lazily.
        state = self.__dict__.copy()
        state["_bitset_index"] = None
        return state

    def neighbors(self, index: int) -> tuple[int, ...]:
        """Parents and children of node *index* (no siblings)."""
        return tuple(set(self.preds(index)) | set(self.succs(index)))

    def is_effectively_live_out(self, index: int) -> bool:
        """A node's value must be produced to a register whenever it is
        explicitly live-out or has no consumer inside the block (a value with
        no consumers is assumed to be consumed later — dead code is not
        modelled)."""
        node = self._nodes[index]
        if node.live_out:
            return True
        return len(self.succs(index)) == 0 and node.opcode not in (
            Opcode.STORE,
            Opcode.BR,
            Opcode.CBR,
            Opcode.RET,
        )

    # ------------------------------------------------------------------
    # Interop / misc
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export the DFG as a :class:`networkx.DiGraph` with node
        attributes ``opcode``, ``forbidden``, ``live_out``."""
        import networkx as nx

        self.prepare()
        graph = nx.DiGraph(name=self.name)
        for node in self._nodes:
            graph.add_node(
                node.name,
                opcode=node.opcode.value,
                forbidden=node.forbidden,
                live_out=node.live_out,
                sw_latency=node.sw_latency,
                hw_delay=node.hw_delay,
            )
        for node in self._nodes:
            for operand in node.operands:
                if operand in self._by_name:
                    graph.add_edge(operand, node.name)
        return graph

    def software_latency(self, indices: Iterable[int] | None = None) -> int:
        """Sum of software latencies over *indices* (default: whole graph)."""
        if indices is None:
            indices = range(len(self._nodes))
        return sum(self._nodes[i].sw_latency for i in indices)

    def copy(self) -> "DataFlowGraph":
        """Deep-enough copy (nodes are re-created; attrs are shallow-copied)."""
        clone = DataFlowGraph(self.name)
        for name in self._external_inputs:
            clone.add_external_input(name)
        for node in self._nodes:
            clone.add_node(
                node.name,
                node.opcode,
                node.operands,
                live_out=node.live_out,
                sw_latency=node.sw_latency,
                hw_delay=node.hw_delay,
                forbidden=node.forbidden,
                attrs=dict(node.attrs),
            )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataFlowGraph(name={self.name!r}, nodes={len(self._nodes)}, "
            f"external_inputs={len(self._external_inputs)})"
        )


def mask_of(indices: Iterable[int]) -> int:
    """Build a bitset from an iterable of node indices.

    This and :func:`popcount` are the scalar (single-mask) layer of the
    mask substrate; the batched table layer lives behind the pluggable
    kernels in :mod:`repro.dfg.kernels`.  Scalar ops stay on big-ints under
    every kernel — converting one mask to packed lanes costs more than the
    word op it would accelerate.
    """
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def indices_of_mask(mask: int) -> list[int]:
    """Expand a bitset into the sorted list of set bit positions."""
    indices = []
    index = 0
    while mask:
        if mask & 1:
            indices.append(index)
        mask >>= 1
        index += 1
    return indices


def popcount(mask: int) -> int:
    """Number of set bits in *mask* (portable ``int.bit_count``)."""
    try:
        return mask.bit_count()  # Python >= 3.10
    except AttributeError:  # pragma: no cover - Python 3.9 fallback
        return bin(mask).count("1")
