"""Linear stochastic subsystems with internal/external I/O and their interconnection.

A subsystem evolves as ``x(k+1) = A x(k) + B nu(k) + D omega(k) + F noise(k)``
with external output ``y_ext = C_ext x`` and one internal output block
``C_int[j] x`` per peer ``j`` it feeds.  An interconnection matches each
internal input slice to a peer's internal output block.  It is kept as
per-edge routing: for each subsystem, the in-edges that feed its internal
input and the output block each one carries, so a consumer that eliminates
the internal signals builds one subsystem's rows from that subsystem and its
neighbours alone.

Subsystem ids double as block positions: the i-th entry of a subsystem list
must carry ``id == i``, and topology edges and ``C_int`` keys refer to those
indices.
"""

from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DanglingInput, DimensionMismatch

__all__ = [
    "LinearSubsystem",
    "Edge",
    "Topology",
    "InterconnectedSystem",
    "validate_subsystem",
    "assemble_interconnection",
]


def _matrix(value, name: str) -> np.ndarray:
    """``value`` as a read-only float matrix, copied unless no caller can write to it.

    A read-only float array that owns its data, such as the loader builds or
    another dataclass holds, is kept as it is.  A writable array or a view is
    copied, so a caller's later writes never reach the dataclass.
    """
    if (
        type(value) is np.ndarray
        and value.dtype == np.float64
        and value.ndim == 2
        and not value.flags.writeable
        and value.base is None
    ):
        return value
    arr = np.array(value, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LinearSubsystem:
    """One agent of the network.

    ``C_int`` maps peer index ``j`` to the output block feeding ``j``'s
    internal input; an absent key means that connecting output is identically
    zero (no edge toward ``j`` is possible).
    """

    id: int
    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    F: np.ndarray
    C_ext: np.ndarray
    C_int: Mapping[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("A", "B", "D", "F", "C_ext"):
            object.__setattr__(self, name, _matrix(getattr(self, name), name))
        blocks = {int(j): _matrix(m, f"C_int[{j}]") for j, m in self.C_int.items()}
        object.__setattr__(self, "C_int", MappingProxyType(blocks))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.D.shape[1]

    @property
    def q(self) -> int:
        return self.F.shape[1]

    @property
    def r(self) -> int:
        return self.C_ext.shape[0]

    def output_matrix(self) -> np.ndarray:
        """Full output map: internal and external blocks stacked by ascending peer index.

        The external block sits at the subsystem's own index, mirroring the
        block layout ``[h_0; h_1; ...]`` of the partitioned output.
        """
        blocks = dict(self.C_int)
        blocks[self.id] = self.C_ext
        return np.vstack([blocks[j] for j in sorted(blocks)])


def validate_subsystem(s: LinearSubsystem) -> list[str]:
    """Return dimension-consistency violations (empty list when well formed).

    Diagnostics are returned rather than raised so callers can report every
    problem at once.
    """
    out: list[str] = []
    n = s.A.shape[0]
    if s.A.shape[0] != s.A.shape[1]:
        out.append(f"A not square ({s.A.shape[0]}x{s.A.shape[1]})")
    if s.B.shape[0] != n:
        out.append(f"B rows != state dim ({s.B.shape[0]} != {n})")
    if s.D.shape[0] != n:
        out.append(f"D rows != state dim ({s.D.shape[0]} != {n})")
    if s.F.shape[0] != n:
        out.append(f"F rows != state dim ({s.F.shape[0]} != {n})")
    if s.C_ext.shape[1] != n:
        out.append(f"C_ext cols != state dim ({s.C_ext.shape[1]} != {n})")
    for j, m in s.C_int.items():
        if j == s.id:
            out.append(f"C_int contains self block {j}")
        if m.shape[1] != n:
            out.append(f"C_int[{j}] cols != state dim ({m.shape[1]} != {n})")
    return out


@dataclass(frozen=True)
class Edge:
    """Internal output of ``source`` feeds rows ``start:stop`` of ``target``'s omega."""

    source: int
    target: int
    start: int
    stop: int

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("self-edges are not allowed")
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"bad slice [{self.start}, {self.stop})")

    @property
    def width(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True, eq=False)
class Topology:
    """Wiring of an interconnection.

    ``unconnected`` lists, per target index, the omega rows that are
    deliberately fed by the constant zero signal.  Rows that are neither
    covered by an edge slice nor declared here make the assembly fail.
    """

    n_subsystems: int
    edges: tuple[Edge, ...] = ()
    unconnected: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        frozen = {int(k): tuple(int(r) for r in v) for k, v in self.unconnected.items()}
        object.__setattr__(self, "unconnected", MappingProxyType(frozen))
        for e in self.edges:
            if not (0 <= e.source < self.n_subsystems and 0 <= e.target < self.n_subsystems):
                raise ValueError(f"edge ({e.source}->{e.target}) out of range")

    @classmethod
    def from_pairs(cls, subsystems: Sequence[LinearSubsystem], pairs) -> "Topology":
        """Build a topology from ``(source, target)`` index pairs.

        Slices are assigned per target in ascending source order starting at
        omega row 0, each with the row count of the source's connecting output
        block; leftover omega rows are declared unconnected.
        """
        n = len(subsystems)
        incoming: dict[int, list[int]] = {i: [] for i in range(n)}
        for src, tgt in pairs:
            src, tgt = int(src), int(tgt)
            if not (0 <= src < n and 0 <= tgt < n):
                raise DimensionMismatch(f"edge ({src}->{tgt}) references unknown subsystem")
            incoming[tgt].append(src)
        edges = []
        unconnected: dict[int, tuple[int, ...]] = {}
        for tgt in range(n):
            cursor = 0
            for src in sorted(incoming[tgt]):
                block = subsystems[src].C_int.get(tgt)
                if block is None:
                    raise DimensionMismatch(
                        f"subsystem {src} has no connecting output toward {tgt}"
                    )
                edges.append(Edge(src, tgt, cursor, cursor + block.shape[0]))
                cursor += block.shape[0]
            p = subsystems[tgt].p
            if cursor > p:
                raise DimensionMismatch(
                    f"incoming slices of subsystem {tgt} need {cursor} rows, D has {p}"
                )
            if cursor < p:
                unconnected[tgt] = tuple(range(cursor, p))
        return cls(n, tuple(edges), unconnected)

    def in_degree(self, target: int) -> int:
        return sum(1 for e in self.edges if e.target == target)


def _offsets(sizes) -> tuple[int, ...]:
    """Start index of each block when blocks of ``sizes`` are stacked."""
    return (0, *accumulate(sizes))[:-1]


@dataclass(frozen=True, eq=False)
class InterconnectedSystem:
    """Subsystems wired by per-edge routing, internal signals eliminated edge by edge.

    ``in_edges[i]`` lists, in topology order, each edge that feeds subsystem
    ``i``'s internal input with the source's output block that edge carries:
    ``omega_i[e.start:e.stop] = block @ x_{e.source}``.  Input rows that no
    edge feeds are the constant zero signal.  Storage grows with the edges,
    not with the squared stacked state dimension.
    """

    subsystems: tuple[LinearSubsystem, ...]
    topology: Topology
    in_edges: tuple[tuple[tuple[Edge, np.ndarray], ...], ...]

    @property
    def n(self) -> int:
        return sum(s.n for s in self.subsystems)

    @property
    def state_offsets(self) -> tuple[int, ...]:
        return _offsets(s.n for s in self.subsystems)


def assemble_interconnection(
    subsystems: Sequence[LinearSubsystem], topology: Topology
) -> InterconnectedSystem:
    """Close the loop ``omega_ij = y_ji`` and return its per-edge routing.

    Substituting each internal input by the peer output that feeds it turns
    the coupled recursions into a single linear system over the stacked state;
    its rows for subsystem ``i`` are ``A_i`` on ``x_i`` plus
    ``D_i[:, e.start:e.stop] @ block`` on ``x_{e.source}`` for each in-edge.
    This is the only place a topology is checked and turned into routing.

    Raises
    ------
    DimensionMismatch
        If a subsystem is malformed, an edge slice width disagrees with the
        source block, or slices overlap.
    DanglingInput
        If an omega row is neither covered by an edge nor declared unconnected.
    """
    subsystems = tuple(subsystems)
    if topology.n_subsystems != len(subsystems):
        raise DimensionMismatch(
            f"topology expects {topology.n_subsystems} subsystems, got {len(subsystems)}"
        )
    problems = []
    for i, s in enumerate(subsystems):
        if s.id != i:
            problems.append(f"subsystem at position {i} has id {s.id}")
        problems += [f"subsystem {s.id}: {v}" for v in validate_subsystem(s)]
    if problems:
        raise DimensionMismatch("; ".join(problems))

    incoming: list[list[tuple[Edge, np.ndarray]]] = [[] for _ in subsystems]
    coverage: dict[int, dict[int, Edge]] = {i: {} for i in range(len(subsystems))}
    for e in topology.edges:
        src, tgt = subsystems[e.source], subsystems[e.target]
        block = src.C_int.get(e.target)
        if block is None:
            raise DimensionMismatch(
                f"edge ({e.source}->{e.target}): source has no connecting output block"
            )
        if block.shape[0] != e.width:
            raise DimensionMismatch(
                f"edge ({e.source}->{e.target}): slice width {e.width} != "
                f"output rows {block.shape[0]}"
            )
        if e.stop > tgt.p:
            raise DimensionMismatch(
                f"edge ({e.source}->{e.target}): slice [{e.start},{e.stop}) "
                f"exceeds internal input dim {tgt.p}"
            )
        for row in range(e.start, e.stop):
            if row in coverage[e.target]:
                raise DimensionMismatch(
                    f"omega row {row} of subsystem {e.target} covered by multiple edges"
                )
            coverage[e.target][row] = e
        incoming[e.target].append((e, block))

    for i, s in enumerate(subsystems):
        declared = set(topology.unconnected.get(i, ()))
        for row in range(s.p):
            if row not in coverage[i] and row not in declared:
                raise DanglingInput(
                    f"omega row {row} of subsystem {i} is neither fed nor declared unconnected"
                )
            if row in coverage[i] and row in declared:
                raise DimensionMismatch(
                    f"omega row {row} of subsystem {i} both fed and declared unconnected"
                )

    return InterconnectedSystem(subsystems, topology, tuple(map(tuple, incoming)))
