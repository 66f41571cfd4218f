"""Linear stochastic subsystems with internal/external I/O and their interconnection.

A subsystem evolves as ``x(k+1) = A x(k) + B nu(k) + D omega(k) + F noise(k)``
with external output ``y_ext = C_ext x`` and one internal output block
``C_int[j] x`` per peer ``j`` it feeds.  A topology is a set of
``(source, target)`` pairs, each wiring ``C_int[target]`` of ``source`` into
the internal input of ``target``.  A target's omega rows are assigned from
row 0 in ascending source order, each pair taking the row count of its
source's block; rows past the last pair read as zero.  Assembly keeps the
result as per-edge routing: for each subsystem, the in-edges that feed its
internal input and the output block each one carries, so a consumer that
eliminates the internal signals builds one subsystem's rows from that
subsystem and its neighbours alone.

Subsystem ids double as block positions: the i-th entry of a subsystem list
must carry ``id == i``, and topology pairs and ``C_int`` keys refer to those
indices.
"""

from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch

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


@dataclass(frozen=True, eq=False)
class Topology:
    """Wiring of an interconnection: ``(source, target)`` pairs, each listed once.

    A pair joins two distinct subsystems.  ``pairs`` is kept sorted by target,
    then source, the order in which :func:`_route` assigns each target's
    omega rows.
    """

    n_subsystems: int
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple(sorted(((int(s), int(t)) for s, t in self.pairs), key=lambda e: e[::-1]))
        object.__setattr__(self, "pairs", pairs)
        for k, (src, tgt) in enumerate(pairs):
            if not (0 <= src < self.n_subsystems and 0 <= tgt < self.n_subsystems):
                raise DimensionMismatch(f"edge ({src}->{tgt}) references unknown subsystem")
            if src == tgt:
                raise DimensionMismatch(f"edge ({src}->{tgt}) is a self-loop")
            if k and pairs[k - 1] == (src, tgt):
                raise DimensionMismatch(f"edge ({src}->{tgt}) is listed twice")

    @classmethod
    def from_pairs(cls, subsystems: Sequence[LinearSubsystem], pairs) -> "Topology":
        """The topology of ``pairs`` over ``subsystems``, checked against their blocks."""
        topology = cls(len(subsystems), tuple(pairs))
        _route(subsystems, topology)
        return topology


def _route(subsystems: Sequence[LinearSubsystem], topology: Topology):
    """Per target, its in-edges with the source output block each carries.

    This is the one place omega rows are assigned: from row 0 in ascending
    source order, each edge taking the row count of its source's block.

    Raises
    ------
    DimensionMismatch
        If a source has no output block toward its target, or a target's
        edges need more rows than its ``D`` has columns.
    """
    incoming: list[list[tuple[Edge, np.ndarray]]] = [[] for _ in subsystems]
    used = [0] * len(subsystems)
    for src, tgt in topology.pairs:
        block = subsystems[src].C_int.get(tgt)
        if block is None:
            raise DimensionMismatch(f"subsystem {src} has no connecting output toward {tgt}")
        incoming[tgt].append((Edge(src, tgt, used[tgt], used[tgt] + block.shape[0]), block))
        used[tgt] += block.shape[0]
    for tgt, (rows, s) in enumerate(zip(used, subsystems)):
        if rows > s.p:
            raise DimensionMismatch(
                f"incoming slices of subsystem {tgt} need {rows} rows, D has {s.p}"
            )
    return tuple(map(tuple, incoming))


def _offsets(sizes) -> tuple[int, ...]:
    """Start index of each block when blocks of ``sizes`` are stacked."""
    return (0, *accumulate(sizes))[:-1]


@dataclass(frozen=True, eq=False)
class InterconnectedSystem:
    """Subsystems wired by per-edge routing, internal signals eliminated edge by edge.

    ``in_edges[i]`` lists, in ascending source order, each edge that feeds
    subsystem ``i``'s internal input with the source's output block that edge
    carries: ``omega_i[e.start:e.stop] = block @ x_{e.source}``.  Input rows
    that no edge feeds are the constant zero signal.  Storage grows with the
    edges, not with the squared stacked state dimension.
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
    The rows each edge feeds are assigned by :func:`_route`.

    Raises
    ------
    DimensionMismatch
        If a subsystem is malformed, the subsystem count differs from the
        topology's, or the edges do not fit the blocks they connect.
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
    return InterconnectedSystem(subsystems, topology, _route(subsystems, topology))
