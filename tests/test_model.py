import numpy as np
import pytest
from helpers import DenseMonolith, omega_slices, random_network
from scipy.linalg import block_diag

from simcert.errors import DimensionMismatch
from simcert.model import (
    LinearSubsystem,
    Topology,
    assemble_interconnection,
)


def test_validate_reference_subsystem_is_clean(ref_parts):
    # a subsystem checks itself when built: rebuilding each from its blocks raises nothing
    subs, *_ = ref_parts
    for s in subs:
        LinearSubsystem(id=s.id, A=s.A, B=s.B, D=s.D, F=s.F, C_ext=s.C_ext, C_int=s.C_int)


def test_validate_d_rows_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^D rows != state dim \(3 != 2\)$"):
        LinearSubsystem(
            id=0,
            A=np.eye(2),
            B=np.ones((2, 1)),
            D=np.ones((3, 1)),
            F=np.zeros((2, 1)),
            C_ext=np.ones((1, 2)),
        )


def test_validate_isolated_subsystem():
    s = LinearSubsystem(
        id=0,
        A=np.eye(25),
        B=np.eye(25),
        D=np.zeros((25, 0)),
        F=np.ones((25, 1)),
        C_ext=0.1 * np.ones((1, 25)),
    )
    assert (s.n, s.p, dict(s.C_int)) == (25, 0, {})


def test_every_violation_is_named_in_one_message():
    with pytest.raises(DimensionMismatch) as err:
        LinearSubsystem(id=1, A=np.ones((2, 3)), B=np.ones((3, 1)), D=np.ones((2, 1)),
                        F=np.ones((2, 1)), C_ext=np.ones((1, 3)), C_int={1: np.ones((1, 2))})
    assert str(err.value) == ("A not square (2x3); B rows != state dim (3 != 2); "
                              "C_ext cols != state dim (3 != 2); C_int contains self block 1")


def test_assemble_reference_ring(ref_parts):
    subs, topo, *_ = ref_parts
    mono = DenseMonolith(subs, assemble_interconnection(subs, topo))
    assert mono.A_cl.shape == (100, 100)
    expected = np.eye(100)
    coupling = 0.1 * np.ones((25, 1)) @ (0.1 * np.ones((1, 25)))
    for tgt, src in [(0, 2), (1, 3), (2, 1), (3, 0)]:
        expected[tgt * 25 : (tgt + 1) * 25, src * 25 : (src + 1) * 25] += coupling
    assert np.allclose(mono.A_cl, expected, atol=1e-15)
    assert np.array_equal(mono.B_cl[0:25, 0:25], np.eye(25))
    assert np.array_equal(mono.F_cl[25:50, 1:2], 0.01 * np.ones((25, 1)))
    assert mono.C_cl.shape == (4, 100)


def test_assemble_single_subsystem_empty_topology():
    s = LinearSubsystem(
        id=0,
        A=2 * np.eye(3),
        B=np.ones((3, 1)),
        D=np.zeros((3, 0)),
        F=np.ones((3, 1)),
        C_ext=np.ones((1, 3)),
    )
    mono = DenseMonolith([s], assemble_interconnection([s], Topology(1)))
    assert np.array_equal(mono.A_cl, s.A)
    assert np.array_equal(mono.B_cl, s.B)


def test_assemble_two_state_mutual_coupling():
    # hand substitution: omega_0 = c x_1, omega_1 = c x_0 gives
    # A_cl = [[a, d c], [d c, a]]
    a, d, c = 0.7, 0.3, 2.0
    subs = [
        LinearSubsystem(
            id=i,
            A=[[a]],
            B=[[1.0]],
            D=[[d]],
            F=[[0.0]],
            C_ext=[[1.0]],
            C_int={1 - i: [[c]]},
        )
        for i in range(2)
    ]
    topo = Topology.from_pairs(subs, [(0, 1), (1, 0)])
    mono = DenseMonolith(subs, assemble_interconnection(subs, topo))
    assert np.allclose(mono.A_cl, [[a, d * c], [d * c, a]], atol=1e-15)


def _two_subsystems(p0: int, rows_1_to_0: int):
    """Subsystem 0 with ``p0`` omega rows, fed by a ``rows_1_to_0``-row block of subsystem 1."""
    return [
        LinearSubsystem(
            id=0, A=np.eye(2), B=np.eye(2), D=np.ones((2, p0)), F=np.zeros((2, 1)),
            C_ext=np.ones((1, 2)), C_int={1: np.ones((1, 2))},
        ),
        LinearSubsystem(
            id=1, A=np.eye(2), B=np.eye(2), D=np.ones((2, 1)), F=np.zeros((2, 1)),
            C_ext=np.ones((1, 2)), C_int={0: np.ones((rows_1_to_0, 2))},
        ),
    ]


def test_assemble_slice_width_mismatch():
    # the source block has 2 rows but D of subsystem 0 has 1 column
    subs = _two_subsystems(p0=1, rows_1_to_0=2)
    with pytest.raises(DimensionMismatch, match="need 2 rows, D has 1"):
        Topology.from_pairs(subs, [(1, 0)])
    with pytest.raises(DimensionMismatch, match="need 2 rows, D has 1"):
        assemble_interconnection(subs, Topology(2, [(1, 0)]))


def test_from_pairs_rejects_repeated_pair():
    # D of subsystem 0 has room for the block twice, but one output feeds one slice
    subs = _two_subsystems(p0=2, rows_1_to_0=1)
    with pytest.raises(DimensionMismatch, match=r"edge \(1->0\) is listed twice"):
        Topology.from_pairs(subs, [(1, 0), (0, 1), (1, 0)])


def test_topology_rejects_self_pair():
    # build_gains reads the pairs without the subsystems, so the check is the topology's own
    with pytest.raises(DimensionMismatch, match="self-loop"):
        Topology(4, [(2, 0), (1, 1)])


def test_assemble_unfed_rows_read_zero():
    s = LinearSubsystem(
        id=0, A=np.eye(2), B=np.eye(2), D=np.ones((2, 1)), F=np.zeros((2, 1)),
        C_ext=np.ones((1, 2)),
    )
    in_edges = assemble_interconnection([s], Topology(1))
    assert in_edges == ((),)
    assert np.array_equal(DenseMonolith([s], in_edges).A_cl, np.eye(2))


def test_from_pairs_leftover_rows_read_zero():
    subs, pairs = random_network(np.random.default_rng(3), n_subs=3)
    mono = DenseMonolith(subs, assemble_interconnection(subs, Topology.from_pairs(subs, pairs)))
    # widen D of subsystem 0 by one column that no pair feeds
    s0 = subs[0]
    subs[0] = LinearSubsystem(
        id=0, A=s0.A, B=s0.B, D=np.hstack([s0.D, np.ones((s0.n, 1))]), F=s0.F,
        C_ext=s0.C_ext, C_int=dict(s0.C_int),
    )
    wide = DenseMonolith(subs, assemble_interconnection(subs, Topology.from_pairs(subs, pairs)))
    assert np.array_equal(wide.A_cl, mono.A_cl)
    assert not wide.R_int[s0.p].any()  # the new row of omega_0 is the zero signal


def _simulate_coupled(subs, topo, x0, nus, noises, steps):
    """Reference stepping: route omega explicitly each step."""
    xs = [np.array(x) for x in x0]
    history = [np.concatenate(xs)]
    for k in range(steps):
        omegas = [np.zeros(s.p) for s in subs]
        for (src, tgt), rows in omega_slices(subs, topo).items():
            omegas[tgt][rows] = subs[src].C_int[tgt] @ xs[src]
        new = []
        for i, s in enumerate(subs):
            new.append(s.A @ xs[i] + s.B @ nus[i][k] + s.D @ omegas[i] + s.F @ noises[i][k])
        xs = new
        history.append(np.concatenate(xs))
    return history


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_monolith_equivalence(seed):
    rng = np.random.default_rng(seed)
    subs, pairs = random_network(rng)
    topo = Topology.from_pairs(subs, pairs)
    mono = DenseMonolith(subs, assemble_interconnection(subs, topo))
    routed = block_diag(*[s.A for s in subs]) + block_diag(*[s.D for s in subs]) @ mono.R_int
    assert np.allclose(mono.A_cl, routed, rtol=0, atol=1e-14)
    steps = 6
    nus = [rng.standard_normal((steps, s.m)) for s in subs]
    noises = [rng.standard_normal((steps, s.q)) for s in subs]
    x0 = [rng.standard_normal(s.n) for s in subs]

    coupled = _simulate_coupled(subs, topo, x0, nus, noises, steps)
    x = np.concatenate(x0)
    for k in range(steps):
        nu = np.concatenate([nus[i][k] for i in range(len(subs))])
        noise = np.concatenate([noises[i][k] for i in range(len(subs))])
        x = mono.step(x, nu, noise)
        ref = coupled[k + 1]
        assert np.all(np.abs(x - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    subs, pairs = random_network(rng, n_subs=4)
    topo = Topology.from_pairs(subs, pairs)
    mono = DenseMonolith(subs, assemble_interconnection(subs, topo))

    perm = [2, 0, 3, 1]  # new position of old index i is perm[i]
    inv = np.argsort(perm)
    slices = omega_slices(subs, topo)
    relabeled = []
    for new_pos, old in enumerate(inv):
        s = subs[old]
        # omega rows follow source order, so each source's column block of D
        # moves to where its new label sorts
        blocks = [s.D[:, slices[src, old]] for src in sorted(
            (src for src, tgt in pairs if tgt == old), key=lambda src: perm[src])]
        relabeled.append(
            LinearSubsystem(
                id=new_pos, A=s.A, B=s.B, D=np.hstack(blocks) if blocks else s.D, F=s.F,
                C_ext=s.C_ext, C_int={perm[j]: blk for j, blk in s.C_int.items()},
            )
        )
    topo_p = Topology.from_pairs(relabeled, [(perm[src], perm[tgt]) for src, tgt in pairs])
    mono_p = DenseMonolith(relabeled, assemble_interconnection(relabeled, topo_p))

    offs = list(mono.state_offsets) + [mono.n]
    offs_p = list(mono_p.state_offsets) + [mono_p.n]
    for i in range(4):
        for j in range(4):
            orig = mono.A_cl[offs[i] : offs[i + 1], offs[j] : offs[j + 1]]
            moved = mono_p.A_cl[
                offs_p[perm[i]] : offs_p[perm[i]] + orig.shape[0],
                offs_p[perm[j]] : offs_p[perm[j]] + orig.shape[1],
            ]
            assert np.array_equal(orig, moved)


def test_output_matrix_stacks_blocks_in_peer_order():
    s = LinearSubsystem(
        id=1,
        A=np.eye(2), B=np.eye(2), D=np.zeros((2, 0)), F=np.zeros((2, 1)),
        C_ext=np.full((1, 2), 5.0),
        C_int={0: np.full((1, 2), 3.0), 2: np.full((2, 2), 7.0)},
    )
    C = s.output_matrix()
    assert C.shape == (4, 2)
    assert np.array_equal(C[0], [3.0, 3.0])     # peer 0
    assert np.array_equal(C[1], [5.0, 5.0])     # own external block at index 1
    assert np.array_equal(C[2:], np.full((2, 2), 7.0))  # peer 2


def test_frozen_arrays():
    s = LinearSubsystem(
        id=0, A=np.eye(2), B=np.eye(2), D=np.zeros((2, 0)), F=np.zeros((2, 1)),
        C_ext=np.ones((1, 2)),
    )
    with pytest.raises(ValueError):
        s.A[0, 0] = 5.0
