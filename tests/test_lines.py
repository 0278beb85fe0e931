import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsmooth.core import ContractViolationError
from ptcsmooth.lines import (CouplingGraph, LineSet, assemble_line_blocks,
                             build_coupling_graph, extract_lines)
from ptcsmooth.problems import make_aniso_convdiff, make_bratu


def chain_graph(weights):
    n = len(weights) + 1
    edges = np.column_stack((np.arange(n - 1), np.arange(1, n)))
    return CouplingGraph(n, edges, np.asarray(weights, dtype=float))


def test_bratu_chain_graph_structure():
    p = make_bratu(4, 1.0)
    g = build_coupling_graph(p, p.initial_state())
    assert g.n_cells == 4
    assert len(g.edges) == 3
    assert sorted(map(tuple, g.edges.tolist())) == [(0, 1), (1, 2), (2, 3)]


def test_line_blocks_follow_line_direction():
    # Lines may run against the edge orientation (i < j); each directed pair
    # must still get the block coupling its row cell to its column cell.
    p = make_aniso_convdiff(4, 4, stretching_ratio=10.0)
    w = p.initial_state()
    blocks = p.first_order_blocks(w)

    def with_singletons(*multi):
        used = {c for line in multi for c in line}
        return LineSet(16, list(multi) + [[c] for c in range(16) if c not in used])

    lb = assemble_line_blocks(p, w, with_singletons([15, 11, 7, 3], [0, 1, 2]))
    expected = {}
    for (i, j), a, b in zip(blocks.edges.tolist(), blocks.off_ij, blocks.off_ji):
        expected[(i, j)], expected[(j, i)] = a, b
    pairs = [(15, 11), (11, 7), (7, 3), (0, 1), (1, 2)]
    assert sorted(lb.off) == sorted(pairs + [(q, p) for p, q in pairs])
    for key, block in lb.off.items():
        assert np.array_equal(block, expected[key])
    assert np.array_equal(lb.diag, blocks.diag)
    with pytest.raises(ContractViolationError, match=r"\(0, 5\)"):
        assemble_line_blocks(p, w, with_singletons([0, 5]))


def test_stretched_grid_weight_ratio():
    # Uniform tensor grid, y spacing 1e3 times finer than x, pure diffusion.
    nx = ny = 6
    p = make_aniso_convdiff(nx, ny, stretching_ratio=1.0, eps=1.0,
                            velocity=(0.0, 0.0), sigma=0.0, ly=1e-3)
    g = build_coupling_graph(p, p.initial_state())
    hx, hy = p.hx, p.hy[0]
    assert hy == pytest.approx(1e-3 * hx)

    # Hand-assembled 5-point weights: vol * eps / h^2 on interior edges.
    vol = hx * hy
    w_x_expected = vol * 1.0 / hx ** 2
    w_y_expected = vol * 1.0 / hy ** 2
    weights = {tuple(e): w for e, w in zip(map(tuple, g.edges.tolist()),
                                           g.weights)}
    # Interior x-edge in row 2: cells (2,2)-(3,2); y-edge: (2,2)-(2,3).
    k = 2 * nx + 2
    assert weights[(k, k + 1)] == pytest.approx(w_x_expected, rel=1e-12)
    assert weights[(k, k + nx)] == pytest.approx(w_y_expected, rel=1e-12)
    assert weights[(k, k + nx)] / weights[(k, k + 1)] == pytest.approx(1e6, rel=1e-9)


def test_isotropic_grid_all_singletons():
    p = make_aniso_convdiff(8, 8, stretching_ratio=1.0, eps=1.0,
                            velocity=(0.0, 0.0), sigma=0.0)
    ls = extract_lines(build_coupling_graph(p, p.initial_state()), 4.0)
    assert len(ls.lines) == p.layout.n_cells
    assert all(len(line) == 1 for line in ls.lines)
    assert ls.is_partition()


def test_six_cell_band_becomes_one_line():
    # 20-cell chain, uniform weight 1 except a 6-cell band (cells 7..12)
    # coupled 1000x more strongly.
    weights = np.ones(19)
    weights[7:12] = 1000.0
    g = chain_graph(weights)
    ls = extract_lines(g, 4.0)
    multi = ls.multi_cell_lines()
    assert len(multi) == 1
    assert sorted(multi[0]) == [7, 8, 9, 10, 11, 12]
    assert ls.is_partition()


def test_two_disjoint_strips():
    weights = np.ones(29)
    weights[3:7] = 500.0    # strip A: cells 3..7
    weights[18:23] = 800.0  # strip B: cells 18..23
    g = chain_graph(weights)
    ls = extract_lines(g, 4.0)
    multi = ls.multi_cell_lines()
    assert len(multi) == 2
    cells_a, cells_b = (set(line) for line in multi)
    assert cells_a.isdisjoint(cells_b)
    assert ls.is_partition()


def test_extraction_deterministic():
    p = make_aniso_convdiff(12, 16, stretching_ratio=100.0)
    g = build_coupling_graph(p, p.initial_state())
    ls1 = extract_lines(g, 4.0)
    ls2 = extract_lines(g, 4.0)
    assert ls1.lines == ls2.lines


def test_threshold_monotonicity_on_stretched_grid():
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0)
    g = build_coupling_graph(p, p.initial_state())
    covered = [extract_lines(g, t).covered_by_multi()
               for t in (2.0, 4.0, 8.0, 16.0, 64.0, 256.0)]
    assert all(a >= b for a, b in zip(covered, covered[1:]))


def test_stretched_grid_lines_wall_normal():
    # Shallow domain keeps y coupling dominant everywhere, so every
    # multi-cell line must run in the y direction and cover the wall band.
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0, ly=0.05)
    g = build_coupling_graph(p, p.initial_state())
    ls = extract_lines(g, 4.0)
    multi = ls.multi_cell_lines()
    assert multi
    for line in multi:
        steps = {abs(a - b) for a, b in zip(line[:-1], line[1:])}
        assert steps == {p.nx}, "line not aligned with the strong direction"
    covered = {c for line in multi for c in line}
    strong_band = {j * p.nx + i for j in range(p.ny) for i in range(p.nx)
                   if p.hy[j] < p.hx / 2.0}
    assert strong_band <= covered


def test_threshold_validation():
    g = chain_graph([1.0, 1.0])
    with pytest.raises(ValueError):
        extract_lines(g, 1.0)


def test_lineset_text_format():
    ls = LineSet(4, [[2, 1], [0], [3]])
    assert ls.to_text() == "2 1\n0\n3\n"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=1.5, max_value=50.0))
def test_partition_and_path_validity_property(nx, ny, seed, threshold):
    # Random-weighted grid graphs: extraction always yields a partition into
    # simple paths whose consecutive cells share an edge.
    rng = np.random.default_rng(seed)
    edges, weights = [], []
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            if i + 1 < nx:
                edges.append((k, k + 1))
                weights.append(10.0 ** rng.uniform(-3, 3))
            if j + 1 < ny:
                edges.append((k, k + nx))
                weights.append(10.0 ** rng.uniform(-3, 3))
    g = CouplingGraph(nx * ny, np.asarray(edges), np.asarray(weights))
    ls = extract_lines(g, threshold)
    assert ls.is_partition()
    adjacency = {tuple(sorted(e)) for e in edges}
    for line in ls.lines:
        assert len(set(line)) == len(line)
        for p, q in zip(line[:-1], line[1:]):
            assert tuple(sorted((p, q))) in adjacency
