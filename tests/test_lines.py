import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptcsmooth.core import ContractViolationError, FirstOrderBlocks
from ptcsmooth.linalg import factor_block_tridiag
from ptcsmooth.lines import LineSet, extract_lines
from ptcsmooth.problems import (make_aniso_convdiff, make_bratu,
                                make_quasi1d_euler)

from conftest import dense_from_lines, kernel_lines


def coupling_blocks(n, edges, weights):
    """Scalar first-order blocks whose coupling graph carries ``weights``,
    and their edge array: both off-diagonal blocks of an edge hold its
    weight."""
    off = np.asarray(weights, dtype=float).reshape(-1, 1, 1)
    return (FirstOrderBlocks(np.ones((n, 1, 1)), off, off.copy()),
            np.asarray(edges, dtype=int).reshape(-1, 2))


def covers_each_cell_once(ls):
    return sorted(c for line in ls.lines for c in line) == list(range(ls.n_cells))


def chain_blocks(weights):
    n = len(weights) + 1
    edges = np.column_stack((np.arange(n - 1), np.arange(1, n)))
    return coupling_blocks(n, edges, weights)


def test_bratu_chain_graph_structure():
    p = make_bratu(4, 1.0)
    blocks = p.first_order_blocks(p.initial_state())
    assert len(blocks.diag) == len(blocks.off_ij) + 1 == 4
    assert len(p.edges) == 3
    assert sorted(map(tuple, p.edges.tolist())) == [(0, 1), (1, 2), (2, 3)]


def test_line_blocks_follow_line_direction():
    # Lines may run against the edge orientation (i < j); each directed pair
    # must still get the block coupling its row cell to its column cell.
    p = make_aniso_convdiff(4, 4, stretching_ratio=10.0)
    w = p.initial_state()
    blocks = p.first_order_blocks(w)

    def with_singletons(*multi):
        used = {c for line in multi for c in line}
        return LineSet(16, list(multi)
                       + [[c] for c in range(16) if c not in used], p.edges)

    lines = with_singletons([15, 11, 7, 3], [0, 1, 2])
    expected = {}
    for (i, j), a, b in zip(p.edges.tolist(), blocks.off_ij, blocks.off_ji):
        expected[(i, j)], expected[(j, i)] = a, b
    # The two lines share column 0 (rows 0-3 and 4-6), the 12 singletons
    # three more; the pair mask marks the five in-line pairs. Every pair's
    # two blocks differ, so a swapped one would show in the solve.
    pairs = [(15, 11), (11, 7), (7, 3), (0, 1), (1, 2)]
    assert lines.index[:, 0].tolist() == [15, 11, 7, 3, 0, 1, 2]
    assert lines.pair_mask.sum() == len(pairs)
    assert all(not np.array_equal(expected[(row, col)], expected[(col, row)])
               for row, col in pairs)
    A = dense_from_lines(lines, blocks)
    for row, col in pairs:
        assert A[row, col] == expected[(row, col)][0, 0]   # dR_row/dw_col
        assert A[col, row] == expected[(col, row)][0, 0]   # dR_col/dw_row
    r = np.random.default_rng(4).standard_normal(16)
    x = factor_block_tridiag(lines, blocks, (None,))[0].solve_values(r)
    assert np.linalg.norm(x - np.linalg.solve(A, r)) <= 1e-12 * np.linalg.norm(x)
    with pytest.raises(ContractViolationError, match=r"\(0, 5\)"):
        with_singletons([0, 5])


def test_coupling_gather_computed_at_construction():
    p = make_aniso_convdiff(6, 8, stretching_ratio=1000.0)
    lines = extract_lines(p.first_order_blocks(p.initial_state()), p.edges)
    assert lines.multi_cell_lines()
    w = p.initial_state()
    w.values[:] = np.random.default_rng(3).uniform(0.5, 1.5, w.values.shape)
    blocks = p.first_order_blocks(w)
    r = np.random.default_rng(5).standard_normal(48)
    x = factor_block_tridiag(lines, blocks, (None,))[0].solve_values(r)
    ref = np.linalg.solve(dense_from_lines(lines, blocks), r)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    # The edges listed in reverse, each with its blocks, gather the same
    # couplings: the factor solves to the same bytes.
    flipped = LineSet(48, lines.lines, p.edges[::-1].copy())
    (again,) = factor_block_tridiag(flipped, FirstOrderBlocks(
        blocks.diag, blocks.off_ij[::-1], blocks.off_ji[::-1]), (None,))
    assert again.solve_values(r).tobytes() == x.tobytes()
    # An edge list that misses an in-line pair fails at construction,
    # naming the pair.
    pair = tuple(sorted(lines.multi_cell_lines()[0][:2]))
    keep = ~np.all(p.edges == pair, axis=1)
    with pytest.raises(ContractViolationError,
                       match=rf"line pair \({pair[0]}, {pair[1]}\)"):
        LineSet(48, lines.lines, p.edges[keep])


def test_stretched_grid_weight_ratio():
    # Uniform tensor grid, y spacing 1e3 times finer than x, pure diffusion.
    nx = ny = 6
    p = make_aniso_convdiff(nx, ny, stretching_ratio=1.0, eps=1.0,
                            velocity=(0.0, 0.0), sigma=0.0, ly=1e-3)
    blocks = p.first_order_blocks(p.initial_state())
    hx, hy = p.hx, p.hy[0]
    assert hy == pytest.approx(1e-3 * hx)

    # Hand-assembled 5-point weights: vol * eps / h^2 on interior edges.
    vol = hx * hy
    w_x_expected = vol * 1.0 / hx ** 2
    w_y_expected = vol * 1.0 / hy ** 2
    # The coupling weight of an edge is its larger off-diagonal block norm;
    # a scalar block's norm is its magnitude.
    weights = dict(zip(map(tuple, p.edges.tolist()),
                       np.maximum(np.abs(blocks.off_ij),
                                  np.abs(blocks.off_ji))[:, 0, 0]))
    # Interior x-edge in row 2: cells (2,2)-(3,2); y-edge: (2,2)-(2,3).
    k = 2 * nx + 2
    assert weights[(k, k + 1)] == pytest.approx(w_x_expected, rel=1e-12)
    assert weights[(k, k + nx)] == pytest.approx(w_y_expected, rel=1e-12)
    assert weights[(k, k + nx)] / weights[(k, k + 1)] == pytest.approx(1e6, rel=1e-9)


def test_isotropic_grid_all_singletons():
    p = make_aniso_convdiff(8, 8, stretching_ratio=1.0, eps=1.0,
                            velocity=(0.0, 0.0), sigma=0.0)
    ls = extract_lines(p.first_order_blocks(p.initial_state()), p.edges)
    assert len(ls.lines) == p.layout.n_cells
    assert all(len(line) == 1 for line in ls.lines)
    assert covers_each_cell_once(ls)


def ladder_blocks(rail_weights, rung_weight=0.5):
    """Two rails of len(rail_weights) + 1 cells joined by rungs: cells
    0..L-1 form rail 0 with ``rail_weights``, cells L..2L-1 rail 1 with unit
    weights, and cell k is joined to k + L. Interior cells have three edges,
    so the path rule never applies; rungs of 0.5 keep the unit-weight cells'
    anisotropy at 2, below the seed threshold."""
    length = len(rail_weights) + 1
    k = np.arange(length - 1)
    edges = np.concatenate((np.column_stack((k, k + 1)),
                            np.column_stack((k, k + 1)) + length,
                            np.column_stack((np.arange(length),
                                             np.arange(length) + length))))
    weights = np.concatenate((rail_weights, np.ones(length - 1),
                              np.full(length, rung_weight)))
    return coupling_blocks(2 * length, edges, weights)


def test_six_cell_band_becomes_one_line():
    # 20-cell rail, uniform weight 1 except a 6-cell band (cells 7..12)
    # coupled 1000x more strongly.
    weights = np.ones(19)
    weights[7:12] = 1000.0
    ls = extract_lines(*ladder_blocks(weights))
    multi = ls.multi_cell_lines()
    assert len(multi) == 1
    assert sorted(multi[0]) == [7, 8, 9, 10, 11, 12]
    assert covers_each_cell_once(ls)
    # The same weights on a bare chain: the whole path is one line.
    assert extract_lines(*chain_blocks(weights)).lines == [list(range(20))]


def test_two_disjoint_strips():
    weights = np.ones(29)
    weights[3:7] = 500.0    # strip A: cells 3..7
    weights[18:23] = 800.0  # strip B: cells 18..23
    ls = extract_lines(*ladder_blocks(weights))
    multi = ls.multi_cell_lines()
    assert len(multi) == 2
    cells_a, cells_b = (set(line) for line in multi)
    assert cells_a.isdisjoint(cells_b)
    assert {frozenset(cells_a), frozenset(cells_b)} == {
        frozenset(range(3, 8)), frozenset(range(18, 24))}
    assert covers_each_cell_once(ls)
    assert extract_lines(*chain_blocks(weights)).lines == [list(range(30))]


def test_ring_falls_back_to_greedy():
    # A 12-cell ring with uniform weights has no anisotropic cell: greedy
    # leaves every cell a singleton. A cycle anywhere sends the whole graph
    # to greedy, so the 4-cell path beside it gets no line either.
    ring = [(c, (c + 1) % 12) for c in range(12)]
    ls = extract_lines(*coupling_blocks(12, [sorted(e) for e in ring],
                                        np.ones(12)))
    assert ls.lines == [[c] for c in range(12)]
    path = [(12, 13), (13, 14), (14, 15)]
    ls = extract_lines(*coupling_blocks(16, [sorted(e) for e in ring] + path,
                                        np.ones(15)))
    assert ls.lines == [[c] for c in range(16)]
    # A 1000x band on the ring is a greedy line, not the whole ring.
    weights = np.ones(12)
    weights[2:5] = 1000.0
    ls = extract_lines(*coupling_blocks(12, [sorted(e) for e in ring],
                                        weights))
    assert ls.multi_cell_lines() == [[2, 3, 4, 5]]


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(9)),
       st.lists(st.sampled_from([0.0, 1e-3, 1.0, 1e3]), min_size=8,
                max_size=8))
def test_labelled_path_walked_from_lower_end(label, weights):
    # Cell label[k] sits at position k of the path, whatever the weights.
    edges = [sorted((label[k], label[k + 1])) for k in range(8)]
    ls = extract_lines(*coupling_blocks(9, edges, weights))
    walk = list(label) if label[0] < label[-1] else list(label[::-1])
    assert ls.lines == [walk]


def test_isolated_cells_stay_singletons():
    ls = extract_lines(*coupling_blocks(7, [(1, 3), (3, 4), (2, 6)],
                                        [1.0, 5.0, 2.0]))
    assert ls.lines == [[0], [1, 3, 4], [2, 6], [5]]
    ls = extract_lines(*coupling_blocks(3, np.empty((0, 2)), []))
    assert ls.lines == [[0], [1], [2]]


def test_extraction_deterministic():
    p = make_aniso_convdiff(12, 16, stretching_ratio=100.0)
    blocks = p.first_order_blocks(p.initial_state())
    ls1 = extract_lines(blocks, p.edges)
    ls2 = extract_lines(blocks, p.edges)
    assert ls1.lines == ls2.lines


def test_stretched_grid_lines_wall_normal():
    # Shallow domain keeps y coupling dominant everywhere, so every
    # multi-cell line must run in the y direction and cover the wall band.
    p = make_aniso_convdiff(16, 24, stretching_ratio=1000.0, ly=0.05)
    ls = extract_lines(p.first_order_blocks(p.initial_state()), p.edges)
    multi = ls.multi_cell_lines()
    assert multi
    for line in multi:
        steps = {abs(a - b) for a, b in zip(line[:-1], line[1:])}
        assert steps == {p.nx}, "line not aligned with the strong direction"
    covered = {c for line in multi for c in line}
    strong_band = {j * p.nx + i for j in range(p.ny) for i in range(p.nx)
                   if p.hy[j] < p.hx / 2.0}
    assert strong_band <= covered


def test_coupling_weight_validation():
    # Checked before either rule: on a path, on a ring and on a ladder.
    ring = [(0, 1), (1, 2), (0, 2)]
    for blocks, edges in (chain_blocks([1.0, np.nan]),
                          chain_blocks([np.inf, 1.0, 1.0]),
                          coupling_blocks(3, ring, [1.0, np.nan, 1.0]),
                          ladder_blocks([1.0, 1.0], rung_weight=np.nan)):
        with pytest.raises(ValueError, match="coupling weights must be finite"):
            extract_lines(blocks, edges)


@pytest.mark.parametrize("n_cells, lines", [
    (3, [[0], [1]]), (2, [[0, 1], [1]]), (2, [[0], [5]]), (2, [[0, 1], []]),
    (3, [[0, 1.5, 2]]), (2, [["0", "1"]]),
], ids=["missing", "repeated", "out_of_range", "empty_line", "non_integral",
        "string_cells"])
def test_lines_must_partition_cells(n_cells, lines):
    # A cell no line covers would be left unwritten by the line solve.
    with pytest.raises(ContractViolationError, match="partition"):
        LineSet(n_cells, lines, np.empty((0, 2), dtype=int))


def test_lineset_text_format():
    ls = kernel_lines(4, [[2, 1], [0], [3]])
    assert ls.to_text() == "2 1\n0\n3\n"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10_000))
def test_partition_and_path_validity_property(nx, ny, seed):
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
    ls = extract_lines(*coupling_blocks(nx * ny, edges, weights))
    assert covers_each_cell_once(ls)
    adjacency = {tuple(sorted(e)) for e in edges}
    for line in ls.lines:
        assert len(set(line)) == len(line)
        for p, q in zip(line[:-1], line[1:]):
            assert tuple(sorted((p, q))) in adjacency


def _greedy_reference(blocks, edges, threshold=4.0):
    """Line extraction as first written, for scalar blocks, plus the path
    rule: per-cell adjacency lists scanned for their extremes, and the
    strongest unvisited neighbor (lower index on ties) picked by ``max``.
    A graph that is a forest with at most two edges per cell gets one line
    per component instead, from its lower-index end. The production code
    must return the same lines."""
    n_cells = len(blocks.diag)
    weights = np.maximum(np.abs(blocks.off_ij), np.abs(blocks.off_ji))[:, 0, 0]
    adj = [[] for _ in range(n_cells)]
    for (i, j), w in zip(edges.tolist(), weights.tolist()):
        adj[i].append((w, j))
        adj[j].append((w, i))

    # Components by depth-first search; a component with as many edges as
    # cells holds a cycle (a repeated edge is a cycle of two cells).
    component = [-1] * n_cells
    members = []
    for root in range(n_cells):
        if component[root] < 0:
            component[root] = len(members)
            stack, cells = [root], []
            while stack:
                c = stack.pop()
                cells.append(c)
                for _, nb in adj[c]:
                    if component[nb] < 0:
                        component[nb] = component[root]
                        stack.append(nb)
            members.append(cells)
    n_edges = [0] * len(members)
    for i, _ in edges.tolist():
        n_edges[component[i]] += 1
    if (max(map(len, adj), default=0) <= 2
            and all(e == len(cells) - 1 for e, cells in zip(n_edges, members))):
        paths = []
        for cells in members:
            end = min(c for c in cells if len(adj[c]) < 2)
            path = [end]
            while len(path) < len(cells):
                path.append(next(nb for _, nb in adj[path[-1]]
                                 if len(path) < 2 or nb != path[-2]))
            paths.append(path)
        return sorted(paths)

    aniso = np.ones(n_cells)
    for c, inc in enumerate(adj):
        if len(inc) < 2:
            continue
        wmin = min(w for w, _ in inc)
        wmax = max(w for w, _ in inc)
        if wmin <= 0.0:
            aniso[c] = np.inf if wmax > 0.0 else 1.0
        else:
            aniso[c] = wmax / wmin
    visited = np.zeros(n_cells, dtype=bool)

    def grow(endpoint):
        inc = adj[endpoint]
        if not inc:
            return -1
        w_local_max = max(w for w, _ in inc)
        candidates = [(w, nb) for w, nb in inc if not visited[nb]]
        if not candidates:
            return -1
        w_best, nb_best = max(candidates, key=lambda wn: (wn[0], -wn[1]))
        if w_best < w_local_max / threshold:
            return -1
        return nb_best

    lines = []
    for seed in sorted(range(n_cells), key=lambda c: (-aniso[c], c)):
        if visited[seed] or aniso[seed] < threshold:
            continue
        visited[seed] = True
        path = [seed]
        end = seed
        while (end := grow(end)) >= 0:
            visited[end] = True
            path.append(end)
        end = seed
        while (end := grow(end)) >= 0:
            visited[end] = True
            path.insert(0, end)
        lines.append(path)
    return lines + [[c] for c in range(n_cells) if not visited[c]]


@st.composite
def coupling_graphs(draw):
    """Chain (ny = 1) and grid graphs, so 1 to 4 edges per cell, plus
    isolated cells and an optional disjoint chain or ring, under a random
    cell numbering: a ring beside a chain sends the whole graph to the
    greedy rule. Weights are zero or powers of 2, so that weight ratios hit
    the threshold 4 exactly and ties are common."""
    nx = draw(st.integers(min_value=1, max_value=8))
    ny = draw(st.integers(min_value=1, max_value=6))
    extra = draw(st.sampled_from([None, "chain", "ring"]))
    m = draw(st.integers(min_value=3, max_value=6)) if extra else 0
    n = nx * ny + m + draw(st.integers(min_value=0, max_value=3))
    label = draw(st.permutations(range(n)))
    edges = []
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            if i + 1 < nx:
                edges.append(sorted((label[k], label[k + 1])))
            if j + 1 < ny:
                edges.append(sorted((label[k], label[k + nx])))
    extra_cells = label[nx * ny:nx * ny + m]
    if extra == "ring":
        extra_cells = extra_cells + extra_cells[:1]
    edges += [sorted(pair) for pair in zip(extra_cells, extra_cells[1:])]
    weights = draw(st.lists(
        st.sampled_from([0.0] + [2.0 ** e for e in range(-4, 5)]),
        min_size=len(edges), max_size=len(edges)))
    return coupling_blocks(n, edges, weights)


@settings(max_examples=300, deadline=None)
@given(coupling_graphs())
def test_extraction_matches_greedy_reference_property(graph):
    assert extract_lines(*graph).lines == _greedy_reference(*graph)


# Line sets the solver extracts on the benchmark grids: (lines, multi-cell
# lines, longest line, cells on multi-cell lines, packed layout shape,
# sha256 of to_text()). Packed, the 48 singletons of 16x24 and the short
# lines of 32x48 share columns: one line per column would be (63, 59) and
# (255, 22).
@pytest.mark.parametrize("build, expected", [
    (lambda: make_aniso_convdiff(16, 24, stretching_ratio=1000.0),
     (59, 11, 36, 336, (63, 10), "65032969433457b79795ef427cffd134"
                                 "b6def43de4dd6e5befd67134d52fcbae")),
    (lambda: make_aniso_convdiff(32, 48, stretching_ratio=1000.0),
     (22, 22, 224, 1536, (224, 11), "58e62cdbb94a430ae00b23cc96ad3721"
                                    "03518993f67e7ea32df46be7080ab52f")),
    (lambda: make_quasi1d_euler(128),
     (1, 1, 128, 128, (128, 1), "7837a06c63ec8fc0e57954a2b97a8fbd"
                                "63562aea8ab5c7e6b345607955db7c10")),
    (lambda: make_quasi1d_euler(32),
     (1, 1, 32, 32, (32, 1), "245da0e4757599ae564bb2dc513f3433"
                             "00b617600063ffdf43dd6a481334968c")),
    (lambda: make_bratu(64),
     (1, 1, 64, 64, (64, 1), "29f3d8a031145c5dcce2c92f1f9be6b2"
                              "2f9fcab0a4a18e99413ecbfb195fcaf6")),
], ids=["convdiff16x24", "convdiff32x48", "nozzle128", "nozzle32", "bratu64"])
def test_benchmark_grid_line_sets_pinned(build, expected):
    p = build()
    ls = extract_lines(p.first_order_blocks(p.initial_state()), p.edges)
    digest = hashlib.sha256(ls.to_text().encode()).hexdigest()
    assert (len(ls.lines), len(ls.multi_cell_lines()),
            max(len(line) for line in ls.lines), ls.covered_by_multi(),
            ls.index.shape, digest) == expected


def test_nonfinite_coupling_is_named_by_its_pair():
    p = make_bratu(8, 1.0)
    blocks = p.first_order_blocks(p.initial_state())
    lines = extract_lines(blocks, p.edges)
    blocks.off_ji[3] = np.nan
    with pytest.raises(ContractViolationError,
                       match=r"line pair \(3, 4\) has a non-finite coupling"):
        factor_block_tridiag(lines, blocks, (None,))
