import functools
import operator
import time
from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcrash.corrnet import WeightedDigraph, correlation_series
from flagcrash.errors import DataError
from flagcrash.ingest import ReturnMatrix
from flagcrash import ph
from flagcrash.ph import (
    PersistenceDiagram,
    build_filtration,
    diagram_norm,
    persistent_homology,
    tda_features,
)

from oracles import (
    BAD_EDGES,
    brute_force_diagram,
    random_digraph,
    reference_kruskal,
    reference_persistence,
    run_at_blas_threads,
    series_of,
    union_find_merge_weights,
)


def graph(n, edges):
    return WeightedDigraph(
        n_vertices=n,
        edges=[(s, t, float(w)) for s, t, w in edges],
        as_of_date=date(2020, 1, 6),
    )


def reduction_multisets(g):
    d = persistent_homology(build_filtration(g))
    return Counter(d.finite), Counter(d.essential)


def triangles(f):
    """(vertex triple, value) of every triangle in filtration order."""
    out = []
    for bc, ac, ab in f.facets.tolist():
        (a, b), (a2, c), (b2, c2) = f.edges[[ab, ac, bc]].tolist()
        assert (a2, b2, c2) == (a, b, c)
        out.append(((a, b, c), f.weights[max(bc, ac, ab)].item()))
    return out


class TestBuildFiltration:
    def test_transitive_triangle_has_one_2_simplex(self):
        f = build_filtration(graph(3, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)]))
        assert triangles(f) == [((0, 1, 2), 0.3)]

    def test_directed_3_cycle_has_no_2_simplex(self):
        f = build_filtration(graph(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)]))
        assert triangles(f) == []

    def test_empty_edge_set_vertices_only(self):
        f = build_filtration(graph(4, []))
        assert f.n_vertices == 4
        assert f.edges.shape == (0, 2) and f.facets.shape == (0, 3)
        assert f.edge_start.tolist() == [0, 0] and f.tri_start.tolist() == [0, 0]

    def test_sorted_and_faces_precede(self):
        rng = np.random.default_rng(3)
        g = random_digraph(rng, 8)
        f = build_filtration(g)
        edges = [(w, s, t) for (s, t), w in zip(f.edges.tolist(), f.weights.tolist())]
        assert edges == sorted((w, s, t) for s, t, w in g.edges)
        tris = triangles(f)
        assert [(v, tup) for tup, v in tris] == sorted((v, tup) for tup, v in tris)
        for (tup, value), facets in zip(tris, f.facets.tolist()):
            # every facet is an edge of the graph, entering no later than the triangle
            assert all(f.weights[e] <= value for e in facets)
            assert value == max(f.weights[e] for e in facets)

    def test_vertices_at_zero(self):
        # vertices are implicit at 0: every H0 bar is born there
        d = persistent_homology(build_filtration(graph(2, [(0, 1, 0.4)])))
        assert d.finite == [(0.0, 0.4, 0)]
        assert d.essential == [(0.0, 0)]

    def test_rejects_self_loop_and_duplicate(self):
        with pytest.raises(DataError, match="self-loop"):
            build_filtration(graph(2, [(0, 0, 0.5)]))
        with pytest.raises(DataError, match="duplicate"):
            build_filtration(graph(2, [(0, 1, 0.5), (0, 1, 0.6)]))


class TestHandComputedDiagrams:
    def test_two_vertices_one_edge(self):
        finite, essential = reduction_multisets(graph(2, [(0, 1, 0.3)]))
        assert finite == Counter({(0.0, 0.3, 0): 1})
        assert essential == Counter({(0.0, 0): 1})

    def test_directed_3_cycle(self):
        finite, essential = reduction_multisets(
            graph(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
        )
        assert finite == Counter({(0.0, 0.5, 0): 2})
        assert essential == Counter({(0.0, 0): 1, (0.5, 1): 1})

    def test_transitive_triangle_zero_length_h1_discarded(self):
        finite, essential = reduction_multisets(
            graph(3, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)])
        )
        assert finite == Counter({(0.0, 0.1, 0): 1, (0.0, 0.2, 0): 1})
        assert essential == Counter({(0.0, 0): 1})

    def test_reciprocal_edges_make_a_digon_cycle(self):
        # (0,1) and (1,0) are distinct ordered 1-simplices sharing both
        # endpoints; their sum is a 1-cycle that nothing fills.
        finite, essential = reduction_multisets(graph(2, [(0, 1, 0.2), (1, 0, 0.4)]))
        assert finite == Counter({(0.0, 0.2, 0): 1})
        assert essential == Counter({(0.0, 0): 1, (0.4, 1): 1})


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_rank_oracle_on_small_digraphs(self, seed):
        rng = np.random.default_rng(9000 + seed)
        g = random_digraph(rng, 6)
        finite, essential = reduction_multisets(g)
        oracle_finite, oracle_essential = brute_force_diagram(g)
        assert finite == oracle_finite
        assert essential == oracle_essential

    @pytest.mark.parametrize("seed", range(25))
    def test_h0_deaths_match_union_find(self, seed):
        rng = np.random.default_rng(500 + seed)
        g = random_digraph(rng, 30)
        finite, essential = reduction_multisets(g)
        deaths = Counter(d for b, d, dim in finite.elements() if dim == 0)
        merge_weights, components = union_find_merge_weights(g)
        assert deaths == merge_weights
        assert sum(c for (b, dim), c in essential.items() if dim == 0) == components

    def test_h0_bar_count_equals_vertex_count(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            g = random_digraph(rng, 12)
            d = persistent_homology(build_filtration(g))
            n_h0 = sum(1 for *_, dim in d.finite if dim == 0) + sum(
                1 for _, dim in d.essential if dim == 0
            )
            assert n_h0 == g.n_vertices

    def test_isolated_vertex_only_adds_essential_h0(self):
        g = graph(3, [(0, 1, 0.4)])
        g_plus = graph(4, [(0, 1, 0.4)])
        d = persistent_homology(build_filtration(g))
        d_plus = persistent_homology(build_filtration(g_plus))
        assert Counter(d.finite) == Counter(d_plus.finite)
        assert Counter(d_plus.essential) - Counter(d.essential) == Counter({(0.0, 0): 1})

    @pytest.mark.parametrize("seed", range(10))
    def test_rescaling_rescales_every_bar(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_digraph(rng, 10)
        lam = float(rng.uniform(0.1, 5.0))
        scaled = WeightedDigraph(
            n_vertices=g.n_vertices,
            edges=[(s, t, lam * w) for s, t, w in g.edges],
            as_of_date=g.as_of_date,
        )
        d = persistent_homology(build_filtration(g))
        d_scaled = persistent_homology(build_filtration(scaled))
        got = sorted(d_scaled.finite)
        want = sorted((lam * b, lam * dth, dim) for b, dth, dim in d.finite)
        assert len(got) == len(want)
        for (gb, gd, gdim), (wb, wd, wdim) in zip(got, want):
            assert gdim == wdim
            assert gb == pytest.approx(wb, rel=1e-12, abs=1e-15)
            assert gd == pytest.approx(wd, rel=1e-12, abs=1e-15)


class TestNorms:
    def diagram(self, finite, essential=(), max_f=1.0):
        return PersistenceDiagram(
            finite=list(finite), essential=list(essential), max_filtration=max_f
        )

    def test_single_bar(self):
        d = self.diagram([(0.0, 0.3, 0)])
        assert diagram_norm(d, 1, 0) == pytest.approx(0.3)
        assert diagram_norm(d, 2, 0) == pytest.approx(0.3)

    def test_two_bars(self):
        d = self.diagram([(0.0, 0.3, 0), (0.0, 0.4, 0)])
        assert diagram_norm(d, 1, 0) == pytest.approx(0.7)
        assert diagram_norm(d, 2, 0) == pytest.approx(0.5)

    def test_empty_diagram_zero(self):
        d = self.diagram([])
        assert diagram_norm(d, 1, 0) == 0.0
        assert diagram_norm(d, 2, 1) == 0.0

    @pytest.mark.parametrize("lengths", [
        [0.1] * 10,  # 0.9999999999999999 summed in order, 1.0 compensated
        [1e16, 1.0, 1.0],
        [0.3, 1e-17, 0.7, 2.5e-16, 0.1, 0.2],
    ], ids=["ten-tenths", "absorbed", "mixed"])
    def test_norms_sum_in_bar_order(self, lengths):
        # the same floats on every Python: `sum` of floats is compensated
        # from 3.12 on, so it is not the oracle
        d = self.diagram([(0.0, x, 1) for x in lengths] + [(0.0, 0.5, 0)])
        l1 = functools.reduce(operator.add, lengths, 0.0)
        l2 = functools.reduce(operator.add, [x * x for x in lengths], 0.0)
        assert diagram_norm(d, 1, 1) == l1 and diagram_norm(d, 2, 1) == l2**0.5
        if lengths == [0.1] * 10:
            assert diagram_norm(d, 1, 1) == 0.9999999999999999

    def test_essential_dropped_by_default_capped_on_request(self):
        d = self.diagram([(0.0, 0.3, 1)], essential=[(0.2, 1)], max_f=0.9)
        assert diagram_norm(d, 1, 1) == pytest.approx(0.3)
        assert diagram_norm(d, 1, 1, essential="cap") == pytest.approx(0.3 + 0.7)

    def test_l1_dominates_l2_on_random_diagrams(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = random_digraph(rng, 8)
            d = persistent_homology(build_filtration(g))
            for dim in (0, 1):
                assert diagram_norm(d, 1, dim) >= diagram_norm(d, 2, dim) - 1e-15

    def test_bad_arguments(self):
        d = self.diagram([])
        with pytest.raises(DataError):
            diagram_norm(d, 3, 0)
        with pytest.raises(DataError):
            diagram_norm(d, 1, 2)
        # both norm paths check the essential policy, also on no windows
        with pytest.raises(DataError, match="essential policy"):
            diagram_norm(d, 1, 0, "keep")
        with pytest.raises(DataError, match="essential policy"):
            tda_features(np.zeros((0, 2, 2)), "keep")


class TestTdaFeatures:
    def test_empty_sequence(self):
        assert tda_features(series_of([]).weights).shape == (0, 4)

    def test_edgeless_graph_all_zero(self):
        feats = tda_features(series_of([graph(5, [])]).weights)
        assert tuple(feats[0]) == (0.0, 0.0, 0.0, 0.0)

    def test_two_vertex_edge_feature(self):
        feats = tda_features(series_of([graph(2, [(0, 1, 0.3)])]).weights)
        assert tuple(feats[0]) == pytest.approx((0.3, 0.3, 0.0, 0.0))

    @pytest.mark.parametrize("edges, message", BAD_EDGES.values(), ids=BAD_EDGES)
    def test_bad_edges_rejected_naming_the_graph(self, edges, message):
        # digraphs are checked before they become a series' adjacency array
        good = graph(3, [(0, 1, 0.5)])
        bad = WeightedDigraph(3, edges, date(2020, 1, 7))
        with pytest.raises(DataError, match=f"2020-01-07: .*{message}"):
            series_of([good, bad])

    def test_chunks_cover_the_series_in_order(self, monkeypatch):
        rng = np.random.default_rng(8)
        graphs = []
        for i in range(8):
            edges = [
                (s, t, round(float(rng.uniform(0.05, 1.0)), 1) or 0.1)
                for s in range(4)
                for t in range(4)
                if s != t and rng.random() < 0.6
            ]
            graphs.append(WeightedDigraph(4, edges, date(2020, 1, 1) + timedelta(days=i)))
        series = series_of(graphs)
        monkeypatch.setattr(ph, "CHUNK_TRIPLES", 3 * 4**3)
        chunks = ph.window_chunks(series.weights)
        assert [len(c) for c in chunks] == [3, 3, 2]
        assert np.array_equal(np.concatenate(chunks), series.weights)
        want = [tda_features(series_of([g]).weights, "cap")[0] for g in graphs]
        assert np.array_equal(tda_features(series.weights, "cap"), want)


# ---------------------------------------------------------------------------
# the batched engine against the simplex-list reducer and the rank oracle


@st.composite
def digraphs(draw, n):
    """A digraph on n vertices: no edges, all n(n-1) edges, or a random
    subset; weights from a few levels (forced ties) or continuous."""
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    shape = draw(st.sampled_from(["empty", "complete", "random"]))
    if shape == "empty":
        pairs = []
    elif shape == "random":
        pairs = [p for p in pairs if draw(st.booleans())]
    if draw(st.booleans()):
        levels = draw(st.integers(1, 3))
        weight = st.integers(1, levels).map(lambda k: k / levels)
    else:
        weight = st.floats(0.01, 1.0)
    return [(s, t, draw(weight)) for s, t in pairs]


@st.composite
def graph_sequences(draw, max_vertices):
    """Graphs of one vertex count (1 and 0 included), dated in order."""
    n = draw(st.integers(0, max_vertices))
    out = []
    for i in range(draw(st.integers(1, 9))):
        out.append(WeightedDigraph(n, draw(digraphs(n)), date(2019, 1, 1) + timedelta(days=i)))
    return out


def chunk_diagrams(chunk):
    return [ph._diagram(chunk.shape[1], *w) for w in ph._windows(ph._build(chunk))]


def batched_diagrams(graphs):
    chunks = ph.window_chunks(series_of(graphs).weights)
    return [d for chunk in chunks for d in chunk_diagrams(chunk)]


def assert_same_diagrams(got, want):
    assert got.finite == want.finite
    assert got.essential == want.essential
    assert got.max_filtration == want.max_filtration


def correlation_chunk(seed: int, kind: str) -> np.ndarray:
    """The 16 windows of a random panel's correlation digraphs, weights
    rounded up to quarters so that ties occur; window 0 is edgeless and
    window 1 isolates vertex 0, so it never connects."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    returns = rng.standard_normal((40, n)) + rng.uniform(0, 2) * rng.standard_normal((40, 1))
    days = [date(2020, 1, 1) + timedelta(days=i) for i in range(40)]
    rm = ReturnMatrix(dates=days, tickers=[f"T{i}" for i in range(n)], returns=returns)
    weights = np.ceil(correlation_series(rm, 25, kind).weights * 4) / 4
    weights[0] = 0.0
    weights[1, 0, :] = weights[1, :, 0] = 0.0
    return weights


class TestBatchedEngine:
    @settings(max_examples=150, deadline=None)
    @given(graph_sequences(7), st.sampled_from([1, 2 * 7**3 + 1, ph.CHUNK_TRIPLES]))
    def test_one_batched_call_equals_reference_per_graph(self, graphs, chunk_triples):
        # small budgets cut sequences into chunks of 1 to 2 windows, so runs
        # of 3 or more are not a multiple of the chunk size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ph, "CHUNK_TRIPLES", chunk_triples)
            diagrams = batched_diagrams(graphs)
            features = {e: tda_features(series_of(graphs).weights, e) for e in ("drop", "cap")}
        assert len(diagrams) == len(graphs)
        for i, (g, d) in enumerate(zip(graphs, diagrams)):
            want = reference_persistence(g)
            assert_same_diagrams(d, want)
            assert_same_diagrams(persistent_homology(build_filtration(g)), want)
            for essential, feats in features.items():
                norms = tuple(
                    diagram_norm(want, p, dim, essential) for dim in (0, 1) for p in (1, 2)
                )
                assert tuple(feats[i].tolist()) == norms  # bitwise

    @settings(max_examples=60, deadline=None)
    @given(graph_sequences(5))
    def test_batched_multisets_equal_rank_oracle(self, graphs):
        for g, d in zip(graphs, batched_diagrams(graphs)):
            finite, essential = brute_force_diagram(g)
            assert Counter(d.finite) == finite
            assert Counter(d.essential) == essential

    def test_long_tie_heavy_sequence_equals_reference(self):
        # 600 ten-vertex graphs: one chunk of CHUNK_TRIPLES // 1000 windows
        # and a shorter last chunk
        rng = np.random.default_rng(2112)
        graphs = []
        for i in range(600):
            g = random_digraph(rng, 10)
            g.n_vertices = 10
            g.edges = [(s, t, round(w, 1) or 0.1) for s, t, w in g.edges]
            g.as_of_date = date(2000, 1, 1) + timedelta(days=i)
            graphs.append(g)
        assert [len(c) for c in ph.window_chunks(series_of(graphs).weights)] == [524, 76]
        feats = tda_features(series_of(graphs).weights, "cap")
        for g, d, f in zip(graphs, batched_diagrams(graphs), feats):
            want = reference_persistence(g)
            assert_same_diagrams(d, want)
            assert tuple(f.tolist()) == tuple(
                diagram_norm(want, p, dim, "cap") for dim in (0, 1) for p in (1, 2)
            )

    def test_narrowed_sort_keys_equal_per_window_features(self):
        # a chunk of more than 256 edges sorts uint16 keys, of more than 65536
        # uint32; windows are drawn from a pool of tie-heavy ones, each also run alone
        for n, windows, edges_over in [(8, 12, 256), (3, 13000, 65536)]:
            rng = np.random.default_rng(n)
            pool = np.ceil(rng.uniform(size=(40, n, n)) * 4) / 4 * (rng.random((40, n, n)) < 0.9)
            pool[:, range(n), range(n)] = 0.0
            pick = rng.integers(0, len(pool), windows)
            (chunk,) = ph.window_chunks(pool[pick])
            assert np.count_nonzero(chunk) > edges_over
            for essential in ("drop", "cap"):
                alone = np.concatenate([tda_features(w[None], essential) for w in pool])
                assert tda_features(chunk, essential).tobytes() == alone[pick].tobytes()

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["pearson", "ccm"])
    def test_window_union_find_equals_lockstep_kruskal(self, kind, seed):
        for chunk in (correlation_chunk(seed, kind), np.zeros((2, 1, 1)), np.zeros((2, 4, 4))):
            f = ph._build(chunk)
            # np.nonzero lists each window's edges by (source, target), so the
            # (window, weight) sort is the four-key one
            window, source, target = np.nonzero(chunk)
            weights = chunk[window, source, target]
            order = np.lexsort((target, source, weights, window))
            assert f.edges.tolist() == np.stack([source, target], axis=1)[order].tolist()
            assert f.weights.tolist() == weights[order].tolist()
            tree = reference_kruskal(f)
            for i, d in enumerate(chunk_diagrams(chunk)):
                lo, hi = f.edge_start[i], f.edge_start[i + 1]
                deaths = f.weights[lo:hi][tree[lo:hi]].tolist()
                assert [bar for bar in d.finite if bar[2] == 0] == [(0.0, w, 0) for w in deaths]
                assert d.essential.count((0.0, 0)) == f.n_vertices - len(deaths)

    def test_dense_windows_in_one_chunk_equal_each_window_alone(self):
        # eight one-factor 39-ticker CCM windows fill one chunk, so their triangle
        # ranks run across it; weights rounded up to 64ths make edges tie
        rng = np.random.default_rng(15)
        returns = 1.5 * rng.standard_normal((32, 1)) + rng.standard_normal((32, 39))
        days = [date(2020, 1, 1) + timedelta(days=i) for i in range(32)]
        rm = ReturnMatrix(dates=days, tickers=[f"T{i}" for i in range(39)], returns=returns)
        chunk = np.ceil(correlation_series(rm, 25, "ccm").weights * 64) / 64
        assert [len(c) for c in ph.window_chunks(chunk)] == [8]
        assert np.count_nonzero(chunk) > 8 * 1300
        assert all(len(np.unique(w[w > 0])) < np.count_nonzero(w) for w in chunk)
        s, t = np.nonzero(chunk[0])
        want = reference_persistence(graph(39, zip(s, t, chunk[0][s, t])))
        for essential in ("drop", "cap"):
            feats = tda_features(chunk, essential)
            alone = np.concatenate([tda_features(w[None], essential) for w in chunk])
            assert feats.tobytes() == alone.tobytes()
            assert tuple(feats[0].tolist()) == tuple(
                diagram_norm(want, p, dim, essential) for dim in (0, 1) for p in (1, 2)
            )

    def test_dense_39_vertex_graph_ten_times_faster_than_reference(self):
        rng = np.random.default_rng(39)
        edges = [
            (s, t, float(rng.uniform(0.05, 1.0)))
            for s in range(39)
            for t in range(39)
            if s != t and rng.random() < 0.96
        ]
        assert len(edges) >= 1400
        g = graph(39, edges)
        fast = []
        for _ in range(3):
            t0 = time.perf_counter()
            got = persistent_homology(build_filtration(g))
            fast.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        want = reference_persistence(g)
        slow = time.perf_counter() - t0
        assert_same_diagrams(got, want)
        assert slow > 10 * min(fast)


def forest_of(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`ph._spanning_forest` over every edge of a (W, n, n) chunk, and
    `reference_kruskal`'s forest of the chunk's filtration."""
    f = ph._build(chunk)
    n_windows, n = chunk.shape[:2]
    window = np.searchsorted(f.edge_start, np.arange(len(f.edges)), "right") - 1
    got = ph._spanning_forest(f.edges + n * window[:, None], n_windows * n)
    return got, reference_kruskal(f)


class TestSpanningForest:
    @pytest.mark.parametrize("shape", [(1, 4, 4), (3, 4, 4), (2, 1, 1)])
    def test_edgeless_chunks_have_no_forest(self, shape):
        got, want = forest_of(np.zeros(shape))
        assert got.shape == want.shape == (0,)

    def test_isolated_vertices_stay_out(self):
        chunk = np.zeros((1, 6, 6))
        chunk[0, 0, 1], chunk[0, 1, 2], chunk[0, 2, 0] = 0.3, 0.2, 0.1
        got, want = forest_of(chunk)
        assert got.tolist() == want.tolist() == [True, True, False]

    @pytest.mark.parametrize("first, second", [(0.4, 0.7), (0.7, 0.4), (0.5, 0.5)])
    def test_one_direction_of_a_pair_joins(self, first, second):
        chunk = np.zeros((1, 2, 2))
        chunk[0, 0, 1], chunk[0, 1, 0] = first, second
        got, want = forest_of(chunk)
        assert got.tolist() == want.tolist() == [True, False]

    def test_several_components_in_one_window(self):
        # a triangle, a two-way pair and a four-vertex cycle, apart
        chunk = np.zeros((1, 10, 10))
        for s, t, w in [(0, 1, 0.5), (1, 2, 0.25), (0, 2, 0.75), (3, 4, 0.5), (4, 3, 0.5),
                        (5, 6, 0.1), (6, 7, 0.4), (7, 8, 0.3), (8, 5, 0.2), (5, 7, 0.9)]:
            chunk[0, s, t] = w
        got, want = forest_of(chunk)
        assert got.tolist() == want.tolist()
        assert got.sum() == 10 - 3 - 1  # three components and isolated vertex 9

    def test_a_path_of_hooks(self):
        # every vertex's least edge leads to its left neighbor, so the first
        # round's hooks form one path of 63, which pointer jumping collapses
        n = 64
        chunk = np.zeros((1, n, n))
        chunk[0, np.arange(n - 1), np.arange(1, n)] = np.linspace(0.1, 0.9, n - 1)
        chunk[0, 0, n - 1] = 1.0
        got, want = forest_of(chunk)
        assert got.tolist() == want.tolist() == [True] * (n - 1) + [False]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["pearson", "ccm"])
    def test_one_window_and_many_window_chunks_equal_kruskal(self, kind, seed):
        chunk = correlation_chunk(seed, kind)
        for part in (chunk, chunk[2:3], chunk[[1]], chunk[::-1]):
            got, want = forest_of(part)
            assert got.tolist() == want.tolist()

    def test_random_tied_chunks_equal_kruskal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n_windows, n = rng.integers(1, 7), rng.integers(1, 10)
            chunk = np.ceil(rng.random((n_windows, n, n)) * 4) / 4
            chunk *= rng.random(chunk.shape) < rng.random()
            chunk[:, range(n), range(n)] = 0.0
            got, want = forest_of(chunk)
            assert got.tolist() == want.tolist()

    def test_persistence_leaves_csgraph_unimported(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from flagcrash.ph import tda_features\n"
            "w = np.random.default_rng(0).random((30, 6, 6))\n"
            "w[:, range(6), range(6)] = 0.0\n"
            "assert tda_features(w).shape == (30, 4)\n"
            "print('scipy.sparse.csgraph' in sys.modules)\n"
        )
        assert run_at_blas_threads(code).strip() == "False"
