import contextlib
import copy
import dataclasses
from datetime import date

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flagcrash import autodiff as ad
from flagcrash import gnn
from flagcrash.checkpoint import save_checkpoint
from flagcrash.corrnet import WeightedDigraph, graph_series
from flagcrash.errors import DataError
from flagcrash.gnn import (
    AttributedGraph,
    GlocalConfig,
    OcginConfig,
    attribute_graphs,
    gine_forward,
    glocalkd_scores,
    glocalkd_train,
    init_gine,
    ocgin_scores,
    ocgin_train,
)
from flagcrash.pipeline import stage_gnn
from flagcrash.tables import write_scores_csv

from oracles import (
    BAD_EDGES,
    chunked_center,
    chunked_glocalkd_scores,
    chunked_glocalkd_train,
    chunked_ocgin_scores,
    chunked_teacher_targets,
    model_checksum,
    random_graph_sequence,
    series_of,
    ReferenceLayout,
    reference_batch,
    reference_gine_aggregate,
    reference_glocalkd_scores,
    reference_glocalkd_train,
    reference_ocgin_scores,
    reference_ocgin_train,
)


def digraph(n, edges):
    return WeightedDigraph(
        n_vertices=n,
        edges=[(s, t, float(w)) for s, t, w in edges],
        as_of_date=date(2020, 1, 2),
    )


def numpy_gine_forward(model, g):
    """Loop-based reference forward, independent of the tape machinery."""
    h = g.x.copy()
    outs = []
    for layer in model.layers:
        agg = np.zeros_like(h)
        proj = layer.edge_proj.data
        for (s, t), yv in zip(g.edges, g.y):
            agg[t] += np.maximum(h[s] + yv @ proj, 0.0)
            agg[s] += np.maximum(h[t] + yv @ proj, 0.0)
        pre = (1.0 + float(layer.epsilon.data)) * h + agg
        h = np.maximum(pre @ layer.w1.data, 0.0) @ layer.w2.data
        outs.append(h)
    emb = np.concatenate([o.mean(axis=0) for o in outs])
    return outs, emb


def grad_or_zeros(p):
    return p.grad.copy() if p.grad is not None else np.zeros_like(p.data)


def finite_difference(loss_fn, params, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat, gflat = p.data.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = max(np.max(np.abs(a)), np.max(np.abs(n)), 1.0)
        worst = max(worst, np.max(np.abs(a - n)) / denom)
    return worst


class TestAttributeGraphs:
    def test_edgeless(self):
        (g,) = attribute_graphs([digraph(3, [])])
        np.testing.assert_array_equal(g.x, [[1.0, 0.0]] * 3)
        assert g.edges.shape == (0, 2) and g.y.shape == (0, 1)

    def test_single_edge(self):
        (g,) = attribute_graphs([digraph(2, [(0, 1, 0.5)])])
        np.testing.assert_array_equal(g.x, [[1.0, 0.5], [1.0, 0.5]])
        np.testing.assert_array_equal(g.y, [[0.5]])

    def test_star_weighted_degrees(self):
        (g,) = attribute_graphs(
            [digraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])]
        )
        np.testing.assert_array_equal(g.x[0], [1.0, 3.0])
        for leaf in (1, 2, 3):
            np.testing.assert_array_equal(g.x[leaf], [1.0, 1.0])

    @pytest.mark.parametrize("edges, message", BAD_EDGES.values(), ids=BAD_EDGES)
    def test_bad_edges_rejected_naming_the_graph(self, edges, message):
        # the archive's edge check, before any feature is formed
        good = digraph(3, [(0, 1, 0.5)])
        bad = WeightedDigraph(3, edges, date(2020, 1, 7))
        with pytest.raises(DataError, match=f"^graph 2020-01-07: .*{message}"):
            attribute_graphs([good, bad])

    def test_valid_graphs_keep_their_edges_in_order(self):
        # the check neither reorders nor drops edges: a hand-built graph's
        # edges and weights come out in its own order
        raw = random_graph_sequence(41, 6, 9) + [digraph(3, [(2, 0, 0.75), (0, 1, 0.5)])]
        for g, a in zip(raw, attribute_graphs(raw)):
            assert a.n == g.n_vertices
            assert a.edges.tolist() == [[s, t] for s, t, _ in g.edges]
            assert a.y[:, 0].tolist() == [w for _, _, w in g.edges]
            degree = np.zeros(g.n_vertices)
            for s, t, w in g.edges:
                degree[s] += w
                degree[t] += w
            assert a.x.tolist() == [[1.0, d] for d in degree.tolist()]


class TestGineForward:
    def test_no_edges_zero_eps_is_pure_mlp(self):
        rng = np.random.default_rng(1)
        model = init_gine(rng, hidden=6, n_layers=2)
        (g,) = attribute_graphs([digraph(4, [])])
        per_layer, _ = gine_forward(model, g)
        h = g.x
        for layer, out in zip(model.layers, per_layer):
            h = np.maximum(h @ layer.w1.data, 0.0) @ layer.w2.data
            np.testing.assert_allclose(out.data, h, atol=1e-14)

    def test_vertex_transitive_graph_equal_embeddings(self):
        rng = np.random.default_rng(2)
        model = init_gine(rng, hidden=5, n_layers=3)
        ring = digraph(5, [(i, (i + 1) % 5, 0.7) for i in range(5)])
        (g,) = attribute_graphs([ring])
        per_layer, _ = gine_forward(model, g)
        for out in per_layer:
            spread = np.max(np.abs(out.data - out.data[0]), axis=0)
            assert np.max(spread) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_isomorphic_relabeling_preserves_graph_embedding(self, seed):
        rng = np.random.default_rng(700 + seed)
        g_raw = random_graph_sequence(seed, 1, 9)[0]
        model = init_gine(rng, hidden=7, n_layers=2)
        perm = rng.permutation(g_raw.n_vertices)
        relabeled = WeightedDigraph(
            n_vertices=g_raw.n_vertices,
            edges=[(int(perm[s]), int(perm[t]), w) for s, t, w in g_raw.edges],
            as_of_date=g_raw.as_of_date,
        )
        a, b = attribute_graphs([g_raw, relabeled])
        per_a, emb_a = gine_forward(model, a)
        per_b, emb_b = gine_forward(model, b)
        np.testing.assert_allclose(emb_a.data, emb_b.data, atol=1e-12)
        # node embeddings permute along with the vertices: vertex v maps to perm[v]
        np.testing.assert_allclose(per_a[-1].data, per_b[-1].data[perm], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_numpy_reference(self, seed):
        rng = np.random.default_rng(50 + seed)
        model = init_gine(rng, hidden=6, n_layers=3)
        (g,) = attribute_graphs(random_graph_sequence(seed + 20, 1, 10))
        per_layer, emb = gine_forward(model, g)
        ref_layers, ref_emb = numpy_gine_forward(model, g)
        np.testing.assert_allclose(emb.data, ref_emb, atol=1e-12)
        for mine, ref in zip(per_layer, ref_layers):
            np.testing.assert_allclose(mine.data, ref, atol=1e-12)

    def test_shape_mismatch_errors(self):
        rng = np.random.default_rng(3)
        model = init_gine(rng)
        bad = AttributedGraph(
            n=2, x=np.ones((2, 3)), edges=np.zeros((0, 2), dtype=np.intp), y=np.zeros((0, 1))
        )
        with pytest.raises(DataError):
            gine_forward(model, bad)


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_gine_layer_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(900 + seed)
        model = init_gine(rng, hidden=4, n_layers=2)
        (g,) = attribute_graphs(random_graph_sequence(seed + 40, 1, 6))
        params = model.parameters()

        def loss_value():
            _, emb = gine_forward(model, g)
            return float(ad.squared_norm(emb).data)

        for p in params:
            p.zero_grad()
        ad.squared_norm(gine_forward(model, g)[1]).backward()
        analytic = [grad_or_zeros(p) for p in params]
        numeric = finite_difference(loss_value, params)
        assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_ocgin_loss_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(950 + seed)
        model = init_gine(rng, hidden=4, n_layers=2)
        graphs = attribute_graphs(random_graph_sequence(seed + 60, 3, 6))
        center = ad.Tensor(rng.normal(size=model.embedding_dim) * 0.3)
        params = model.parameters()

        def loss_tensor():
            terms = [
                ad.squared_norm(ad.sub(gine_forward(model, g)[1], center))
                for g in graphs
            ]
            total = terms[0]
            for t in terms[1:]:
                total = ad.add(total, t)
            return ad.scalar_mul(1.0 / len(graphs), total)

        for p in params:
            p.zero_grad()
        loss_tensor().backward()
        analytic = [grad_or_zeros(p) for p in params]
        numeric = finite_difference(lambda: float(loss_tensor().data), params)
        assert max_rel_error(analytic, numeric) < 1e-4


class TestOcgin:
    def small_config(self, **kw):
        base = dict(
            lr=0.003,
            weight_decay=0.0,
            batch_size=16,
            layers=2,
            hidden=5,
            epochs=60,
            seed=7,
        )
        base.update(kw)
        return OcginConfig(**base)

    def test_identical_graphs_loss_tiny(self):
        # the center is the shared embedding itself, so the loss can sit at
        # (numerically) zero from the first epoch
        graphs = attribute_graphs(
            [digraph(4, [(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.2)])] * 10
        )
        state = ocgin_train(graphs, self.small_config(epochs=200))
        assert min(state.loss_curve) < 1e-6
        assert state.loss_curve[-1] < 1e-3

    def test_zeroing_every_output_map_gives_center_norm_loss(self):
        graphs = attribute_graphs(random_graph_sequence(5, 8, 6))
        state = ocgin_train(graphs, self.small_config(epochs=1))
        for layer in state.model.layers:
            layer.w2.data[:] = 0.0
        scores = ocgin_scores(state, graphs)
        expected = float(state.center @ state.center)
        np.testing.assert_allclose(scores, expected, atol=1e-12)

    def test_two_seeds_differ_but_both_descend(self):
        graphs = attribute_graphs(random_graph_sequence(8, 24, 8))
        state_a = ocgin_train(graphs, self.small_config(seed=1, epochs=40))
        state_b = ocgin_train(graphs, self.small_config(seed=2, epochs=40))
        assert model_checksum(state_a.model) != model_checksum(state_b.model)
        for curve in (state_a.loss_curve, state_b.loss_curve):
            smoothed = np.convolve(curve, np.ones(8) / 8, mode="valid")
            assert smoothed[-1] < smoothed[0]
            upticks = np.diff(smoothed) > 1e-7 * (1 + smoothed[0])
            assert upticks.mean() < 0.2

    def test_scores_nonnegative_and_outlier_on_top(self):
        rng = np.random.default_rng(4)
        ring_graphs = []
        for _ in range(30):
            w = 0.5 + 0.01 * rng.standard_normal()
            ring_graphs.append(
                digraph(6, [(i, (i + 1) % 6, min(max(w, 0.1), 1.0)) for i in range(6)])
            )
        outlier = digraph(
            6, [(i, j, 1.0) for i in range(6) for j in range(6) if i != j]
        )
        graphs = attribute_graphs(ring_graphs + [outlier])
        state = ocgin_train(graphs, self.small_config(weight_decay=1e-4, epochs=40))
        scores = ocgin_scores(state, graphs)
        assert (scores >= 0.0).all()
        assert np.argmax(scores) == len(graphs) - 1

    def test_fixed_seed_bit_identical(self):
        graphs = attribute_graphs(random_graph_sequence(9, 12, 6))
        cfg = self.small_config(weight_decay=1e-5, epochs=15)
        a = ocgin_train(graphs, cfg)
        b = ocgin_train(graphs, cfg)
        assert np.array_equal(a.center, b.center)
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_empty_graph_list_rejected(self):
        with pytest.raises(DataError):
            ocgin_train([], self.small_config())


class TestGlocal:
    def small_config(self, **kw):
        base = dict(
            lr=0.003, batch_size=16, layers=2, hidden=5, lam=0.1, epochs=40, seed=11
        )
        base.update(kw)
        return GlocalConfig(**base)

    def test_student_equal_teacher_zero_loss_zero_grads(self):
        graphs = attribute_graphs(random_graph_sequence(3, 6, 6))
        state = glocalkd_train(graphs, self.small_config(epochs=1))
        state.student = copy.deepcopy(state.teacher)
        np.testing.assert_array_equal(glocalkd_scores(state, graphs), 0.0)

    def test_lambda_zero_score_is_graph_term_alone(self):
        graphs = attribute_graphs(random_graph_sequence(6, 5, 6))
        state = glocalkd_train(graphs, self.small_config(lam=0.0, epochs=3))
        scores = glocalkd_scores(state, graphs)
        for g, score in zip(graphs, scores):
            _, t_emb = numpy_gine_forward(state.teacher, g)
            _, s_emb = numpy_gine_forward(state.student, g)
            expected = float(np.sum((s_emb - t_emb) ** 2))
            assert score == pytest.approx(expected, rel=1e-12)

    def test_training_reduces_mean_loss(self):
        graphs = attribute_graphs(random_graph_sequence(12, 50, 8))
        state = glocalkd_train(graphs, self.small_config(epochs=30))
        assert state.loss_curve[-1] < state.loss_curve[0]

    def test_teacher_frozen_through_training(self):
        graphs = attribute_graphs(random_graph_sequence(13, 10, 6))
        cfg = self.small_config(epochs=2)
        rng = np.random.default_rng(cfg.seed)
        reference = init_gine(rng, hidden=cfg.hidden, n_layers=cfg.layers)
        state = glocalkd_train(graphs, cfg)
        assert model_checksum(state.teacher) == model_checksum(reference)
        for pt, pr in zip(state.teacher.parameters(), reference.parameters()):
            assert np.array_equal(pt.data, pr.data)

    def test_scores_nonnegative_and_planted_outlier_top3(self):
        rng = np.random.default_rng(14)
        base = []
        for _ in range(30):
            w = float(np.clip(0.6 + 0.01 * rng.standard_normal(), 0.1, 1.0))
            base.append(digraph(6, [(i, (i + 1) % 6, w) for i in range(6)]))
        outlier = digraph(
            6, [(i, j, 1.0) for i in range(6) for j in range(6) if i != j]
        )
        graphs = attribute_graphs(base + [outlier])
        state = glocalkd_train(graphs, self.small_config(epochs=40))
        scores = glocalkd_scores(state, graphs)
        assert (scores >= 0.0).all()
        assert len(graphs) - 1 in np.argsort(scores)[-3:]

    def test_glocal_gradient_matches_fd(self):
        rng = np.random.default_rng(15)
        graphs = attribute_graphs(random_graph_sequence(16, 2, 5))
        cfg = self.small_config(epochs=1)
        teacher = init_gine(rng, hidden=4, n_layers=2)
        student = init_gine(rng, hidden=4, n_layers=2)
        lam = 0.5
        params = student.parameters()

        def loss_value():
            total = 0.0
            for g in graphs:
                t_layers, t_emb = numpy_gine_forward(teacher, g)
                s_layers, s_emb = gine_forward(student, g)
                node = np.sum((s_layers[-1].data - t_layers[-1]) ** 2) / g.n
                graph = np.sum((s_emb.data - t_emb) ** 2)
                total += lam * node + graph
            return total / len(graphs)

        def loss_tensor():
            terms = []
            for g in graphs:
                t_layers, t_emb = numpy_gine_forward(teacher, g)
                s_layers, s_emb = gine_forward(student, g)
                node = ad.scalar_mul(
                    lam / g.n, ad.squared_norm(ad.sub(s_layers[-1], ad.Tensor(t_layers[-1])))
                )
                graph = ad.squared_norm(ad.sub(s_emb, ad.Tensor(t_emb)))
                terms.append(ad.add(node, graph))
            total = terms[0]
            for t in terms[1:]:
                total = ad.add(total, t)
            return ad.scalar_mul(1.0 / len(graphs), total)

        for p in params:
            p.zero_grad()
        loss_tensor().backward()
        analytic = [grad_or_zeros(p) for p in params]
        numeric = finite_difference(loss_value, params)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            glocalkd_train([], self.small_config())


def mixed_graphs():
    """Different vertex counts, an edgeless graph, a one-direction (Pearson-
    like) graph, a both-direction (CCM-like) graph and random digraphs."""
    one_way = digraph(5, [(0, 1, 0.3), (0, 2, 0.9), (1, 3, 0.5), (2, 4, 0.7), (3, 4, 0.2)])
    both_ways = digraph(
        4, [(0, 1, 0.4), (1, 0, 0.8), (1, 2, 0.6), (2, 1, 0.1), (2, 3, 0.5), (3, 0, 0.3)]
    )
    raw = [one_way, digraph(3, []), both_ways, digraph(1, [])]
    raw += random_graph_sequence(31, 4, 9)
    return attribute_graphs(raw)


def batch_of(graphs, idx):
    """The batch of the graphs `idx` from a layout of its own, so that it
    stays valid while other batches are assembled."""
    return gnn._Layout(graphs, len(idx)).batch(idx)


def relative_gap(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


class TestBatchedForward:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_batch_matches_numpy_reference_per_graph(self, seed):
        rng = np.random.default_rng(300 + seed)
        model = init_gine(rng, hidden=6, n_layers=3)
        graphs = mixed_graphs()
        order = rng.permutation(len(graphs))
        batch = batch_of(graphs, order)
        per_layer, emb = gnn._forward(model, batch)
        assert emb.shape == (len(graphs), model.embedding_dim)
        assert per_layer[-1].shape == (sum(g.n for g in graphs), model.hidden)
        for row, i in enumerate(order):
            ref_layers, ref_emb = numpy_gine_forward(model, graphs[i])
            lo, hi = batch.offsets[row], batch.offsets[row + 1]
            np.testing.assert_allclose(emb.data[row], ref_emb, rtol=0, atol=1e-12)
            for mine, ref in zip(per_layer, ref_layers):
                np.testing.assert_allclose(mine.data[lo:hi], ref, rtol=0, atol=1e-12)

    def test_batch_holds_sparse_block_diagonal_matrices(self):
        graphs = mixed_graphs()
        batch = batch_of(graphs, range(len(graphs)))
        n_msgs = 2 * sum(len(g.edges) for g in graphs)
        n_nodes = sum(g.n for g in graphs)
        # one-hot gather rows and scatter columns: one entry per message
        assert (batch.gather.format, batch.scatter.format, batch.pool.format) == (
            "csr", "csc", "csr"
        )
        for one_hot in (batch.gather, batch.scatter):
            assert np.array_equal(one_hot.indptr, np.arange(n_msgs + 1))
            assert np.array_equal(one_hot.data, np.ones(n_msgs))
        assert batch.gather.shape == (n_msgs, n_nodes) and batch.gather.nnz == n_msgs
        assert batch.scatter.shape == (n_nodes, n_msgs) and batch.scatter.nnz == n_msgs
        assert batch.pool.shape == (len(graphs), n_nodes) and batch.pool.nnz == n_nodes
        # every message stays inside its own graph's block
        for row, (lo, hi) in enumerate(zip(batch.offsets[:-1], batch.offsets[1:])):
            np.testing.assert_allclose(batch.pool[row].toarray()[0, lo:hi], 1.0 / graphs[row].n)
        src = batch.gather.indices
        tgt = batch.scatter.indices
        assert np.array_equal(
            np.searchsorted(batch.offsets, src, side="right"),
            np.searchsorted(batch.offsets, tgt, side="right"),
        )

    def test_vertexless_graph_rejected(self):
        (g,) = attribute_graphs([digraph(0, [])])
        with pytest.raises(DataError, match="vertices"):
            ocgin_scores(ocgin_train([g], OcginConfig(epochs=1)), [g])


def oracle_configs():
    return [
        dict(lr=0.003, batch_size=16, layers=2, hidden=5, epochs=25, seed=7),
        dict(lr=0.001, batch_size=7, layers=3, hidden=6, epochs=12, seed=3),
        dict(lr=0.01, batch_size=50, layers=1, hidden=4, epochs=40, seed=5, patience=5),
    ]


class TestAgainstPerGraphOracle:
    """Batched training and scoring against the per-graph one-hot oracle."""

    @pytest.mark.parametrize("case", range(3))
    def test_ocgin_scores_and_loss_curve(self, case):
        graphs = attribute_graphs(random_graph_sequence(400 + case, 30, 9))
        config = OcginConfig(weight_decay=1e-4, **oracle_configs()[case])
        state = ocgin_train(graphs, config)
        ref = reference_ocgin_train(graphs, config)
        assert len(state.loss_curve) == len(ref.loss_curve)
        assert relative_gap(state.loss_curve, ref.loss_curve) <= 1e-10
        assert relative_gap(state.center, ref.center) <= 1e-10
        scores = ocgin_scores(state, graphs, config.batch_size)
        assert relative_gap(scores, reference_ocgin_scores(ref, graphs)) <= 1e-10

    @pytest.mark.parametrize("case", range(3))
    def test_glocalkd_scores_and_loss_curve(self, case):
        graphs = attribute_graphs(random_graph_sequence(500 + case, 30, 9))
        config = GlocalConfig(lam=0.1 + 0.4 * case, **oracle_configs()[case])
        state = glocalkd_train(graphs, config)
        ref = reference_glocalkd_train(graphs, config)
        assert len(state.loss_curve) == len(ref.loss_curve)
        assert relative_gap(state.loss_curve, ref.loss_curve) <= 1e-10
        scores = glocalkd_scores(state, graphs, config.batch_size)
        assert relative_gap(scores, reference_glocalkd_scores(ref, graphs)) <= 1e-10

    def test_early_stop_epoch_matches(self):
        graphs = attribute_graphs(random_graph_sequence(600, 20, 7))
        config = OcginConfig(
            lr=0.003, batch_size=8, layers=2, hidden=4, epochs=200, patience=3, min_delta=1e-3
        )
        state = ocgin_train(graphs, config)
        ref = reference_ocgin_train(graphs, config)
        assert len(state.loss_curve) < config.epochs
        assert len(state.loss_curve) == len(ref.loss_curve)


class TestScoreChunks:
    @pytest.mark.parametrize("size", [1, 3, 7, 100])
    def test_chunked_scores_equal_one_chunk(self, size):
        graphs = mixed_graphs() + attribute_graphs(random_graph_sequence(700, 12, 8))
        oc = ocgin_train(graphs, OcginConfig(lr=0.003, layers=2, hidden=5, epochs=3))
        kd = glocalkd_train(graphs, GlocalConfig(lr=0.003, layers=2, hidden=5, epochs=3))
        whole = len(graphs)
        assert relative_gap(ocgin_scores(oc, graphs, size), ocgin_scores(oc, graphs, whole)) <= 1e-12
        assert relative_gap(
            glocalkd_scores(kd, graphs, size), glocalkd_scores(kd, graphs, whole)
        ) <= 1e-12

    def test_scoring_keeps_no_tape_and_equals_taped_scores(self, monkeypatch):
        graphs = mixed_graphs() + attribute_graphs(random_graph_sequence(702, 9, 8))
        oc = ocgin_train(graphs, OcginConfig(lr=0.003, layers=2, hidden=5, epochs=2))
        kd = glocalkd_train(graphs, GlocalConfig(lr=0.003, layers=2, hidden=5, epochs=2))
        taped = []
        forward = gnn._forward

        def spy(model, batch):
            per_layer, emb = forward(model, batch)
            taped.append(bool(emb._parents))
            return per_layer, emb

        monkeypatch.setattr(gnn, "_forward", spy)
        plain = [ocgin_scores(oc, graphs, 4), glocalkd_scores(kd, graphs, 4)]
        assert taped and not any(taped)
        taped.clear()
        monkeypatch.setattr(ad, "no_grad", contextlib.nullcontext)
        with_tape = [ocgin_scores(oc, graphs, 4), glocalkd_scores(kd, graphs, 4)]
        assert any(taped)
        for got, want in zip(plain, with_tape):
            assert np.array_equal(got, want)

    def test_empty_graph_list_scores_empty(self):
        graphs = attribute_graphs(random_graph_sequence(701, 3, 5))
        oc = ocgin_train(graphs, OcginConfig(layers=1, hidden=3, epochs=1))
        kd = glocalkd_train(graphs, GlocalConfig(layers=1, hidden=3, epochs=1))
        assert ocgin_scores(oc, []).shape == (0,)
        assert glocalkd_scores(kd, []).shape == (0,)


def adjacency_series(seed, count, n, kind):
    """A window series of `count` random digraphs on n vertices; a Pearson
    series keeps only edges s -> t with s < t, as correlation_series does."""
    graphs = random_graph_sequence(seed, count, n)
    for g in graphs:
        g.n_vertices = n
        if kind == "pearson":
            g.edges = [(s, t, w) for s, t, w in g.edges if s < t]
    graphs[1].edges = []
    return series_of(graphs, kind)


class TestAdjacencyBatches:
    """A run passes the series' adjacency array; its batches, training and
    scores must equal those of the same graphs as an attributed list."""

    @pytest.mark.parametrize("kind", ["pearson", "ccm"])
    def test_batch_equals_attributed_batch(self, kind):
        series = adjacency_series(800, 12, 7, kind)
        listed = attribute_graphs(graph_series(series))
        order = np.random.default_rng(1).permutation(len(series))
        a, b = batch_of(series.weights, order), batch_of(listed, order)
        for name in ("sizes", "offsets"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.x.data, b.x.data) and np.array_equal(a.y, b.y)
        for name in ("gather", "scatter", "pool"):
            m, m2 = getattr(a, name), getattr(b, name)
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(m, part), getattr(m2, part))

    @pytest.mark.parametrize("kind", ["pearson", "ccm"])
    def test_training_and_scores_equal_attributed(self, kind):
        series = adjacency_series(801, 20, 6, kind)
        listed = attribute_graphs(graph_series(series))
        oc_config = OcginConfig(lr=0.003, batch_size=7, layers=2, hidden=4, epochs=4)
        kd_config = GlocalConfig(lr=0.003, batch_size=7, layers=2, hidden=4, epochs=4)

        def outcome(graphs):
            oc = ocgin_train(graphs, oc_config)
            kd = glocalkd_train(graphs, kd_config)
            scores = [ocgin_scores(oc, graphs, 7), glocalkd_scores(kd, graphs, 7)]
            return [oc.loss_curve, kd.loss_curve, *scores]

        for mine, theirs in zip(outcome(series.weights), outcome(listed)):
            assert np.array_equal(mine, theirs)


class TestAgainstReferenceBatches:
    """Loss curves, centers and scores from the layout's batches equal, bit
    for bit, those of runs whose every batch comes from `reference_batch`."""

    @pytest.mark.parametrize("size", [7, 100])  # a short last batch; one batch of all
    @pytest.mark.parametrize("which", ["series", "mixed"])
    def test_training_and_scores(self, which, size, monkeypatch):
        if which == "series":
            graphs = adjacency_series(830, 20, 7, "ccm").weights
        else:
            graphs = mixed_graphs() + attribute_graphs(random_graph_sequence(831, 12, 8))
        oc_config = OcginConfig(lr=0.003, batch_size=size, layers=3, hidden=5, epochs=3)
        kd_config = GlocalConfig(lr=0.003, batch_size=size, layers=3, hidden=5, lam=0.5, epochs=3)

        def outcome():
            oc, kd = ocgin_train(graphs, oc_config), glocalkd_train(graphs, kd_config)
            scores = [ocgin_scores(oc, graphs, size), glocalkd_scores(kd, graphs, size)]
            return [oc.loss_curve, oc.center, kd.loss_curve, *scores]

        mine = outcome()
        monkeypatch.setattr(gnn, "_Layout", ReferenceLayout)
        for a, b in zip(mine, outcome()):
            assert np.array_equal(bits(a), bits(b))


class TestSharedLayout:
    """`stage_gnn` trains and scores on one layout; its scores and checkpoint
    equal, bit for bit, those of calls that each build their own."""

    @pytest.mark.parametrize("model", ["ocgin", "glocalkd"])
    def test_stage_gnn_builds_one_layout(self, model, tmp_path, monkeypatch):
        series = adjacency_series(840, 23, 6, "ccm")
        train = {"lr": 0.003, "batch_size": 7, "layers": 2, "hidden": 5, "epochs": 3}
        built = []

        class CountingLayout(gnn._Layout):
            def __init__(self, graphs, batch_size):
                built.append(batch_size)
                super().__init__(graphs, batch_size)

        with monkeypatch.context() as patch:
            patch.setattr(gnn, "_Layout", CountingLayout)
            scores = stage_gnn(series, model, tmp_path / "one.csv", tmp_path / "one.bin", **train)
        assert built == [7]

        if model == "ocgin":
            state = ocgin_train(series.weights, OcginConfig(**train))
            ref = ocgin_scores(state, series.weights, 7)
        else:
            state = glocalkd_train(series.weights, GlocalConfig(**train))
            ref = glocalkd_scores(state, series.weights, 7)
        save_checkpoint(state, tmp_path / "two.bin")
        write_scores_csv(tmp_path / "two.csv", series.dates, ref)
        assert np.array_equal(bits(scores), bits(ref))
        for suffix in ("csv", "bin"):
            one, two = (tmp_path / f"{name}.{suffix}" for name in ("one", "two"))
            assert one.read_bytes() == two.read_bytes()

    def test_layout_counts_graphs_and_keeps_its_batch_size(self):
        graphs = adjacency_series(841, 9, 5, "pearson").weights
        layout = gnn._Layout(graphs, 4)
        assert len(layout) == 9
        state = ocgin_train(layout, OcginConfig(batch_size=4, layers=2, hidden=3, epochs=1))
        with pytest.raises(DataError, match="batch size 4"):
            ocgin_scores(state, layout, 5)
        with pytest.raises(DataError, match="batch size 4"):
            glocalkd_train(layout, GlocalConfig(batch_size=3, layers=2, hidden=3, epochs=1))


class TestNoGradPass:
    """Center, teacher targets and both scores come from one no-grad pass;
    each equals, bit for bit, what its own chunk loop gave."""

    @staticmethod
    def graphs_of(which):
        return adjacency_series(810, 12, 6, "ccm").weights if which == "series" else mixed_graphs()

    @pytest.mark.parametrize("size", [1, 7, "T"])
    @pytest.mark.parametrize("which", ["series", "mixed"])
    def test_equals_the_chunk_loops(self, which, size):
        graphs = self.graphs_of(which)
        size = len(graphs) if size == "T" else size
        oc_config = OcginConfig(lr=0.003, batch_size=size, layers=2, hidden=5, epochs=3)
        oc = ocgin_train(graphs, oc_config)
        fresh = init_gine(np.random.default_rng(oc_config.seed), hidden=5, n_layers=2)
        assert np.array_equal(oc.center, chunked_center(fresh, graphs, size))
        assert np.array_equal(
            ocgin_scores(oc, graphs, size), chunked_ocgin_scores(oc, graphs, size)
        )

        kd_config = GlocalConfig(lr=0.003, batch_size=size, layers=2, hidden=5, lam=0.5, epochs=3)
        kd, ref = glocalkd_train(graphs, kd_config), chunked_glocalkd_train(graphs, kd_config)
        assert kd.loss_curve == ref.loss_curve
        for a, b in zip(
            kd.teacher.parameters() + kd.student.parameters(),
            ref.teacher.parameters() + ref.student.parameters(),
        ):
            assert np.array_equal(a.data, b.data)
        layout = gnn._Layout(graphs, size)
        [(nodes, emb)] = gnn._no_grad_pass([kd.teacher], layout)
        ref_nodes, ref_emb = chunked_teacher_targets(kd.teacher, graphs, size)
        assert np.array_equal(emb, ref_emb)
        targets = np.split(nodes, np.cumsum(layout.sizes)[:-1])
        assert len(targets) == len(ref_nodes) == len(graphs)
        assert all(np.array_equal(a, b) for a, b in zip(targets, ref_nodes))
        assert np.array_equal(
            glocalkd_scores(kd, graphs, size), chunked_glocalkd_scores(kd, graphs, size)
        )

    @pytest.mark.parametrize("which", ["series", "mixed"])
    def test_glocalkd_scores_build_one_batch_per_chunk(self, which, monkeypatch):
        graphs = self.graphs_of(which)
        kd = glocalkd_train(graphs, GlocalConfig(layers=2, hidden=4, epochs=1))
        built = []
        assemble = gnn._Layout.batch

        def counting(layout, idx):
            built.append(list(idx))
            return assemble(layout, idx)

        monkeypatch.setattr(gnn._Layout, "batch", counting)
        glocalkd_scores(kd, graphs, 5)
        assert built == [list(range(lo, min(lo + 5, len(graphs)))) for lo in range(0, len(graphs), 5)]


@st.composite
def mixed_batch(draw):
    """Graphs as a (T, n, n) adjacency array or as an attributed list, and
    the order `idx` of the ones batched.  Each graph is edgeless, one-way
    (edges s -> t with s < t only, like Pearson graphs) or both-way (like
    CCM graphs); array graphs share one vertex count, listed graphs have
    their own, one vertex included, their edges in a random order and one
    or two edge features."""
    as_array = draw(st.booleans(), label="as_array")
    count = draw(st.integers(1, 6), label="count")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(1, 6), label="n")
    sizes = [n if as_array else draw(st.integers(1, 6)) for _ in range(count)]
    kinds = draw(st.lists(st.sampled_from(["edgeless", "one-way", "both-way"]),
                          min_size=count, max_size=count), label="kinds")
    weights = []
    for size, kind in zip(sizes, kinds):
        w = np.round(rng.uniform(0.05, 1.0, (size, size)), int(rng.integers(1, 4)))
        w[rng.random((size, size)) < rng.uniform(0.0, 0.8)] = 0.0
        np.fill_diagonal(w, 0.0)
        if kind == "edgeless":
            w[:] = 0.0
        elif kind == "one-way":
            w = np.triu(w, 1)
        weights.append(w)
    order = draw(st.permutations(range(count)), label="order")
    idx = order[: draw(st.integers(1, count), label="batched")]
    if as_array:
        return np.stack(weights), idx
    edge_dim = draw(st.integers(1, 2), label="edge_dim")
    graphs = []
    for w in weights:
        s, t = np.nonzero(w)
        shuffled = rng.permutation(len(s))
        edges = [(int(a), int(b), float(w[a, b])) for a, b in zip(s[shuffled], t[shuffled])]
        (g,) = attribute_graphs([digraph(len(w), edges)])
        if edge_dim == 2:
            g.y = np.hstack([g.y, rng.normal(size=(len(edges), 1))])
        graphs.append(g)
    return graphs, idx


# every graph kind in one batch, in a shuffled order
MIXED_CASE = (mixed_graphs(), [5, 2, 7, 0, 3, 1, 6, 4])


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_matches_reference(mine, ref):
    assert np.array_equal(mine.sizes, ref.sizes)
    assert np.array_equal(mine.offsets, ref.offsets)
    assert np.array_equal(bits(mine.x.data), bits(ref.x.data))
    assert np.array_equal(mine.pool.toarray(), ref.pool.toarray())
    n_nodes = int(ref.offsets[-1])
    if not ref.has_edges:
        assert len(mine.y) == 0
        assert mine.gather.shape == (0, n_nodes) and mine.scatter.shape == (n_nodes, 0)
        return
    assert np.array_equal(bits(mine.y), bits(ref.y.data))
    assert np.array_equal(mine.gather.toarray(), ref.gather.toarray())
    assert np.array_equal(mine.scatter.toarray(), ref.scatter.toarray())


class TestBatchLayout:
    """A layout places each batch's messages by edge counts; the reference
    sorts them.  Both must give the same batch."""

    @settings(max_examples=150, deadline=None)
    @given(case=mixed_batch())
    @example(case=MIXED_CASE)
    def test_matches_reference_batch(self, case):
        graphs, idx = case
        assert_matches_reference(batch_of(graphs, idx), reference_batch(graphs, idx))

    @pytest.mark.parametrize("which", ["series", "mixed"])
    def test_one_layout_gives_batches_in_turn(self, which):
        # a full batch, then smaller ones in the same buffers, edgeless graphs
        # alone and among others, then a full batch again
        graphs = TestNoGradPass.graphs_of(which)
        layout = gnn._Layout(graphs, 5)
        order = np.random.default_rng(5).permutation(len(graphs))
        turns = [order[:5], [1], order[5:10], [1, 0], order[10:], [3, 1], range(5)]
        for idx in (idx for idx in turns if len(idx)):
            assert_matches_reference(layout.batch(idx), reference_batch(graphs, idx))


def aggregate_case(case, seed):
    """A batch of `case`, the reference batch, and random h weights,
    epsilon, edge projection and loss target for a d-wide aggregation."""
    graphs, idx = case
    batch, ref = batch_of(graphs, idx), reference_batch(graphs, idx)
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    w = ad.Tensor(rng.normal(size=(2, d)), requires_grad=True)
    eps = ad.Tensor(np.asarray(rng.normal(scale=0.5)), requires_grad=True)
    proj = ad.Tensor(rng.normal(size=(batch.y.shape[1], d)), requires_grad=True)
    target = rng.normal(size=(len(batch.x.data), d))
    return batch, ref, (w, eps, proj), target


def layer_of(eps, proj):
    """A layer with only the parameters that `gnn._aggregate` reads."""
    return gnn.GineLayer(epsilon=eps, edge_proj=proj, w1=None, w2=None)


def aggregate_params(batch, width, seed):
    """Random h, epsilon and edge projection for a `width`-wide aggregation
    over `batch`, each requiring grad."""
    rng = np.random.default_rng(seed)
    h = ad.Tensor(rng.normal(size=(len(batch.x.data), width)), requires_grad=True)
    eps = ad.Tensor(np.asarray(rng.normal(scale=0.5)), requires_grad=True)
    proj = ad.Tensor(rng.normal(size=(batch.y.shape[1], width)), requires_grad=True)
    return h, eps, proj


def two_features(case):
    """`case` with a second, random edge feature on every listed graph."""
    graphs, idx = case
    rng = np.random.default_rng(2)
    wide = [
        dataclasses.replace(g, y=np.hstack([g.y, rng.normal(size=(len(g.y), 1))]))
        for g in graphs
    ]
    return wide, idx


class TestFusedAggregate:
    """`gnn._aggregate` against the five-node tape it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(case=mixed_batch(), seed=st.integers(0, 2**32 - 1))
    @example(case=MIXED_CASE, seed=0)
    @example(case=two_features(MIXED_CASE), seed=1)
    def test_values_and_gradients_match_the_tape(self, case, seed):
        batch, ref, (w, eps, proj), target = aggregate_case(case, seed)
        ref_y = ref.y.data if ref.has_edges else np.zeros((0, batch.y.shape[1]))
        gather, scatter = getattr(ref, "gather", None), getattr(ref, "scatter", None)
        runs = [
            (batch.x, lambda h: gnn._aggregate(h, layer_of(eps, proj), batch, 0)),
            (ref.x, lambda h: reference_gine_aggregate(h, eps, proj, ref_y, gather, scatter)),
        ]
        results = []
        for x, aggregate in runs:
            for p in (w, eps, proj):
                p.zero_grad()
            h = ad.matmul(x, w)
            out = aggregate(h)
            ad.squared_norm(ad.sub(out, ad.Tensor(target))).backward()
            results.append([out.data, h.grad] + [grad_or_zeros(p) for p in (w, eps, proj)])
        for mine, theirs in zip(*results):
            np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_batch(), seed=st.integers(0, 2**32 - 1))
    def test_gradients_match_finite_differences(self, case, seed):
        batch, _, (_, eps, proj), target = aggregate_case(case, seed)
        h = ad.Tensor(np.random.default_rng(seed).normal(size=target.shape), requires_grad=True)
        # keep every pre-activation clear of the relu kink by more than the step
        pre = batch.gather @ h.data + batch.y @ proj.data
        assume(np.all(np.abs(pre) > 1e-4))

        def loss():
            out = gnn._aggregate(h, layer_of(eps, proj), batch, 0)
            return ad.squared_norm(ad.sub(out, ad.Tensor(target)))

        loss().backward()
        analytic = [grad_or_zeros(p) for p in (h, eps, proj)]
        numeric = finite_difference(lambda: float(loss().data), [h, eps, proj])
        assert max_rel_error(analytic, numeric) < 1e-6

    def test_reused_buffers_leave_earlier_results_alone(self):
        # the op writes its (messages x width) temporaries into buffers shared
        # by every call: widths 2 then 10, a larger batch then a smaller one
        graphs = mixed_graphs()
        big, small = batch_of(graphs, range(len(graphs))), batch_of(graphs, [2, 0])
        calls = [(big, 2), (big, 10), (small, 10), (small, 2)]

        def call(batch, width, seed):
            h, eps, proj = aggregate_params(batch, width, seed)
            out = gnn._aggregate(h, layer_of(eps, proj), batch, 0)
            target = np.random.default_rng(seed).normal(size=out.shape)
            ad.squared_norm(ad.sub(out, ad.Tensor(target))).backward()
            return [out.data, h.grad, eps.grad, proj.grad]

        kept, copies = [], []
        for seed, (batch, width) in enumerate(calls):
            kept.append(call(batch, width, seed))
            copies.append([bits(a).copy() for a in kept[-1]])
        for arrays, saved in zip(kept, copies):
            assert all(np.array_equal(bits(a), b) for a, b in zip(arrays, saved))
        for i, arrays in enumerate(kept):
            for a in arrays:
                assert not any(np.shares_memory(a, buf) for buf in gnn._scratch)
                assert not any(np.shares_memory(a, b) for other in kept[i + 1:] for b in other)
        again = call(*calls[0], 0)
        assert all(np.array_equal(bits(a), b) for a, b in zip(again, copies[0]))

    def test_batches_of_two_layouts_share_the_scratch_buffers(self, monkeypatch):
        # buffers of their own per layout would add a pair of (messages x
        # width) arrays for every layout alive, as when two models run in turn
        graphs = mixed_graphs()
        views = []
        scratch_array = gnn._scratch_array

        def recording(*args):
            views.append(scratch_array(*args))
            return views[-1]

        monkeypatch.setattr(gnn, "_scratch_array", recording)
        for batch in (batch_of(graphs, range(len(graphs))), batch_of(graphs, [2, 0])):
            h, eps, proj = aggregate_params(batch, 3, 6)
            ad.squared_norm(gnn._aggregate(h, layer_of(eps, proj), batch, 0)).backward()
        # per call: slots 0 and 1 in the forward, slot 0 again in the backward
        assert len(views) == 6
        assert all(np.shares_memory(a, b) for a, b in zip(views[:3], views[3:]))

    @pytest.mark.parametrize("case", [MIXED_CASE, two_features(MIXED_CASE)], ids=["k1", "k2"])
    def test_row_chunks_change_no_bit(self, monkeypatch, case):
        # the elementwise passes run over `_ROWS` messages at a time, y p in a
        # buffer of at most that many rows: chunks of 1, 3 and 7 rows and one
        # chunk larger than the batch give the same outputs, masks and gradients
        graphs, idx = case
        batch, width = batch_of(graphs, idx), 3
        n_msgs = len(batch.y)
        assert n_msgs > 7
        results = []
        for rows in (1, 3, 7, n_msgs + 1):
            monkeypatch.setattr(gnn, "_ROWS", rows)
            monkeypatch.setattr(gnn, "_scratch", [np.empty(0), np.empty(0)])
            h, eps, proj = aggregate_params(batch, width, 8)
            out = gnn._aggregate(h, layer_of(eps, proj), batch, 0)
            mask = batch.mask(0, width).copy()
            target = np.random.default_rng(8).normal(size=out.shape)
            ad.squared_norm(ad.sub(out, ad.Tensor(target))).backward()
            results.append([bits(a) for a in (out.data, h.grad, eps.grad, proj.grad)] + [mask])
            assert gnn._scratch[1].size <= min(rows, n_msgs) * width
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(results[0], other))

    def test_keeps_only_the_relu_mask(self):
        graphs = mixed_graphs()
        batch = batch_of(graphs, range(len(graphs)))
        h, eps, proj = aggregate_params(batch, 3, 4)
        args = (h, layer_of(eps, proj), batch, 0)
        out = gnn._aggregate(*args)
        assert out._parents == (h, eps, proj)
        held = [c.cell_contents for c in out._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray) and a.shape == (len(batch.y), 3)]
        assert [a.dtype for a in arrays] == [np.bool_]
        with ad.no_grad():
            assert gnn._aggregate(*args)._backward is None

    def test_keeps_the_mask_in_the_batch_buffer_for_its_depth(self):
        graphs = mixed_graphs()
        batch = batch_of(graphs, range(len(graphs)))
        # the same batch with mask buffers of its own, grown afresh
        fresh = dataclasses.replace(batch, masks=[])
        relu_masks = {}
        for depth, seed in ((1, 5), (0, 6)):
            h, eps, proj = aggregate_params(batch, 3, seed)
            target = np.random.default_rng(seed).normal(size=h.shape)
            results = []
            for b in (fresh, batch):
                for p in (h, eps, proj):
                    p.zero_grad()
                out = gnn._aggregate(h, layer_of(eps, proj), b, depth)
                ad.squared_norm(ad.sub(out, ad.Tensor(target))).backward()
                results.append([bits(a) for a in (out.data, h.grad, eps.grad, proj.grad)])
            assert all(np.array_equal(a, b) for a, b in zip(*results))
            held = [c.cell_contents for c in out._backward.__closure__]
            buffer = batch.masks[depth]
            assert any(isinstance(a, np.ndarray) and np.shares_memory(a, buffer) for a in held)
            relu_masks[depth] = batch.gather @ h.data + batch.y @ proj.data > 0
        # each depth's buffer still holds the mask of the call at that depth
        for depth, relu_mask in relu_masks.items():
            assert np.array_equal(batch.mask(depth, 3), relu_mask)
