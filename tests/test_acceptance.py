"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9 (full-scale market reproduction) needs a user-supplied
price snapshot and is reported as documentation unless FLAGCRASH_TSX60_CSV
points at one.
"""

import json
import os
import time
from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest

from flagcrash import autodiff as ad
from flagcrash.corrnet import WeightedDigraph
from flagcrash.detectors import lof_scores, mahalanobis_scores
from flagcrash.evaluation import threshold_anomalies
from flagcrash.gnn import (
    OcginConfig,
    attribute_graphs,
    gine_forward,
    init_gine,
    ocgin_scores,
    ocgin_train,
)
from flagcrash.ingest import serialize_price_csv
from flagcrash.detectors import AnomalySeries
from flagcrash.ph import build_filtration, diagram_norm, persistent_homology
from flagcrash.pipeline import load_config, run_pipeline
from flagcrash.synth import Episode, make_synthetic

from oracles import (
    brute_force_diagram,
    brute_force_lof,
    random_digraph,
    random_graph_sequence,
    union_find_merge_weights,
)
from test_gnn import (
    finite_difference,
    grad_or_zeros,
    max_rel_error,
    numpy_gine_forward,
)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def reduction_multisets(g):
    d = persistent_homology(build_filtration(g))
    return Counter(d.finite), Counter(d.essential)


def test_criterion_1_ph_oracle_suite():
    t0 = time.monotonic()
    # hand-computed diagrams, exact equality
    two = WeightedDigraph(2, [(0, 1, 0.3)], date(2020, 1, 2))
    finite, essential = reduction_multisets(two)
    assert finite == Counter({(0.0, 0.3, 0): 1})
    assert essential == Counter({(0.0, 0): 1})

    cycle = WeightedDigraph(
        3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)], date(2020, 1, 2)
    )
    finite, essential = reduction_multisets(cycle)
    assert finite == Counter({(0.0, 0.5, 0): 2})
    assert essential == Counter({(0.0, 0): 1, (0.5, 1): 1})

    transitive = WeightedDigraph(
        3, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)], date(2020, 1, 2)
    )
    finite, essential = reduction_multisets(transitive)
    assert finite == Counter({(0.0, 0.1, 0): 1, (0.0, 0.2, 0): 1})
    assert essential == Counter({(0.0, 0): 1})

    # 200 random digraphs vs the rank-based oracle, exact bar multisets
    rng = np.random.default_rng(11001)
    for _ in range(200):
        g = random_digraph(rng, 6)
        finite, essential = reduction_multisets(g)
        oracle_finite, oracle_essential = brute_force_diagram(g)
        assert finite == oracle_finite
        assert essential == oracle_essential
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, f"hand diagrams + 200 rank-oracle digraphs exact ({elapsed:.1f}s)")


def test_criterion_2_h0_union_find_cross_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        g = random_digraph(rng, 40)
        finite, essential = reduction_multisets(g)
        deaths = Counter(d for _, d, dim in finite.elements() if dim == 0)
        merge_weights, components = union_find_merge_weights(g)
        assert deaths == merge_weights
        n_essential_h0 = sum(c for (_, dim), c in essential.items() if dim == 0)
        assert n_essential_h0 == components
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(2, f"500 digraphs, H0 deaths == union-find merges exact ({elapsed:.1f}s)")


def test_criterion_3_norm_properties():
    rng = np.random.default_rng(31337)
    for _ in range(200):
        g = random_digraph(rng, 10)
        lam = float(rng.uniform(0.1, 8.0))
        d = persistent_homology(build_filtration(g))
        scaled_g = WeightedDigraph(
            g.n_vertices, [(s, t, lam * w) for s, t, w in g.edges], g.as_of_date
        )
        d_scaled = persistent_homology(build_filtration(scaled_g))
        for dim in (0, 1):
            l1, l2 = diagram_norm(d, 1, dim), diagram_norm(d, 2, dim)
            assert l1 >= l2 - 1e-15
            for p in (1, 2):
                got = diagram_norm(d_scaled, p, dim)
                want = lam * diagram_norm(d, p, dim)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    report(3, "l1 >= l2 and exact-to-1e-12 rescaling on 200 random diagrams")


def orderings_agree(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Every pair separated by more than `tol` must rank the same way;
    pairs inside the tolerance are ties and may permute."""
    da = a[:, None] - a[None, :]
    db = b[:, None] - b[None, :]
    conflict = ((da > tol) & (db < -tol)) | ((da < -tol) & (db > tol))
    return not conflict.any()


def test_criterion_4_detector_oracles():
    rng = np.random.default_rng(44)
    for _ in range(200):
        t = int(rng.integers(8, 60))
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(t - 1, 10) + 1))
        pts = rng.normal(size=(t, dim))
        dates = [date(2020, 1, 1) + timedelta(days=i) for i in range(t)]
        mine = lof_scores(dates, pts, [k])[0].scores
        ref = brute_force_lof(pts, k=k)
        np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-9)
        assert orderings_agree(mine, ref)

    # identity sample covariance -> Mahalanobis == Euclidean distance
    z = rng.normal(size=(80, 5))
    z -= z.mean(axis=0)
    cov = (z.T @ z) / (len(z) - 1)
    white = z @ np.linalg.inv(np.linalg.cholesky(cov)).T
    dates = [date(2020, 1, 1) + timedelta(days=i) for i in range(len(white))]
    scores = mahalanobis_scores(dates, white).scores
    euclid = np.linalg.norm(white - white.mean(axis=0), axis=1)
    np.testing.assert_allclose(scores, euclid, rtol=1e-6, atol=1e-9)
    report(4, "LOF == brute force on 200 instances; Mahalanobis == Euclidean under I")


def test_criterion_5_gradient_checks():
    t0 = time.monotonic()
    worst = {"layer": 0.0, "ocgin": 0.0, "glocal": 0.0}
    for seed in range(50):
        rng = np.random.default_rng(12000 + seed)
        graphs = attribute_graphs(random_graph_sequence(seed, 2, 6))

        # GINE stack alone
        model = init_gine(rng, hidden=4, n_layers=2)
        params = model.parameters()
        for p in params:
            p.zero_grad()
        ad.squared_norm(gine_forward(model, graphs[0])[1]).backward()
        analytic = [grad_or_zeros(p) for p in params]
        numeric = finite_difference(
            lambda: float(ad.squared_norm(gine_forward(model, graphs[0])[1]).data),
            params,
        )
        worst["layer"] = max(worst["layer"], max_rel_error(analytic, numeric))

        # one-class objective (mean squared distance to a fixed center)
        center = ad.Tensor(rng.normal(size=model.embedding_dim) * 0.3)

        def ocgin_loss():
            terms = [
                ad.squared_norm(ad.sub(gine_forward(model, g)[1], center))
                for g in graphs
            ]
            total = terms[0]
            for term in terms[1:]:
                total = ad.add(total, term)
            return ad.scalar_mul(1.0 / len(graphs), total)

        for p in params:
            p.zero_grad()
        ocgin_loss().backward()
        analytic = [grad_or_zeros(p) for p in params]
        numeric = finite_difference(lambda: float(ocgin_loss().data), params)
        worst["ocgin"] = max(worst["ocgin"], max_rel_error(analytic, numeric))

        # distillation objective against a frozen random teacher
        teacher = init_gine(rng, hidden=4, n_layers=2)
        student = init_gine(rng, hidden=4, n_layers=2)
        sparams = student.parameters()
        lam = 0.5

        def glocal_loss():
            terms = []
            for g in graphs:
                t_layers, t_emb = numpy_gine_forward(teacher, g)
                s_layers, s_emb = gine_forward(student, g)
                node = ad.scalar_mul(
                    lam / g.n,
                    ad.squared_norm(ad.sub(s_layers[-1], ad.Tensor(t_layers[-1]))),
                )
                terms.append(
                    ad.add(node, ad.squared_norm(ad.sub(s_emb, ad.Tensor(t_emb))))
                )
            total = terms[0]
            for term in terms[1:]:
                total = ad.add(total, term)
            return ad.scalar_mul(1.0 / len(terms), total)

        for p in sparams:
            p.zero_grad()
        glocal_loss().backward()
        analytic = [grad_or_zeros(p) for p in sparams]
        numeric = finite_difference(lambda: float(glocal_loss().data), sparams)
        worst["glocal"] = max(worst["glocal"], max_rel_error(analytic, numeric))

    elapsed = time.monotonic() - t0
    assert worst["layer"] < 1e-4
    assert worst["ocgin"] < 1e-4
    assert worst["glocal"] < 1e-4
    assert elapsed < 120.0
    report(
        5,
        "50-seed FD checks: layer %.1e, one-class %.1e, distill %.1e (%.0fs)"
        % (worst["layer"], worst["ocgin"], worst["glocal"], elapsed),
    )


def test_criterion_6_non_collapse_and_determinism():
    graphs = attribute_graphs(random_graph_sequence(606, 100, 10))
    config = OcginConfig(
        lr=0.001, weight_decay=1e-4, batch_size=50, layers=2, hidden=10,
        epochs=30, seed=7,
    )
    state_a = ocgin_train(graphs, config)
    scores_a = ocgin_scores(state_a, graphs)
    assert float(np.var(scores_a)) > 1e-8

    state_b = ocgin_train(graphs, config)
    scores_b = ocgin_scores(state_b, graphs)
    assert np.array_equal(state_a.center, state_b.center)
    for pa, pb in zip(state_a.model.parameters(), state_b.model.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert np.array_equal(scores_a, scores_b)
    report(
        6,
        f"score variance {np.var(scores_a):.3e} > 1e-8; fixed-seed rerun bit-identical",
    )


def test_criterion_7_threshold_contract():
    dates = [date(2019, 1, 1) + timedelta(days=i) for i in range(200)]
    rng = np.random.default_rng(7)
    scores = rng.permutation(200).astype(float)  # 200 distinct values
    series = AnomalySeries(dates=dates, scores=scores, method_tag="x")
    flagged = threshold_anomalies(series, 97.5)
    assert len(flagged) == 5
    top5 = {dates[i] for i in np.argsort(scores)[-5:]}
    assert set(flagged) == top5
    report(7, "exactly 5 of 200 distinct scores flagged at the 97.5th percentile")


def test_criterion_8_synthetic_end_to_end(tmp_path):
    t0 = time.monotonic()
    episodes = [Episode(700, 20, 0.8), Episode(730, 20, 0.8), Episode(760, 20, 0.8)]
    table, events = make_synthetic(20, 1500, episodes, seed=7)
    prices_csv = tmp_path / "prices.csv"
    events_csv = tmp_path / "events.csv"
    prices_csv.write_text(serialize_price_csv(table))
    events_csv.write_text(
        "date,label\n"
        + "".join(f"{e.date_spec},{e.label}\n" for e in events.events)
    )
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text(
        f"""
[data]
prices = {prices_csv}
events = {events_csv}
start = 2010-01-01
end = 2099-01-01
min_coverage = 1.0

[network]
window = 25
correlation = pearson

[features]
tda_norms = l1
pca_dims = raw

[detectors]
methods = mahalanobis

[gnn]
models =

[eval]
percentile = 97.5
lookback = 50

[run]
output_dir = {tmp_path / "runs"}
seed = 7
"""
    )
    run_dir = run_pipeline(load_config(cfg))
    tda_report = json.loads(
        (run_dir / "report_tda-l1+mahalanobis.json").read_text()
    )
    pca_report = json.loads(
        (run_dir / "report_pca-raw+mahalanobis.json").read_text()
    )
    elapsed = time.monotonic() - t0
    assert tda_report["recall"] == 1.0
    assert tda_report["precision"] >= 0.5
    assert pca_report["recall"] >= 2 / 3
    assert elapsed < 300.0
    report(
        8,
        "tda-l1 recall=%.2f precision=%.2f; pca-raw recall=%.2f (%.0fs)"
        % (
            tda_report["recall"],
            tda_report["precision"],
            pca_report["recall"],
            elapsed,
        ),
    )


def test_criterion_9_market_scale_documentation():
    """Non-gating: full-scale reproduction needs a user-supplied snapshot.

    Reference best-per-family f-scores for this configuration on the
    2005-2021 TSX-60 panel (N=39, T=4254): distillation 0.68, one-class
    0.60, topological 0.55-0.59, PCA 0.28-0.45, ordering neural >=
    topological > PCA.  Exact values are not desk-reproducible (the price
    snapshot and embedding hyperparameters are underdetermined), so this
    only checks the pipeline runs at scale when data is provided.
    """
    snapshot = os.environ.get("FLAGCRASH_TSX60_CSV")
    if not snapshot:
        print(
            "\nACCEPTANCE 9: DOCUMENTED - set FLAGCRASH_TSX60_CSV to a price "
            "snapshot to run the market-scale pipeline (see README)"
        )
        pytest.skip("market-scale snapshot not provided")
    from flagcrash.pipeline import stage_graphs, stage_ingest
    from flagcrash.corrnet import CcmParams
    import tempfile

    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        returns = os.path.join(tmp, "returns.csv")
        graphs = os.path.join(tmp, "graphs.bin")
        stage_ingest(snapshot, date(2005, 1, 1), date(2021, 12, 31), 1.0, returns)
        stage_graphs(returns, 25, "ccm", CcmParams(), graphs)
    assert time.monotonic() - t0 < 7200.0
    report(9, "market-scale ingest + graph construction completed")
