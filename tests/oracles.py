"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles (explicit rank
computations, literal formulas, exhaustive loops) without touching the
library's reduction/score code paths.
"""

from __future__ import annotations

from collections import Counter
from datetime import date, timedelta

import numpy as np
from scipy.spatial.distance import cdist

from flagcrash import autodiff as ad
from flagcrash import gnn
from flagcrash.corrnet import WeightedDigraph, WindowSeries, matrix_from_digraph
from flagcrash.ph import PersistenceDiagram


# ---------------------------------------------------------------------------
# GF(2) linear algebra on columns encoded as python ints (bit i = row i)


class Gf2Eliminator:
    """Incremental column echelonization over GF(2)."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def add(self, col: int) -> bool:
        """Insert a column; returns True if the rank increased."""
        while col:
            p = col.bit_length() - 1
            if p in self.pivots:
                col ^= self.pivots[p]
            else:
                self.pivots[p] = col
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def clone(self) -> "Gf2Eliminator":
        out = Gf2Eliminator()
        out.pivots = dict(self.pivots)
        return out


# ---------------------------------------------------------------------------
# Brute-force persistent diagram from persistent Betti numbers


def _enumerate_simplices(g: WeightedDigraph):
    """Vertices, directed edges, and ordered directed triangles with values,
    found by exhaustive loops over vertex tuples."""
    w = {(s, t): wt for s, t, wt in g.edges}
    verts = [((v,), 0.0) for v in range(g.n_vertices)]
    edges = [((s, t), wt) for (s, t), wt in w.items()]
    tris = []
    for a in range(g.n_vertices):
        for b in range(g.n_vertices):
            for c in range(g.n_vertices):
                if len({a, b, c}) < 3:
                    continue
                if (a, b) in w and (a, c) in w and (b, c) in w:
                    tris.append(((a, b, c), max(w[(a, b)], w[(a, c)], w[(b, c)])))
    return verts, edges, tris


def brute_force_diagram(g: WeightedDigraph):
    """Finite-bar and essential-bar multisets for dims 0 and 1.

    Computed from persistent Betti numbers: for each pair of filtration
    levels s <= t,

        beta_p(s, t) = rank [ d_{p+1}(K_t) | P(K_s) ] - rank d_p(K_s)
                       - rank d_{p+1}(K_t)

    where P(K_s) selects the coordinate columns of p-simplices present in
    K_s.  Bar multiplicities follow by inclusion-exclusion over levels.
    Returns (finite Counter of (birth, death, dim), essential Counter of
    (birth, dim)).
    """
    verts, edges, tris = _enumerate_simplices(g)
    levels = sorted({0.0} | {v for _, v in edges})
    m = len(levels)
    level_of = {v: i for i, v in enumerate(levels)}

    by_dim = {0: verts, 1: edges, 2: tris}
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d], key=lambda s: (s[1], s[0]))
    row_index = {d: {tup: i for i, (tup, _) in enumerate(by_dim[d])} for d in by_dim}

    def counts_by_level(simps):
        out = [0] * m
        for _, v in simps:
            out[level_of[v]] += 1
        return np.cumsum(out).tolist()

    n_at = {d: counts_by_level(by_dim[d]) for d in by_dim}

    def boundary_col(dim, tup):
        col = 0
        for drop in range(dim + 1):
            face = tup[:drop] + tup[drop + 1 :]
            col |= 1 << row_index[dim - 1][face]
        return col

    def boundary_ranks_by_level(dim):
        """rank d_dim(K_t) for every level t (d_0 = 0)."""
        ranks = [0] * m
        if dim == 0:
            return ranks
        elim = Gf2Eliminator()
        cols = [(v, boundary_col(dim, tup)) for tup, v in by_dim[dim]]
        ci = 0
        for t, lv in enumerate(levels):
            while ci < len(cols) and cols[ci][0] <= lv:
                elim.add(cols[ci][1])
                ci += 1
            ranks[t] = elim.rank
        return ranks

    finite: Counter = Counter()
    essential: Counter = Counter()
    for p in (0, 1):
        rank_dp = boundary_ranks_by_level(p)
        rank_dp1 = boundary_ranks_by_level(p + 1)

        # beta[s][t] for s <= t
        beta = [[0] * m for _ in range(m)]
        bcols = [(v, boundary_col(p + 1, tup)) for tup, v in by_dim[p + 1]]
        bcols.sort(key=lambda cv: cv[0])
        pcols = [(v, 1 << row_index[p][tup]) for tup, v in by_dim[p]]
        pcols.sort(key=lambda cv: cv[0])
        boundary_elim = Gf2Eliminator()
        bi = 0
        for t, lv_t in enumerate(levels):
            while bi < len(bcols) and bcols[bi][0] <= lv_t:
                boundary_elim.add(bcols[bi][1])
                bi += 1
            joint = boundary_elim.clone()
            pi = 0
            for s in range(t + 1):
                while pi < len(pcols) and pcols[pi][0] <= levels[s]:
                    joint.add(pcols[pi][1])
                    pi += 1
                beta[s][t] = joint.rank - rank_dp[s] - rank_dp1[t]

        def b(s, t):
            return beta[s][t] if s >= 0 else 0

        for s in range(m):
            for t in range(s + 1, m):
                mult = (b(s, t - 1) - b(s, t)) - (b(s - 1, t - 1) - b(s - 1, t))
                if mult:
                    finite[(levels[s], levels[t], p)] += mult
            ess = b(s, m - 1) - b(s - 1, m - 1)
            if ess:
                essential[(levels[s], p)] += ess
    return finite, essential


# ---------------------------------------------------------------------------
# The simplex-list boundary reducer that the cohomology engine replaced


def reference_persistence(g: WeightedDigraph) -> PersistenceDiagram:
    """GF(2) boundary reduction of the whole 2-skeleton, one column at a time.

    Simplices are sorted by (value, dimension, vertex tuple); triangle
    columns over edge rows are reduced first, and an edge that becomes a
    triangle column's pivot is cleared from the edge block.  Bars come out
    in the order the reduction finds them: H1 by death, then H0 by edge.
    """
    weights: dict[tuple[int, int], float] = {}
    succ: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for s, t, w in g.edges:
        weights[(s, t)] = w
        succ[s].add(t)
    simplices = [((v,), 0, 0.0) for v in range(g.n_vertices)]
    for (a, b), w_ab in weights.items():
        simplices.append(((a, b), 1, w_ab))
        for c in succ[a] & succ[b]:
            simplices.append(((a, b, c), 2, max(w_ab, weights[(a, c)], weights[(b, c)])))
    simplices.sort(key=lambda s: (s[2], s[1], s[0]))

    index = {tup: i for i, (tup, _, _) in enumerate(simplices)}
    values = [value for _, _, value in simplices]

    def reduce(col: set[int], pivot_of: dict[int, frozenset[int]]) -> int | None:
        while col:
            piv = max(col)
            ruling = pivot_of.get(piv)
            if ruling is None:
                pivot_of[piv] = frozenset(col)
                return piv
            col ^= ruling
        return None

    finite: list[tuple[float, float, int]] = []
    cleared: set[int] = set()
    edge_pivots: dict[int, frozenset[int]] = {}
    for j, (tup, dim, _) in enumerate(simplices):
        if dim == 2:
            a, b, c = tup
            piv = reduce({index[(b, c)], index[(a, c)], index[(a, b)]}, edge_pivots)
            if piv is not None:
                cleared.add(piv)
                if values[piv] != values[j]:
                    finite.append((values[piv], values[j], 1))
    h1_births: list[float] = []
    vertex_pivots: dict[int, frozenset[int]] = {}
    for j, (tup, dim, _) in enumerate(simplices):
        if dim == 1 and j not in cleared:
            piv = reduce({index[(tup[0],)], index[(tup[1],)]}, vertex_pivots)
            if piv is None:
                h1_births.append(values[j])
            elif values[piv] != values[j]:
                finite.append((values[piv], values[j], 0))
    essential = [(0.0, 0) for v in range(g.n_vertices) if index[(v,)] not in vertex_pivots]
    essential.extend((b, 1) for b in h1_births)
    return PersistenceDiagram(
        finite=finite, essential=essential, max_filtration=max(values, default=0.0)
    )


# ---------------------------------------------------------------------------
# Union-find oracle for H0 deaths


def union_find_merge_weights(g: WeightedDigraph):
    """Multiset of weights at which components merge (ascending Kruskal)
    and the number of final components."""
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = []
    for s, t, w in sorted(g.edges, key=lambda e: e[2]):
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
            merges.append(w)
    components = len({find(v) for v in range(g.n_vertices)})
    return Counter(merges), components


# ---------------------------------------------------------------------------
# Random graph generators


def random_digraph(rng: np.random.Generator, max_vertices: int) -> WeightedDigraph:
    n = int(rng.integers(1, max_vertices + 1))
    density = float(rng.uniform(0.05, 0.7))
    quantize = rng.random() < 0.3  # force weight ties sometimes
    edges = []
    for s in range(n):
        for t in range(n):
            if s != t and rng.random() < density:
                w = float(rng.uniform(0.05, 1.0))
                if quantize:
                    w = round(w, 1) or 0.1
                edges.append((s, t, w))
    return WeightedDigraph(
        n_vertices=n, edges=edges, as_of_date=date(2020, 1, 1)
    )


def series_of(graphs: list[WeightedDigraph], kind: str = "ccm") -> WindowSeries:
    """The window series of dated digraphs that share one vertex count."""
    return WindowSeries(matrix_from_digraph(graphs), [g.as_of_date for g in graphs], kind)


def random_graph_sequence(seed: int, count: int, max_vertices: int):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        g = random_digraph(rng, max_vertices)
        g.as_of_date = date(2018, 1, 1) + timedelta(days=i)
        graphs.append(g)
    return graphs


# ---------------------------------------------------------------------------
# Literal LOF reference (O(T^2), straight from the definitions)


def brute_force_lof(points: np.ndarray, k: int) -> np.ndarray:
    t = points.shape[0]
    dist = np.zeros((t, t))
    for a in range(t):
        for b in range(t):
            dist[a, b] = float(np.sqrt(np.sum((points[a] - points[b]) ** 2)))

    kdist = np.zeros(t)
    neighborhoods = []
    for a in range(t):
        others = sorted(dist[a, b] for b in range(t) if b != a)
        kdist[a] = others[k - 1]
        neighborhoods.append(
            [b for b in range(t) if b != a and dist[a, b] <= kdist[a]]
        )

    lrd = np.zeros(t)
    for a in range(t):
        reach = [max(kdist[b], dist[a, b]) for b in neighborhoods[a]]
        lrd[a] = 1.0 / (sum(reach) / len(reach) + 1e-10)

    lof = np.zeros(t)
    for a in range(t):
        lof[a] = sum(lrd[b] for b in neighborhoods[a]) / len(neighborhoods[a]) / lrd[a]
    return lof


# ---------------------------------------------------------------------------
# Single-k LOF over the whole distance matrix at once: the production
# arithmetic before distances and k-distances were shared across k and the
# reductions ran in row blocks.  Production scores must equal it bit for bit.


def reference_lof(points: np.ndarray, k: int) -> np.ndarray:
    dist = cdist(points, points, metric="euclidean")
    np.fill_diagonal(dist, np.inf)

    kdist = np.partition(dist, k - 1, axis=1)[:, k - 1]
    neighbor_mask = dist <= kdist[:, None]  # excludes self via inf diagonal
    counts = neighbor_mask.sum(axis=1)

    reach = np.maximum(kdist[None, :], dist)  # reach[a, b] = reach dist of b from a
    mean_reach = np.where(neighbor_mask, reach, 0.0).sum(axis=1) / counts
    lrd = 1.0 / (mean_reach + 1e-10)
    return np.where(neighbor_mask, lrd[None, :], 0.0).sum(axis=1) / counts / lrd


# ---------------------------------------------------------------------------
# Per-graph GINE: one tape per graph over dense one-hot (2E x n) gather and
# scatter matrices, and the training loop that summed per-graph loss terms.
# This was the production path before graphs were batched; batched forwards,
# scores and loss curves must match it to rounding.


class OneHotGraph:
    """Constant per-graph matrices shared by every forward pass."""

    def __init__(self, g):
        self.n = g.n
        self.x = ad.Tensor(g.x)
        n_deliveries = 2 * len(g.edges)
        self.has_edges = n_deliveries > 0
        if self.has_edges:
            src = np.zeros((n_deliveries, g.n))
            tgt_t = np.zeros((g.n, n_deliveries))
            for i, (s, t) in enumerate(g.edges):
                src[i, s] = 1.0
                tgt_t[t, i] = 1.0
                src[i + len(g.edges), t] = 1.0
                tgt_t[s, i + len(g.edges)] = 1.0
            self.gather = ad.Tensor(src)
            self.scatter = ad.Tensor(tgt_t)
            self.y_both = ad.Tensor(np.vstack([g.y, g.y]))


def onehot_forward(model, gt: OneHotGraph):
    """Per-layer (n, h) node tensors and the (L*h,) graph embedding."""
    h = gt.x
    per_layer = []
    for layer in model.layers:
        combined = ad.add(h, ad.scalar_mul(layer.epsilon, h))
        if gt.has_edges:
            messages = ad.relu(
                ad.add(ad.matmul(gt.gather, h), ad.matmul(gt.y_both, layer.edge_proj))
            )
            combined = ad.add(combined, ad.matmul(gt.scatter, messages))
        h = ad.matmul(ad.relu(ad.matmul(combined, layer.w1)), layer.w2)
        per_layer.append(h)
    return per_layer, ad.concat_cols([ad.mean_rows(h) for h in per_layer])


def _reference_fit(params, term, rng, n, config, weight_decay):
    state = ad.AdamState(params)
    losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        perm = rng.permutation(n)
        for batch in [perm[i : i + config.batch_size] for i in range(0, n, config.batch_size)]:
            for p in params:
                p.zero_grad()
            terms = [term(i) for i in batch]
            loss = terms[0]
            for t in terms[1:]:
                loss = ad.add(loss, t)
            loss = ad.scalar_mul(1.0 / len(batch), loss)
            loss.backward()
            ad.adam_step(params, state, lr=config.lr, weight_decay=weight_decay)
            epoch_loss += float(loss.data) * len(batch)
        losses.append(epoch_loss / n)
        if len(losses) > config.patience and min(
            losses[-config.patience :]
        ) > min(losses[: -config.patience]) - config.min_delta:
            break
    return losses


def reference_ocgin_train(graphs, config):
    rng = np.random.default_rng(config.seed)
    model = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    prepped = [OneHotGraph(g) for g in graphs]
    center = np.mean([onehot_forward(model, gt)[1].data for gt in prepped], axis=0)
    c_tensor = ad.Tensor(center)

    def term(i):
        return ad.squared_norm(ad.sub(onehot_forward(model, prepped[i])[1], c_tensor))

    losses = _reference_fit(
        model.parameters(), term, rng, len(graphs), config, config.weight_decay
    )
    return gnn.OcginState(model=model, center=center, loss_curve=losses)


def reference_ocgin_scores(state, graphs):
    diffs = [onehot_forward(state.model, OneHotGraph(g))[1].data - state.center for g in graphs]
    return np.array([float(d @ d) for d in diffs])


def reference_glocalkd_train(graphs, config):
    rng = np.random.default_rng(config.seed)
    teacher = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    for t in teacher.parameters():
        t.requires_grad = False
    student = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    prepped = [OneHotGraph(g) for g in graphs]
    teacher_out = []
    for gt in prepped:
        per_layer, emb = onehot_forward(teacher, gt)
        teacher_out.append((per_layer[-1].data.copy(), emb.data.copy()))

    def term(i):
        nodes, emb = teacher_out[i]
        per_layer, s_emb = onehot_forward(student, prepped[i])
        node_term = ad.scalar_mul(
            config.lam / prepped[i].n,
            ad.squared_norm(ad.sub(per_layer[-1], ad.Tensor(nodes))),
        )
        return ad.add(node_term, ad.squared_norm(ad.sub(s_emb, ad.Tensor(emb))))

    losses = _reference_fit(student.parameters(), term, rng, len(graphs), config, 0.0)
    return gnn.GlocalState(
        teacher=teacher, student=student, lam=config.lam, loss_curve=losses
    )


def reference_glocalkd_score(state, g) -> float:
    """lambda * final-layer node mimicry error / n + graph embedding error."""
    gt = OneHotGraph(g)
    teacher_layers, teacher_emb = onehot_forward(state.teacher, gt)
    student_layers, student_emb = onehot_forward(state.student, gt)
    node_err = float(
        np.sum((student_layers[-1].data - teacher_layers[-1].data) ** 2)
    ) / g.n
    graph_err = float(np.sum((student_emb.data - teacher_emb.data) ** 2))
    return state.lam * node_err + graph_err


def reference_glocalkd_scores(state, graphs):
    return np.array([reference_glocalkd_score(state, g) for g in graphs])


def model_checksum(model) -> float:
    """Sum of every parameter entry and its square: equal models, equal sums."""
    return float(sum(np.sum(t.data) + np.sum(t.data**2) for t in model.parameters()))
