"""GINE message passing and the two graph anomaly models.

The one-class model pulls graph embeddings toward a center fixed at
initialization and scores by squared distance to it; the distillation
model trains a student network to mimic a frozen random teacher and
scores by the mimicry error.  All linear maps are bias-free and training
uses decoupled weight decay, the standard guard against the degenerate
solution where the network maps everything onto the center.

Message passing treats every directed edge as a bidirectional channel
carrying the same edge feature both ways, so nodes whose correlations
point one way still receive messages.

The models take a list of attributed graphs or, as a run passes them, a
series' (T, n, n) adjacency array, whose nonzero entries are the edges
in row-major (source, target) order; a batch of the array is built from
its slice of it, and both kinds go through the same batch layout.  A
batch is the disjoint union of its graphs: stacked node and message
features plus constant sparse block-diagonal one-hot gather and scatter
matrices and a mean-pool matrix, so one autodiff tape covers a whole
training batch and graphs of different sizes can share it.  Each layer's
aggregation is one `autodiff.gine_aggregate` op.  The one-class center,
the teacher's targets and both scores come from one pass, `_no_grad_pass`,
over chunks of `batch_size` consecutive graphs under `autodiff.no_grad`:
each chunk's batch is built once for every model it runs, and no tape is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step
from .corrnet import EDGE_DTYPE, WeightedDigraph
from .errors import DataError


@dataclass
class AttributedGraph:
    n: int
    x: np.ndarray  # (n, m) node features
    edges: np.ndarray  # (E, 2) source, target
    y: np.ndarray  # (E, k) edge features


Graphs = list[AttributedGraph] | np.ndarray  # or a (T, n, n) adjacency array


def _node_features(n_nodes: int, edges: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(1, weighted degree) of every vertex; bincount adds in input order,
    so each degree sums its edges in edge order."""
    x = np.ones((n_nodes, 2))
    x[:, 1] = np.bincount(edges.reshape(-1), weights=np.repeat(y, 2), minlength=n_nodes)
    return x


def attribute_graphs(graphs: list[WeightedDigraph]) -> list[AttributedGraph]:
    """Node features (1, weighted degree); edge feature (weight,)."""
    out = []
    for g in graphs:
        e = np.asarray(g.edges, dtype=EDGE_DTYPE).reshape(-1)
        edges = np.stack([e["s"], e["t"]], axis=1).astype(np.intp)
        y = e["w"].reshape(-1, 1)
        x = _node_features(g.n_vertices, edges, y)
        out.append(AttributedGraph(n=g.n_vertices, x=x, edges=edges, y=y))
    return out


@dataclass
class GineLayer:
    epsilon: Tensor  # () scalar
    edge_proj: Tensor  # (k, d_in)
    w1: Tensor  # (d_in, h)
    w2: Tensor  # (h, h)

    def tensors(self) -> list[Tensor]:
        return [self.epsilon, self.edge_proj, self.w1, self.w2]


@dataclass
class GineModel:
    layers: list[GineLayer]
    node_dim: int
    edge_dim: int
    hidden: int

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def embedding_dim(self) -> int:
        return self.n_layers * self.hidden

    def parameters(self) -> list[Tensor]:
        return [t for layer in self.layers for t in layer.tensors()]


def init_gine(
    rng: np.random.Generator,
    node_dim: int = 2,
    edge_dim: int = 1,
    hidden: int = 10,
    n_layers: int = 3,
) -> GineModel:
    """Uniform fan-in-scaled init; epsilons start at 0."""

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    layers = []
    d_in = node_dim
    for _ in range(n_layers):
        layers.append(
            GineLayer(
                epsilon=Tensor(np.asarray(0.0), requires_grad=True),
                edge_proj=uniform((edge_dim, d_in), edge_dim),
                w1=uniform((d_in, hidden), d_in),
                w2=uniform((hidden, hidden), hidden),
            )
        )
        d_in = hidden
    return GineModel(
        layers=layers, node_dim=node_dim, edge_dim=edge_dim, hidden=hidden
    )


class _Batch:
    """Disjoint union of the graphs `idx` of `graphs`, in that order:
    stacked node features x (N, m) and message features y (2E, k), and
    constant sparse block-diagonal gather (2E x N), scatter (N x 2E) and
    mean-pool (B x N) matrices.  Gather and scatter are one-hot, with one
    entry per message: gather is a CSR matrix of message sources, one
    entry per row, and scatter the transpose (a CSC view, no copy) of
    such a matrix of message targets.  Each graph's edges deliver s -> t
    as its first messages, then t -> s, so every message's position
    follows from the per-graph edge counts, with no sort."""

    def __init__(self, graphs: Graphs, idx):
        if isinstance(graphs, np.ndarray):
            adjacency = graphs[idx]
            n = adjacency.shape[1]
            self.sizes = np.full(len(adjacency), n)
            # row-major positions graph * n^2 + s * n + t of the nonzero weights
            flat = np.flatnonzero(adjacency)
            y = adjacency.reshape(-1)[flat].reshape(-1, 1)
            s, t = np.divmod(flat, n)  # s = graph * n + source, the global source
            t += s - s % n
            counts = np.count_nonzero(adjacency.reshape(len(adjacency), -1), axis=1)
            x = _node_features(len(adjacency) * n, np.stack([s, t], axis=1), y)
        else:
            chosen = [graphs[i] for i in idx]
            self.sizes = np.array([g.n for g in chosen], dtype=np.intp)
            starts = np.cumsum(self.sizes) - self.sizes
            parts = [np.reshape(g.edges, (-1, 2)) + lo for g, lo in zip(chosen, starts)]
            s, t = np.concatenate(parts).T
            counts = np.array([len(e) for e in parts], dtype=np.intp)
            x, y = (np.concatenate([getattr(g, k) for g in chosen]) for k in ("x", "y"))
        if not self.sizes.all():
            raise DataError("cannot embed a graph without vertices")
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        n_nodes = int(self.offsets[-1])
        self.x = Tensor(x)
        # graph b's messages start at 2 e_b, e_b the edges of the graphs before
        # it, so its edge j (counted over the batch) sends s -> t at j + e_b
        # and t -> s at j + e_b + E_b
        first = np.arange(len(s)) + np.repeat(np.cumsum(counts) - counts, counts)
        second = first + np.repeat(counts, counts)
        n_msgs = 2 * len(s)
        src, tgt = np.empty(n_msgs, np.int32), np.empty(n_msgs, np.int32)
        src[first], src[second], tgt[first], tgt[second] = s, t, t, s
        self.y = np.empty((n_msgs, y.shape[1]))
        self.y[first] = self.y[second] = y
        ones, one_per_row = np.ones(n_msgs), np.arange(n_msgs + 1, dtype=np.int32)
        self.gather = sp.csr_matrix((ones, src, one_per_row), shape=(n_msgs, n_nodes))
        self.scatter = sp.csr_matrix((ones, tgt, one_per_row), shape=(n_msgs, n_nodes)).T
        self.pool = sp.csr_matrix(
            (np.repeat(1.0 / self.sizes, self.sizes), np.arange(n_nodes), self.offsets),
            shape=(len(self.sizes), n_nodes),
        )


def _forward(model: GineModel, batch: _Batch) -> tuple[list[Tensor], Tensor]:
    """Per-layer (N, h) node embeddings and the (B, L*h) graph embeddings."""
    h = batch.x
    per_layer: list[Tensor] = []
    for layer in model.layers:
        combined = ad.gine_aggregate(
            h, layer.epsilon, layer.edge_proj, batch.y, batch.gather, batch.scatter
        )
        h = ad.matmul(ad.relu(ad.matmul(combined, layer.w1)), layer.w2)
        per_layer.append(h)
    graph_emb = ad.concat_cols([ad.sparse_matmul(batch.pool, h) for h in per_layer])
    return per_layer, graph_emb


def gine_forward(model: GineModel, g: AttributedGraph) -> tuple[list[Tensor], Tensor]:
    """Per-layer node embeddings and the length L*h pooled graph embedding."""
    if g.x.shape[1] != model.node_dim:
        raise DataError(
            f"graph node features have dim {g.x.shape[1]}, model expects {model.node_dim}"
        )
    if len(g.edges) and g.y.shape[1] != model.edge_dim:
        raise DataError(
            f"graph edge features have dim {g.y.shape[1]}, model expects {model.edge_dim}"
        )
    per_layer, emb = _forward(model, _Batch([g], [0]))
    return per_layer, ad.matmul(Tensor(np.ones(1)), emb)  # (1, L*h) -> (L*h,)


def _no_grad_pass(
    models: list[GineModel], graphs: Graphs, size: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The node count of every graph, and each model's final-layer node
    embeddings (N, h) and graph embeddings (T, L*h), in graph order.  Each
    batch of `size` consecutive graphs is built once and run through every
    model without a tape."""
    sizes = [np.zeros(0, np.intp)]
    parts = [([np.zeros((0, m.hidden))], [np.zeros((0, m.embedding_dim))]) for m in models]
    with ad.no_grad():
        for lo in range(0, len(graphs), size):
            batch = _Batch(graphs, range(lo, min(lo + size, len(graphs))))
            sizes.append(batch.sizes)
            for model, (nodes, embs) in zip(models, parts):
                per_layer, emb = _forward(model, batch)
                nodes.append(per_layer[-1].data)
                embs.append(emb.data)
    return np.concatenate(sizes), [(np.concatenate(n), np.concatenate(e)) for n, e in parts]


# ---------------------------------------------------------------------------
# one-class training


@dataclass
class OcginConfig:
    lr: float = 0.001
    weight_decay: float = 1e-4
    batch_size: int = 50
    layers: int = 3
    hidden: int = 10
    epochs: int = 150
    seed: int = 7
    patience: int = 20
    min_delta: float = 1e-7


@dataclass
class OcginState:
    model: GineModel
    center: np.ndarray  # fixed at initialization, never optimized
    loss_curve: list[float] = field(default_factory=list)


def _plateau(losses: list[float], patience: int, min_delta: float) -> bool:
    if len(losses) <= patience:
        return False
    best_before = min(losses[:-patience])
    return min(losses[-patience:]) > best_before - min_delta


def _check_config(config) -> None:
    for name in ("batch_size", "layers", "hidden", "epochs"):
        if getattr(config, name) < 1:
            raise DataError(f"{name} must be at least 1, got {getattr(config, name)}")
    for name in ("lr", "weight_decay", "lam"):  # OCGIN has no lam, GLocalKD no weight decay
        value = getattr(config, name, 0.0)
        if not value >= 0:  # so that nan fails too
            raise DataError(f"{name} must be >= 0, got {value}")


def _fit(params, batch_loss, rng, n, config, weight_decay: float) -> list[float]:
    """Adam on the batch mean of `batch_loss(idx)`, the summed loss of the
    graphs at `idx`, over shuffled mini-batches of graphs 0..n-1; returns
    the per-epoch mean loss, stopping on a plateau."""
    state = AdamState(params)
    losses: list[float] = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        perm = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            for p in params:
                p.zero_grad()
            loss = ad.scalar_mul(1.0 / len(idx), batch_loss(idx))
            loss.backward()
            adam_step(params, state, lr=config.lr, weight_decay=weight_decay)
            epoch_loss += float(loss.data) * len(idx)
        losses.append(epoch_loss / n)
        if _plateau(losses, config.patience, config.min_delta):
            break
    return losses


def ocgin_train(graphs: Graphs, config: OcginConfig) -> OcginState:
    """Minimize mean squared distance of graph embeddings to the frozen
    center (the mean embedding at initialization)."""
    if not len(graphs):
        raise DataError("ocgin_train needs a non-empty graph list")
    _check_config(config)
    rng = np.random.default_rng(config.seed)
    model = init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    _, [(_, embs)] = _no_grad_pass([model], graphs, config.batch_size)
    center = np.mean(embs, axis=0)

    def batch_loss(idx) -> Tensor:
        emb = _forward(model, _Batch(graphs, idx))[1]
        return ad.squared_norm(ad.sub(emb, Tensor(np.tile(center, (len(idx), 1)))))

    losses = _fit(
        model.parameters(), batch_loss, rng, len(graphs), config, config.weight_decay
    )
    return OcginState(model=model, center=center, loss_curve=losses)


def ocgin_scores(
    state: OcginState, graphs: Graphs, batch_size: int = 50
) -> np.ndarray:
    """Squared distance of each graph embedding to the center, computed
    `batch_size` graphs at a time."""
    _, [(_, embs)] = _no_grad_pass([state.model], graphs, batch_size)
    diffs = embs - state.center
    return np.sum(diffs * diffs, axis=1)


# ---------------------------------------------------------------------------
# knowledge distillation training


@dataclass
class GlocalConfig:
    lr: float = 0.001
    batch_size: int = 50
    layers: int = 3
    hidden: int = 10
    lam: float = 0.1
    epochs: int = 150
    seed: int = 7
    patience: int = 20
    min_delta: float = 1e-7


@dataclass
class GlocalState:
    teacher: GineModel
    student: GineModel
    lam: float
    loss_curve: list[float] = field(default_factory=list)


def glocalkd_train(graphs: Graphs, config: GlocalConfig) -> GlocalState:
    """Train a student to mimic a frozen random teacher; the mimicry error
    (lambda * node term + graph term) is the anomaly score."""
    if not len(graphs):
        raise DataError("glocalkd_train needs a non-empty graph list")
    _check_config(config)
    rng = np.random.default_rng(config.seed)
    teacher = init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    for t in teacher.parameters():
        t.requires_grad = False
    student = init_gine(rng, hidden=config.hidden, n_layers=config.layers)

    sizes, [(nodes, teacher_emb)] = _no_grad_pass([teacher], graphs, config.batch_size)
    teacher_nodes = np.split(nodes, np.cumsum(sizes)[:-1])

    def batch_loss(idx) -> Tensor:
        """Sum over the batch of lambda/n * node term + graph term."""
        batch = _Batch(graphs, idx)
        per_layer, emb = _forward(student, batch)
        target = np.concatenate([teacher_nodes[i] for i in idx])
        node_diff = ad.sub(per_layer[-1], Tensor(target))
        # squaring rows scaled by sqrt(lambda/n) weighs each graph's node term by lambda/n
        root = np.repeat(np.sqrt(config.lam / batch.sizes), batch.sizes)
        scale = sp.diags(root, format="csr")
        node_term = ad.squared_norm(ad.sparse_matmul(scale, node_diff))
        graph_term = ad.squared_norm(ad.sub(emb, Tensor(teacher_emb[idx])))
        return ad.add(node_term, graph_term)

    losses = _fit(student.parameters(), batch_loss, rng, len(graphs), config, 0.0)
    return GlocalState(
        teacher=teacher, student=student, lam=config.lam, loss_curve=losses
    )


def glocalkd_scores(
    state: GlocalState, graphs: Graphs, batch_size: int = 50
) -> np.ndarray:
    """lambda * final-layer node mimicry error / n + graph embedding error,
    computed `batch_size` graphs at a time."""
    sizes, [(teacher_nodes, teacher_emb), (student_nodes, student_emb)] = _no_grad_pass(
        [state.teacher, state.student], graphs, batch_size
    )
    node_sq = np.sum((student_nodes - teacher_nodes) ** 2, axis=1)
    node_err = np.add.reduceat(node_sq, np.cumsum(sizes) - sizes) / sizes
    graph_err = np.sum((student_emb - teacher_emb) ** 2, axis=1)
    return state.lam * node_err + graph_err
