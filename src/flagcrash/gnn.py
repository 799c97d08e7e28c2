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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step
from .corrnet import WeightedDigraph
from .errors import DataError


@dataclass
class AttributedGraph:
    n: int
    x: np.ndarray  # (n, m) node features
    edges: list[tuple[int, int]]
    y: np.ndarray  # (|E|, k) edge features
    as_of_date: date | None = None


def attribute_graphs(graphs: list[WeightedDigraph]) -> list[AttributedGraph]:
    """Node features (1, weighted degree); edge feature (weight,)."""
    out = []
    for g in graphs:
        x = np.zeros((g.n_vertices, 2))
        x[:, 0] = 1.0
        for s, t, w in g.edges:
            x[s, 1] += w
            x[t, 1] += w
        edges = [(s, t) for s, t, _ in g.edges]
        y = np.array([[w] for *_, w in g.edges], dtype=np.float64).reshape(
            len(g.edges), 1
        )
        out.append(
            AttributedGraph(
                n=g.n_vertices, x=x, edges=edges, y=y, as_of_date=g.as_of_date
            )
        )
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

    def checksum(self) -> float:
        return float(sum(np.sum(t.data) + np.sum(t.data**2) for t in self.parameters()))


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


class _GraphTensors:
    """Constant per-graph matrices shared by every forward pass."""

    def __init__(self, g: AttributedGraph):
        self.n = g.n
        self.x = Tensor(g.x)
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
            self.gather = Tensor(src)
            self.scatter = Tensor(tgt_t)
            self.y_both = Tensor(np.vstack([g.y, g.y]))


def _forward(model: GineModel, gt: _GraphTensors) -> tuple[list[Tensor], Tensor]:
    h = gt.x
    per_layer: list[Tensor] = []
    for layer in model.layers:
        combined = ad.add(h, ad.scalar_mul(layer.epsilon, h))  # (1 + eps) * h
        if gt.has_edges:
            messages = ad.relu(
                ad.add(ad.matmul(gt.gather, h), ad.matmul(gt.y_both, layer.edge_proj))
            )
            combined = ad.add(combined, ad.matmul(gt.scatter, messages))
        h = ad.matmul(ad.relu(ad.matmul(combined, layer.w1)), layer.w2)
        per_layer.append(h)
    graph_emb = ad.concat_cols([ad.mean_rows(h) for h in per_layer])
    return per_layer, graph_emb


def gine_forward(model: GineModel, g: AttributedGraph) -> tuple[list[Tensor], Tensor]:
    """Per-layer node embeddings and the length L*h pooled graph embedding."""
    if g.x.shape[1] != model.node_dim:
        raise DataError(
            f"graph node features have dim {g.x.shape[1]}, model expects {model.node_dim}"
        )
    if g.edges and g.y.shape[1] != model.edge_dim:
        raise DataError(
            f"graph edge features have dim {g.y.shape[1]}, model expects {model.edge_dim}"
        )
    return _forward(model, _GraphTensors(g))


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


def _epoch_batches(rng, n, batch_size):
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def _plateau(losses: list[float], patience: int, min_delta: float) -> bool:
    if len(losses) <= patience:
        return False
    best_before = min(losses[:-patience])
    return min(losses[-patience:]) > best_before - min_delta


def _fit(params, term, rng, n, config, weight_decay: float) -> list[float]:
    """Adam on the batch mean of `term(i)` over shuffled mini-batches of
    graphs 0..n-1; returns the per-epoch mean loss, stopping on a plateau."""
    state = AdamState(params)
    losses: list[float] = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for batch in _epoch_batches(rng, n, config.batch_size):
            for p in params:
                p.zero_grad()
            terms = [term(i) for i in batch]
            loss = terms[0]
            for t in terms[1:]:
                loss = ad.add(loss, t)
            loss = ad.scalar_mul(1.0 / len(batch), loss)
            loss.backward()
            adam_step(params, state, lr=config.lr, weight_decay=weight_decay)
            epoch_loss += float(loss.data) * len(batch)
        losses.append(epoch_loss / n)
        if _plateau(losses, config.patience, config.min_delta):
            break
    return losses


def ocgin_train(graphs: list[AttributedGraph], config: OcginConfig) -> OcginState:
    """Minimize mean squared distance of graph embeddings to the frozen
    center (the mean embedding at initialization)."""
    if not graphs:
        raise DataError("ocgin_train needs a non-empty graph list")
    rng = np.random.default_rng(config.seed)
    model = init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    prepped = [_GraphTensors(g) for g in graphs]
    center = np.mean([_forward(model, gt)[1].data for gt in prepped], axis=0)
    c_tensor = Tensor(center)

    def term(i: int) -> Tensor:
        return ad.squared_norm(ad.sub(_forward(model, prepped[i])[1], c_tensor))

    losses = _fit(model.parameters(), term, rng, len(graphs), config, config.weight_decay)
    return OcginState(model=model, center=center, loss_curve=losses)


def ocgin_scores(state: OcginState, graphs: list[AttributedGraph]) -> np.ndarray:
    """Squared distance of each graph embedding to the center."""
    diffs = [gine_forward(state.model, g)[1].data - state.center for g in graphs]
    return np.array([float(d @ d) for d in diffs])


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


def _distill_loss(
    student: GineModel,
    gt: _GraphTensors,
    teacher_nodes: np.ndarray,
    teacher_emb: np.ndarray,
    lam: float,
) -> Tensor:
    per_layer, emb = _forward(student, gt)
    node_term = ad.scalar_mul(
        lam / gt.n, ad.squared_norm(ad.sub(per_layer[-1], Tensor(teacher_nodes)))
    )
    graph_term = ad.squared_norm(ad.sub(emb, Tensor(teacher_emb)))
    return ad.add(node_term, graph_term)


def glocalkd_train(graphs: list[AttributedGraph], config: GlocalConfig) -> GlocalState:
    """Train a student to mimic a frozen random teacher; the mimicry error
    (lambda * node term + graph term) is the anomaly score."""
    if not graphs:
        raise DataError("glocalkd_train needs a non-empty graph list")
    if config.lam < 0:
        raise DataError(f"lambda must be nonnegative, got {config.lam}")
    rng = np.random.default_rng(config.seed)
    teacher = init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    for t in teacher.parameters():
        t.requires_grad = False
    student = init_gine(rng, hidden=config.hidden, n_layers=config.layers)

    prepped = [_GraphTensors(g) for g in graphs]
    teacher_out = []
    for gt in prepped:
        per_layer, emb = _forward(teacher, gt)
        teacher_out.append((per_layer[-1].data.copy(), emb.data.copy()))

    def term(i: int) -> Tensor:
        nodes, emb = teacher_out[i]
        return _distill_loss(student, prepped[i], nodes, emb, config.lam)

    losses = _fit(student.parameters(), term, rng, len(graphs), config, 0.0)
    return GlocalState(
        teacher=teacher, student=student, lam=config.lam, loss_curve=losses
    )


def glocalkd_score(state: GlocalState, g: AttributedGraph) -> float:
    """lambda * final-layer node mimicry error + graph embedding error."""
    gt = _GraphTensors(g)
    teacher_layers, teacher_emb = _forward(state.teacher, gt)
    student_layers, student_emb = _forward(state.student, gt)
    node_err = float(
        np.sum((student_layers[-1].data - teacher_layers[-1].data) ** 2)
    ) / g.n
    graph_err = float(np.sum((student_emb.data - teacher_emb.data) ** 2))
    return state.lam * node_err + graph_err


def glocalkd_scores(state: GlocalState, graphs: list[AttributedGraph]) -> np.ndarray:
    return np.array([glocalkd_score(state, g) for g in graphs])
