"""GINE message passing and the two graph anomaly models.

The one-class model pulls graph embeddings toward a center fixed at
initialization and scores by squared distance to it; the distillation
model trains a student network to mimic a frozen random teacher and
scores by the mimicry error.  All linear maps are bias-free and training
uses decoupled weight decay, the standard guard against the degenerate
solution where the network maps everything onto the center.

`TrainConfig` holds the hyperparameters both models read; `OcginConfig`
adds the weight decay and `GlocalConfig` lambda.  `MODELS`, name -> config
class, is the one list of models, each with its `<name>_train` and
`<name>_scores`; the pipeline and the CLI read it.

Message passing treats every directed edge as a bidirectional channel
carrying the same edge feature both ways, so nodes whose correlations
point one way still receive messages.

The models take a list of attributed graphs or, as a run passes them, a
series' (T, n, n) adjacency array, whose nonzero entries are the edges
in row-major (source, target) order.  Each training call and each scoring
call reads its graphs once into a `_Layout`: every edge's position (for
the array, its two-byte offset in its window, whose weight is read back
per batch), every graph's node features and its node and edge counts.
Both kinds share it, and a training and a scoring call at the same batch
size can share one: each takes a layout built at its batch size in place
of the graphs.  A batch is the disjoint union of its graphs: stacked
node and message features plus constant sparse block-diagonal one-hot
gather and scatter matrices and a mean-pool matrix, so one autodiff tape
covers a whole training batch and graphs of different sizes can share it.
The layout assembles each batch from a few copies of its ranges into
buffers sized for its largest batch and reused by every step, relu masks
included, so a batch stays valid only until the next one.  Each layer's
aggregation is one tape node, `_aggregate`, whose elementwise passes run
over cache-sized chunks of message rows; its messages go to one
(messages x width) `_scratch` buffer and its y p products to one
chunk-sized buffer, both shared by every layout.  The one-class center,
the teacher's targets and both scores come from one pass, `_no_grad_pass`,
over chunks of `batch_size` consecutive graphs under `autodiff.no_grad`:
each chunk's batch is assembled once for every model it runs, and no tape
is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step
from .corrnet import EDGE_DTYPE, WeightedDigraph, load_edges
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
    """Node features (1, weighted degree); edge feature (weight,).  Each
    graph's edges pass the archive's check first, which names its date."""
    out = []
    for g in graphs:
        e = np.asarray(g.edges, dtype=EDGE_DTYPE).reshape(-1)
        load_edges(g.n_vertices, [(e, [len(e)])], [g.as_of_date], "graph")
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


_CHUNK = 1 << 18  # adjacency entries a layout scans at once; bounds its temporaries


@dataclass
class _Batch:
    """Disjoint union of some graphs, in the order asked for: stacked node
    features x (N, m) and message features y (2E, k), and constant sparse
    block-diagonal gather (2E x N), scatter (N x 2E) and mean-pool (B x N)
    matrices.  Gather and scatter are one-hot, with one entry per message:
    gather is a CSR matrix of message sources, one entry per row, and
    scatter a CSC matrix of message targets, one entry per column.  Each
    graph's edges deliver s -> t as its first messages, then t -> s.  The
    arrays are views of the buffers of the `_Layout` that assembled it."""

    sizes: np.ndarray
    offsets: np.ndarray
    x: Tensor
    y: np.ndarray
    gather: sp.csr_matrix
    scatter: sp.csc_matrix
    pool: sp.csr_matrix
    masks: list[np.ndarray]  # the relu-mask buffers of the layout, one per layer

    def mask(self, layer: int, width: int) -> np.ndarray:
        """A bool (2E, width) view of the relu-mask buffer of `layer`, grown
        on demand; a forward pass over the next batch overwrites it."""
        size = len(self.y) * width
        while len(self.masks) <= layer:
            self.masks.append(np.empty(0, bool))
        if self.masks[layer].size < size:
            self.masks[layer] = np.empty(size, bool)
        return self.masks[layer][:size].reshape(len(self.y), width)


class _Layout:
    """Where the edges of every graph of `graphs` sit, found once per
    training or scoring call, and the buffers that `batch` assembles
    batches of at most `batch_size` graphs in.

    For a (T, n, n) array, whose nonzero entries are the edges in row-major
    (source, target) order, the layout keeps each edge's position s * n + t
    in its window, in the smallest unsigned type that holds n^2 - 1 (two
    bytes for up to 256 vertices), and reads its weight back per batch; for
    an attributed list it keeps the concatenated edges and edge features.
    Either way it keeps every graph's node and edge counts and its node
    features; the array's are (1, weighted degree), found a few graphs at a
    time.  The buffers are sized for the `batch_size` graphs with the most
    nodes and edges and reused by every batch, so a batch stays valid only
    until the next one is assembled.
    """

    def __init__(self, graphs: Graphs, batch_size: int):
        self.batch_size = batch_size
        if isinstance(graphs, np.ndarray):
            count, n = len(graphs), graphs.shape[-1]
            self.sizes = np.full(count, n, dtype=np.intp)
            edge_counts = np.count_nonzero(graphs.reshape(count, n * n), axis=1)
            self._n, self._weights = n, graphs.reshape(-1)
            self._pos = np.empty(edge_counts.sum(), np.min_scalar_type(n * n - 1))
            self._x = np.empty((count * n, 2))
            step, done = max(1, _CHUNK // max(n * n, 1)), 0
            for lo in range(0, count, step):
                chunk = graphs[lo : lo + step]
                # row-major positions graph * n^2 + s * n + t of the chunk's nonzero weights
                flat = np.flatnonzero(chunk)
                s, t = np.divmod(flat, n)  # s = graph * n + source, the chunk's source
                t += s - s % n
                y = chunk.reshape(-1)[flat].reshape(-1, 1)
                self._x[lo * n : (lo + len(chunk)) * n] = _node_features(
                    len(chunk) * n, np.stack([s, t], axis=1), y
                )
                self._pos[done : done + len(flat)] = flat % (n * n)
                done += len(flat)
        else:
            self.sizes = np.array([g.n for g in graphs], dtype=np.intp)
            parts = [np.reshape(g.edges, (-1, 2)) for g in graphs]
            edge_counts = np.array([len(e) for e in parts], dtype=np.intp)
            self._pos = None
            # row 0 the edges' sources, row 1 their targets
            ends = np.concatenate(parts or [np.zeros((0, 2), np.intp)])
            self._ends = ends.T.astype(np.int32, order="C")
            self._x = np.concatenate([g.x for g in graphs] or [np.zeros((0, 2))])
            self._y = np.concatenate([g.y for g in graphs] or [np.zeros((0, 1))])
        if not self.sizes.all():
            raise DataError("cannot embed a graph without vertices")
        self._edge_counts = edge_counts
        self._node_starts = np.cumsum(self.sizes) - self.sizes
        self._edge_starts = np.cumsum(edge_counts) - edge_counts
        most_nodes, most_edges = (
            int(np.sort(a)[::-1][:batch_size].sum()) for a in (self.sizes, edge_counts)
        )
        k = 1 if self._pos is not None else self._y.shape[1]
        self._xb = np.empty((most_nodes, self._x.shape[1]))
        self._sb, self._tb = np.empty((2, most_edges), np.int32)
        self._w = np.empty((most_edges, k))
        if self._pos is not None:
            self._pb = np.empty(most_edges, self._pos.dtype)
        # two arrays, since scipy copies an index array under half its base's size
        self._src = np.empty(2 * most_edges, np.int32)
        self._tgt = np.empty(2 * most_edges, np.int32)
        self._yb = np.empty((2 * most_edges, k))
        self._ones = np.ones(2 * most_edges)
        self._arange = np.arange(max(2 * most_edges, most_nodes) + 1, dtype=np.int32)
        self._masks: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.sizes)

    def batch(self, idx) -> _Batch:
        """The graphs `idx`, in that order, in the layout's buffers."""
        idx = np.asarray(idx, dtype=np.intp)
        sizes, counts = self.sizes[idx], self._edge_counts[idx]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        n_nodes, n_edges = int(offsets[-1]), int(counts.sum())
        rows = zip(self._node_starts[idx].tolist(), sizes.tolist())
        x = np.concatenate([self._x[lo : lo + k] for lo, k in rows], out=self._xb[:n_nodes])
        starts = self._edge_starts[idx].tolist()
        cuts = [slice(lo, lo + c) for lo, c in zip(starts, counts.tolist())]
        # each edge's source and target in the batch: its graph's first vertex
        # in the batch plus its vertex in the graph
        s, t, w = self._sb[:n_edges], self._tb[:n_edges], self._w[:n_edges]
        base = np.repeat(offsets[:-1].astype(np.int32), counts)
        if self._pos is None:
            np.concatenate([self._ends[0, c] for c in cuts], out=s)
            np.concatenate([self._ends[1, c] for c in cuts], out=t)
            np.concatenate([self._y[c] for c in cuts], out=w)
            s += base
            t += base
        else:
            pos = np.concatenate([self._pos[c] for c in cuts], out=self._pb[:n_edges])
            flat = np.repeat(idx * self._n**2, counts)
            flat += pos
            np.take(self._weights, flat, out=w[:, 0], mode="clip")
            source = pos // self._n  # in the small unsigned type, which divides fast
            np.add(source, base, out=s)
            np.add(pos - source * self._n, base, out=t)
        # graph b's 2 E_b messages follow those of the graphs before it
        stops = np.cumsum(counts).tolist()
        local = [slice(hi - c, hi) for hi, c in zip(stops, counts.tolist())]
        n_msgs = 2 * n_edges
        src = np.concatenate([a[c] for c in local for a in (s, t)], out=self._src[:n_msgs])
        tgt = np.concatenate([a[c] for c in local for a in (t, s)], out=self._tgt[:n_msgs])
        y = np.concatenate([w[c] for c in local for _ in (0, 1)], out=self._yb[:n_msgs])
        ones, one_per_row = self._ones[:n_msgs], self._arange[: n_msgs + 1]
        return _Batch(
            sizes=sizes,
            offsets=offsets,
            x=Tensor(x),
            y=y,
            gather=sp.csr_matrix((ones, src, one_per_row), shape=(n_msgs, n_nodes)),
            scatter=sp.csc_matrix((ones, tgt, one_per_row), shape=(n_nodes, n_msgs)),
            pool=sp.csr_matrix(
                (np.repeat(1.0 / sizes, sizes), self._arange[:n_nodes], offsets),
                shape=(len(idx), n_nodes),
            ),
            masks=self._masks,
        )


def _layout(graphs: Graphs | _Layout, batch_size: int) -> _Layout:
    """`graphs` if it is a layout, which must be built at `batch_size`;
    otherwise their layout at `batch_size`."""
    if not isinstance(graphs, _Layout):
        return _Layout(graphs, batch_size)
    if graphs.batch_size != batch_size:
        raise DataError(
            f"a layout built for batch size {graphs.batch_size} cannot batch {batch_size}"
        )
    return graphs


_scratch = [np.empty(0), np.empty(0)]  # `_aggregate`'s message buffers, shared by every layout
_ROWS = 1 << 13  # message rows per elementwise pass of `_aggregate`: 640 kB at width 10, in L2


def _scratch_array(slot: int, rows: int, cols: int) -> np.ndarray:
    """An uninitialised (rows, cols) view of scratch buffer `slot`, grown on
    demand; the next call for `slot` overwrites it, so it must not outlive its op."""
    if _scratch[slot].size < rows * cols:
        _scratch[slot] = np.empty(rows * cols)
    return _scratch[slot][: rows * cols].reshape(rows, cols)


def _aggregate(h: Tensor, layer: GineLayer, batch: _Batch, depth: int) -> Tensor:
    """`(h + eps*h) + S relu(G h + y p)`, the aggregation of `layer` over
    `batch`, as one tape node that keeps only the relu mask, in the batch's
    buffer for `depth`.  G h and S^T g are row gathers by the one-hot
    gather's and scatter's `indices`, and y p is one einsum.  The forward
    sums in the order of the five-node tape it replaces; the backward is
    gm = (S^T g) * mask, then gh = (1 + eps) g + G^T gm, gp = y^T gm and
    geps = <g, h>.

    The elementwise passes (gather, y p, add, mask and relu forward; gather
    and mask product backward) run over `_ROWS` messages at a time, so each
    chunk is still in cache for the next pass; every message row is computed
    alone, so the chunking changes no bit.  S m, y^T gm and G^T gm stay
    whole-batch products, since splitting them would change their summation
    order.  The (M, d) messages and gm go to one `_scratch` buffer and y p
    to a second of at most `_ROWS` rows, so no step first-touches fresh
    pages; outputs and gradients are fresh."""
    epsilon, proj, y = layer.epsilon, layer.edge_proj, batch.y
    eps = float(epsilon.data.reshape(()))
    shape = (len(y), h.data.shape[1])
    mask = batch.mask(depth, shape[1])
    chunks = [slice(lo, lo + _ROWS) for lo in range(0, len(y), _ROWS)]
    out_data = h.data + eps * h.data
    if len(y):
        messages = _scratch_array(0, *shape)
        yp = _scratch_array(1, min(len(y), _ROWS), shape[1])
        for rows in chunks:
            m = messages[rows]
            # mode "clip": under the default "raise", `take` copies through a temporary
            np.take(h.data, batch.gather.indices[rows], 0, m, "clip")
            m += np.einsum("ik,kj->ij", y[rows], proj.data, out=yp[: len(m)])
            np.greater(m, 0.0, out=mask[rows])
            np.maximum(m, 0.0, out=m)
        out_data += batch.scatter @ messages

    def backward(g: np.ndarray) -> None:
        if epsilon.requires_grad:
            epsilon._accumulate(np.sum(g * h.data).reshape(epsilon.data.shape), fresh=True)
        gh = (1.0 + eps) * g if h.requires_grad else None
        if len(y):
            gm = _scratch_array(0, *shape)
            for rows in chunks:
                np.take(g, batch.scatter.indices[rows], 0, gm[rows], "clip")
                gm[rows] *= mask[rows]
            if proj.requires_grad:
                proj._accumulate(y.T @ gm, fresh=True)
            if gh is not None:
                gh += batch.gather.T @ gm
        if gh is not None:
            h._accumulate(gh, fresh=True)

    return ad._wrap(out_data, (h, epsilon, proj), backward)


def _forward(model: GineModel, batch: _Batch) -> tuple[list[Tensor], Tensor]:
    """Per-layer (N, h) node embeddings and the (B, L*h) graph embeddings."""
    h = batch.x
    per_layer: list[Tensor] = []
    for depth, layer in enumerate(model.layers):
        h = ad.matmul(ad.relu(ad.matmul(_aggregate(h, layer, batch, depth), layer.w1)), layer.w2)
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
    per_layer, emb = _forward(model, _Layout([g], 1).batch([0]))
    return per_layer, ad.matmul(Tensor(np.ones(1)), emb)  # (1, L*h) -> (L*h,)


def _no_grad_pass(
    models: list[GineModel], layout: _Layout
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each model's final-layer node embeddings (N, h) and graph embeddings
    (T, L*h), in graph order.  Each batch of `layout.batch_size`
    consecutive graphs is assembled once and run through every model
    without a tape."""
    count, size = len(layout.sizes), layout.batch_size
    parts = [([np.zeros((0, m.hidden))], [np.zeros((0, m.embedding_dim))]) for m in models]
    with ad.no_grad():
        for lo in range(0, count, size):
            batch = layout.batch(range(lo, min(lo + size, count)))
            for model, (nodes, embs) in zip(models, parts):
                per_layer, emb = _forward(model, batch)
                nodes.append(per_layer[-1].data)
                embs.append(emb.data)
    return [(np.concatenate(n), np.concatenate(e)) for n, e in parts]


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 50
    layers: int = 3
    hidden: int = 10
    epochs: int = 150
    seed: int = 7
    patience: int = 20
    min_delta: float = 1e-7


@dataclass
class OcginConfig(TrainConfig):
    weight_decay: float = 1e-4


@dataclass
class GlocalConfig(TrainConfig):
    lam: float = 0.1


MODELS: dict[str, type[TrainConfig]] = {"ocgin": OcginConfig, "glocalkd": GlocalConfig}


def _plateau(losses: list[float], patience: int, min_delta: float) -> bool:
    if len(losses) <= patience:
        return False
    best_before = min(losses[:-patience])
    return min(losses[-patience:]) > best_before - min_delta


def _start(graphs: Graphs | _Layout, config: TrainConfig, n_models: int):
    """The rng of `config`, `n_models` models drawn from it in turn and the
    layout of `graphs`, once the graphs and the config's fields are checked."""
    if not len(graphs):
        model = next(name for name, cls in MODELS.items() if isinstance(config, cls))
        raise DataError(f"{model}_train needs a non-empty graph list")
    for name in ("batch_size", "layers", "hidden", "epochs"):
        if getattr(config, name) < 1:
            raise DataError(f"{name} must be at least 1, got {getattr(config, name)}")
    names = {f.name for f in fields(config)}
    for name in ("lr", "weight_decay", "lam"):
        if name in names and not getattr(config, name) >= 0:  # so that nan fails too
            raise DataError(f"{name} must be >= 0, got {getattr(config, name)}")
    rng = np.random.default_rng(config.seed)
    models = [init_gine(rng, hidden=config.hidden, n_layers=config.layers)
              for _ in range(n_models)]
    return rng, models, _layout(graphs, config.batch_size)


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


# ---------------------------------------------------------------------------
# one-class training


@dataclass
class OcginState:
    model: GineModel
    center: np.ndarray  # fixed at initialization, never optimized
    loss_curve: list[float] = field(default_factory=list)


def ocgin_train(graphs: Graphs | _Layout, config: OcginConfig) -> OcginState:
    """Minimize mean squared distance of graph embeddings to the frozen
    center (the mean embedding at initialization)."""
    rng, [model], layout = _start(graphs, config, 1)
    [(_, embs)] = _no_grad_pass([model], layout)
    center = np.mean(embs, axis=0)

    def batch_loss(idx) -> Tensor:
        emb = _forward(model, layout.batch(idx))[1]
        return ad.squared_norm(ad.sub(emb, Tensor(np.tile(center, (len(idx), 1)))))

    losses = _fit(model.parameters(), batch_loss, rng, len(graphs), config, config.weight_decay)
    return OcginState(model=model, center=center, loss_curve=losses)


def ocgin_scores(
    state: OcginState, graphs: Graphs | _Layout, batch_size: int = 50
) -> np.ndarray:
    """Squared distance of each graph embedding to the center, computed
    `batch_size` graphs at a time."""
    [(_, embs)] = _no_grad_pass([state.model], _layout(graphs, batch_size))
    diffs = embs - state.center
    return np.sum(diffs * diffs, axis=1)


# ---------------------------------------------------------------------------
# knowledge distillation training


@dataclass
class GlocalState:
    teacher: GineModel
    student: GineModel
    lam: float
    loss_curve: list[float] = field(default_factory=list)


def glocalkd_train(graphs: Graphs | _Layout, config: GlocalConfig) -> GlocalState:
    """Train a student to mimic a frozen random teacher; the mimicry error
    (lambda * node term + graph term) is the anomaly score."""
    rng, [teacher, student], layout = _start(graphs, config, 2)
    for t in teacher.parameters():
        t.requires_grad = False
    [(nodes, teacher_emb)] = _no_grad_pass([teacher], layout)
    teacher_nodes = np.split(nodes, np.cumsum(layout.sizes)[:-1])

    def batch_loss(idx) -> Tensor:
        """Sum over the batch of lambda/n * node term + graph term."""
        batch = layout.batch(idx)
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
    return GlocalState(teacher=teacher, student=student, lam=config.lam, loss_curve=losses)


def glocalkd_scores(
    state: GlocalState, graphs: Graphs | _Layout, batch_size: int = 50
) -> np.ndarray:
    """lambda * final-layer node mimicry error / n + graph embedding error,
    computed `batch_size` graphs at a time."""
    layout = _layout(graphs, batch_size)
    [(teacher_nodes, teacher_emb), (student_nodes, student_emb)] = _no_grad_pass(
        [state.teacher, state.student], layout
    )
    sizes = layout.sizes
    node_sq = np.sum((student_nodes - teacher_nodes) ** 2, axis=1)
    node_err = np.add.reduceat(node_sq, np.cumsum(sizes) - sizes) / sizes
    graph_err = np.sum((student_emb - teacher_emb) ** 2, axis=1)
    return state.lam * node_err + graph_err
