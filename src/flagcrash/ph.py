"""Persistent homology of directed flag complexes in dimensions 0 and 1.

A weighted digraph is filtered by ascending edge weight: vertices enter
at 0, each edge at its weight, and the ordered triple (a, b, c) enters as
a 2-simplex at the largest weight of its directed edges (a,b), (a,c),
(b,c).  Ties follow one total order: edges by (weight, source, target),
triangles by (value, a, b, c).  Simplices above dimension 2 cannot
affect H0/H1 and are never built.

The engine works on a chunk of consecutive windows of a series'
(W, n, n) adjacency array.  `np.nonzero` lists its edges row-major; two
stable sorts, by weight then by window, rank them.  Each edge a -> b
spans a triangle with every c in both a's and b's adjacency rows, so the
triangles come in (window, a, b, c) order from E x n cells.  Edges and
triangles keep one rank each across the chunk.  Integer sort keys are
cast to the narrowest type that holds them, which numpy radix-sorts.
The edge of an apparent pair, a triangle's youngest facet whose oldest
cofacet is that triangle (Bauer, "Ripser", 2021), is never reduced: its
triangle's two older edges already join its ends, so it kills no H0
class, and it pairs with that triangle.  In a flag complex most
triangles pair this way, at zero length.  Of the other edges, those that
join two components in filtration order kill H0 classes: as ranks are
distinct, they are the chunk's minimum spanning forest by rank, which
Borůvka rounds find in numpy.  The rest are reduced for H1, youngest
first, over GF(2) (Python ints as bit columns over the window's
triangles).  Reducing
coboundaries in reverse filtration order, the cohomology dual of
boundary reduction, yields the same pairs (de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011).  An
edge whose oldest cofacet is neither a pivot nor apparent pairs with it
at once (an emergent pair); its column is built only if another column
reaches that pivot.

Bars are listed as a boundary reduction in filtration order lists them:
H1 bars by death, then H0 bars by edge.  Norms summed in list order are
therefore the same floats whichever reducer made the diagram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrnet import WeightedDigraph, matrix_from_digraph
from .errors import DataError

CHUNK_TRIPLES = 1 << 19
"""Vertex triples (windows x n^3) one chunk may enumerate; this bounds the
edge rows and the triangle arrays, so memory does not grow with the
number of windows."""


@dataclass
class Filtration:
    """The edges and directed triangles of a chunk of windows.

    Window i owns edges `edge_start[i]:edge_start[i + 1]`, sorted by
    (weight, source, target), and triangles `tri_start[i]:tri_start[i + 1]`,
    sorted by (value, a, b, c).  Triangle (a, b, c) is stored as the edge
    indices of its facets (b, c), (a, c), (a, b); its value is the weight
    of the largest index among them, its youngest facet.
    """

    n_vertices: int
    edge_start: np.ndarray  # (W + 1,)
    edges: np.ndarray  # (E, 2) source, target
    weights: np.ndarray  # (E,)
    tri_start: np.ndarray  # (W + 1,)
    facets: np.ndarray  # (K, 3)
    youngest: np.ndarray  # (K,)


@dataclass
class PersistenceDiagram:
    finite: list[tuple[float, float, int]]  # (birth, death, dim), death > birth
    essential: list[tuple[float, int]]  # (birth, dim), never dying
    max_filtration: float  # largest simplex value, used by the capping variant


def build_filtration(g: WeightedDigraph) -> Filtration:
    """The one-window filtration of g: edges at their weight, directed
    2-cliques at the max of their three edge weights; vertices, all at 0,
    are implicit."""
    return _build(matrix_from_digraph([g]))


def persistent_homology(f: Filtration) -> PersistenceDiagram:
    """The dimension 0 and 1 diagram of a one-window filtration.

    Zero-length pairs are discarded; essential classes carry only a birth.
    """
    (window,) = _windows(f)
    return _diagram(f.n_vertices, *window)


def _diagram(n_vertices: int, deaths, bars, births, top) -> PersistenceDiagram:
    """The diagram of one window of `_windows`."""
    return PersistenceDiagram(
        finite=[(birth, death, 1) for birth, death in bars] + [(0.0, w, 0) for w in deaths],
        essential=[(0.0, 0)] * (n_vertices - len(deaths)) + [(b, 1) for b in births],
        max_filtration=top,
    )


def window_chunks(adjacency: np.ndarray) -> list[np.ndarray]:
    """Consecutive windows of a (T, n, n) adjacency array, at most
    `CHUNK_TRIPLES // n**3` (and at least one) to a chunk."""
    size = max(1, CHUNK_TRIPLES // max(adjacency.shape[1], 1) ** 3)
    return [adjacency[lo : lo + size] for lo in range(0, len(adjacency), size)]


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer keys below `bound`, cast narrow for numpy's radix sort."""
    return np.argsort(keys.astype(np.min_scalar_type(bound - 1)), kind="stable")


def _build(adjacency: np.ndarray) -> Filtration:
    """The filtration of a (W, n, n) adjacency chunk."""
    n_windows, n = adjacency.shape[:2]
    window, source, target = np.nonzero(adjacency)  # row-major: (window, source, target)
    out_row, in_row = window * n + source, window * n + target  # rows of (W * n, n) views
    weights = adjacency.reshape(n_windows * n, n)[out_row, target]
    # (window, weight) order by two stable sorts, so ties stay in (source, target) order
    order = np.argsort(weights, kind="stable")
    order = order[_stable_order(window[order], n_windows)]
    edge_rank = np.empty(len(order), dtype=np.intp)
    edge_rank[order] = np.arange(len(order))
    rank = np.zeros(adjacency.size, dtype=np.intp)
    rank[out_row * n + target] = edge_rank

    # triangles: each row-major edge a -> b with each c both point to, in (window, a, b, c) order
    adj = (adjacency != 0).reshape(n_windows * n, n)
    e, c = np.nonzero(adj[out_row] & adj[in_row])
    bc, ac, ab = rank[in_row[e] * n + c], rank[out_row[e] * n + c], edge_rank[e]
    youngest = np.maximum(np.maximum(bc, ac), ab)
    window, weights = window[order], weights[order]
    edges = np.stack([source[order], target[order]], axis=1)
    # every edge of a (window, weight) tie names the tie by its first edge; a
    # stable sort on the youngest facet's tie keeps (a, b, c) order within a value
    first = np.ones(len(edges), dtype=bool)
    first[1:] = (window[1:] != window[:-1]) | (weights[1:] != weights[:-1])
    tie = np.maximum.accumulate(np.where(first, np.arange(len(edges)), 0))
    tri_order = _stable_order(tie[youngest], len(edges))
    facets = np.take(np.stack([bc, ac, ab], axis=1), tri_order, axis=0)  # faster than [tri_order]
    edge_start = _offsets(np.bincount(window, minlength=n_windows))
    tri_start = np.searchsorted(e, edge_start)  # windows start at the same row-major edges
    return Filtration(n, edge_start, edges, weights, tri_start, facets, youngest[tri_order])


def _reduce_cocycles(todo, cofacets, cof_start, partner, t0: int, k: int):
    """Persistence pairs and essential edges of one window's H1.

    `todo` lists the edges to reduce, youngest first.  Edge e's cofacets
    are `cofacets[cof_start[e]:cof_start[e + 1]]`, as chunk-wide triangle
    ranks, oldest first; the window's k triangles have ranks t0 to
    t0 + k - 1.  `partner[r]` is the edge whose column, never reduced,
    has pivot r: triangle r's apparent or emergent pair, or -1.  A column
    is an edge's coboundary as a Python int (bit r - t0 for triangle r);
    its pivot is its oldest triangle.
    """

    def column(edge: int) -> int:
        bits = bytearray((k + 7) // 8)
        for r in cofacets[cof_start[edge] : cof_start[edge + 1]].tolist():
            r -= t0
            bits[r >> 3] |= 1 << (r & 7)
        return int.from_bytes(bits, "little")

    pivots: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []  # (triangle rank, edge)
    essential: list[int] = []
    for edge in todo:
        first = cof_start[edge]
        if first < cof_start[edge + 1]:
            low = int(cofacets[first])
            if low not in pivots and partner[low] < 0:  # an emergent pair
                partner[low] = edge
                pairs.append((low, edge))
                continue
        col = column(edge)
        while col:
            low = (col & -col).bit_length() - 1 + t0
            other = pivots.get(low)
            if other is None:
                partner_edge = partner[low]
                if partner_edge < 0:
                    pivots[low] = col
                    pairs.append((low, edge))
                    break
                # that edge is younger than `edge`, and its column is its coboundary
                other = pivots[low] = column(partner_edge)
            col ^= other
        else:
            essential.append(edge)
    return pairs, essential


def _spanning_forest(ends: np.ndarray, size: int) -> np.ndarray:
    """Whether each edge of `ends` (E, 2), listed by ascending rank over
    vertices below `size`, is in the minimum spanning forest by rank.

    Borůvka rounds (Borůvka 1926): each component takes its least-rank
    leaving edge, the first of its ends in a stable sort by component,
    and points at the component across it; two components that take the
    same edge point at each other, and the lower one becomes the root.
    Pointer jumping then merges every tree into its root.  As ranks are
    distinct, these are the edges Kruskal's algorithm keeps.
    """
    tree = np.zeros(len(ends), dtype=bool)
    edge, comp, label = np.arange(len(ends)), ends, np.arange(size)
    while True:
        leaving = comp[:, 0] != comp[:, 1]
        edge, comp = edge[leaving], comp[leaving]
        if not len(edge):
            return tree
        flat = comp.reshape(-1)  # edge i's ends at 2i and 2i + 1
        order = _stable_order(flat, size)
        by_comp = flat[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = by_comp[1:] != by_comp[:-1]
        least = order[first]
        tree[edge[least >> 1]] = True
        parent = label.copy()
        parent[flat[least]] = flat[least ^ 1]
        root = (parent[parent] == label) & (label < parent)
        parent[root] = label[root]
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
        comp = parent[comp]


def _windows(f: Filtration):
    """Each window's H0 deaths, nonzero H1 bars by death, essential H1 births, top weight."""
    n_edges, youngest = len(f.edges), f.youngest
    # each edge's cofacets, oldest first
    cofacets = _stable_order(f.facets.reshape(-1), n_edges) // 3
    cof_start = _offsets(np.bincount(f.facets.reshape(-1), minlength=n_edges))
    apparent = cofacets[cof_start[youngest]] == np.arange(len(youngest))
    partner = np.where(apparent, youngest, -1)
    unpaired = np.ones(n_edges, dtype=bool)
    unpaired[youngest[apparent]] = False
    # H0 deaths: the spanning forest by rank of the unpaired edges, over the chunk's W * n vertices
    (rest,) = np.nonzero(unpaired)
    window = np.searchsorted(f.edge_start, rest, "right") - 1
    ends = f.edges[rest] + f.n_vertices * window[:, None]
    forest = rest[_spanning_forest(ends, f.n_vertices * (len(f.edge_start) - 1))]
    unpaired[forest] = False
    (todo,) = np.nonzero(unpaired)

    deaths_at, todo_at = (np.searchsorted(x, f.edge_start).tolist() for x in (forest, todo))
    weights, edge_start, tri_start = f.weights.tolist(), f.edge_start.tolist(), f.tri_start.tolist()
    h0, todo, cof_start = f.weights[forest].tolist(), todo.tolist(), cof_start.tolist()
    for i in range(len(edge_start) - 1):
        deaths = h0[deaths_at[i] : deaths_at[i + 1]]
        pairs, h1_essential = _reduce_cocycles(
            todo[todo_at[i] : todo_at[i + 1]][::-1],
            cofacets, cof_start, partner, tri_start[i], tri_start[i + 1] - tri_start[i],
        )
        bars = [(weights[e], weights[youngest[low]]) for low, e in sorted(pairs)]
        births = [weights[e] for e in sorted(h1_essential)]
        top = weights[edge_start[i + 1] - 1] if deaths else 0.0  # an oldest edge kills H0
        yield deaths, [bar for bar in bars if bar[0] != bar[1]], births, top


def _capped(essential: str) -> bool:
    if essential not in ("drop", "cap"):
        raise DataError(f"essential policy must be 'drop' or 'cap', got {essential!r}")
    return essential == "cap"


def _norms(lengths) -> tuple[float, float]:
    """L1 and L2 of bar lengths, summed in list order (`sum` is not, from Python 3.12 on)."""
    l1 = l2 = 0.0
    for x in lengths:
        l1 += x
        l2 += x * x
    return l1, l2**0.5


def diagram_norm(
    d: PersistenceDiagram, p: int, dim: int, essential: str = "drop"
) -> float:
    """L1 (sum of bar lengths) or L2 (root sum of squares) in one dimension.

    Essential bars are dropped by default; `essential="cap"` closes them at
    the largest filtration value instead.
    """
    if p not in (1, 2):
        raise DataError(f"norm order must be 1 or 2, got {p}")
    if dim not in (0, 1):
        raise DataError(f"homological dimension must be 0 or 1, got {dim}")
    lengths = [death - birth for birth, death, dm in d.finite if dm == dim]
    if _capped(essential):
        lengths.extend(
            d.max_filtration - birth
            for birth, dm in d.essential
            if dm == dim and d.max_filtration > birth
        )
    return _norms(lengths)[p - 1]


def tda_features(adjacency: np.ndarray, essential: str = "drop") -> np.ndarray:
    """The (T, 4) norms L1-H0, L2-H0, L1-H1, L2-H1 of every window of a
    (T, n, n) adjacency array, summed over `persistent_homology`'s bars in
    its order, one chunk of windows at a time."""
    cap, n = _capped(essential), adjacency.shape[1]
    rows = []
    for chunk in window_chunks(adjacency):
        for deaths, bars, births, top in _windows(_build(chunk)):
            h1 = [death - birth for birth, death in bars]
            if cap and top > 0.0:
                deaths = deaths + [top] * (n - len(deaths))
                h1.extend(top - birth for birth in births if top > birth)
            rows.append(_norms(deaths) + _norms(h1))
    return np.array(rows).reshape(-1, 4)
