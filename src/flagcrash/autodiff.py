"""Reverse-mode automatic differentiation over dense float64 arrays.

A dynamic tape: every op that touches a tensor requiring gradients records
its parents and a backward closure on the output.  `Tensor.backward()`
topologically sorts the tape and accumulates gradients into the leaves.
Only the handful of ops needed for GINE message passing and the two
anomaly losses are provided; shapes are 0-d, 1-d, or 2-d and never
broadcast implicitly.  The one sparse op, `sparse_matmul`, multiplies a
tensor by a constant `scipy.sparse` matrix (message gather, scatter and
pooling over a batch of graphs).  Inside `no_grad()` no op records a
tape, for forward passes that only score.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class Tensor:
    """A dense float64 array with an optional gradient slot.

    `grad` is allocated lazily on first accumulation and always matches
    `data` in shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate grads of every requires_grad tensor reachable from here.

        The loss must be scalar (0-d or single-element).
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_recording = True  # False inside `no_grad`


@contextmanager
def no_grad():
    """Within the block, ops record no tape: their outputs never require
    grad and keep no parents, so intermediates are freed as they go."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _wrap(out_data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(out_data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _check_2d(name: str, *ts: Tensor) -> None:
    for t in ts:
        if t.data.ndim > 2:
            raise ValueError(f"{name}: tensors must be at most 2-d, got {t.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's 1-d/2-d semantics (no batching)."""
    _check_2d("matmul", a, b)
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ValueError("matmul: operands must be 1-d or 2-d")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul: shape mismatch {a.shape} @ {b.shape}")
    out_data = a.data @ b.data
    a_2d, b_2d = a.data.ndim == 2, b.data.ndim == 2

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            if a_2d and b_2d:
                ga = g @ b.data.T
            elif a_2d:  # (n,k) @ (k,) -> (n,)
                ga = np.outer(g, b.data)
            elif b_2d:  # (k,) @ (k,m) -> (m,)
                ga = b.data @ g
            else:  # (k,) @ (k,) -> ()
                ga = g * b.data
            a._accumulate(ga)
        if b.requires_grad:
            if a_2d and b_2d:
                gb = a.data.T @ g
            elif a_2d:
                gb = a.data.T @ g
            elif b_2d:
                gb = np.outer(a.data, g)
            else:
                gb = g * a.data
            b._accumulate(gb)

    return _wrap(out_data, (a, b), backward)


def sparse_matmul(a, x: Tensor) -> Tensor:
    """Product of a constant scipy.sparse CSR matrix `a` and a 2-d tensor."""
    if x.data.ndim != 2 or a.shape[1] != x.data.shape[0]:
        raise ValueError(f"sparse_matmul: shape mismatch {a.shape} @ {x.shape}")
    out_data = np.asarray(a @ x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(a.T @ g)

    return _wrap(out_data, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.shape} + {b.shape}")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    return _wrap(out_data, (a, b), backward)


def scalar_mul(s, x: Tensor) -> Tensor:
    """Multiply a tensor by a python float or a scalar Tensor."""
    if isinstance(s, Tensor):
        if s.data.size != 1:
            raise ValueError(f"scalar_mul: scalar operand has shape {s.shape}")
        s_val = float(s.data.reshape(()))
        out_data = s_val * x.data

        def backward(g: np.ndarray) -> None:
            if s.requires_grad:
                s._accumulate(np.sum(g * x.data).reshape(s.data.shape))
            if x.requires_grad:
                x._accumulate(s_val * g)

        return _wrap(out_data, (s, x), backward)

    c = float(s)
    out_data = c * x.data

    def backward_const(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(c * g)

    return _wrap(out_data, (x,), backward_const)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (x.data > 0.0))

    return _wrap(out_data, (x,), backward)


def concat_cols(xs: list[Tensor]) -> Tensor:
    """Concatenate 1-d tensors end to end (or 2-d tensors side by side)."""
    if not xs:
        raise ValueError("concat_cols: empty input")
    ndim = xs[0].data.ndim
    for t in xs:
        if t.data.ndim != ndim:
            raise ValueError("concat_cols: mixed ranks")
    axis = 0 if ndim == 1 else 1
    out_data = np.concatenate([t.data for t in xs], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in xs])

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _wrap(out_data, tuple(xs), backward)


def squared_norm(x: Tensor) -> Tensor:
    """Sum of squared entries, returned as a 0-d scalar."""
    out_data = np.asarray(np.sum(x.data * x.data))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(2.0 * float(g) * x.data)

    return _wrap(out_data, (x,), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a - b, composed from add and scalar_mul."""
    return add(a, scalar_mul(-1.0, b))


class AdamState:
    """First/second moment estimates and step counter for one parameter set."""

    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(
    params: list[Tensor],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update with decoupled weight decay.

    The decay `p <- p - lr*wd*p` is applied before the moment update, so a
    zero gradient with zero decay leaves parameters untouched.
    """
    state.t += 1
    t = state.t
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if weight_decay != 0.0:
            p.data -= lr * weight_decay * p.data
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * (g * g)
        m_hat = state.m[i] / (1.0 - beta1**t)
        v_hat = state.v[i] / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
