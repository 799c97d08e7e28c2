import numpy as np
import pytest
import scipy.sparse as sp

from flagcrash.autodiff import (
    AdamState,
    Tensor,
    adam_step,
    add,
    concat_cols,
    matmul,
    no_grad,
    relu,
    scalar_mul,
    sparse_matmul,
    squared_norm,
    sub,
)

from oracles import mean_rows

def finite_difference_grad(loss_fn, params, h=1e-5):
    """Central-difference gradient of a scalar loss over a list of Tensors.

    Independent of the tape: perturbs raw parameter entries and re-runs the
    forward function.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return np.max(np.abs(a - b)) / denom


def test_relu_forward():
    out = relu(Tensor([-1.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 2.0])


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_squared_norm_value():
    assert float(squared_norm(Tensor([3.0, 4.0])).data) == 25.0


def test_matmul_shape_error_names_op():
    with pytest.raises(ValueError, match="matmul"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_backward_squared_norm():
    w = Tensor([3.0, 4.0], requires_grad=True)
    squared_norm(w).backward()
    assert np.allclose(w.grad, [6.0, 8.0])


def test_backward_sum_relu():
    w = Tensor([-1.0, 2.0], requires_grad=True)
    mean_rows(relu(w)).backward()
    assert np.array_equal(w.grad, [0.0, 0.5])


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        relu(w).backward()


def test_no_tape_without_requires_grad():
    out = add(Tensor([1.0]), Tensor([2.0]))
    assert not out.requires_grad and out._backward is None


def test_accumulation_tensor_used_twice():
    # f(w) = |w + w|^2 = 4|w|^2, so grad = 8w
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    squared_norm(add(w, w)).backward()
    assert np.allclose(w.grad, 8.0 * w.data)


def test_shared_gradients_are_not_aliased():
    # add hands one g to both parents and concat_cols hands out slices of
    # its g; neither may become a tensor's own gradient, because later
    # contributions are added into that array in place
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    doubled, both = add(a, a), add(a, b)
    total = add(doubled, both)  # 3a + b
    joined = concat_cols([total, b])
    squared_norm(joined).backward()
    e = 3.0 * a.data + b.data
    np.testing.assert_allclose(a.grad, 6.0 * e, rtol=1e-14)
    np.testing.assert_allclose(b.grad, 2.0 * e + 2.0 * b.data, rtol=1e-14)
    np.testing.assert_allclose(doubled.grad, 2.0 * e, rtol=1e-14)
    np.testing.assert_allclose(both.grad, 2.0 * e, rtol=1e-14)
    tensors = [a, b, doubled, both, total, joined]
    for i, s in enumerate(tensors):
        for t in tensors[i + 1 :]:
            assert not np.shares_memory(s.grad, t.grad)


def test_scalar_mul_by_tensor_grads_both_sides():
    s = Tensor(2.0, requires_grad=True)
    x = Tensor([1.0, 3.0], requires_grad=True)
    squared_norm(scalar_mul(s, x)).backward()
    # d/ds sum(s^2 x^2) = 2 s |x|^2 = 40 ; d/dx = 2 s^2 x
    assert np.allclose(s.grad, 40.0)
    assert np.allclose(x.grad, [8.0, 24.0])


@pytest.mark.parametrize("seed", range(10))
def test_random_composition_matches_finite_differences(seed):
    rng = np.random.default_rng(1000 + seed)
    w1 = Tensor(rng.normal(size=(4, 5)) * 0.7, requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 5)) * 0.7, requires_grad=True)
    w3 = Tensor(rng.normal(size=(5,)) * 0.7, requires_grad=True)
    x = Tensor(rng.normal(size=(3, 4)))
    eps = Tensor(rng.normal() * 0.3, requires_grad=True)

    def loss_fn():
        h1 = relu(matmul(x, w1))
        h2 = relu(add(matmul(h1, w2), scalar_mul(eps, h1)))
        pooled = mean_rows(h2)
        joined = concat_cols([pooled, mean_rows(matmul(h2, w2))])
        tail = matmul(h2, w3)
        return add(squared_norm(joined), squared_norm(tail))

    params = [w1, w2, w3, eps]
    loss = loss_fn()
    loss.backward()
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference_grad(loss_fn, params)
    for a, n in zip(analytic, numeric):
        assert relative_error(a, n) < 1e-4


class TestSparseMatmul:
    def matrix(self, rng, shape, density=0.4):
        dense = rng.normal(size=shape) * (rng.random(shape) < density)
        return sp.csr_matrix(dense), dense

    def test_forward_equals_dense_product(self):
        rng = np.random.default_rng(3)
        a, dense = self.matrix(rng, (7, 5))
        x = rng.normal(size=(5, 3))
        out = sparse_matmul(a, Tensor(x))
        assert isinstance(out.data, np.ndarray) and out.shape == (7, 3)
        np.testing.assert_allclose(out.data, dense @ x, rtol=1e-14, atol=1e-15)

    def test_backward_is_transpose_product(self):
        rng = np.random.default_rng(4)
        a, dense = self.matrix(rng, (6, 4))
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        target = rng.normal(size=(6, 2))
        squared_norm(sub(sparse_matmul(a, x), Tensor(target))).backward()
        expected = dense.T @ (2.0 * (dense @ x.data - target))
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_composition_matches_finite_differences(self, seed):
        rng = np.random.default_rng(2000 + seed)
        gather, _ = self.matrix(rng, (9, 4))
        scatter, _ = self.matrix(rng, (4, 9))
        w = Tensor(rng.normal(size=(3, 3)) * 0.7, requires_grad=True)
        h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def loss_fn():
            messages = relu(matmul(sparse_matmul(gather, h), w))
            return squared_norm(add(h, sparse_matmul(scatter, messages)))

        params = [w, h]
        loss_fn().backward()
        analytic = [p.grad.copy() for p in params]
        numeric = finite_difference_grad(loss_fn, params)
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) < 1e-4

    def test_constant_input_records_no_tape(self):
        out = sparse_matmul(sp.identity(2, format="csr"), Tensor(np.ones((2, 2))))
        assert not out.requires_grad and out._backward is None

    @pytest.mark.parametrize("shape", [(3,), (4, 2)])
    def test_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="sparse_matmul"):
            sparse_matmul(sp.identity(3, format="csr"), Tensor(np.ones(shape)))


def test_backward_deterministic_bit_identical():
    def run():
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        x = Tensor(rng.normal(size=(4, 6)))
        squared_norm(relu(matmul(x, w))).backward()
        return w.grad.copy()

    assert np.array_equal(run(), run())


def test_sub_composition():
    a = Tensor([5.0, 1.0], requires_grad=True)
    b = Tensor([2.0, 2.0], requires_grad=True)
    squared_norm(sub(a, b)).backward()
    assert np.allclose(a.grad, [6.0, -2.0])
    assert np.allclose(b.grad, [-6.0, 2.0])


class TestNoGrad:
    def ops(self, w):
        x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
        gather = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))
        h = relu(add(matmul(x, w), scalar_mul(Tensor(0.5, requires_grad=True), x)))
        return [h, sparse_matmul(gather, h), concat_cols([h, h]), mean_rows(sub(h, x))]

    def test_outputs_made_inside_have_no_tape(self):
        w = Tensor(np.array([[0.3, -0.1], [0.2, 0.4]]), requires_grad=True)
        taped = self.ops(w)
        with no_grad():
            plain = self.ops(w)
        for t in taped:
            assert t.requires_grad and t._parents
        for t, p in zip(taped, plain):
            assert not p.requires_grad
            assert p._parents == () and p._backward is None
            assert np.array_equal(t.data, p.data)

    def test_recording_resumes_after_the_block_and_after_an_error(self):
        w = Tensor(np.eye(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not matmul(w, w).requires_grad
                raise RuntimeError
        assert matmul(w, w)._parents == (w, w)


class TestAdam:
    def test_zero_gradient_zero_decay_leaves_params(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        adam_step([p], AdamState([p]), lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.data, before)

    def test_single_step_descends_quadratic(self):
        w = Tensor(1.0, requires_grad=True)
        squared_norm(w).backward()
        adam_step([w], AdamState([w]), lr=0.1)
        assert float(w.data) < 1.0

    def test_quadratic_bowl_converges(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        state = AdamState([w])
        for _ in range(500):
            w.zero_grad()
            squared_norm(w).backward()
            adam_step([w], state, lr=0.05)
        assert np.max(np.abs(w.data)) < 1e-3

    def test_decoupled_weight_decay_shrinks_without_gradient(self):
        p = Tensor([10.0], requires_grad=True)
        p.grad = np.zeros(1)
        adam_step([p], AdamState([p]), lr=0.1, weight_decay=0.01)
        assert p.data[0] == pytest.approx(10.0 * (1 - 0.1 * 0.01))
