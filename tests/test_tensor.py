"""Tests for the autodiff tensor engine."""

import gc
import inspect
import math
import weakref

import numpy as np
import pytest

from tabaconv import tensor as tt
from tabaconv.errors import ConfigError, ContractError, ShapeError
from tabaconv.tensor import Tensor, grad_check, use_dtype


def conv1d_oracle(x, w, bias, padding):
    """Plain nested-loop reference; tap-outer, feature-inner accumulation."""
    batch, t_len, f_in = x.shape
    k, _, f_c = w.shape
    half = k // 2
    out = np.zeros((batch, t_len, f_c), dtype=x.dtype)
    for b in range(batch):
        for t in range(t_len):
            for c in range(f_c):
                acc = x.dtype.type(0.0)
                for tap in range(k):
                    src = t + tap - half
                    for f in range(f_in):
                        if padding == "circular":
                            xv = x[b, src % t_len, f]
                        elif 0 <= src < t_len:
                            xv = x[b, src, f]
                        else:
                            xv = x.dtype.type(0.0)
                        acc += xv * w[tap, f, c]
                out[b, t, c] = acc + bias[c]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(tt.matmul(a, b).data, b.data)

    def test_hand_2x2(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(tt.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zeros_annihilate(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        z = Tensor(np.zeros((4, 2)))
        np.testing.assert_array_equal(tt.matmul(a, z).data, np.zeros((3, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tt.matmul(a, b)

    def test_batched_broadcast_weight(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = tt.matmul(x, w)
        assert out.shape == (2, 5, 4)
        tt.sum_all(out).backward()
        assert w.grad.shape == (3, 4)
        assert x.grad.shape == (2, 5, 3)


class TestFoldedMatmul:
    """[B, T, k] @ [k, n]: backward folds B and T into rows, one GEMM per gradient."""

    @staticmethod
    def operands(n):
        rng = np.random.default_rng(n)
        return (rng.normal(size=(4, 10, 32)).astype(np.float32),
                rng.normal(size=(32, n)).astype(np.float32),
                rng.normal(size=(4, 10, n)).astype(np.float32))

    @staticmethod
    def grads(a_data, b_data, g, needs):
        a = Tensor(a_data, requires_grad="a" in needs)
        b = Tensor(b_data, requires_grad="b" in needs)
        tt.sum_all(tt.mul(tt.matmul(a, b), Tensor(g))).backward()
        return a.grad, b.grad

    @pytest.mark.parametrize("needs", ["ab", "a", "b"])
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_matches_batched_and_summed_reference(self, n, needs):
        a, b, g = self.operands(n)
        ga, gb = self.grads(a, b, g, needs)
        a64, b64, g64 = (x.astype(np.float64) for x in (a, b, g))
        eps = np.finfo(np.float32).eps
        if "a" in needs:
            # each element sums n products; the bound is the worst-case float32 summation error
            ref, size = g64 @ b64.T, np.abs(g64) @ np.abs(b64).T
            assert ga.dtype == np.float32 and np.all(np.abs(ga - ref) <= (n + 1) * eps * size)
        else:
            assert ga is None
        if "b" in needs:
            # the batched [B, k, n] product summed over B, as the gradient was formed before
            ref = np.matmul(a64.swapaxes(-1, -2), g64).sum(axis=0)
            size = np.matmul(np.abs(a64).swapaxes(-1, -2), np.abs(g64)).sum(axis=0)
            assert gb.dtype == np.float32 and np.all(np.abs(gb - ref) <= 41 * eps * size)
        else:
            assert gb is None
        for first, second in zip((ga, gb), self.grads(a, b, g, needs)):
            assert (first is None and second is None) or first.tobytes() == second.tobytes()

    def test_single_column_input_gradient_equals_the_gemm_bitwise(self):
        a, b, g = self.operands(1)
        ga, _ = self.grads(a, b, g, "ab")
        assert ga.tobytes() == (g.reshape(-1, 1) @ b.T).reshape(a.shape).tobytes()


class TestConv1d:
    def test_k1_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 6, 3)))
        w = Tensor(np.eye(3)[None, :, :])
        b = Tensor(np.zeros(3))
        np.testing.assert_allclose(tt.conv1d(x, w, b).data, x.data, rtol=1e-6)

    def test_k3_centered_delta(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(1, 5, 2)))
        w = np.zeros((3, 2, 2))
        w[1] = np.eye(2)
        out = tt.conv1d(x, Tensor(w), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, x.data, rtol=1e-6)

    def test_box_filter_hand_values(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
        w = Tensor(np.ones((3, 1, 1)))
        out = tt.conv1d(x, w, Tensor(np.zeros(1)), padding="zero")
        np.testing.assert_allclose(out.data.reshape(-1), [3.0, 6.0, 5.0])

    def test_even_kernel_rejected(self):
        x = Tensor(np.zeros((1, 4, 2)))
        with pytest.raises(ConfigError):
            tt.conv1d(x, Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)))

    def test_feature_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 4, 2)))
        with pytest.raises(ShapeError):
            tt.conv1d(x, Tensor(np.zeros((3, 5, 2))), Tensor(np.zeros(2)))

    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle_bitwise(self, padding, seed):
        rng = np.random.default_rng(seed)
        with use_dtype("float64"):
            x = Tensor(rng.normal(size=(2, 10, 4)))
            w = Tensor(rng.normal(size=(3, 4, 6)))
            b = Tensor(rng.normal(size=6))
            out = tt.conv1d(x, w, b, padding=padding)
            ref = conv1d_oracle(x.data, w.data, b.data, padding)
        np.testing.assert_array_equal(out.data, ref)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("batch", [1, 3, 4, None])
    @pytest.mark.parametrize("x_shape,k,f_c", [((2, 10, 64), 3, 32), ((2, 9, 7), 5, 5)],
                             ids=["model_width", "odd_width"])
    def test_matches_loop_oracle_bitwise_at_width(self, x_shape, k, f_c, batch, padding, dtype):
        # `batch` windows of the shape (None: its own 2) set the length of the einsum's inner
        # loop over B*T positions
        if batch is not None:
            x_shape = (batch, *x_shape[1:])
        rng = np.random.default_rng(x_shape[-1])
        with use_dtype(dtype):
            x = Tensor(rng.normal(size=x_shape))
            w = Tensor(rng.normal(size=(k, x_shape[-1], f_c)))
            b = Tensor(rng.normal(size=f_c))
            out = tt.conv1d(x, w, b, padding=padding)
            ref = conv1d_oracle(x.data, w.data, b.data, padding)
        assert out.data.dtype == ref.dtype == np.dtype(dtype)
        assert out.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("padding", ["zero", "circular"])
    @pytest.mark.parametrize("f_in", [1, 2, 7, 64, 256])
    @pytest.mark.parametrize("batch,t_len", [(1, 1), (2, 3)], ids=["bt1", "bt6"])
    @pytest.mark.parametrize("f_c", [1, 2, 32])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_loop_oracle_bitwise_on_shape_grid(self, k, f_c, batch, t_len, f_in, padding,
                                                       dtype):
        # bt1 with f_c = 1 is the single-output case, where the einsum would sum its reduction
        # as the inner loop without the zero column conv1d pads it with
        rng = np.random.default_rng([k, f_c, batch, t_len, f_in])
        with use_dtype(dtype):
            x = Tensor(rng.normal(size=(batch, t_len, f_in)))
            w = Tensor(rng.normal(size=(k, f_in, f_c)))
            b = Tensor(rng.normal(size=f_c))
            out = tt.conv1d(x, w, b, padding=padding)
            ref = conv1d_oracle(x.data, w.data, b.data, padding)
        assert out.data.dtype == ref.dtype == np.dtype(dtype)
        assert out.data.shape == (batch, t_len, f_c)
        assert out.data.tobytes() == ref.tobytes()

    def test_circular_translation_equivariance(self):
        rng = np.random.default_rng(7)
        with use_dtype("float64"):
            x = rng.normal(size=(2, 9, 3))
            w = Tensor(rng.normal(size=(5, 3, 4)))
            b = Tensor(rng.normal(size=4))
            base = tt.conv1d(Tensor(x), w, b, padding="circular").data
            for shift in range(1, 9):
                rolled = tt.conv1d(Tensor(np.roll(x, shift, axis=1)), w, b, padding="circular").data
                np.testing.assert_array_equal(rolled, np.roll(base, shift, axis=1))

    def test_zero_matches_circular_in_interior(self):
        rng = np.random.default_rng(8)
        with use_dtype("float64"):
            x = Tensor(rng.normal(size=(1, 12, 3)))
            w = Tensor(rng.normal(size=(5, 3, 2)))
            b = Tensor(np.zeros(2))
            zero = tt.conv1d(x, w, b, padding="zero").data
            circ = tt.conv1d(x, w, b, padding="circular").data
        np.testing.assert_array_equal(zero[:, 2:10, :], circ[:, 2:10, :])


class TestSoftmax:
    def test_uniform(self):
        out = tt.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-6)

    def test_large_logit_no_overflow(self):
        out = tt.softmax_lastdim(Tensor([1000.0, 0.0, 0.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-12)

    def test_log_ratio_inputs(self):
        out = tt.softmax_lastdim(Tensor([math.log(1), math.log(2), math.log(3)]))
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], rtol=1e-6)

    def test_slices_normalized_and_positive(self):
        rng = np.random.default_rng(11)
        out = tt.softmax_lastdim(Tensor(rng.normal(scale=5, size=(4, 6, 9))))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones((4, 6)), atol=1e-6)
        assert (out.data > 0).all()


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = tt.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros((2, 4)), atol=1e-6)

    def test_two_point_standardization(self):
        with use_dtype("float64"):
            out = tt.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], rtol=1e-5)

    def test_zero_gain_passes_beta(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 5)))
        beta = np.arange(5.0)
        out = tt.layer_norm(x, Tensor(np.zeros(5)), Tensor(beta))
        np.testing.assert_allclose(out.data, np.tile(beta, (3, 1)), rtol=1e-6)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ConfigError):
            tt.layer_norm(Tensor(np.ones((2, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


class TestResidualNorm:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("p,seed", [(0.1, 6), (0.0, 6), (0.3, None)], ids=["dropout", "rate_0", "no_rng"])
    def test_bitwise_equal_to_the_dropout_add_layer_norm_chain(self, dtype, p, seed):
        """Same output, same four gradients and the same stream state after it as the three-node chain."""
        runs = []
        with use_dtype(dtype):
            for fused in (True, False):
                rng = np.random.default_rng(53)
                h, y, gamma, beta = (_random_tensor(rng, s) for s in ((4, 7, 16), (4, 7, 16), (16,), (16,)))
                upstream = Tensor(rng.normal(size=(4, 7, 16)))
                drop = None if seed is None else np.random.default_rng(seed)
                if fused:
                    out = tt.residual_norm(h, y, gamma, beta, p, drop)
                else:
                    out = tt.layer_norm(tt.add(h, tt.dropout(y, p, drop)), gamma, beta)
                grads = _grads([h, y, gamma, beta], tt.sum_all(tt.mul(out, upstream)))
                after = None if drop is None else drop.random(3).tobytes()
                runs.append((out.dtype, out.data.tobytes(), [g.tobytes() for g in grads], after))
        assert runs[0][0] == np.dtype(dtype)
        assert runs[0] == runs[1]

    def test_dropout_zeroes_the_sublayer_gradient_where_it_dropped(self):
        rng = np.random.default_rng(54)
        h, y, gamma, beta = (_random_tensor(rng, s) for s in ((8, 5, 6), (8, 5, 6), (6,), (6,)))
        tt.sum_all(tt.mul(tt.residual_norm(h, y, gamma, beta, 0.5, np.random.default_rng(2)),
                          Tensor(rng.normal(size=(8, 5, 6))))).backward()
        dropped = y.grad == 0
        assert dropped.any() and not dropped.all() and not (h.grad[dropped] == 0).all()

    def test_mismatched_shapes_and_rates_rejected(self):
        h, gamma, beta = Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4))
        with pytest.raises(ShapeError):
            tt.residual_norm(h, Tensor(np.zeros((2, 3, 5))), gamma, beta, 0.0, None)
        with pytest.raises(ShapeError):
            tt.residual_norm(h, h, Tensor(np.ones(3)), beta, 0.0, None)
        with pytest.raises(ConfigError):
            tt.residual_norm(h, h, gamma, beta, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_scaled_mean_square_is_bitwise_the_mul_mean_scale_chain(dtype):
    runs = []
    with use_dtype(dtype):
        for fused in (True, False):
            rng = np.random.default_rng(55)
            x, other = _random_tensor(rng, (4, 7, 16)), _random_tensor(rng, (4, 7, 16))
            reg = tt.scaled_mean_square(x, 1e-4) if fused else tt.scale(tt.mean_all(tt.mul(x, x)), 1e-4)
            # x also feeds another node, whose gradient reaches x after the penalty's, as in `mdm_loss`
            loss = tt.add(reg, tt.sum_all(tt.mul(tt.add(other, x), Tensor(rng.normal(size=(4, 7, 16))))))
            grads = _grads([x, other], loss)
            runs.append((reg.dtype, reg.data.tobytes(), [g.tobytes() for g in grads]))
    assert runs[0][0] == np.dtype(dtype)
    assert runs[0] == runs[1]


class TestElementwise:
    def test_relu(self):
        out = tt.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_bitwise_equals_select_on_finite_input(self):
        x = np.concatenate([np.random.default_rng(5).normal(size=1000),
                            [0.0, -0.0, 1e-45, -1e-45, 3e38, -3e38]]).astype(np.float32)
        assert tt.relu(Tensor(x)).data.tobytes() == np.where(x > 0, x, 0.0).astype(np.float32).tobytes()

    def test_relu_keeps_nan(self):
        out = tt.relu(Tensor([np.nan, -1.0, 2.0]))
        assert np.isnan(out.data[0]) and out.data[1:].tolist() == [0.0, 2.0]

    def test_concat_lastdim_width(self):
        a = Tensor(np.zeros((2, 4, 3)))
        b = Tensor(np.ones((2, 4, 5)))
        out = tt.concat_lastdim([a, b])
        assert out.shape == (2, 4, 8)
        np.testing.assert_array_equal(out.data[..., 3:], 1.0)

    def test_concat_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            tt.concat_lastdim([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])

    def test_mean_axis_hand_value(self):
        out = tt.mean_axis(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_trailing_broadcast_add(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        out = tt.add(a, b)
        tt.sum_all(out).backward()
        np.testing.assert_array_equal(b.grad, np.full(4, 6.0))

    def test_non_broadcastable_rejected(self):
        with pytest.raises(ShapeError):
            tt.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tt.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_dot_is_bilinear(self):
        xv = np.array([1.0, 2.0, 3.0])
        yv = np.array([-1.0, 0.5, 4.0])
        x = Tensor(xv, requires_grad=True)
        y = Tensor(yv, requires_grad=True)
        tt.sum_all(tt.mul(x, y)).backward()
        np.testing.assert_allclose(x.grad, yv, rtol=1e-6)
        np.testing.assert_allclose(y.grad, xv, rtol=1e-6)

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.ones(4), requires_grad=True)
        loss = tt.add(tt.sum_all(x), tt.sum_all(x))
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            tt.relu(x).backward()

    def test_relu_matmul_chain_matches_finite_differences(self):
        with use_dtype("float64"):
            rng = np.random.default_rng(21)
            params = {
                "x": Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True),
                "w": Tensor(rng.normal(size=(4, 2)), requires_grad=True),
            }
            report = grad_check(
                lambda p: tt.sum_all(tt.relu(tt.matmul(p["x"], p["w"]))), params
            )
        assert report.passed, report.summary()


def _random_tensor(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# fixed integer inputs of the lookup and masked-loss cases: ids repeat rows,
# one field has no masked cell, the mask leaves cells of every other field out
_IDS = np.random.default_rng(41).integers(0, [3, 5, 4], size=(2, 3, 3))
_MASK = np.array([[[1, 0, 0], [0, 0, 1], [1, 0, 1]], [[0, 0, 0], [1, 0, 0], [1, 0, 1]]], dtype=bool)
_CAT_TARGETS = np.random.default_rng(42).integers(0, 4, size=(2, 3, 3))
_CONT_TARGETS = np.random.default_rng(43).normal(size=(2, 3, 3))
# a fused heads grid of three categorical spans, then three continuous columns
_SPANS = [(0, 4), (4, 9), (9, 15)]
_CONT_START = 15
_HEAD_WIDTH = 18
_VALUES = np.random.default_rng(46).normal(size=(2, 3, 3))


PRIMITIVE_CASES = [
    ("add", lambda p: tt.add(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (4, 8)), "b": _random_tensor(r, (4, 8))}),
    ("add_bcast", lambda p: tt.add(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (4, 8, 16)), "b": _random_tensor(r, (16,))}),
    ("mul", lambda p: tt.mul(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (4, 8)), "b": _random_tensor(r, (4, 8))}),
    ("mul_bcast", lambda p: tt.mul(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (4, 8, 16)), "b": _random_tensor(r, (8, 16))}),
    ("scale", lambda p: tt.scale(p["a"], -1.7), lambda r: {"a": _random_tensor(r, (4, 8))}),
    ("relu", lambda p: tt.relu(p["a"]), lambda r: {"a": Tensor(r.normal(size=(4, 8)) + np.where(r.normal(size=(4, 8)) > 0, 0.2, -0.2), requires_grad=True)}),
    ("matmul", lambda p: tt.matmul(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (4, 8)), "b": _random_tensor(r, (8, 16))}),
    ("matmul_folded", lambda p: tt.matmul(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (2, 4, 8)), "b": _random_tensor(r, (8, 5))}),
    ("matmul_folded_n1", lambda p: tt.matmul(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (2, 4, 8)), "b": _random_tensor(r, (8, 1))}),
    ("matmul_batched", lambda p: tt.matmul(p["a"], p["b"]), lambda r: {"a": _random_tensor(r, (2, 4, 8)), "b": _random_tensor(r, (2, 8, 3))}),
    ("linear", lambda p: tt.linear(p["x"], p["w"], p["b"]), lambda r: {"x": _random_tensor(r, (2, 4, 8)), "w": _random_tensor(r, (8, 5)), "b": _random_tensor(r, (5,))}),
    ("linear_n1", lambda p: tt.linear(p["x"], p["w"], p["b"]), lambda r: {"x": _random_tensor(r, (2, 4, 8)), "w": _random_tensor(r, (8, 1)), "b": _random_tensor(r, (1,))}),
    ("linear_nobias", lambda p: tt.linear(p["x"], p["w"]), lambda r: {"x": _random_tensor(r, (3, 8)), "w": _random_tensor(r, (8, 5))}),
    ("attention", lambda p: tt.attention(p["x"], p["wq"], p["wk"], p["wv"], p["wmix"], heads=2), lambda r: {"x": _random_tensor(r, (2, 5, 8)), "wq": _random_tensor(r, (8, 6)), "wk": _random_tensor(r, (8, 6)), "wv": _random_tensor(r, (8, 6)), "wmix": _random_tensor(r, (6, 6))}),
    ("conv_zero", lambda p: tt.conv1d(p["x"], p["w"], p["b"], "zero"), lambda r: {"x": _random_tensor(r, (2, 8, 3)), "w": _random_tensor(r, (3, 3, 4)), "b": _random_tensor(r, (4,))}),
    ("conv_circular", lambda p: tt.conv1d(p["x"], p["w"], p["b"], "circular"), lambda r: {"x": _random_tensor(r, (2, 8, 3)), "w": _random_tensor(r, (5, 3, 4)), "b": _random_tensor(r, (4,))}),
    ("softmax", lambda p: tt.softmax_lastdim(p["a"]), lambda r: {"a": _random_tensor(r, (4, 8))}),
    ("layer_norm", lambda p: tt.layer_norm(p["x"], p["g"], p["b"]), lambda r: {"x": _random_tensor(r, (4, 8)), "g": _random_tensor(r, (8,)), "b": _random_tensor(r, (8,))}),
    ("concat", lambda p: tt.concat_lastdim([p["a"], p["b"]]), lambda r: {"a": _random_tensor(r, (4, 3)), "b": _random_tensor(r, (4, 5))}),
    ("mean_axis", lambda p: tt.mean_axis(p["a"], 1), lambda r: {"a": _random_tensor(r, (4, 8, 6))}),
    ("transpose", lambda p: tt.transpose(p["a"], (0, 2, 1)), lambda r: {"a": _random_tensor(r, (2, 4, 8))}),
    ("reshape", lambda p: tt.reshape(p["a"], (8, 4)), lambda r: {"a": _random_tensor(r, (4, 8))}),
    ("embedding_sum", lambda p: tt.embedding_sum([p["t0"], p["t1"], p["t2"]], _IDS), lambda r: {"t0": _random_tensor(r, (3, 6)), "t1": _random_tensor(r, (5, 6)), "t2": _random_tensor(r, (4, 6))}),
    ("masked_cross_entropy_sum", lambda p: tt.masked_cross_entropy_sum(p["z"], _SPANS, _CAT_TARGETS, _MASK)[0], lambda r: {"z": _random_tensor(r, (2, 3, _HEAD_WIDTH))}),
    ("masked_squared_error_sum", lambda p: tt.masked_squared_error_sum(p["z"], _CONT_START, _CONT_TARGETS, _MASK), lambda r: {"z": _random_tensor(r, (2, 3, _HEAD_WIDTH))}),
    ("masked_losses_one_grid", lambda p: tt.add(tt.masked_cross_entropy_sum(p["z"], _SPANS, _CAT_TARGETS, _MASK)[0], tt.masked_squared_error_sum(p["z"], _CONT_START, _CONT_TARGETS, ~_MASK)), lambda r: {"z": _random_tensor(r, (2, 3, _HEAD_WIDTH))}),
    ("linear_blocks", lambda p: tt.linear(p["x"], [p["w0"], p["w1"], p["w2"]], [p["b0"], p["b1"], p["b2"]]), lambda r: {"x": _random_tensor(r, (2, 4, 8)), "w0": _random_tensor(r, (8, 5)), "w1": _random_tensor(r, (8, 1)), "w2": _random_tensor(r, (8, 3)), "b0": _random_tensor(r, (5,)), "b1": _random_tensor(r, (1,)), "b2": _random_tensor(r, (3,))}),
    ("add_projections", lambda p: tt.add_projections(p["h"], _VALUES, [p["w0"], p["w1"], p["w2"]], [p["b0"], p["b1"], p["b2"]]), lambda r: {"h": _random_tensor(r, (2, 3, 6)), **{f"{k}{c}": _random_tensor(r, (6,)) for k in "wb" for c in range(3)}}),
    ("layernormed_softmax", lambda p: tt.softmax_lastdim(tt.layer_norm(p["x"], p["g"], p["b"])), lambda r: {"x": _random_tensor(r, (3, 6)), "g": _random_tensor(r, (6,)), "b": _random_tensor(r, (6,))}),
    ("residual_norm", lambda p: tt.residual_norm(p["h"], p["y"], p["g"], p["b"], 0.3, None), lambda r: {"h": _random_tensor(r, (2, 3, 6)), "y": _random_tensor(r, (2, 3, 6)), "g": _random_tensor(r, (6,)), "b": _random_tensor(r, (6,))}),
    # a fresh stream per call draws the same keep mask at every perturbed point
    ("residual_norm_dropout", lambda p: tt.residual_norm(p["h"], p["y"], p["g"], p["b"], 0.3, np.random.default_rng(5)), lambda r: {"h": _random_tensor(r, (2, 3, 6)), "y": _random_tensor(r, (2, 3, 6)), "g": _random_tensor(r, (6,)), "b": _random_tensor(r, (6,))}),
    ("scaled_mean_square", lambda p: tt.scaled_mean_square(p["a"], 0.7), lambda r: {"a": _random_tensor(r, (4, 8))}),
]


@pytest.mark.parametrize("name,builder,make_params", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, builder, make_params):
    with use_dtype("float64"):
        rng = np.random.default_rng(hash(name) % (2**32))
        params = make_params(rng)
        proj = {k: np.random.default_rng(99).normal(size=builder(params).shape) for k in ["p"]}

        def loss(p):
            out = builder(p)
            return tt.sum_all(tt.mul(out, Tensor(proj["p"])))

        report = grad_check(loss, params, tol=1e-4)
    assert report.passed, f"{name}: {report.summary()}"


def test_embedding_gradients_and_bounds():
    with use_dtype("float64"):
        rng = np.random.default_rng(31)
        table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        ids = np.array([[0, 3], [3, 6]])
        out = tt.embedding(table, ids)
        assert out.shape == (2, 2, 4)
        tt.sum_all(out).backward()
        # row 3 used twice, rows 1/2/4/5 unused
        np.testing.assert_array_equal(table.grad[3], np.full(4, 2.0))
        np.testing.assert_array_equal(table.grad[1], np.zeros(4))
        with pytest.raises(IndexError):
            tt.embedding(table, np.array([7]))


def _grads(params, loss):
    for p in params:
        p.grad = None
    loss.backward()
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]


class TestEmbeddingSum:
    def test_equals_per_table_embedding_sum(self):
        with use_dtype("float64"):
            rng = np.random.default_rng(44)
            tables = [_random_tensor(rng, (v, 6)) for v in (3, 5, 4)]
            proj = Tensor(rng.normal(size=(2, 3, 6)))
            fused = tt.embedding_sum(tables, _IDS)
            ref = tt.embedding(tables[0], _IDS[..., 0])
            for k in (1, 2):
                ref = tt.add(ref, tt.embedding(tables[k], _IDS[..., k]))
            np.testing.assert_allclose(fused.data, ref.data, rtol=1e-15, atol=1e-15)
            got = _grads(tables, tt.sum_all(tt.mul(fused, proj)))
            want = _grads(tables, tt.sum_all(tt.mul(ref, proj)))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-14)

    def test_float32_sum_is_rounded_once(self):
        tables = [Tensor(np.array([[1.0]])), Tensor(np.array([[1e-8]])), Tensor(np.array([[-1.0]]))]
        out = tt.embedding_sum(tables, np.zeros((1, 3), dtype=np.int64))
        assert out.dtype == np.float32
        assert out.data[0, 0] == np.float32(1e-8)  # float32 left to right gives 0

    def test_out_of_range_id_raises_like_embedding(self):
        tables = [Tensor(np.zeros((3, 2))), Tensor(np.zeros((5, 2)))]
        for bad in (5, -1):
            ids = np.array([[0, 0], [1, bad]])
            with pytest.raises(IndexError, match=f"id {bad} out of range for table of 5 rows"):
                tt.embedding_sum(tables, ids)
        with pytest.raises(IndexError, match="id 5 out of range for table of 5 rows"):
            tt.embedding(tables[1], np.array([5]))

    def test_width_and_column_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            tt.embedding_sum([Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 4)))], np.zeros((1, 2), dtype=int))
        with pytest.raises(ShapeError):
            tt.embedding_sum([Tensor(np.zeros((3, 2)))], np.zeros((1, 2), dtype=int))


def _per_field_cross_entropy(logits, targets, mask):
    """Reference: one gather_bt + cross_entropy_sum per field with a masked cell, chained by add."""
    total = None
    for k, z in enumerate(logits):
        b_idx, t_idx = np.nonzero(mask[:, :, k])
        if len(b_idx):
            term = tt.cross_entropy_sum(tt.gather_bt(z, b_idx, t_idx), targets[b_idx, t_idx, k])
            total = term if total is None else tt.add(total, term)
    return total


def _per_field_squared_error(preds, targets, mask):
    """Reference: one gather_bt + squared-error sum per field with a masked cell, chained by add."""
    total = None
    for k, p in enumerate(preds):
        b_idx, t_idx = np.nonzero(mask[:, :, k])
        if len(b_idx):
            pred = tt.reshape(tt.gather_bt(p, b_idx, t_idx), (len(b_idx),))
            diff = tt.add(pred, tt.scale(Tensor(targets[b_idx, t_idx, k]), -1.0))
            term = tt.sum_all(tt.mul(diff, diff))
            total = term if total is None else tt.add(total, term)
    return total


@pytest.mark.parametrize("mask", [_MASK, np.ones_like(_MASK)], ids=["one_field_unmasked", "all_masked"])
@pytest.mark.parametrize("kind", ["cross_entropy", "squared_error"])
def test_masked_loss_equals_per_field_reference(kind, mask):
    """The span-reading losses over the per-field grids side by side equal the per-field chains."""
    with use_dtype("float64"):
        rng = np.random.default_rng(45)
        if kind == "cross_entropy":
            preds = [_random_tensor(rng, (2, 3, v)) for v in (4, 5, 6)]
            grid = tt.concat_lastdim([*preds, _random_tensor(rng, (2, 3, 3))])
            fused = tt.masked_cross_entropy_sum(grid, _SPANS, _CAT_TARGETS, mask)[0]
            ref = _per_field_cross_entropy(preds, _CAT_TARGETS, mask)
        else:
            preds = [_random_tensor(rng, (2, 3, 1)) for _ in range(3)]
            grid = tt.concat_lastdim([_random_tensor(rng, (2, 3, 2)), *preds])
            fused = tt.masked_squared_error_sum(grid, 2, _CONT_TARGETS, mask)
            ref = _per_field_squared_error(preds, _CONT_TARGETS, mask)
        assert float(fused.data) == pytest.approx(float(ref.data), rel=1e-14)
        got = _grads(preds, tt.scale(fused, 0.7))
        want = _grads(preds, tt.scale(ref, 0.7))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-15)
    if mask is _MASK:
        assert not got[1].any()  # the field without a masked cell gets no gradient


class TestMaskedLossColumns:
    def test_both_losses_write_into_one_gradient(self):
        """CE and SE on one grid: each fills its own columns, and unmasked cells get exactly 0."""
        rng = np.random.default_rng(47)
        z = _random_tensor(rng, (2, 3, _HEAD_WIDTH))
        loss = tt.add(tt.masked_cross_entropy_sum(z, _SPANS, _CAT_TARGETS, _MASK)[0],
                      tt.masked_squared_error_sum(z, _CONT_START, _CONT_TARGETS, _MASK))
        loss.backward()
        cont = [(c, c + 1) for c in range(_CONT_START, _HEAD_WIDTH)]
        for spans in (_SPANS, cont):
            for k, (lo, hi) in enumerate(spans):
                assert not z.grad[..., lo:hi][~_MASK[..., k]].any()
                assert z.grad[..., lo:hi][_MASK[..., k]].any() == _MASK[..., k].any()

    def test_unmasked_cells_never_reach_the_value(self):
        z = np.random.default_rng(48).normal(size=(2, 3, _HEAD_WIDTH))
        moved = z.copy()
        for k, (lo, hi) in enumerate(_SPANS):
            moved[..., lo:hi][~_MASK[..., k]] = np.inf
        moved[..., _CONT_START:][~_MASK] = np.nan
        ce = [tt.masked_cross_entropy_sum(Tensor(x), _SPANS, _CAT_TARGETS, _MASK)[0] for x in (z, moved)]
        se = [tt.masked_squared_error_sum(Tensor(x), _CONT_START, _CONT_TARGETS, _MASK) for x in (z, moved)]
        assert ce[0].data.tobytes() == ce[1].data.tobytes()
        assert se[0].data.tobytes() == se[1].data.tobytes()

    @pytest.mark.parametrize("call", [
        lambda z: tt.masked_cross_entropy_sum(z, _SPANS[:2], _CAT_TARGETS, _MASK),
        lambda z: tt.masked_cross_entropy_sum(z, [(0, 4), (4, 9), (9, 19)], _CAT_TARGETS, _MASK),
        lambda z: tt.masked_squared_error_sum(z, 16, _CONT_TARGETS, _MASK),
        lambda z: tt.masked_squared_error_sum(z, 0, _CONT_TARGETS[:1], _MASK),
    ], ids=["too_few_spans", "span_past_width", "block_past_width", "targets_mismatch"])
    def test_bad_columns_rejected(self, call):
        with pytest.raises(ShapeError):
            call(Tensor(np.zeros((2, 3, _HEAD_WIDTH))))


def _projection_chain(h, values, weights, biases):
    """Reference: the per-field mul/add/add chain that `add_projections` replaces."""
    for c, (w, b) in enumerate(zip(weights, biases)):
        h = tt.add(h, tt.add(tt.mul(Tensor(values[..., c : c + 1]), w), b))
    return h


class TestAddProjections:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_bitwise_equal_to_the_per_field_chain(self, dtype):
        with use_dtype(dtype):
            rng = np.random.default_rng(49)
            h = _random_tensor(rng, (4, 7, 16))
            weights = [_random_tensor(rng, (16,)) for _ in range(4)]
            biases = [_random_tensor(rng, (16,)) for _ in range(4)]
            values = rng.normal(size=(4, 7, 4)) * 3.0  # float64, cast as Tensor() casts it
            upstream = Tensor(rng.normal(size=(4, 7, 16)))
            params = [h, *weights, *biases]
            fused = tt.add_projections(h, values, weights, biases)
            ref = _projection_chain(h, values, weights, biases)
            assert fused.dtype == np.dtype(dtype)
            assert fused.data.tobytes() == ref.data.tobytes()
            got = _grads(params, tt.sum_all(tt.mul(fused, upstream)))
            want = _grads(params, tt.sum_all(tt.mul(ref, upstream)))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("n_fields", [3, 0])
    def test_constant_is_bitwise_a_last_add(self, dtype, n_fields):
        with use_dtype(dtype):
            rng = np.random.default_rng(50)
            h = _random_tensor(rng, (4, 7, 16))
            weights = [_random_tensor(rng, (16,)) for _ in range(n_fields)]
            biases = [_random_tensor(rng, (16,)) for _ in range(n_fields)]
            values = rng.normal(size=(4, 7, n_fields))
            constant = Tensor(rng.normal(size=(7, 16))).data
            upstream = Tensor(rng.normal(size=(4, 7, 16)))
            params = [h, *weights, *biases]
            fused = tt.add_projections(h, values, weights, biases, constant)
            ref = tt.add(_projection_chain(h, values, weights, biases), Tensor(constant))
            assert fused.data.tobytes() == ref.data.tobytes()
            got = _grads(params, tt.sum_all(tt.mul(fused, upstream)))
            want = _grads(params, tt.sum_all(tt.mul(ref, upstream)))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_no_fields_returns_h(self):
        h = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        assert tt.add_projections(h, np.zeros((2, 3, 0)), [], []) is h

    def test_frozen_projections_pass_only_the_input_gradient(self):
        h = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        w, b = Tensor(np.full(4, 2.0)), Tensor(np.ones(4))
        tt.sum_all(tt.add_projections(h, np.ones((2, 3, 1)), [w], [b])).backward()
        np.testing.assert_array_equal(h.grad, np.ones((2, 3, 4)))
        assert w.grad is None and b.grad is None

    def test_shape_mismatch_rejected(self):
        h = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            tt.add_projections(h, np.zeros((2, 3, 2)), [Tensor(np.zeros(4))], [Tensor(np.zeros(4))])
        with pytest.raises(ShapeError):
            tt.add_projections(h, np.zeros((2, 3, 1)), [Tensor(np.zeros(5))], [Tensor(np.zeros(4))])


class TestLinearBlocks:
    def test_equals_per_field_linear(self):
        with use_dtype("float64"):
            rng = np.random.default_rng(50)
            x = _random_tensor(rng, (3, 5, 8))
            weights = [_random_tensor(rng, (8, n)) for n in (6, 1, 4, 1)]
            biases = [_random_tensor(rng, (w.shape[1],)) for w in weights]
            fused = tt.linear(x, weights, biases)
            ref = tt.concat_lastdim([tt.linear(x, w, b) for w, b in zip(weights, biases)])
            np.testing.assert_allclose(fused.data, ref.data, rtol=1e-12, atol=1e-12)
            upstream = Tensor(rng.normal(size=fused.shape))
            params = [x, *weights, *biases]
            got = _grads(params, tt.sum_all(tt.mul(fused, upstream)))
            want = _grads(params, tt.sum_all(tt.mul(ref, upstream)))
        # the per-field maps run the same op, so the gradients are also checked against numpy
        u, x2 = upstream.data.reshape(-1, 12), x.data.reshape(-1, 8)
        w_all = np.concatenate([w.data for w in weights], axis=1)
        cuts = np.cumsum([w.shape[1] for w in weights])[:-1]
        numpy_ref = [(u @ w_all.T).reshape(x.shape), *np.split(x2.T @ u, cuts, axis=1), *np.split(u.sum(0), cuts)]
        for g, w, r in zip(got, want, numpy_ref):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)

    def test_bad_shapes_rejected(self):
        x = Tensor(np.zeros((2, 3, 4)))
        for weights, biases in [([], []), ([Tensor(np.zeros((5, 2)))], [Tensor(np.zeros(2))]),
                                ([Tensor(np.zeros((4, 2)))], [Tensor(np.zeros(3))]),
                                ([Tensor(np.zeros((4, 2)))], [])]:
            with pytest.raises(ShapeError):
                tt.linear(x, weights, biases)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("x_shape,n", [((2, 4, 8), 5), ((2, 4, 8), 1), ((1, 8), 1), ((3, 8), 7),
                                           ((8,), 3), ((2, 3, 5, 8), 2), ((1, 8), 4)])
    def test_one_block_is_the_lone_weight_bitwise(self, dtype, x_shape, n):
        """A list of one weight and one bias gives the bytes of the lone weight and bias."""
        runs = []
        with use_dtype(dtype):
            for blocks in (False, True):
                rng = np.random.default_rng(51)
                x, w, b = (_random_tensor(rng, s) for s in (x_shape, (8, n), (n,)))
                y = tt.linear(x, [w], [b]) if blocks else tt.linear(x, w, b)
                tt.sum_all(tt.mul(y, Tensor(rng.normal(size=y.shape)))).backward()
                runs.append([y.data.tobytes()] + [t.grad.tobytes() for t in (x, w, b)])
        assert runs[0] == runs[1]


def test_backward_frees_the_graph_without_the_cycle_collector():
    x = Tensor(np.ones(3), requires_grad=True)
    mid = tt.relu(tt.scale(x, 2.0))
    alive = weakref.ref(mid.data)
    loss = tt.sum_all(mid)
    gc.disable()
    try:
        loss.backward()
        del loss, mid
        assert alive() is None
    finally:
        gc.enable()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_backward_releases_intermediates_as_it_sweeps():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    y = Tensor(np.array([0.5, 0.5, 2.0]), requires_grad=True)
    seen = {}

    def probe_backward(g):
        # runs last: every node between the loss and the probe has been swept by now
        seen["dead"] = (inner() is None, outer() is None)
        tt._accumulate(x, g)

    probe = Tensor(x.data, requires_grad=True, parents=(x,), backward=probe_backward)
    scaled = tt.scale(probe, 2.0)
    kept = tt.relu(scaled)
    squared = tt.mul(kept, y)
    inner, outer = weakref.ref(scaled.data), weakref.ref(squared.data)
    loss = tt.sum_all(squared)
    del scaled, squared
    gc.disable()
    try:
        loss.backward()
    finally:
        gc.enable()
    assert seen["dead"] == (True, True)
    assert kept.grad is None and loss.grad is None and probe.grad is None
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 4.0])
    np.testing.assert_array_equal(y.grad, [2.0, 0.0, 6.0])


def _leaves(rng, *shapes):
    return [_random_tensor(rng, shape) for shape in shapes]


# one case per graph-building op: the op applied to leaves that require grad
NODE_CASES = [
    ("add", lambda r: tt.add(*_leaves(r, (4, 8), (8,)))),
    ("mul", lambda r: tt.mul(*_leaves(r, (4, 8), (4, 8)))),
    ("scale", lambda r: tt.scale(*_leaves(r, (4, 8)), 2.0)),
    ("shift", lambda r: tt.shift(*_leaves(r, (4, 8)), 1.5)),
    ("relu", lambda r: tt.relu(*_leaves(r, (4, 8)))),
    ("concat_lastdim", lambda r: tt.concat_lastdim(_leaves(r, (4, 3), (4, 5)))),
    ("mean_axis", lambda r: tt.mean_axis(*_leaves(r, (4, 8, 6)), 1)),
    ("sum_all", lambda r: tt.sum_all(*_leaves(r, (4, 8)))),
    ("matmul", lambda r: tt.matmul(*_leaves(r, (2, 4, 8), (2, 8, 3)))),
    ("linear", lambda r: tt.linear(*_leaves(r, (2, 4, 8), (8, 5), (5,)))),
    ("linear", lambda r: tt.linear(*_leaves(r, (2, 4, 8)), _leaves(r, (8, 5), (8, 1), (8, 3)),
                                   _leaves(r, (5,), (1,), (3,)))),
    ("add_projections", lambda r: tt.add_projections(*_leaves(r, (2, 3, 6)), _VALUES, _leaves(r, *[(6,)] * 3),
                                                     _leaves(r, *[(6,)] * 3))),
    ("reshape", lambda r: tt.reshape(*_leaves(r, (4, 8)), (8, 4))),
    ("transpose", lambda r: tt.transpose(*_leaves(r, (2, 4, 8)), (0, 2, 1))),
    ("conv1d", lambda r: tt.conv1d(*_leaves(r, (2, 8, 3), (3, 3, 4), (4,)))),
    ("softmax_lastdim", lambda r: tt.softmax_lastdim(*_leaves(r, (4, 8)))),
    ("attention", lambda r: tt.attention(*_leaves(r, (2, 5, 8), (8, 6), (8, 6), (8, 6), (6, 6)), heads=2)),
    ("layer_norm", lambda r: tt.layer_norm(*_leaves(r, (4, 8), (8,), (8,)))),
    ("residual_norm", lambda r: tt.residual_norm(*_leaves(r, (2, 4, 8), (2, 4, 8), (8,), (8,)), 0.0, None)),
    ("residual_norm", lambda r: tt.residual_norm(*_leaves(r, (2, 4, 8), (2, 4, 8), (8,), (8,)), 0.5,
                                                 np.random.default_rng(1))),
    ("scaled_mean_square", lambda r: tt.scaled_mean_square(*_leaves(r, (4, 8)), 0.25)),
    ("embedding", lambda r: tt.embedding(*_leaves(r, (7, 4)), np.array([[0, 3], [3, 6]]))),
    ("embedding_sum", lambda r: tt.embedding_sum(_leaves(r, (3, 6), (5, 6), (4, 6)), _IDS)),
    ("gather_bt", lambda r: tt.gather_bt(*_leaves(r, (2, 4, 8)), np.array([0, 1, 1]), np.array([3, 0, 3]))),
    ("cross_entropy_sum", lambda r: tt.cross_entropy_sum(*_leaves(r, (5, 4)), np.array([0, 3, 1, 1, 2]))),
    ("masked_cross_entropy_sum", lambda r: tt.masked_cross_entropy_sum(*_leaves(r, (2, 3, _HEAD_WIDTH)), _SPANS,
                                                                       _CAT_TARGETS, _MASK)[0]),
    ("masked_squared_error_sum", lambda r: tt.masked_squared_error_sum(*_leaves(r, (2, 3, _HEAD_WIDTH)), _CONT_START,
                                                                       _CONT_TARGETS, _MASK)),
    ("bce_with_logits_sum", lambda r: tt.bce_with_logits_sum(*_leaves(r, (6,)), np.array([1.0, 0, 1, 0, 0, 1]))),
]


def test_node_cases_cover_every_op_that_builds_a_node():
    builders = {name for name, fn in vars(tt).items()
                if inspect.isfunction(fn) and fn.__module__ == tt.__name__
                and "backward=backward" in inspect.getsource(fn)}
    assert builders == {op for op, _ in NODE_CASES}


@pytest.mark.parametrize("op,build", NODE_CASES, ids=[c[0] for c in NODE_CASES])
def test_a_graph_dropped_unswept_is_freed_without_the_cycle_collector(op, build):
    gc.disable()
    try:
        node = build(np.random.default_rng(0))
        assert node.requires_grad and node._backward is not None
        alive = weakref.ref(node.data)
        del node
        assert alive() is None, f"{op}: its node outlived its last reference"
    finally:
        gc.enable()


@pytest.mark.parametrize("op,build", NODE_CASES, ids=[c[0] for c in NODE_CASES])
def test_every_gradient_left_after_backward_owns_its_memory(op, build):
    """Each closure hands `_accumulate` an array it owns, which the leaf then keeps without a copy."""
    node = build(np.random.default_rng(0))
    leaves, stack = {}, [node]
    while stack:
        t = stack.pop()
        if t._backward is None:
            leaves[id(t)] = t
        stack.extend(t._parents)
    tt.sum_all(node).backward()
    grads = [t.grad for t in leaves.values() if t.grad is not None]
    assert grads, f"{op}: no gradient reached a leaf"
    for t in leaves.values():
        if t.grad is not None:
            assert t.grad.flags.writeable and t.grad.dtype == t.data.dtype and t.grad.shape == t.data.shape
            assert not np.shares_memory(t.grad, t.data), f"{op}: a gradient is a view of a value"
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b), f"{op}: two gradients share memory"


def test_a_tensor_added_to_itself_gets_twice_the_gradient():
    x = _random_tensor(np.random.default_rng(3), (3, 4))
    g = np.random.default_rng(4).normal(size=(3, 4)).astype(np.float32)
    tt.sum_all(tt.mul(tt.add(x, x), Tensor(g))).backward()
    np.testing.assert_array_equal(x.grad, 2 * g)


def test_a_node_requires_grad_iff_a_parent_does():
    frozen, live = Tensor(np.ones(3)), Tensor(np.ones(3), requires_grad=True)
    for a, b in [(frozen, frozen), (frozen, live), (live, frozen), (live, live)]:
        node = tt.mul(a, b)
        assert node.requires_grad is (a is live or b is live)
        assert node._parents == ((a, b) if node.requires_grad else ())
        assert (node._backward is not None) is node.requires_grad
    # the constructor applies the rule itself: `requires_grad` is only for leaves
    node = Tensor(np.ones(3), requires_grad=True, parents=(frozen,), backward=lambda g: None)
    assert not node.requires_grad and node._parents == () and node._backward is None
    assert Tensor(np.ones(3), parents=(frozen, live), backward=lambda g: None).requires_grad


def mha_composition(x, wq, wk, wv, wmix, heads):
    """Self-attention as a chain of single-op nodes: the reference `tt.attention` must match."""
    b, t_len, _ = x.shape
    dk = wq.shape[1] // heads

    def split_heads(z):
        return tt.transpose(tt.reshape(z, (b, t_len, heads, dk)), (0, 2, 1, 3))

    q, k, v = (split_heads(tt.matmul(x, w)) for w in (wq, wk, wv))
    scores = tt.scale(tt.matmul(q, tt.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
    context = tt.matmul(tt.softmax_lastdim(scores), v)
    merged = tt.reshape(tt.transpose(context, (0, 2, 1, 3)), (b, t_len, heads * dk))
    return tt.matmul(merged, wmix)


@pytest.mark.parametrize("shape,width,heads", [((2, 5, 8), 6, 2), ((3, 10, 16), 8, 4), ((1, 1, 4), 4, 1)])
def test_attention_matches_node_by_node_composition(shape, width, heads):
    rng = np.random.default_rng(sum(shape) + heads)
    with use_dtype("float64"):
        x = rng.normal(size=shape)
        ws = [rng.normal(size=(shape[-1], width)) for _ in range(3)] + [rng.normal(size=(width, width))]
        g = rng.normal(size=shape[:-1] + (width,))
        results = []
        for op in (tt.attention, mha_composition):
            leaves = [Tensor(a, requires_grad=True) for a in (x, *ws)]
            out = op(*leaves, heads=heads)
            tt.sum_all(tt.mul(out, Tensor(g))).backward()
            results.append([out.data] + [leaf.grad for leaf in leaves])
    for got, ref in zip(*results):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_attention_rejects_a_width_the_heads_do_not_split():
    x = Tensor(np.zeros((1, 3, 4)))
    ws = [Tensor(np.zeros((4, 6))) for _ in range(3)] + [Tensor(np.zeros((6, 6)))]
    with pytest.raises(ConfigError):
        tt.attention(x, *ws, heads=4)
    with pytest.raises(ShapeError):
        tt.attention(x, *ws[:3], Tensor(np.zeros((4, 4))), heads=2)


def test_linear_equals_matmul_plus_bias():
    rng = np.random.default_rng(12)
    x, w, b = (rng.normal(size=s).astype(np.float32) for s in ((4, 6, 8), (8, 5), (5,)))
    out = tt.linear(Tensor(x), Tensor(w), Tensor(b))
    assert out.shape == (4, 6, 5) and out.dtype == np.float32
    np.testing.assert_array_equal(out.data, (x.reshape(-1, 8) @ w + b).reshape(4, 6, 5))
    with pytest.raises(ShapeError):
        tt.linear(Tensor(x), Tensor(w), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        tt.linear(Tensor(x), Tensor(w.T))


def test_first_gradient_write_does_not_alias():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    tt.sum_all(tt.add(a, b)).backward()
    a.grad += 5.0
    np.testing.assert_array_equal(b.grad, np.ones(3))
    assert a.grad.dtype == a.data.dtype and b.grad.dtype == b.data.dtype


def test_gather_bt_scatter_adds():
    with use_dtype("float64"):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = tt.gather_bt(x, np.array([0, 0, 1]), np.array([1, 1, 2]))
        assert out.shape == (3, 4)
        tt.sum_all(out).backward()
        np.testing.assert_array_equal(x.grad[0, 1], np.full(4, 2.0))
        np.testing.assert_array_equal(x.grad[1, 2], np.ones(4))
        np.testing.assert_array_equal(x.grad[0, 0], np.zeros(4))


def test_cross_entropy_uniform_logits():
    with use_dtype("float64"):
        logits = Tensor(np.zeros((3, 5)), requires_grad=True)
        loss = tt.cross_entropy_sum(logits, np.array([0, 2, 4]))
        np.testing.assert_allclose(float(loss.data), 3 * math.log(5), rtol=1e-12)
        report = grad_check(
            lambda p: tt.cross_entropy_sum(p["l"], np.array([1, 0, 3])),
            {"l": Tensor(np.random.default_rng(5).normal(size=(3, 5)), requires_grad=True)},
        )
        assert report.passed, report.summary()


def test_bce_with_logits_values_and_stability():
    with use_dtype("float64"):
        loss = tt.bce_with_logits_sum(Tensor(np.array([0.0])), np.array([1.0]))
        np.testing.assert_allclose(float(loss.data), math.log(2), rtol=1e-12)
        huge = tt.bce_with_logits_sum(Tensor(np.array([1000.0])), np.array([1.0]))
        assert 0.0 <= float(huge.data) < 1e-6
        p9 = math.log(0.9 / 0.1)
        loss0 = tt.bce_with_logits_sum(Tensor(np.array([p9])), np.array([0.0]))
        np.testing.assert_allclose(float(loss0.data), -math.log(0.1), rtol=1e-10)
        report = grad_check(
            lambda p: tt.bce_with_logits_sum(p["z"], np.array([1.0, 0.0, 1.0])),
            {"z": Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)},
        )
        assert report.passed, report.summary()


class TestGradCheck:
    def test_quadratic_is_exact(self):
        with use_dtype("float64"):
            params = {"x": Tensor(np.random.default_rng(1).normal(size=8), requires_grad=True)}
            report = grad_check(lambda p: tt.scale(tt.sum_all(tt.mul(p["x"], p["x"])), 0.5), params, tol=1e-4)
        assert report.passed
        assert report.max_rel_error["x"] < 1e-8

    def test_corrupted_backward_is_caught(self):
        with use_dtype("float64"):
            x = Tensor(np.random.default_rng(2).normal(size=6), requires_grad=True)

            def bad_square(t):
                def backward(g):  # wrong rule on purpose: 3x instead of 2x
                    tt._accumulate(t, g * 3.0 * t.data)

                return Tensor(t.data * t.data, parents=(t,), backward=backward)

            report = grad_check(lambda p: tt.sum_all(bad_square(p["x"])), {"x": x})
        assert not report.passed
        assert report.max_rel_error["x"] == pytest.approx(1 / 3)  # |3x - 2x| / |3x|: the closure ran

    def test_coordinate_subsampling_is_deterministic(self):
        with use_dtype("float64"):
            rng = np.random.default_rng(3)
            make = lambda: {"x": Tensor(rng.normal(size=(40, 5)), requires_grad=True)}
            p1 = make()
            r1 = grad_check(lambda p: tt.sum_all(tt.mul(p["x"], p["x"])), p1, max_coords=16, seed=7)
            p2 = {"x": Tensor(p1["x"].data.copy(), requires_grad=True)}
            r2 = grad_check(lambda p: tt.sum_all(tt.mul(p["x"], p["x"])), p2, max_coords=16, seed=7)
        assert r1.max_rel_error == r2.max_rel_error


def test_default_dtype_switch_roundtrip():
    assert tt.default_dtype() == np.float32
    with use_dtype("float64"):
        assert Tensor([1.0]).dtype == np.float64
    assert Tensor([1.0]).dtype == np.float32


# -- last-axis reductions against numpy's own -----------------------------


def _awkward_rows(dtype, shape, seed=0):
    """Random rows, with rounded rows (ties), rows of signed zeros, and rows holding NaN."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape).astype(dtype)
    rows = a.reshape(-1, shape[-1])
    rows[::5] = np.round(rows[::5] * 2)
    rows[1::7] = 0.0
    rows[1::7, ::2] = -0.0
    rows[2::9] = -0.0
    rows[3::11, shape[-1] // 2] = np.nan
    rows[4::13] = np.nan
    return a


REDUCTION_SHAPES = [(32, 4, 10, 10), (7, 1), (9, 3), (40, 17), (16, 64)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", REDUCTION_SHAPES)
class TestLastAxisReductions:
    def test_mean_is_bitwise_numpys(self, dtype, shape):
        for seed in range(3):
            a = _awkward_rows(dtype, shape, seed)
            assert tt._last_axis_mean(a).tobytes() == a.mean(axis=-1, keepdims=True).tobytes()

    def test_running_max_is_numpys_up_to_the_sign_of_a_zero(self, dtype, shape):
        """Equal as numbers, and `exp(a - max)`, the softmax's use of it, is bitwise numpy's."""
        for seed in range(3):
            a = _awkward_rows(dtype, shape, seed)
            got, want = tt._last_axis_max(a), a.max(axis=-1, keepdims=True)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.exp(a - got).tobytes() == np.exp(a - want).tobytes()

    def test_cross_entropy_rows_are_bitwise_those_of_the_row_max(self, dtype, shape):
        """The maximum read at argmax gives the loss and gradient of z.max(axis=-1)."""
        for seed in range(3):
            z = _awkward_rows(dtype, shape, seed).reshape(-1, shape[-1])
            targets = np.random.default_rng(seed).integers(0, shape[-1], len(z))
            rows = np.arange(len(z))
            zmax = z.max(axis=-1, keepdims=True)
            e = np.exp(z - zmax)
            sums = e.sum(axis=-1, keepdims=True)
            with np.errstate(invalid="ignore"):
                loss = (zmax[:, 0] + np.log(sums[:, 0]) - z[rows, targets]).sum()
                dz = e / sums
                dz[rows, targets] -= 1.0
                got_loss, got_dz = tt._cross_entropy_rows(z, targets, z.argmax(axis=-1))
            assert got_loss.tobytes() == loss.tobytes() and got_dz.tobytes() == dz.tobytes()
