from __future__ import annotations

import warnings

import numpy as np
import pytest

from fragpair.net import (
    Net,
    NetError,
    NetSpec,
    _loss_and_output_grad,
    forward_batch,
    init_net,
    load_net,
    save_net,
    train_epoch,
    train_step,
)
from oracles import forward, gradient_check, loss_value


def tiny_net(hidden=(8,), activation="relu", seed=0, input_dim=2, output_dim=1) -> Net:
    return init_net(NetSpec(input_dim, tuple(hidden), output_dim, activation, seed))


class TestInit:
    def test_deterministic(self) -> None:
        a = tiny_net(seed=7)
        b = tiny_net(seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shape_chain(self) -> None:
        net = tiny_net(hidden=(8,), input_dim=2, output_dim=1)
        assert net.weights[0].shape == (8, 2)
        assert net.weights[1].shape == (1, 8)

    def test_biases_zero(self) -> None:
        net = tiny_net(hidden=(5, 3), input_dim=4)
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_invalid_dims(self) -> None:
        with pytest.raises(NetError):
            NetSpec(0, (4,), 1)
        with pytest.raises(NetError):
            NetSpec(2, (), 1)


class TestForward:
    def test_zero_net_outputs_zero(self) -> None:
        net = tiny_net(hidden=(4,))
        for W in net.weights:
            W[:] = 0.0
        out, feats = forward(net, np.array([1.0, -2.0]))
        assert np.all(out == 0.0) and np.all(feats == 0.0)

    def test_tanh_identity_closed_form(self) -> None:
        net = tiny_net(hidden=(1,), activation="tanh", input_dim=1)
        net.weights[0][:] = 1.0
        net.biases[0][:] = 0.0
        net.weights[1][:] = 2.5
        net.biases[1][:] = 0.0
        out, feats = forward(net, np.array([0.7]))
        assert out[0] == pytest.approx(2.5 * np.tanh(0.7), abs=1e-12)
        assert feats[0] == pytest.approx(np.tanh(0.7), abs=1e-12)

    def test_matches_naive_reevaluation(self) -> None:
        rng = np.random.default_rng(3)
        net = tiny_net(hidden=(7, 5), activation="tanh", input_dim=4, output_dim=2, seed=9)
        X = rng.normal(size=(20, 4))
        out, feats = forward_batch(net, X)

        h = X
        for W, b in zip(net.weights[:-1], net.biases[:-1]):
            h = np.tanh(h @ W.T + b)
        expected = h @ net.weights[-1].T + net.biases[-1]
        assert np.max(np.abs(out - expected)) < 1e-12
        assert np.max(np.abs(feats - h)) < 1e-12

    def test_dimension_mismatch(self) -> None:
        with pytest.raises(NetError):
            forward(tiny_net(), np.array([1.0, 2.0, 3.0]))


class TestTrainStep:
    def test_lr_zero_keeps_parameters(self) -> None:
        net = tiny_net(seed=1)
        snapshot = [W.copy() for W in net.weights]
        X = np.array([[0.5, -0.5], [1.0, 2.0]])
        T = np.array([0.0, 1.0])
        value = train_step(net, X, T, "bce_logits", lr=0.0)
        assert value == pytest.approx(loss_value(net, X, T, "bce_logits"))
        for W, old in zip(net.weights, snapshot):
            assert np.array_equal(W, old)

    def test_single_sample_mse_head_closed_form(self) -> None:
        # Relu hidden wired to the identity on positive inputs, so the head
        # weight sees the classic w - lr * 2 (w x - t) x update.
        net = tiny_net(hidden=(1,), input_dim=1)
        net.weights[0][:] = 1.0
        net.weights[1][:] = 0.3
        x, t, lr = 2.0, 1.0, 0.01
        train_step(net, np.array([[x]]), np.array([t]), "mse", lr)
        expected = 0.3 - lr * 2.0 * (0.3 * x - t) * x
        assert net.weights[1][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_loss_decreases_on_separable_toy(self) -> None:
        rng = np.random.default_rng(5)
        X = np.concatenate([rng.normal(-2.0, 0.4, (40, 2)), rng.normal(2.0, 0.4, (40, 2))])
        T = np.concatenate([np.zeros(40), np.ones(40)])
        net = tiny_net(hidden=(8,), seed=2)
        initial = loss_value(net, X, T, "bce_logits")
        for _ in range(200):
            train_step(net, X, T, "bce_logits", lr=0.5)
        assert loss_value(net, X, T, "bce_logits") < initial

    def test_bce_rejects_non_binary_targets(self) -> None:
        net = tiny_net()
        with pytest.raises(NetError):
            train_step(net, np.ones((1, 2)), np.array([0.5]), "bce_logits", 0.1)

    def test_nan_loss_aborts_with_diagnostic(self) -> None:
        net = tiny_net(hidden=(1,), input_dim=1)
        net.weights[0][:] = 1e300
        net.weights[1][:] = 1e300
        with np.errstate(over="ignore"), pytest.raises(NetError, match="diverged"):
            train_step(net, np.array([[1e10]]), np.array([0.0]), "mse", 0.1)


def per_step_epoch(net, X, T, rows, loss, lr, batch_size) -> float:
    """Oracle for train_epoch: one train_step per slice of the shuffled rows."""
    total = 0.0
    for start in range(0, len(rows), batch_size):
        batch = rows[start : start + batch_size]
        total += len(batch) * train_step(net, X[batch], T[batch], loss, lr)
    return total / len(rows)


class TestTrainEpoch:
    @pytest.mark.parametrize(
        "activation, loss, hidden, n, batch_size, lr",
        [
            ("relu", "mse", (16, 8), 150, 32, 0.05),  # ragged last batch
            ("tanh", "mse", (16, 8), 150, 32, 0.05),
            ("relu", "bce_logits", (16, 8), 130, 64, 0.5),
            ("tanh", "bce_logits", (16, 8), 130, 64, 0.5),
            ("relu", "mse", (16, 8), 40, 64, 0.05),  # batch_size > n
            ("tanh", "bce_logits", (16, 8), 40, 40, 0.5),  # batch_size == n
            ("relu", "bce_logits", (16, 8), 100, 32, 0.0),
            ("tanh", "mse", (16, 1), 150, 32, 0.05),
            ("relu", "bce_logits", (16, 1), 97, 16, 0.5),
        ],
    )
    def test_equals_per_step_loop_bit_for_bit(self, activation, loss, hidden, n, batch_size, lr) -> None:
        rng = np.random.default_rng(n + batch_size)
        X = rng.normal(size=(n, 3))
        T = (rng.random(n) > 0.5).astype(float) if loss == "bce_logits" else rng.normal(size=n)
        net = tiny_net(hidden=hidden, activation=activation, input_dim=3, seed=5)
        oracle = net.copy()
        for epoch in range(3):
            rows = rng.permutation(n)
            value = train_epoch(net, X, T, rows, loss, lr, batch_size)
            expected = per_step_epoch(oracle, X, T, rows, loss, lr, batch_size)
            assert value == expected
            for a, b in zip(net.weights + net.biases, oracle.weights + oracle.biases):
                assert np.array_equal(a, b)
        if lr == 0.0:
            assert np.array_equal(net.flat, tiny_net(hidden, activation, 5, 3).flat)

    def test_rows_select_a_subset_in_order(self) -> None:
        rng = np.random.default_rng(4)
        X, T = rng.normal(size=(50, 2)), rng.normal(size=(50, 1))
        rows = np.array([7, 3, 3, 40, 12, 0, 49])
        net, oracle = tiny_net(seed=3), tiny_net(seed=3)
        assert train_epoch(net, X, T, rows, "mse", 0.1, 3) == per_step_epoch(
            oracle, X, T, rows, "mse", 0.1, 3
        )
        assert np.array_equal(net.flat, oracle.flat)

    @pytest.mark.parametrize(
        "X, T, rows, loss, lr, match",
        [
            (np.ones((4, 3)), np.zeros(4), np.arange(4), "mse", 0.1, "input"),
            (np.ones((4, 2)), np.zeros(3), np.arange(3), "mse", 0.1, "targets"),
            (np.ones((4, 2)), np.array([0.0, 1.0, 0.5, 1.0]), np.arange(4), "bce_logits", 0.1, "0 or 1"),
            (np.ones((4, 2)), np.zeros(4), np.arange(4), "mse", -0.1, "learning rate"),
            (np.ones((4, 2)), np.zeros(4), np.arange(0), "mse", 0.1, "non-empty"),
            (np.ones((4, 2)), np.zeros(4), np.arange(4), "hinge", 0.1, "loss"),
        ],
    )
    def test_rejects_bad_inputs_before_any_step(self, X, T, rows, loss, lr, match) -> None:
        net = tiny_net(seed=2)
        before = net.flat.copy()
        with pytest.raises(NetError, match=match):
            train_epoch(net, X, T, rows, loss, lr, 2)
        assert np.array_equal(net.flat, before)

    def test_divergence_partway_through_an_epoch(self) -> None:
        # Saturated tanh units and lr=100 make the head oscillate with a
        # growing amplitude; the squared error overflows at step 52.
        net = tiny_net(hidden=(4,), activation="tanh", input_dim=1, seed=1)
        X = np.linspace(1.0, 2.0, 200)[:, None]
        T = 1e3 * X[:, 0]
        with np.errstate(all="ignore"):
            head = net.copy()
            assert np.isfinite(train_epoch(head, X, T, np.arange(40), "mse", 100.0, 1))
            with pytest.raises(NetError, match="diverged"):
                train_epoch(net, X, T, np.arange(200), "mse", 100.0, 1)


class TestFlatBuffer:
    def test_views_share_one_buffer(self) -> None:
        net = tiny_net(hidden=(5, 3), input_dim=4)
        params = net.weights + net.biases
        assert all(p.base is net.flat for p in params)
        assert sum(p.size for p in params) == net.flat.size
        net.weights[1][:] = 0.0
        net.biases[2][:] = 7.0
        assert np.count_nonzero(net.flat == 7.0) == 1
        assert np.array_equal(np.concatenate([p.ravel() for wb in zip(net.weights, net.biases) for p in wb]), net.flat)

    def test_copy_is_independent(self) -> None:
        net = tiny_net(hidden=(5, 3), input_dim=4)
        clone = net.copy()
        assert all(p.base is clone.flat for p in clone.weights + clone.biases)
        clone.weights[0][:] = 1.0
        train_step(clone, np.ones((2, 4)), np.zeros(2), "mse", 0.1)
        assert not np.shares_memory(net.flat, clone.flat)
        assert np.array_equal(net.flat, tiny_net(hidden=(5, 3), input_dim=4).flat)

    def test_load_net_builds_views(self, tmp_path) -> None:
        net = tiny_net(hidden=(6, 1), activation="tanh", input_dim=3, seed=8)
        save_net(net, tmp_path / "net.npz")
        back = load_net(tmp_path / "net.npz")
        assert all(p.base is back.flat for p in back.weights + back.biases)
        assert np.array_equal(back.flat, net.flat)

    def test_gradient_check_on_loaded_net(self, tmp_path) -> None:
        rng = np.random.default_rng(17)
        net = tiny_net(hidden=(6, 4), activation="tanh", input_dim=3, seed=6)
        save_net(net, tmp_path / "net.npz")
        back = load_net(tmp_path / "net.npz")
        X, T = rng.normal(size=(8, 3)), rng.normal(size=(8, 1))
        assert gradient_check(back, X, T, "mse", eps=1e-5) < 1e-4
        assert np.array_equal(back.flat, net.flat)  # perturbations restored


class TestGradientCheck:
    def test_tanh_small_error(self) -> None:
        rng = np.random.default_rng(11)
        net = tiny_net(hidden=(6, 4), activation="tanh", input_dim=3, seed=4)
        X = rng.normal(size=(10, 3))
        T = rng.normal(size=(10, 1))
        assert gradient_check(net, X, T, "mse", eps=1e-5) < 1e-4

    def test_relu_away_from_kinks(self) -> None:
        rng = np.random.default_rng(13)
        net = tiny_net(hidden=(6,), activation="relu", input_dim=3, seed=8)
        X = rng.normal(size=(12, 3)) + 0.5
        T = (rng.random(12) > 0.5).astype(float)
        assert gradient_check(net, X, T, "bce_logits", eps=1e-5) < 1e-4

    def test_zero_gradient_point_uses_absolute_fallback(self) -> None:
        net = tiny_net(hidden=(2,), activation="tanh", input_dim=1)
        X = np.array([[0.4]])
        T, _ = forward(net, X[0])
        err = gradient_check(net, X, np.array([T]), "mse", eps=1e-5)
        assert err < 1e-4

    def test_twenty_random_nets_both_losses(self) -> None:
        rng = np.random.default_rng(99)
        for trial in range(20):
            activation = "tanh" if trial % 2 == 0 else "relu"
            hidden = tuple(int(h) for h in rng.integers(2, 6, size=rng.integers(1, 3)))
            net = tiny_net(hidden=hidden, activation=activation, input_dim=3, seed=trial)
            X = rng.normal(size=(6, 3))
            if activation == "relu":
                X += 0.25  # keep pre-activations off the kink
            loss = "mse" if trial % 4 < 2 else "bce_logits"
            T = (
                rng.normal(size=(6, 1))
                if loss == "mse"
                else (rng.random((6, 1)) > 0.5).astype(float)
            )
            assert gradient_check(net, X, T, loss, eps=1e-5) < 1e-4

    def test_eps_validated(self) -> None:
        net = tiny_net()
        with pytest.raises(NetError):
            gradient_check(net, np.ones((1, 2)), np.ones(1), "mse", eps=1e-2)


class TestNumericalStability:
    def test_bce_finite_for_extreme_logits(self) -> None:
        net = tiny_net(hidden=(1,), input_dim=1)
        for logit in (-50.0, -10.0, 0.0, 10.0, 50.0):
            net.weights[0][:] = 1.0
            net.weights[1][:] = 0.0
            net.biases[1][:] = logit
            for target in (0.0, 1.0):
                value = loss_value(net, np.array([[1.0]]), np.array([target]), "bce_logits")
                assert np.isfinite(value)

    def test_bce_gradient_at_logits_beyond_exp_range(self) -> None:
        # exp(800) overflows; the sigmoid's limits 1 and 0 give the gradient.
        z = np.array([[800.0], [-800.0], [800.0], [-800.0]])
        t = np.array([[1.0], [1.0], [0.0], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = _loss_and_output_grad(z, t, "bce_logits")
        assert np.array_equal(grad, np.array([[0.0], [-1.0], [1.0], [0.0]]) / 4)
        assert value == 400.0


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path) -> None:
        net = tiny_net(hidden=(5, 3), activation="tanh", input_dim=4, seed=21)
        for _ in range(3):
            train_step(net, np.ones((2, 4)), np.zeros(2), "mse", 0.05)
        path = tmp_path / "net.npz"
        save_net(net, path)
        back = load_net(path)
        assert back.spec == net.spec
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert np.array_equal(a, b)
