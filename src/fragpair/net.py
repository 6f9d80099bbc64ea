"""Minimal feed-forward network engine with exact backpropagation.

Kept deliberately small: dense layers, relu/tanh activations, constant
learning-rate gradient descent, and the two losses the experiments need.
The last hidden layer's post-activation values are exposed as the network's
feature representation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .rng import stream

ACTIVATIONS = ("relu", "tanh")
LOSSES = ("bce_logits", "mse")


class NetError(ValueError):
    """Raised for invalid network specs, shapes or diverging training."""


@dataclass(frozen=True)
class NetSpec:
    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise NetError("all layer dimensions must be >= 1")
        if not self.hidden_dims:
            raise NetError("at least one hidden layer is required")
        if self.activation not in ACTIVATIONS:
            raise NetError(f"activation must be one of {ACTIVATIONS}")

    @property
    def feature_dim(self) -> int:
        return self.hidden_dims[-1]


@dataclass
class Net:
    spec: NetSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Net":
        return Net(
            spec=self.spec,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_net(spec: NetSpec) -> Net:
    """Scaled-uniform fan-in weights, zero biases, deterministic under the spec seed."""
    rng = stream(spec.seed, "net_init")
    dims = (spec.input_dim, *spec.hidden_dims, spec.output_dim)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Net(spec=spec, weights=weights, biases=biases)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0 - a * a


def _forward_cached(net: Net, X: np.ndarray):
    """Returns (output, pre-activations per hidden layer, activations incl. input)."""
    acts = [X]
    zs = []
    h = X
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = h @ W.T + b
        h = _activate(z, net.spec.activation)
        zs.append(z)
        acts.append(h)
    out = h @ net.weights[-1].T + net.biases[-1]
    return out, zs, acts


def forward_batch(net: Net, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(outputs, features) for a batch; features are the last hidden activations."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise NetError(
            f"expected input of shape (n, {net.spec.input_dim}), got {X.shape}"
        )
    out, _, acts = _forward_cached(net, X)
    return out, acts[-1]


def forward(net: Net, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-sample forward pass: (output vector, feature vector)."""
    out, feats = forward_batch(net, np.asarray(x, dtype=np.float64)[None, :])
    return out[0], feats[0]


def _loss_and_output_grad(out, T, loss):
    if loss == "mse":
        diff = out - T
        return float(np.mean(diff * diff)), 2.0 * diff / diff.size
    # bce on logits, numerically stable for any finite logit
    z, t = out, T
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    grad = (1.0 / (1.0 + np.exp(-z)) - t) / z.size
    return float(np.mean(per)), grad


def _check_batch(net: Net, X: np.ndarray, T: np.ndarray, loss: str):
    X = np.asarray(X, dtype=np.float64)
    T = np.asarray(T, dtype=np.float64)
    if T.ndim == 1:
        T = T[:, None]
    if loss not in LOSSES:
        raise NetError(f"loss must be one of {LOSSES}")
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise NetError(f"expected input of shape (n, {net.spec.input_dim})")
    if T.shape != (X.shape[0], net.spec.output_dim):
        raise NetError(f"expected targets of shape (n, {net.spec.output_dim})")
    if loss == "bce_logits" and not np.all((T == 0.0) | (T == 1.0)):
        raise NetError("bce_logits targets must be 0 or 1")
    return X, T


def loss_value(net: Net, X: np.ndarray, T: np.ndarray, loss: str) -> float:
    X, T = _check_batch(net, X, T, loss)
    out, _, _ = _forward_cached(net, X)
    value, _ = _loss_and_output_grad(out, T, loss)
    return value


def gradients(net: Net, X: np.ndarray, T: np.ndarray, loss: str):
    """Mean-loss value plus exact gradients for every weight matrix and bias."""
    X, T = _check_batch(net, X, T, loss)
    out, zs, acts = _forward_cached(net, X)
    value, delta = _loss_and_output_grad(out, T, loss)
    if not np.isfinite(value):
        raise NetError(f"non-finite {loss} loss ({value}); training diverged")
    # Collected output layer first, then reversed into layer order.
    grad_w = [delta.T @ acts[-1]]
    grad_b = [delta.sum(axis=0)]
    upstream = delta @ net.weights[-1]
    for layer in range(len(zs) - 1, -1, -1):
        dz = upstream * _activate_grad(zs[layer], acts[layer + 1], net.spec.activation)
        grad_w.append(dz.T @ acts[layer])
        grad_b.append(dz.sum(axis=0))
        if layer > 0:
            upstream = dz @ net.weights[layer]
    grad_w.reverse()
    grad_b.reverse()
    return value, grad_w, grad_b


def train_step(net: Net, X: np.ndarray, T: np.ndarray, loss: str, lr: float) -> float:
    """One full-batch gradient step in place; returns the pre-step mean loss."""
    if lr < 0:
        raise NetError("learning rate must be >= 0")
    value, grad_w, grad_b = gradients(net, X, T, loss)
    if lr > 0:
        for W, b, gw, gb in zip(net.weights, net.biases, grad_w, grad_b):
            W -= lr * gw
            b -= lr * gb
    return value


def gradient_check(
    net: Net, X: np.ndarray, T: np.ndarray, loss: str, eps: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Parameters whose perturbation flips the sign of any relu pre-activation
    are excluded: the loss is not differentiable across the kink, so a finite
    difference there does not estimate the one-sided analytic gradient.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise NetError("eps must lie in [1e-7, 1e-3]")
    X, T = _check_batch(net, X, T, loss)
    _, grad_w, grad_b = gradients(net, X, T, loss)
    analytic = grad_w + grad_b
    params = net.weights + net.biases
    worst = 0.0
    for tensor, grad in zip(params, analytic):
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for p in range(flat.size):
            original = flat[p]
            flat[p] = original + eps
            out_plus, zs_plus, _ = _forward_cached(net, X)
            up, _ = _loss_and_output_grad(out_plus, T, loss)
            flat[p] = original - eps
            out_minus, zs_minus, _ = _forward_cached(net, X)
            down, _ = _loss_and_output_grad(out_minus, T, loss)
            flat[p] = original
            if net.spec.activation == "relu" and any(
                np.any((zp > 0) != (zm > 0)) for zp, zm in zip(zs_plus, zs_minus)
            ):
                continue
            numeric = (up - down) / (2.0 * eps)
            scale = max(abs(gflat[p]), abs(numeric))
            err = abs(gflat[p] - numeric) if scale < 1e-8 else abs(gflat[p] - numeric) / scale
            worst = max(worst, err)
    return worst


def save_net(net: Net, path: str | Path) -> None:
    """Bit-exact checkpoint: spec header plus raw float64 parameter arrays."""
    header = json.dumps(
        {
            "input_dim": net.spec.input_dim,
            "hidden_dims": list(net.spec.hidden_dims),
            "output_dim": net.spec.output_dim,
            "activation": net.spec.activation,
            "seed": net.spec.seed,
        }
    )
    arrays = {"spec": np.frombuffer(header.encode(), dtype=np.uint8)}
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{k}"] = W
        arrays[f"b{k}"] = b
    np.savez(Path(path), **arrays)


def load_net(path: str | Path) -> Net:
    with np.load(Path(path)) as archive:
        header = json.loads(archive["spec"].tobytes().decode())
        spec = NetSpec(
            input_dim=int(header["input_dim"]),
            hidden_dims=tuple(header["hidden_dims"]),
            output_dim=int(header["output_dim"]),
            activation=header["activation"],
            seed=int(header["seed"]),
        )
        n_layers = len(spec.hidden_dims) + 1
        weights = [archive[f"w{k}"].copy() for k in range(n_layers)]
        biases = [archive[f"b{k}"].copy() for k in range(n_layers)]
    return Net(spec=spec, weights=weights, biases=biases)
