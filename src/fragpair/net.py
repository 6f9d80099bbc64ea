"""Minimal feed-forward network engine with exact backpropagation.

Kept deliberately small: dense layers, relu/tanh activations, constant
learning-rate gradient descent, and the two losses the experiments need.
The last hidden layer's post-activation values are exposed as the network's
feature representation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


@dataclass
class Net:
    """Weights and biases are views into one float64 buffer, ``flat``, that the
    constructor fills with copies of the given arrays; a step updates it at once."""

    spec: NetSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parts = [a.ravel() for wb in zip(self.weights, self.biases) for a in wb]
        self.flat = np.concatenate(parts, dtype=np.float64)
        self.weights, self.biases = _layer_views(self.flat, self.spec)

    def copy(self) -> "Net":
        return Net(spec=self.spec, weights=self.weights, biases=self.biases)


def _layer_views(buf: np.ndarray, spec: NetSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (out, in) weight and bias views into a flat parameter-sized buffer."""
    dims = (spec.input_dim, *spec.hidden_dims, spec.output_dim)
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(buf[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(buf[at : at + fan_out])
        at += fan_out
    return weights, biases


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
    """Applies the activation in place."""
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)
    return np.tanh(z, out=z)


def _activate_grad(a: np.ndarray, activation: str) -> np.ndarray:
    """The activation's derivative, read from its output (relu: a > 0 iff z > 0)."""
    if activation == "relu":
        return a > 0.0
    return 1.0 - a * a


def _forward_cached(net: Net, X: np.ndarray):
    """Returns (output, activations: the input, then each hidden layer's)."""
    acts = [X]
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        z = acts[-1] @ W.T
        z += b
        acts.append(_activate(z, net.spec.activation))
    out = acts[-1] @ net.weights[-1].T
    out += net.biases[-1]
    return out, acts


def forward_batch(net: Net, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(outputs, features) for a batch; features are the last hidden activations."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.spec.input_dim:
        raise NetError(
            f"expected input of shape (n, {net.spec.input_dim}), got {X.shape}"
        )
    out, acts = _forward_cached(net, X)
    return out, acts[-1]


def _loss_and_output_grad(out, T, loss):
    # np.add.reduce over all axes, then / size, is np.mean without its wrapper.
    if loss == "mse":
        diff = out - T
        return float(np.add.reduce(diff * diff, axis=None) / diff.size), 2.0 * diff / diff.size
    # bce on logits, numerically stable for any finite logit
    z, t = out, T
    per = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    # exp(-z) overflows to inf below z = -709; 1 / (1 + inf) = 0 is the limit.
    with np.errstate(over="ignore"):
        grad = (1.0 / (1.0 + np.exp(-z)) - t) / z.size
    return float(np.add.reduce(per, axis=None) / per.size), grad


def _check_batch(net: Net, X: np.ndarray, T: np.ndarray, loss: str, lr: float = 0.0):
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
    if lr < 0:
        raise NetError("learning rate must be >= 0")
    return X, T


def _step(net: Net, X, T, loss: str, lr: float, grad, grad_w, grad_b) -> float:
    """The one forward/backward pass, on a checked batch; returns its mean loss.

    Writes the exact gradients into ``grad`` (laid out like ``net.flat`` and
    viewed per layer as ``grad_w``, ``grad_b``); when ``lr > 0`` it then
    scales them by ``lr`` and updates every parameter at once.
    """
    out, acts = _forward_cached(net, X)
    value, delta = _loss_and_output_grad(out, T, loss)
    if not math.isfinite(value):
        raise NetError(f"non-finite {loss} loss ({value}); training diverged")
    for layer in range(len(acts) - 1, -1, -1):
        np.matmul(delta.T, acts[layer], out=grad_w[layer])
        np.add.reduce(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            delta = delta @ net.weights[layer]
            delta *= _activate_grad(acts[layer], net.spec.activation)
    if lr > 0:
        grad *= lr
        net.flat -= grad
    return value


# Not called in src/; the tests' oracle for train_epoch, and
# benchmark/tracing.py patches it where pipeline and experts import it.
def train_step(net: Net, X: np.ndarray, T: np.ndarray, loss: str, lr: float) -> float:
    """One full-batch gradient step in place; returns the pre-step mean loss."""
    X, T = _check_batch(net, X, T, loss, lr)
    grad = np.empty_like(net.flat)
    return _step(net, X, T, loss, lr, grad, *_layer_views(grad, net.spec))


def train_epoch(
    net: Net, X: np.ndarray, T: np.ndarray, rows: np.ndarray, loss: str, lr: float, batch_size: int
) -> float:
    """Mini-batch steps over ``X[rows]``, ``T[rows]`` in that order, in place.

    Returns the sample-weighted mean of the pre-step batch losses.  The
    inputs are checked and gathered once per epoch, and every step reuses one
    flat gradient buffer, so a step is the same arithmetic as ``train_step``
    on ``X[rows[s:e]]`` without its per-call checks, gathers and allocations.
    """
    X, T = _check_batch(net, X, T, loss, lr)
    rows = np.asarray(rows)
    if rows.ndim != 1 or len(rows) == 0:
        raise NetError("rows must be a non-empty 1-d index array")
    if batch_size < 1:
        raise NetError("batch_size must be >= 1")
    X, T = X[rows], T[rows]
    grad = np.empty_like(net.flat)
    grad_w, grad_b = _layer_views(grad, net.spec)
    total = 0.0
    for start in range(0, len(rows), batch_size):
        stop = min(start + batch_size, len(rows))
        value = _step(net, X[start:stop], T[start:stop], loss, lr, grad, grad_w, grad_b)
        total += (stop - start) * value
    return total / len(rows)


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
        weights = [archive[f"w{k}"] for k in range(n_layers)]
        biases = [archive[f"b{k}"] for k in range(n_layers)]
    return Net(spec=spec, weights=weights, biases=biases)
