"""Minimal dense neural-network kernel in float64 numpy.

Provides exactly what the TD3 agents and the similarity VAE need: MLP
forward/backward with analytic gradients and bias-corrected Adam.
Everything is computed in 64-bit floats.

A network keeps its parameters in one contiguous vector ``flat``, laid out
w0, b0, w1, b1, ... Its gradients (``grads``, the workspace that
``mlp_backward`` writes and ``adam_step`` reads) and its Adam moments
(``AdamState.m`` and ``v``) are vectors in the same layout. Per-layer arrays
exist only as views of such a vector, cut by ``Mlp.views``; ``weights[i]``
and ``biases[i]`` are the views of ``flat``. So an Adam step or a Polyak
average is a few vector operations instead of a loop over layers. An Adam
state holds only its moments and step count; ``adam_step``'s temporaries
live for one call. Every update is elementwise and keeps the per-layer
order of operations, so the flat layout computes the same bits as
per-layer arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError, DomainError, NumericError

HEADS = ("identity", "softmax")
# Adam's moment decay rates and the offset of its denominator.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_FLOAT64 = np.dtype(np.float64)


class Mlp:
    """Fully connected net: ReLU hidden layers, an identity or softmax head.

    ``sizes`` are the widths of the input and of each layer's output. The
    constructor allocates ``flat``, a zero vector in the layout it fixes:
    per layer (weight start, bias start, end, weight shape) in
    ``layout``, ``n_layers``, and the views of ``flat`` as ``weights``,
    ``biases`` and ``(weight, bias)`` pairs of the ReLU layers (``hidden``)
    and of the output layer (``output``). Update ``flat`` in place.
    ``grads`` is the gradient workspace (see ``workspace``); a never
    differentiated network (a target network, a greedy peer) holds none.
    """

    def __init__(self, sizes: Sequence[int], head: str = "identity") -> None:
        if head not in HEADS:
            raise DomainError(f"unknown head {head!r}")
        spans = []
        start = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            mid = start + fan_in * fan_out
            spans.append((start, mid, mid + fan_out, (fan_in, fan_out)))
            start = mid + fan_out
        self.head = head
        self.sizes = tuple(sizes)
        self.layout = tuple(spans)
        self.flat = np.zeros(start)
        pairs = self.views(self.flat)
        self.weights = [w for w, _ in pairs]
        self.biases = [b for _, b in pairs]
        self.n_layers = len(pairs)
        self.hidden, self.output = tuple(pairs[:-1]), pairs[-1]
        self.grads: np.ndarray | None = None
        self.grad_views: list[tuple[np.ndarray, np.ndarray]] = []

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(weight, bias)`` views of ``vec``, a vector in this network's
        layout, one pair per layer."""

        return [(vec[w0:b0].reshape(shape), vec[b0:end])
                for w0, b0, end, shape in self.layout]

    def copy(self) -> "Mlp":
        twin = Mlp(self.sizes, self.head)
        twin.flat[...] = self.flat
        return twin

    def workspace(self) -> np.ndarray:
        """``grads``, allocated (zeroed) with its views ``grad_views`` on the
        first call.

        ``AdamState.for_params`` calls it, so a network built to be trained
        gets its workspace next to its Adam moments, which live as long;
        allocated later, amid a training step's temporaries, it fragments
        the heap and raises peak memory.
        """

        if self.grads is None:
            self.grads = np.zeros(self.flat.size)
            self.grad_views = self.views(self.grads)
        return self.grads

    def layer_offset(self, layer: int) -> int:
        """Position in ``flat`` where layer ``layer`` starts."""

        return self.layout[layer][0]


def init_mlp(sizes: Sequence[int], head: str, rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases."""

    net = Mlp(sizes, head)
    for w in net.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def _as_float64(x) -> np.ndarray:
    """``np.asarray(x, dtype=np.float64)``, without the call when ``x`` is
    already a float64 ndarray."""

    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; accepts 1-D or 2-D input."""

    z = _as_float64(z)
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


@dataclass
class ForwardCache:
    params: Mlp
    inputs: list[np.ndarray]  # activation entering each layer
    output: np.ndarray


def mlp_forward(params: Mlp, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass; returns output and a cache for exact backprop.

    ``x`` may be a single vector or a (batch, dim) matrix; the output
    matches the input's dimensionality.
    """

    x = _as_float64(x)
    was_1d = x.ndim == 1
    h = x[None, :] if was_1d else x
    if h.ndim != 2 or h.shape[1] != params.in_dim:
        raise DimensionError(
            f"input dim {x.shape} does not match network input {params.in_dim}"
        )
    inputs = []
    for w, b in params.hidden:
        inputs.append(h)
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    inputs.append(h)
    w, b = params.output
    h = h @ w
    h += b
    if params.head == "softmax":
        h = softmax(h)
    cache = ForwardCache(params, inputs, h)
    return (h[0] if was_1d else h), cache


def mlp_logits(params: Mlp, x: np.ndarray) -> np.ndarray:
    """Pre-head output of the final layer (used for logit-space noise)."""

    x = _as_float64(x)
    was_1d = x.ndim == 1
    h = x[None, :] if was_1d else x
    for w, b in params.hidden:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    w, b = params.output
    h = h @ w
    h += b
    return h[0] if was_1d else h


def mlp_backward(
    params: Mlp, cache: ForwardCache, output_gradient: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the forward map.

    Returns ``(grads, input_gradient)``, where ``grads`` is the network's
    own workspace ``params.grads`` (see ``Mlp.workspace``), a vector in the
    layout of ``params.flat``. It is valid until the next ``mlp_backward``
    of the same network, which overwrites it; copy it to keep it longer.
    """

    if cache.params is not params:
        raise ContractViolationError("cache does not belong to these parameters")
    dout = _as_float64(output_gradient)
    was_1d = dout.ndim == 1
    d = dout[None, :] if was_1d else dout
    if d.shape != cache.output.shape:
        raise DimensionError(
            f"output gradient shape {dout.shape} does not match forward output"
        )

    # Head backward.
    y = cache.output
    if params.head == "softmax":
        d = y * (d - np.add.reduce(d * y, axis=1, keepdims=True))

    grads = params.workspace()
    last = params.n_layers - 1
    for i in range(last, -1, -1):
        if i < last:
            # ReLU applied after this layer on the way forward: the stored
            # input of layer i+1 is exactly relu(z_i) >= 0, whose sign is
            # the ReLU's derivative. ``d`` is the fresh product of the layer
            # above, so it is masked in place.
            d *= np.sign(cache.inputs[i + 1])
        dw, db = params.grad_views[i]
        np.matmul(cache.inputs[i].T, d, out=dw)
        np.add.reduce(d, axis=0, out=db)
        d = d @ params.weights[i].T
    return grads, (d[0] if was_1d else d)


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators of one network.

    The moments ``m`` and ``v`` are vectors in the layout of the network's
    ``flat``, and ``t`` counts the steps taken. Every state uses
    ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: Mlp) -> "AdamState":
        size = params.flat.size
        adam = cls(np.zeros(size), np.zeros(size))
        params.workspace()
        return adam

    def reset(self) -> None:
        self.m.fill(0.0)
        self.v.fill(0.0)
        self.t = 0


def adam_step(
    adam: AdamState,
    params: Mlp,
    lr: float,
    frozen_layers: int = 0,
) -> Mlp:
    """In-place Adam update of ``params`` from its gradients ``params.grads``;
    the lowest ``frozen_layers`` layers are left untouched.

    The update runs on the suffix of ``params.flat`` after the frozen
    layers; ``frozen_layers`` outside ``[0, n_layers)`` raises
    ``DomainError``. A network that was never differentiated has no
    gradients and raises ``ContractViolationError``.

    The update is ``m = m*b1 + (1-b1)*g``, ``v = v*b2 + ((1-b2)*g)*g`` and
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, evaluated in that order with
    two temporaries that live for this call only.
    """

    g = params.grads
    if g is None:
        raise ContractViolationError(
            "adam_step needs the network's gradients; it was never differentiated")
    if not 0 <= frozen_layers < params.n_layers:
        raise DomainError(f"frozen_layers must lie in [0, {params.n_layers}), "
                          f"got {frozen_layers}")
    if not np.logical_and.reduce(np.isfinite(g)):
        first = np.flatnonzero(~np.isfinite(g))[0]
        bad = next(i for i, (_, _, end, _) in enumerate(params.layout) if first < end)
        raise NumericError(f"non-finite gradient at layer {bad}")
    adam.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**adam.t
    c2 = 1.0 - b2**adam.t
    start = params.layer_offset(frozen_layers)
    m, v, g, p = adam.m[start:], adam.v[start:], g[start:], params.flat[start:]
    # Rows taken by index: unpacking the block raises and catches an
    # IndexError per call, which costs about a microsecond.
    s = np.empty((2, p.size))
    s1, s2 = s[0], s[1]
    np.multiply(g, 1.0 - b1, out=s1)
    m *= b1
    m += s1
    np.multiply(g, 1.0 - b2, out=s1)
    s1 *= g
    v *= b2
    v += s1
    np.divide(m, c1, out=s1)
    s1 *= lr
    np.divide(v, c2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += ADAM_EPS
    s1 /= s2
    p -= s1
    return params

