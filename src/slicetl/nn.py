"""Minimal dense neural-network kernel in float64 numpy.

Provides exactly what the TD3 agents and the similarity VAE need: MLP
forward/backward with analytic gradients, bias-corrected Adam, and
bit-exact checkpointing. Everything is computed in 64-bit floats.

Each network keeps its parameters in one contiguous vector ``flat``, laid
out w0, b0, w1, b1, ...; ``weights[i]`` and ``biases[i]`` are reshaped
views of it. Adam's moments and the gradients of ``mlp_backward`` share
that layout, so an Adam step or a Polyak average is a few vector
operations instead of a loop over layers. Every update is elementwise and
keeps the per-layer order of operations, so the flat layout computes the
same bits as per-layer arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    DimensionError,
    DomainError,
    NumericError,
)

CHECKPOINT_VERSION = 1
HEADS = ("identity", "softmax", "tanh")
_FLOAT64 = np.dtype(np.float64)


Layout = tuple[tuple[int, int, int, tuple[int, int]], ...]


def _layout(weights: list[np.ndarray], biases: list[np.ndarray]) -> Layout:
    """Per layer (weight start, bias start, end, weight shape) in a vector
    laid out w0, b0, w1, b1, ..."""

    spans = []
    start = 0
    for w, b in zip(weights, biases):
        mid = start + w.size
        spans.append((start, mid, mid + b.size, w.shape))
        start = mid + b.size
    return tuple(spans)


def _layer_views(
    flat: np.ndarray, layout: Layout
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(weight, bias)`` views of ``flat``, one pair per layer of ``layout``."""

    return [(flat[w0:b0].reshape(shape), flat[b0:end]) for w0, b0, end, shape in layout]


def _pack(
    weights: list[np.ndarray], biases: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], Layout]:
    """Copy per-layer arrays into one new float64 vector; returns it, its
    weight and bias views and their layout."""

    layout = _layout(weights, biases)
    flat = np.empty(sum(w.size + b.size for w, b in zip(weights, biases)))
    pairs = _layer_views(flat, layout)
    for (w_view, b_view), w, b in zip(pairs, weights, biases):
        w_view[...] = w
        b_view[...] = b
    return flat, [w for w, _ in pairs], [b for _, b in pairs], layout


@dataclass
class Mlp:
    """Fully connected net: ReLU hidden layers, configurable output head.

    The constructor copies the given arrays into ``flat``; ``weights`` and
    ``biases`` are then views of it, so update them in place. It also fixes
    the layer layout (``layout``, ``n_layers``, ``sizes``, the layer
    offsets and the ``(weight, bias)`` pairs of the ReLU layers and of the
    output layer), which the kernels read instead of recomputing it per
    call. ``grads`` is the workspace ``mlp_backward`` writes this network's
    gradients into (see ``workspace``); a network that is never
    differentiated (a target network, a greedy peer) holds none.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str = "identity"
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layout: Layout = field(init=False, repr=False, compare=False)
    n_layers: int = field(init=False, repr=False, compare=False)
    sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    hidden: tuple[tuple[np.ndarray, np.ndarray], ...] = field(
        init=False, repr=False, compare=False)
    output: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                  compare=False)
    grads: Gradients | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.head not in HEADS:
            raise DomainError(f"unknown head {self.head!r}")
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise DimensionError(
                    f"layer {i} output dim {self.weights[i].shape[1]} does not "
                    f"chain into layer {i + 1}"
                )
        for w, b in zip(self.weights, self.biases):
            if b.shape != (w.shape[1],):
                raise DimensionError("bias shape must match layer output dim")
        self.flat, self.weights, self.biases, self.layout = _pack(
            self.weights, self.biases)
        self.n_layers = len(self.weights)
        self.sizes = (self.weights[0].shape[0], *(w.shape[1] for w in self.weights))
        pairs = tuple(zip(self.weights, self.biases))
        self.hidden, self.output = pairs[:-1], pairs[-1]
        self.grads = None

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def copy(self) -> "Mlp":
        return Mlp(self.weights, self.biases, self.head)

    def workspace(self) -> Gradients:
        """``grads``, allocated on the first call.

        ``AdamState.for_params`` calls it, so a network built to be trained
        gets its workspace next to its Adam moments, which live as long;
        allocated later, amid a training step's temporaries, it fragments
        the heap and raises peak memory.
        """

        if self.grads is None:
            self.grads = Gradients(np.empty(self.flat.size), self)
        return self.grads

    def layer_offset(self, layer: int) -> int:
        """Position in ``flat`` where layer ``layer`` starts (its size for
        ``layer == n_layers``)."""

        return self.layout[layer][0] if layer < self.n_layers else self.flat.size


def init_mlp(sizes: list[int], head: str, rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases."""

    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases, head)


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
    was_1d: bool


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
    elif params.head == "tanh":
        h = np.tanh(h)
    cache = ForwardCache(params, inputs, h, was_1d)
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


class Gradients(list):
    """Per-layer ``(dW_i, db_i)`` pairs that are views of one vector
    ``flat`` in the parameters' layout, which ``layout`` records."""

    def __init__(self, flat: np.ndarray, params: Mlp) -> None:
        super().__init__(_layer_views(flat, params.layout))
        self.flat = flat
        self.layout = params.layout


def mlp_backward(
    params: Mlp, cache: ForwardCache, output_gradient: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Exact gradients of the forward map.

    Returns ``(grads, input_gradient)`` where ``grads[i] = (dW_i, db_i)``,
    written into one flat vector ``grads.flat``. ``grads`` is the network's
    own workspace ``params.workspace()``: it is valid until the next
    ``mlp_backward`` of the same network, which overwrites it; copy it to
    keep it longer.
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
    elif params.head == "tanh":
        d = d * (1.0 - y * y)

    grads = params.workspace()
    last = params.n_layers - 1
    for i in range(last, -1, -1):
        if i < last:
            # ReLU applied after this layer on the way forward: the stored
            # input of layer i+1 is exactly relu(z_i) >= 0, whose sign is
            # the ReLU's derivative. ``d`` is the fresh product of the layer
            # above, so it is masked in place.
            d *= np.sign(cache.inputs[i + 1])
        dw, db = grads[i]
        np.matmul(cache.inputs[i].T, d, out=dw)
        np.add.reduce(d, axis=0, out=db)
        d = d @ params.weights[i].T
    return grads, (d[0] if was_1d else d)


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators mirroring an Mlp's shapes.

    The moments live in the flat vectors ``m`` and ``v``, in the layout of
    ``Mlp.flat``; ``m_w``, ``v_w``, ``m_b`` and ``v_b`` are views of them.
    ``scratch`` holds two more such vectors that ``adam_step`` writes its
    temporaries into.
    """

    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.m, self.m_w, self.m_b, _ = _pack(self.m_w, self.m_b)
        self.v, self.v_w, self.v_b, _ = _pack(self.v_w, self.v_b)
        self.scratch = np.empty((2, self.m.size))

    @classmethod
    def for_params(cls, params: Mlp, **kwargs) -> "AdamState":
        zeros_w = [np.zeros_like(w) for w in params.weights]
        zeros_b = [np.zeros_like(b) for b in params.biases]
        adam = cls(zeros_w, zeros_w, zeros_b, zeros_b, **kwargs)
        params.workspace()
        return adam

    def reset(self) -> None:
        self.m.fill(0.0)
        self.v.fill(0.0)
        self.t = 0


def adam_step(
    adam: AdamState,
    params: Mlp,
    grads: list[tuple[np.ndarray, np.ndarray]],
    lr: float,
    skip_layers: frozenset[int] = frozenset(),
) -> Mlp:
    """In-place Adam update; layers in ``skip_layers`` are left untouched.

    ``skip_layers`` must be a prefix ``{0, ..., k-1}`` (the frozen lower
    layers), so the update runs on the suffix of ``params.flat`` after
    them. ``grads`` is either the ``Gradients`` of ``mlp_backward`` or a
    list of ``(dW_i, db_i)`` pairs. ``params``' own workspace
    (``params.grads``) needs no check; other ``Gradients`` are checked by
    their layout, pairs layer by layer.

    The update is ``m = m*b1 + (1-b1)*g``, ``v = v*b2 + ((1-b2)*g)*g`` and
    ``p -= lr*(m/c1) / (sqrt(v/c2) + eps)``, evaluated in that order with
    the temporaries in ``adam.scratch``.
    """

    if grads is params.grads:
        g = grads.flat
    elif isinstance(grads, Gradients):
        if grads.layout != params.layout:
            raise DimensionError("gradients are laid out for another network")
        g = grads.flat
    else:
        if len(grads) != params.n_layers:
            raise DimensionError("one gradient pair per layer required")
        for i, (dw, db) in enumerate(grads):
            if dw.shape != params.weights[i].shape or db.shape != params.biases[i].shape:
                raise DimensionError(f"gradient shape mismatch at layer {i}")
        g = np.concatenate([x.ravel() for pair in grads for x in pair])
    if skip_layers and skip_layers != frozenset(range(len(skip_layers))):
        raise DomainError(f"skip_layers must be a prefix of the layers, got "
                          f"{sorted(skip_layers)}")
    if not np.logical_and.reduce(np.isfinite(g)):
        bad = next(i for i, (dw, db) in enumerate(grads)
                   if not (np.isfinite(dw).all() and np.isfinite(db).all()))
        raise NumericError(f"non-finite gradient at layer {bad}")
    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    c1 = 1.0 - b1**adam.t
    c2 = 1.0 - b2**adam.t
    start = params.layer_offset(len(skip_layers))
    m, v, g, p = adam.m[start:], adam.v[start:], g[start:], params.flat[start:]
    s1, s2 = adam.scratch[0, start:], adam.scratch[1, start:]
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
    s2 += adam.eps
    s1 /= s2
    p -= s1
    return params


# ---------------------------------------------------------------------------
# Checkpointing: versioned npz, bit-exact on round trip.
# ---------------------------------------------------------------------------


def _mlp_to_arrays(name: str, params: Mlp) -> dict[str, np.ndarray]:
    out = {f"{name}.head": np.array(params.head)}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out[f"{name}.w{i}"] = w
        out[f"{name}.b{i}"] = b
    return out


def _mlp_from_arrays(name: str, data) -> Mlp:
    weights, biases = [], []
    i = 0
    while f"{name}.w{i}" in data:
        weights.append(data[f"{name}.w{i}"])
        biases.append(data[f"{name}.b{i}"])
        i += 1
    return Mlp(weights, biases, str(data[f"{name}.head"]))


def _adam_to_arrays(name: str, adam: AdamState) -> dict[str, np.ndarray]:
    out = {
        f"{name}.adam_meta": np.array(
            [adam.t, adam.beta1, adam.beta2, adam.eps], dtype=np.float64
        )
    }
    for i in range(len(adam.m_w)):
        out[f"{name}.mw{i}"] = adam.m_w[i]
        out[f"{name}.vw{i}"] = adam.v_w[i]
        out[f"{name}.mb{i}"] = adam.m_b[i]
        out[f"{name}.vb{i}"] = adam.v_b[i]
    return out


def _adam_from_arrays(name: str, data) -> AdamState:
    meta = data[f"{name}.adam_meta"]
    m_w, v_w, m_b, v_b = [], [], [], []
    i = 0
    while f"{name}.mw{i}" in data:
        m_w.append(data[f"{name}.mw{i}"])
        v_w.append(data[f"{name}.vw{i}"])
        m_b.append(data[f"{name}.mb{i}"])
        v_b.append(data[f"{name}.vb{i}"])
        i += 1
    return AdamState(
        m_w, v_w, m_b, v_b,
        t=int(meta[0]), beta1=float(meta[1]), beta2=float(meta[2]),
        eps=float(meta[3]),
    )


def save_checkpoint(
    path,
    nets: dict[str, Mlp],
    adams: dict[str, AdamState] | None = None,
    meta: dict | None = None,
) -> None:
    arrays: dict[str, np.ndarray] = {
        "version": np.array(CHECKPOINT_VERSION),
        "net_names": np.array(sorted(nets)),
        "meta_json": np.array(json.dumps(meta or {}, sort_keys=True)),
    }
    for name in sorted(nets):
        arrays.update(_mlp_to_arrays(name, nets[name]))
    if adams:
        arrays["adam_names"] = np.array(sorted(adams))
        for name in sorted(adams):
            arrays.update(_adam_to_arrays(name, adams[name]))
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[dict[str, Mlp], dict[str, AdamState], dict]:
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ContractViolationError(
                f"unsupported checkpoint version {version}"
            )
        nets = {str(n): _mlp_from_arrays(str(n), data) for n in data["net_names"]}
        adams = {}
        if "adam_names" in data:
            adams = {
                str(n): _adam_from_arrays(str(n), data)
                for n in data["adam_names"]
            }
        meta = json.loads(str(data["meta_json"]))
    return nets, adams, meta
