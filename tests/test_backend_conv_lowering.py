"""The conv lowering against the seed's, byte for byte and stride for stride.

Both backends run one im2col/col2im (``ArrayBackend``): the compiled C
kernels where they load and take the input, else the numpy lowering.
The seed engine lowered convs with a fancy-index gather and a buffered
``np.add.at`` scatter; those two functions live on here, verbatim, as
the oracle.  Four guarantees:

1. over a grid of shapes, input layouts and dtypes, on each backend
   with and without its C kernels, ``im2col`` returns the seed's bytes
   with the seed's strides, in a fresh writeable array, and ``col2im``
   does the same for C-ordered, F-ordered and broadcast columns, and
   raises the numpy lowering's error for columns that do not fit;
2. a 1x1 ``conv2d`` at N == 1 — where the seed's columns are
   channel-fastest — gives the oracle's output and gradients exactly;
3. whole ResNet training steps on the reference backend, 1x1 stride-2
   shortcuts included, replay the oracle's losses, gradients and
   parameters exactly;
4. runs on either backend give the same bytes with and without the C
   kernels (the conv lowering here, and the max pooling, fake-quant,
   Adam and batchnorm loops that ``tests/test_backend_reference_kernels.py``
   holds to the seed), which is what lets the result cache ignore the
   kernel tier.
"""

import collections
import contextlib
import itertools
import json

import numpy as np
import pytest

from repro.api import experiments
from repro.autograd import Tensor
from repro.autograd.conv import conv2d, conv_output_size
from repro.backend import _ckernels, get_backend, use_backend
from repro.backend._im2col import col2im_sliced
from repro.backend.fast import FastBackend
from repro.backend.reference import ReferenceBackend
from repro.models import resnet18
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.orchestration.runner import run_payload


# ----------------------------------------------------------------------
# The seed oracle, verbatim.
# ----------------------------------------------------------------------
def _seed_indices(height, width, kernel, stride, padding):
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    i0 = np.repeat(np.arange(kernel), kernel)
    j0 = np.tile(np.arange(kernel), kernel)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    return rows, cols, out_h, out_w


def seed_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    rows, cols, out_h, out_w = _seed_indices(h, w, kernel, stride, padding)
    patches = x[:, :, rows, cols]
    patches = patches.transpose(1, 2, 0, 3).reshape(c * kernel * kernel, -1)
    return patches, out_h, out_w


def seed_col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    rows, cols_idx, out_h, out_w = _seed_indices(h, w, kernel, stride, padding)
    reshaped = cols.reshape(c, kernel * kernel, n, out_h * out_w).transpose(2, 0, 1, 3)
    np.add.at(x_padded, (slice(None), slice(None), rows, cols_idx), reshaped)
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
GRID = [
    (n, c, hw, k, s, p)
    for n, c, hw, k, s, p in itertools.product(
        (1, 2, 3), (1, 3, 4), (4, 5, 7), (1, 2, 3, 5), (1, 2, 3), (0, 1, 2))
    if hw + 2 * p >= k
]
# Shapes with a single output position (the seed's 1x1 columns then
# follow the input's N/C memory order, and a full k > 1 window is one
# strided view), 1x1 windows at N == 1, and the bench trial's 1x1 and
# 2x2 planes under a padded 3x3 window, where most taps leave the image.
EDGE = [
    (n, c, 1, 1, s, p)
    for n, c, s, p in itertools.product((1, 3), (1, 4), (1, 3), (0, 1))
] + [(3, 4, 3, 1, 3, 0), (3, 4, 4, 1, 4, 0), (1, 4, 5, 1, 2, 1), (3, 4, 2, 2, 1, 0)] + [
    (n, c, hw, 3, 1, 1)
    for n, c, hw in itertools.product((1, 3), (1, 4), (1, 2))
]


def _lowerings():
    """Each backend as shipped (C kernels where they load) and with none."""
    params = []
    for backend_type in (ReferenceBackend, FastBackend):
        shipped, numpy_only = backend_type(), backend_type()
        numpy_only._kernels = {}
        params += [pytest.param(shipped, id=shipped.name),
                   pytest.param(numpy_only, id=f"{shipped.name}-numpy")]
    return params


LOWERINGS = _lowerings()


def _layouts(x):
    """``x`` in memory orders a conv input can arrive in."""
    yield "C", x
    yield "CNHW", np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    yield "F", np.asfortranarray(x)
    yield "N-reversed", np.ascontiguousarray(x[::-1])[::-1]
    yield "broadcast-N", np.broadcast_to(x[:1], x.shape)


def _long_axis_strides(a):
    return tuple(s for s, d in zip(a.strides, a.shape) if d > 1)


def _mismatch(got, want, source):
    """Why ``got`` is not the seed's ``want`` (None if it is)."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return f"{got.dtype}{got.shape} != {want.dtype}{want.shape}"
    if got.tobytes() != want.tobytes():
        return "bytes differ"
    if _long_axis_strides(got) != _long_axis_strides(want):
        return f"strides {got.strides} != seed {want.strides}"
    if not got.flags.writeable:
        return "read-only"
    if np.shares_memory(got, source):
        return "aliases its input"
    return None


def _check_lowering(backend, x, kernel, stride, padding):
    """Every im2col/col2im mismatch with the oracle on input ``x``."""
    failures = []
    want, want_h, want_w = seed_im2col(x, kernel, stride, padding)
    got, got_h, got_w = backend.im2col(x, kernel, stride, padding)
    assert (got_h, got_w) == (want_h, want_w)
    why = _mismatch(got, want, x)
    if why:
        failures.append(f"im2col: {why}")
    grad = np.random.default_rng(1).normal(size=want.shape).astype(x.dtype)
    for name, cols in (("C", grad), ("F", np.asfortranarray(grad)),
                       ("broadcast", np.broadcast_to(grad[:1], grad.shape))):
        want = seed_col2im(cols, x.shape, kernel, stride, padding)
        got = backend.col2im(cols, x.shape, kernel, stride, padding)
        why = _mismatch(got, want, cols)
        if why:
            failures.append(f"col2im ({name} cols): {why}")
    return failures


# ----------------------------------------------------------------------
# 1. kernel against the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", LOWERINGS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
class TestLoweringMatchesSeed:
    def test_grid(self, backend, dtype):
        failures = []
        for n, c, hw, k, s, p in GRID:
            x = np.random.default_rng(0).normal(size=(n, c, hw, hw)).astype(dtype)
            failures += [f"{(n, c, hw, k, s, p)} {why}"
                         for why in _check_lowering(backend, x, k, s, p)]
        assert not failures, f"{len(failures)} mismatches, e.g. {failures[:5]}"

    def test_input_layouts(self, backend, dtype):
        failures = []
        for n, c, hw, k, s, p in EDGE + GRID[::7]:
            x = np.random.default_rng(0).normal(size=(n, c, hw, hw)).astype(dtype)
            for layout, view in _layouts(x):
                failures += [f"{layout} {(n, c, hw, k, s, p)} {why}"
                             for why in _check_lowering(backend, view, k, s, p)]
        assert not failures, f"{len(failures)} mismatches, e.g. {failures[:5]}"

    def test_columns_that_do_not_fit_raise_the_numpy_error(self, backend, dtype):
        cols, x_shape = np.ones((5, 5), dtype), (2, 3, 7, 7)
        with pytest.raises(ValueError) as numpy_error:
            col2im_sliced(cols, x_shape, 3, 1, 1)
        with pytest.raises(ValueError) as error:
            backend.col2im(cols, x_shape, 3, 1, 1)
        assert str(error.value) == str(numpy_error.value)


# ----------------------------------------------------------------------
# 2. + 3. the seed lowering patched into whole computations
# ----------------------------------------------------------------------
@contextlib.contextmanager
def seed_lowering():
    """Patch the oracle over the reference backend's lowering; yields call counts."""
    calls = collections.Counter()

    def im2col(backend, x, kernel, stride, padding):
        cols, out_h, out_w = seed_im2col(x, kernel, stride, padding)
        if kernel == 1 and (x.shape[0] == 1 or out_h * out_w == 1):
            calls["unit_window_layout"] += 1
        return cols, out_h, out_w

    def col2im(backend, cols, x_shape, kernel, stride, padding):
        calls["col2im"] += 1
        return seed_col2im(cols, x_shape, kernel, stride, padding)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReferenceBackend, "im2col", im2col)
        patch.setattr(ReferenceBackend, "col2im", col2im)
        yield calls


def _conv_step(x, weight, bias, upstream, stride):
    """Output and gradients of one reference conv2d under ``upstream``."""
    with use_backend("reference"):
        tensors = [Tensor(a, requires_grad=True) for a in (x, weight, bias)]
        out = conv2d(*tensors, stride=stride)
        out.backward(upstream)
        return [out.data.copy()] + [t.grad.copy() for t in tensors]


@pytest.mark.parametrize("stride", [1, 2])
def test_unit_conv_at_batch_one_matches_seed(stride):
    """The weight gradient ``grad_mat @ cols.T`` sees the seed's strides."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 4, 5, 5))
    weight = rng.normal(size=(6, 4, 1, 1))
    bias = rng.normal(size=6)
    out_hw = conv_output_size(5, 1, stride, 0)
    upstream = rng.normal(size=(1, 6, out_hw, out_hw))
    shared = _conv_step(x, weight, bias, upstream, stride)
    with seed_lowering() as calls:
        seed = _conv_step(x, weight, bias, upstream, stride)
    assert calls["unit_window_layout"] == 1 and calls["col2im"] == 1
    for name, got, want in zip(("out", "grad_x", "grad_w", "grad_b"), shared, seed):
        assert got.tobytes() == want.tobytes(), f"{name} moved"


def _resnet_steps(batch, steps=2, backend="reference"):
    """Losses / grads / params of a narrow ResNet18 trained on 8x8 inputs."""
    with use_backend(backend):
        rng = np.random.default_rng(7)
        model = resnet18(num_classes=4, width_multiplier=0.0625,
                         rng=np.random.default_rng(42))
        model.train()
        criterion = CrossEntropyLoss()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        losses = []
        for _ in range(steps):
            x = Tensor(rng.normal(size=(batch, 3, 8, 8)))
            y = rng.integers(0, 4, size=batch)
            for p in model.parameters():
                p.grad = None
            loss = criterion(model(x), y)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        grads = {name: p.grad.copy() for name, p in model.named_parameters()
                 if p.grad is not None}
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        return losses, grads, params


@pytest.mark.parametrize("batch", [1, 3])
def test_resnet_steps_match_seed(batch):
    """Shortcuts are 1x1 stride-2 convs; the last stage's has one output position."""
    shared = _resnet_steps(batch)
    with seed_lowering() as calls:
        seed = _resnet_steps(batch)
    assert calls["unit_window_layout"] > 0 and calls["col2im"] > 0
    assert shared[0] == seed[0], "loss trajectory moved"
    for index, what in ((1, "gradient"), (2, "parameter")):
        assert shared[index].keys() == seed[index].keys()
        for name in seed[index]:
            assert shared[index][name].tobytes() == seed[index][name].tobytes(), (
                f"{what} {name} moved"
            )


# ----------------------------------------------------------------------
# 4. runs with and without the C kernels
# ----------------------------------------------------------------------
needs_c_tier = pytest.mark.skipif(not _ckernels.kernels(),
                                  reason="the C kernel tier cannot load here")


@contextlib.contextmanager
def backend_kernels(backend, table):
    """Give the registered ``backend`` the C kernel ``table``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(get_backend(backend), "_kernels", table)
        yield


# Every C kernel both backends run: the conv lowering, max pooling, and
# the fake-quant, Adam and batchnorm loops.
KERNELS = ("im2col", "col2im", "maxpool_fwd", "maxpool_bwd", "fake_quant",
           "adam_update", "bn_centre", "bn_normalize", "bn_grad_terms",
           "bn_grad_input")


def _counted(calls):
    """The C kernels, counting the calls each one took."""
    def counting(name, kernel):
        def run(*args):
            ran = kernel(*args)
            calls[name] += ran
            return ran
        return run

    return {name: counting(name, _ckernels.kernels()[name])
            for name in KERNELS}


def _smoke_run(backend):
    """Cache payload and final parameters of a ``vgg11-micro-smoke`` run."""
    experiment = experiments.Experiment(
        experiments.get_config("vgg11-micro-smoke").evolve(backend=backend))
    report = experiment.run()
    payload = json.dumps(run_payload(report, experiment.artifacts),
                         sort_keys=True)
    params = {name: value.tobytes()
              for name, value in experiment.model.state_dict().items()}
    return payload, params


@needs_c_tier
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_reference_runs_do_not_depend_on_the_kernel_tier(backend):
    calls = collections.Counter()
    with backend_kernels(backend, _counted(calls)):
        compiled = _smoke_run(backend), _resnet_steps(3, backend=backend)
    assert all(calls[name] > 0 for name in KERNELS), calls
    with backend_kernels(backend, {}):
        numpy_only = _smoke_run(backend), _resnet_steps(3, backend=backend)
    (payload, params), resnet = compiled
    (numpy_payload, numpy_params), numpy_resnet = numpy_only
    assert payload == numpy_payload, "report or artifacts moved"
    assert params == numpy_params, "parameters moved"
    assert resnet[0] == numpy_resnet[0], "ResNet loss trajectory moved"
    for index, what in ((1, "gradient"), (2, "parameter")):
        for name, value in numpy_resnet[index].items():
            assert resnet[index][name].tobytes() == value.tobytes(), (
                f"ResNet {what} {name} moved"
            )
