"""Gradient ownership: ``Tensor.grad`` is the tensor's own buffer, always.

``Tensor._accumulate(grad, owned=True)`` lets a backward closure hand over
an array it has just computed instead of having it copied.  That is only
sound if every closure is classified correctly (fresh vs. pass-through,
see ``repro/nn/tensor.py``), so the classification is checked by
generation: small graphs over the whole op menu with deliberate reuse,
run once on the real engine and once on an always-copy reference engine
(``_accumulate`` patched to ignore the hand-off).  A pass-through closure
wrongly marked fresh makes two tensors share a buffer, which the aliasing
and second-backward checks below catch
(:func:`test_the_property_catches_a_pass_through_marked_fresh`).
"""

import contextlib
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.layers import Conv2d, Linear
from repro.nn.tensor import concatenate, stack, where
from repro.nn.vmap import stack_modules

from ..conftest import generated


@contextlib.contextmanager
def every_closure_claims(claim):
    """Override every closure's ownership claim: ``False`` is the
    always-copy reference engine, ``True`` a broken engine in which
    pass-through closures say their array is fresh."""
    adopting = Tensor._accumulate
    Tensor._accumulate = lambda self, grad, owned=False: adopting(self, grad, claim)
    try:
        yield
    finally:
        Tensor._accumulate = adopting


# Every op maps (N, D) operands ``t`` / ``u`` (possibly the same tensor) to
# an (N, D) result, so any sequence composes; ``p`` holds the parameters.
OPS = {
    "relu": lambda t, u, p: t.relu(),
    "exp": lambda t, u, p: t.clip(-2.0, 2.0).exp(),
    "log": lambda t, u, p: (t.abs() + 1.0).log(),
    "sigmoid": lambda t, u, p: t.sigmoid(),
    "tanh": lambda t, u, p: t.tanh(),
    "neg": lambda t, u, p: -t,
    "pow": lambda t, u, p: t ** 2,
    "add": lambda t, u, p: t + u,
    "sub": lambda t, u, p: t - u,
    "mul": lambda t, u, p: t * u,
    "div": lambda t, u, p: t / (u.abs() + 1.0),
    "relu_residual": lambda t, u, p: t.relu() + t,
    "matmul": lambda t, u, p: t @ p.square,
    "linear": lambda t, u, p: F.linear(t, p.weight, p.bias),
    "two_linears": lambda t, u, p: F.linear(t, p.weight, p.bias) + F.linear(t, p.weight, None),
    "sum": lambda t, u, p: u + t.sum(axis=1, keepdims=True),
    "mean": lambda t, u, p: u - t.mean(axis=0),
    "max": lambda t, u, p: u * t.max(axis=1, keepdims=True),
    "getitem": lambda t, u, p: t[p.rows],
    "log_softmax": lambda t, u, p: F.log_softmax(t, axis=1),
    "reshape": lambda t, u, p: t.reshape(p.d, p.n).flatten(0).reshape(p.n, p.d),
    "transpose": lambda t, u, p: t.transpose().reshape(p.n, p.d),
    "pad2d": lambda t, u, p: t.pad2d(1)[1:-1, 1:-1],
    "concatenate": lambda t, u, p: concatenate([t, u], axis=0)[::2],
    "stack": lambda t, u, p: stack([t, u]).sum(axis=0),
    "where": lambda t, u, p: where(p.cond, t, u),
    "conv_pool": lambda t, u, p: F.linear(
        F.max_pool2d(
            F.conv2d(t.reshape(p.n, 1, p.side, p.side), p.kernel, p.kernel_bias, padding=1), 2
        ).flatten(),
        p.unpool,
    ),
}

programs = st.fixed_dictionaries(
    {
        "steps": st.lists(
            st.tuples(st.sampled_from(sorted(OPS)), st.integers(0, 7), st.integers(0, 7)),
            min_size=1,
            max_size=6,
        ),
        "n": st.integers(1, 4),
        "side": st.sampled_from([2, 4]),
        "dtype": st.sampled_from([np.float64, np.float32]),
        "seeded": st.booleans(),
        "seed": st.integers(0, 2**16),
    }
)


def program(*steps, seeded=False, dtype=np.float64):
    return dict(steps=list(steps), n=3, side=2, dtype=dtype, seeded=seeded, seed=7)


def make_leaves(spec):
    """The graph's leaves and constants, a pure function of ``spec``."""
    rng = np.random.default_rng(spec["seed"])
    n, side, dtype = spec["n"], spec["side"], spec["dtype"]
    d = side * side

    def leaf(*shape, requires_grad=True):
        return Tensor((0.5 * rng.normal(size=shape)).astype(dtype), requires_grad=requires_grad)

    inputs = [leaf(n, d), leaf(n, d), leaf(n, d, requires_grad=False)]
    params = SimpleNamespace(
        n=n,
        d=d,
        side=side,
        square=leaf(d, d),
        weight=leaf(d, d),
        bias=leaf(d),
        kernel=leaf(2, 1, 3, 3),
        kernel_bias=leaf(2),
        unpool=leaf(d, d // 2),
        rows=rng.integers(0, n, size=n),  # duplicates on purpose
        cond=rng.random((n, d)) < 0.5,
    )
    upstream = rng.normal(size=(n, d)).astype(dtype) if spec["seeded"] else None
    return inputs, params, upstream


def build(spec, inputs, params):
    """Run the drawn steps over a growing pool; every graph ends in a
    residual add onto the first input."""
    pool = list(inputs)
    for name, a, b in spec["steps"]:
        pool.append(OPS[name](pool[a % len(pool)], pool[b % len(pool)], params))
    out = pool[-1] + pool[0]
    return out if spec["seeded"] else (out * out).mean()


def reachable(root):
    """Every tensor of the graph under ``root``, in a deterministic order."""
    seen, order, todo = set(), [], [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            order.append(node)
            todo.extend(node._parents)
    return order


def two_backwards(spec):
    """Backward through one graph, then through a second graph built over
    the same leaves.  Returns the first graph's tensors, a snapshot of
    their gradients between the two passes, and the supplied seed."""
    inputs, params, upstream = make_leaves(spec)
    with np.errstate(all="ignore"):
        first = build(spec, inputs, params)
        first.backward(upstream)
        nodes = reachable(first)
        between = [None if t.grad is None else np.array(t.grad) for t in nodes]
        datas = [t.data.copy() for t in nodes]
        build(spec, inputs, params).backward(upstream)
    return SimpleNamespace(
        nodes=nodes, between=between, datas=datas, upstream=upstream
    )


def same_bytes(a, b):
    if a is None or b is None:
        return a is b
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def check_ownership(spec):
    run = two_backwards(spec)
    with every_closure_claims(False):
        reference = two_backwards(spec)
    assert len(run.nodes) == len(reference.nodes)

    # Every gradient, after the first pass and after the second, is the
    # always-copy engine's bit for bit.
    for node, twin, between, twin_between in zip(
        run.nodes, reference.nodes, run.between, reference.between
    ):
        assert same_bytes(between, twin_between)
        assert same_bytes(node.grad, twin.grad)

    holders = [t for t in run.nodes if t.grad is not None]
    for t in holders:
        assert t.grad.shape == t.shape and t.grad.dtype == t.dtype
        if isinstance(t.grad, np.ndarray):  # 0-d gradients may be NumPy scalars
            assert t.grad.flags.writeable and t.grad.flags.c_contiguous
    # No buffer has two owners.
    for one, other in itertools.combinations(holders, 2):
        assert not np.shares_memory(one.grad, other.grad)
    for t in holders:
        assert not any(np.shares_memory(t.grad, node.data) for node in run.nodes)
        if run.upstream is not None:
            assert not np.shares_memory(t.grad, run.upstream)

    # The second pass accumulated into the leaves (their gradient moved,
    # checked against the reference above) and touched nothing else: the
    # first graph's interior gradients, every value, and the caller's seed.
    for node, between, data in zip(run.nodes, run.between, run.datas):
        assert same_bytes(node.data, data)
        if node._parents:
            assert same_bytes(node.grad, between)
    if run.upstream is not None:
        assert same_bytes(run.upstream, make_leaves(spec)[2])


@generated(150)
@given(spec=programs)
@example(spec=program(("add", 0, 0)))  # x + x
@example(spec=program(("add", 0, 1), seeded=True))  # a supplied seed flows to both
@example(spec=program(("relu_residual", 0, 0)))  # relu(h) + h
@example(spec=program(("two_linears", 0, 0)))  # one tensor, one weight, two linears
@example(spec=program(("linear", 0, 0), ("linear", 3, 3), ("add", 3, 4)))
@example(spec=program(("conv_pool", 1, 1), ("transpose", 3, 3), dtype=np.float32))
def test_gradients_match_the_always_copy_engine_and_no_buffer_has_two_owners(spec):
    check_ownership(spec)


@pytest.mark.parametrize(
    "spec",
    [
        program(("add", 0, 1)),
        program(("reshape", 0, 0), seeded=True),
        program(("transpose", 0, 0), ("pad2d", 3, 3), ("concatenate", 4, 1)),
    ],
    ids=["add", "reshape-seeded", "transpose-pad-concatenate"],
)
def test_the_property_catches_a_pass_through_marked_fresh(spec):
    # The property has to be able to fail: with every closure claiming
    # ownership, pass-through ops hand one buffer to two tensors.
    with every_closure_claims(True), pytest.raises(AssertionError):
        check_ownership(spec)


def test_layer_parameter_gradients_are_contiguous_and_writeable(rng):
    # clip_grad_norm reduces over param.grad in memory order, so a strided
    # gradient (the linear kernel's swapaxes view, adopted as it is) moves
    # the last bit of a clipped step: the hand-off refuses strided arrays.
    init = np.random.default_rng(3)
    linears = [Linear(6, 4, init) for _ in range(2)]
    convs = [Conv2d(2, 3, 3, init, padding=1) for _ in range(2)]
    cases = [
        (linears[0], (5, 6)),
        (convs[0], (5, 2, 4, 4)),
        (stack_modules(linears), (2, 5, 6)),
        (stack_modules(convs), (2, 5, 2, 4, 4)),
    ]
    for model, input_shape in cases:
        out = model(Tensor(rng.normal(size=input_shape)))
        (out * out).sum().backward()
        grads = [param.grad for param in model.parameters()]
        assert len(grads) == 2
        for grad in grads:
            assert grad.flags.c_contiguous and grad.flags.writeable
