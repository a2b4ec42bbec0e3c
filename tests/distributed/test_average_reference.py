"""``comm.average_into`` ≡ the frozen averages, property-tested.

``reference_average.py`` (beside this file) is the collective as it stood
with three averaging loops.  Today both public averages run the one body,
``comm.average_into`` — machine 0's array copied into the output, ``+=``
the rest, one ``/= K`` — and must produce the oracle's bytes in the
oracle's dtype for every replica count, with ``None`` gradients on some
machines or all of them, signed zeros, and empty parameters.  The
contracts around the arithmetic are pinned too: the gradient all-reduce
hands every replica the *same* fresh array, and parameter averaging writes
into the existing ``p.data`` buffers.
"""

import types

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_average as ref
from repro.distributed import CommLedger, all_reduce_gradients, average_parameters
from repro.nn.module import Module, Parameter


class Fields(Module):
    """A replica whose parameters are exactly ``arrays``, dtype kept
    (``Parameter`` alone would coerce them to ``nn.module.DTYPE``)."""

    def __init__(self, arrays):
        super().__init__()
        for i, arr in enumerate(arrays):
            p = Parameter(arr)
            p.data = arr.copy()
            setattr(self, f"p{i}", p)


def values(rng, shape, dtype):
    """Mixed magnitudes, both signs, entries — and sometimes whole rows —
    of +0.0 and -0.0 (where the order of additions can show)."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    zero = rng.random(shape) < 0.2
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    if shape[0] and rng.random() < 0.3:
        x[rng.integers(shape[0])] = -0.0
    return x.astype(dtype)


@st.composite
def replicas(draw):
    """K replicas of 1-4 parameters: ranks 1-2, 0-row shapes included,
    float32 or float64 each; per machine, each gradient is present or
    ``None`` — and some parameters are ``None`` on every machine."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 8))
    shapes = [tuple(draw(st.integers(0, 4)) if axis == 0 else
                    draw(st.integers(1, 3)) for axis in range(rank))
              for rank in draw(st.lists(st.integers(1, 2), min_size=1,
                                        max_size=4))]
    dtypes = [draw(st.sampled_from([np.float32, np.float64])) for _ in shapes]
    untouched = [draw(st.floats(0.0, 1.0)) for _ in shapes]
    data = [[values(rng, s, d) for s, d in zip(shapes, dtypes)]
            for _ in range(k)]
    grads = [[None if rng.random() < p else values(rng, s, d)
              for s, d, p in zip(shapes, dtypes, untouched)]
             for _ in range(k)]
    return types.SimpleNamespace(k=k, data=data, grads=grads)


def same(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@settings(max_examples=300, deadline=None)
@given(case=replicas())
def test_all_reduce_gradients_matches_the_oracle(case):
    models = [Fields(arrays) for arrays in case.data]
    for model, grads in zip(models, case.grads):
        for p, g in zip(model.parameters(), grads):
            p.grad = g
    want = ref.average_gradient_arrays(
        case.grads, [p.data for p in models[0].parameters()])
    local = [g for grads in case.grads for g in grads if g is not None]

    all_reduce_gradients(models)
    for i, avg in enumerate(want):
        got = [model.parameters()[i].grad for model in models]
        assert same(got[0], avg), (got[0], avg)
        # One fresh array, shared by every replica.
        assert all(g is got[0] for g in got)
        assert not any(got[0] is mine for mine in local)


@settings(max_examples=300, deadline=None)
@given(case=replicas())
def test_average_parameters_matches_the_oracle(case):
    models = [Fields(arrays) for arrays in case.data]
    oracle = [Fields(arrays) for arrays in case.data]
    buffers = [[p.data for p in model.parameters()] for model in models]

    ledger, oracle_ledger = CommLedger(case.k), CommLedger(case.k)
    average_parameters(models, ledger)
    ref.average_parameters(oracle, oracle_ledger)
    for model, theirs, bufs in zip(models, oracle, buffers):
        for p, q, buf in zip(model.parameters(), theirs.parameters(), bufs):
            assert same(p.data, q.data), (p.data, q.data)
            assert p.data is buf  # written in place, not rebound
    assert np.array_equal(ledger.gradient_bytes, oracle_ledger.gradient_bytes)
