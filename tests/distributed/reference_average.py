"""The collective's averages as they stood while they were spelled three
times, before ``comm.average_into`` became the one averaging body.

Frozen at ``93e6fde``: ``average_gradient_arrays`` (the list-building
average behind ``all_reduce_gradients``, where a ``None`` gradient
contributes a scalar ``0.0``) and ``average_parameters`` (its own copy /
``+=`` / ``/=`` loop), verbatim.  ``test_average_reference.py`` holds
today's ``all_reduce_gradients`` and ``average_parameters`` to them byte for
byte and dtype for dtype, and ``test_shm_plane.py`` holds the multiproc
``GradientPlane.average`` to ``average_gradient_arrays``.  Never edit: a
parity oracle is the written reason this second implementation exists.
"""

from typing import List, Optional

import numpy as np

from repro.distributed.cluster import ring_all_reduce_bytes
from repro.distributed.comm import CommLedger, gradient_nbytes
from repro.nn.module import Module


def average_gradient_arrays(
    per_machine: List[List[Optional[np.ndarray]]],
    templates: List[np.ndarray],
) -> List[np.ndarray]:
    """Average per-machine gradient lists parameter by parameter.

    ``per_machine[k][i]`` is machine ``k``'s gradient for parameter ``i``
    (``None`` if that machine's batch never touched it — it contributes a
    scalar zero); ``templates[i]`` supplies the shape for the all-``None``
    case.  The accumulation order is fixed — machine 0's gradient first,
    then ``+ g_1 + g_2 ...``, then one division by K — and is the *single*
    definition of the collective's floating-point semantics: the in-process
    :func:`all_reduce_gradients` and the multiproc coordinator both call
    this, which is what keeps their losses bit-identical.
    """
    k = len(per_machine)
    if k == 0:
        raise ValueError("no gradient sets to average")
    out = []
    for i, template in enumerate(templates):
        avg = None
        for grads in per_machine:
            g = grads[i] if grads[i] is not None else 0.0
            avg = g if avg is None else avg + g
        avg = avg / k if not np.isscalar(avg) else np.zeros_like(template)
        out.append(avg)
    return out


def average_parameters(
    models: List[Module],
    ledger: Optional[CommLedger] = None,
) -> None:
    """Average model *parameters* (not gradients) across replicas, in place.

    The synchronization point of the bounded-staleness ``async`` execution
    engine: replicas apply their local gradients immediately and re-converge
    by parameter averaging every ``staleness + 1`` steps.  The wire cost is
    the same ring all-reduce as a gradient reduction (parameters and
    gradients have identical shapes), which the ledger records.
    """
    if not models:
        raise ValueError("no models to average")
    k = len(models)
    named = [dict(m.named_parameters()) for m in models]
    keys = list(named[0].keys())
    for nd in named[1:]:
        if list(nd.keys()) != keys or any(
            nd[k2].data.shape != named[0][k2].data.shape for k2 in keys
        ):
            raise ValueError("model replicas have mismatched parameters")

    for key in keys:
        params = [nd[key] for nd in named]
        avg = params[0].data.copy()
        for p in params[1:]:
            avg += p.data
        avg /= k
        for p in params:
            p.data[...] = avg

    if ledger is not None and k > 1:
        ledger.record_all_reduce(
            ring_all_reduce_bytes(k, gradient_nbytes(models[0])))
