"""One GraphSAGE training step as it stood before every sum over an MFG
block's edges became one sparse product, on the frozen engine.

Frozen at ``dd3a64c``: ``MFGModel.forward`` (dropout 0, the trainers'
default), ``SAGEConv.forward`` in its old spelling — ``gather_rows`` (an
E×F copy) -> ``segment_mean`` (``np.add.reduceat``) — ``Linear.forward`` and
``train_batch``, written as one function over a ``state_dict`` and run on
``reference_autograd.py`` (beside this file).  At ``dd3a64c`` it returns the
loss ``repro.distributed.train_batch`` returned, bit for bit.
``test_reference_parity.py`` holds today's ``train_batch`` to it within the
re-association bound, and ``benchmarks/perf/harness.py`` times it as the
``nn.train_batch`` baseline.  Never edit: a parity oracle is the written
reason this second implementation exists.
"""

import numpy as np

import reference_autograd as ref


def reference_train_batch(state, feats, mfg, labels):
    """Forward/backward one minibatch of a GraphSAGE whose weights are
    ``state`` (``model.state_dict()``); returns ``(loss, {name: grad})``."""
    params = {name: ref.Tensor(np.asarray(w, dtype=np.float64),
                               requires_grad=True)
              for name, w in state.items()}
    h = ref.Tensor(np.asarray(feats))
    num_layers = len(mfg.blocks)
    for layer, block in enumerate(reversed(mfg.blocks)):
        conv = f"convs.{layer}."
        x_dst = h.slice_rows(0, block.num_dst)
        neigh = h.gather_rows(block.src_index)
        agg = ref.segment_mean(neigh, block.dst_ptr)
        own = x_dst @ params[conv + "lin_self.weight"]
        own = own + params[conv + "lin_self.bias"]
        h = own + agg @ params[conv + "lin_neigh.weight"]
        if layer < num_layers - 1:
            h = h.relu()
    loss = ref.cross_entropy(h, labels)
    loss.backward()
    return loss.item(), {name: p.grad for name, p in params.items()}
