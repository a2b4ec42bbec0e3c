"""Layer, model, module, and optimizer tests."""

import numpy as np
import pytest

from repro.graph import make_tiny
from repro.nn import (
    Adam,
    GraphSAGE,
    Linear,
    MLP,
    Parameter,
    SAGEConv,
    Tensor,
    cross_entropy,
)
from repro.sampling import NeighborSampler


def accuracy(logits, labels):
    """Top-1 accuracy of a model's seed logits."""
    return float((logits.data.argmax(axis=1) == labels).mean())


@pytest.fixture(scope="module")
def tiny_mfg():
    ds = make_tiny(seed=0)
    s = NeighborSampler(ds.graph, (4, 3), seed=0)
    return ds, s.sample(ds.train_idx[:32])


class TestLinearAndModule:
    def test_linear_shapes(self):
        lin = Linear(5, 3, seed=0)
        out = lin(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)

    def test_parameter_registration(self):
        lin = Linear(4, 2, seed=0)
        names = dict(lin.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert lin.num_parameters() == 4 * 2 + 2

    def test_state_dict_roundtrip(self):
        a = Linear(4, 2, seed=0)
        b = Linear(4, 2, seed=1)
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self):
        a = Linear(4, 2, seed=0)
        state = a.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            a.load_state_dict(state)

    def test_train_eval_mode_propagates(self):
        m = GraphSAGE(4, 8, 2, 2, seed=0)
        leaves = [c.lin_self for c in m.convs] + [c.lin_neigh for c in m.convs]
        m.eval()
        assert not m.training
        assert not any(mod.training for mod in m.convs + leaves)
        m.train()
        assert all(mod.training for mod in m.convs + leaves)


class TestConvolutions:
    def test_output_shape(self, tiny_mfg):
        ds, mfg = tiny_mfg
        blk = mfg.blocks[-1]
        conv = SAGEConv(ds.feature_dim, 8, seed=0)
        x = Tensor(ds.features[mfg.n_id].astype(np.float64))
        out = conv(x, blk)
        assert out.shape == (blk.num_dst, 8)

    def test_sage_mean_semantics(self):
        """SAGE on a single dst with known neighbors = W_s x + W_n mean."""
        from repro.sampling.mfg import MFGBlock
        conv = SAGEConv(2, 2, seed=0)
        x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        blk = MFGBlock(np.array([0, 2]), np.array([1, 2]), num_src=3, num_dst=1)
        out = conv(Tensor(x), blk)
        mean_n = x[1:3].mean(axis=0)
        expect = (x[:1] @ conv.lin_self.weight.data + conv.lin_self.bias.data
                  + mean_n[None] @ conv.lin_neigh.weight.data)
        assert np.allclose(out.data, expect)

    def test_gradients_flow_through_convs(self, tiny_mfg):
        ds, mfg = tiny_mfg
        conv = SAGEConv(ds.feature_dim, 4, seed=0)
        x = Tensor(ds.features[mfg.n_id].astype(np.float64))
        out = conv(x, mfg.blocks[-1])
        out.backward(np.ones(out.shape))
        for name, p in conv.named_parameters():
            assert p.grad is not None, f"SAGEConv.{name} got no grad"


class TestModels:
    def test_forward_shapes(self, tiny_mfg):
        ds, mfg = tiny_mfg
        model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=0)
        out = model(ds.features[mfg.n_id], mfg)
        assert out.shape == (mfg.batch_size, ds.num_classes)

    def test_layer_count_must_match_blocks(self, tiny_mfg):
        ds, mfg = tiny_mfg
        model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 3, seed=0)
        with pytest.raises(ValueError, match="blocks"):
            model(ds.features[mfg.n_id], mfg)

    def test_feature_row_mismatch(self, tiny_mfg):
        ds, mfg = tiny_mfg
        model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, 2, seed=0)
        with pytest.raises(ValueError, match="rows"):
            model(ds.features[mfg.n_id[:-1]], mfg)

    def test_overfits_tiny(self):
        """A 2-layer SAGE must overfit 32 training vertices quickly."""
        ds = make_tiny(seed=0)
        s = NeighborSampler(ds.graph, (5, 5), seed=0)
        model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, 2, seed=0)
        opt = Adam(model.parameters(), lr=0.02)
        ids = ds.train_idx[:32]
        for _ in range(30):
            mfg = s.sample(ids)
            loss = cross_entropy(model(ds.features[mfg.n_id], mfg), ds.labels[mfg.seeds])
            model.zero_grad(); loss.backward(); opt.step()
        model.eval()
        mfg = s.sample(ids)
        assert accuracy(model(ds.features[mfg.n_id], mfg), ds.labels[mfg.seeds]) > 0.9

    def test_gnn_beats_mlp_on_structural_data(self):
        """With weak per-vertex features (high noise, no smoothing), only
        neighborhood aggregation can denoise the class signal: SAGE > MLP."""
        from dataclasses import replace
        from repro.graph.datasets import make_features, make_synthetic_dataset

        base = make_synthetic_dataset(
            "t", num_vertices=600, avg_degree=12.0, feature_dim=8,
            num_classes=4, num_communities=8, label_noise=0.0,
            train_frac=0.3, val_frac=0.05, test_frac=0.2, seed=5)
        noisy = make_features(base.graph, base.labels, 8, 4, seed=9,
                              class_separation=1.0, smoothing=0.0, noise=3.0)
        ds = replace(base, features=noisy)
        s = NeighborSampler(ds.graph, (8, 8), seed=0)

        def train(model):
            opt = Adam(model.parameters(), lr=0.01)
            for epoch in range(10):
                for mfg in s.batches(ds.train_idx, 64, epoch=epoch, seed=2):
                    out = model(ds.features[mfg.n_id], mfg)
                    loss = cross_entropy(out, ds.labels[mfg.seeds])
                    model.zero_grad(); loss.backward(); opt.step()
            model.eval()
            mfg = s.sample(ds.test_idx)
            return accuracy(model(ds.features[mfg.n_id], mfg), ds.labels[mfg.seeds])

        acc_sage = train(GraphSAGE(ds.feature_dim, 32, ds.num_classes, 2, seed=3))
        acc_mlp = train(MLP(ds.feature_dim, 32, ds.num_classes, seed=3))
        assert acc_sage > acc_mlp


class TestOptimizers:
    def quad_problem(self):
        target = np.array([3.0, -2.0])
        p = Parameter(np.zeros(2))
        return p, target

    def test_adam_converges(self):
        p, target = self.quad_problem()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.grad = 2 * (p.data - target)
            opt.step()
        assert np.allclose(p.data, target, atol=1e-2)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 10.0

    def test_skips_none_grad(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad: no movement
        assert np.allclose(p.data, 1.0)

    def test_rejects_empty_params_and_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.0)

    @pytest.mark.parametrize("weight_dtype, bias_dtype", [
        (np.float32, np.float64), (np.float64, np.float32),
        (np.float32, np.float32), (np.float64, np.float64),
    ], ids=["f32-f64", "f64-f32", "f32-f32", "f64-f64"])
    def test_restored_state_keeps_the_parameter_dtype(self, weight_dtype,
                                                      bias_dtype):
        """A restored optimizer steps exactly like the one it was saved
        from: each moment is restored in its parameter's dtype, so float32
        parameters stay float32 (and float64 ones float64)."""
        rng = np.random.default_rng(0)
        twins = [Linear(4, 3, seed=0), Linear(4, 3, seed=0)]
        for model in twins:
            model.weight.data = model.weight.data.astype(weight_dtype)
            model.bias.data = model.bias.data.astype(bias_dtype)
        grads = [[rng.standard_normal(p.data.shape).astype(p.data.dtype)
                  for p in twins[0].parameters()] for _ in range(3)]
        live = Adam(twins[0].parameters(), lr=0.1)
        for g, p in zip(grads[0], twins[0].parameters()):
            p.grad = g
        live.step()
        twins[1].load_state_dict(twins[0].state_dict())
        restored = Adam(twins[1].parameters(), lr=0.1)
        restored.load_state_dict(live.state_dict())
        for step in grads[1:]:
            for model, opt in zip(twins, (live, restored)):
                for g, p in zip(step, model.parameters()):
                    p.grad = g
                opt.step()
        for p, q in zip(*(model.parameters() for model in twins)):
            assert q.data.dtype == p.data.dtype
            assert q.data.tobytes() == p.data.tobytes()
        assert twins[1].weight.data.dtype == weight_dtype
        assert twins[1].bias.data.dtype == bias_dtype
        for m, p in zip(restored._m + restored._v, 2 * twins[1].parameters()):
            assert m.dtype == p.data.dtype

    def test_restore_rejects_a_different_parameter_count(self):
        state = Adam(Linear(4, 3, seed=0).parameters()).state_dict()
        opt = Adam(MLP(4, 3, 2, seed=0).parameters())
        with pytest.raises(ValueError, match="2/2 moment arrays, expected 4"):
            opt.load_state_dict(state)

    def test_restore_rejects_a_different_shape(self):
        state = Adam(Linear(4, 3, seed=0).parameters()).state_dict()
        opt = Adam(Linear(3, 3, seed=0).parameters())
        with pytest.raises(ValueError, match=r"m\[0\]: shape \(4, 3\)"):
            opt.load_state_dict(state)
        assert opt._t == 0  # nothing half-restored
