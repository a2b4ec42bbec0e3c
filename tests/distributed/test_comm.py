"""Collective-communication tests."""

import numpy as np
import pytest

from repro.distributed import (
    CommLedger,
    all_reduce_gradients,
    average_parameters,
    broadcast_state,
    gradient_nbytes,
)
from repro.core import RunConfig, SalientPP
from repro.distributed.cluster import ring_all_reduce_bytes
from repro.distributed.comm import average_into
from repro.graph.datasets import DATASET_REGISTRY, load_dataset
from repro.nn import GraphSAGE, Linear, MLP


def make_replicas(k=3):
    models = [Linear(4, 2, seed=i) for i in range(k)]
    broadcast_state(models)
    return models


class TestAverageInto:
    def test_no_machines_raises(self):
        with pytest.raises(ValueError, match="no arrays"):
            average_into([], [np.zeros(2)])

    def test_one_machine_is_copied_exactly(self):
        x = np.array([1.0, -0.0, 1e-300, np.pi])
        out = np.full(4, np.nan)
        average_into([[x]], [out])
        assert out.tobytes() == x.tobytes()
        assert out is not x

    def test_machine_zero_first_then_left_to_right(self):
        """``(a_0 + a_1) + a_2``, then one division: not ``a_0 + (a_1 + a_2)``."""
        per_machine = [[np.array([1.0])], [np.array([1e-16])], [np.array([1e-16])]]
        out = np.empty(1)
        average_into(per_machine, [out])
        assert out[0] == ((1.0 + 1e-16) + 1e-16) / 3
        assert (1.0 + 1e-16) + 1e-16 != 1.0 + (1e-16 + 1e-16)


class TestAllReduce:
    def test_averages_gradients(self):
        models = make_replicas(3)
        for i, m in enumerate(models):
            m.weight.grad = np.full((4, 2), float(i))
            m.bias.grad = np.full(2, float(i))
        all_reduce_gradients(models)
        for m in models:
            assert np.allclose(m.weight.grad, 1.0)
            assert np.allclose(m.bias.grad, 1.0)

    def test_missing_grads_count_as_zero(self):
        models = make_replicas(2)
        models[0].weight.grad = np.ones((4, 2))
        models[0].bias.grad = np.ones(2)
        # models[1] has no grads.
        all_reduce_gradients(models)
        assert np.allclose(models[1].weight.grad, 0.5)

    def test_records_wire_bytes(self):
        models = make_replicas(4)
        for m in models:
            m.weight.grad = np.ones((4, 2))
            m.bias.grad = np.ones(2)
        ledger = CommLedger(4)
        all_reduce_gradients(models, ledger)
        expect = 2.0 * 3 / 4 * gradient_nbytes(models[0])
        assert np.allclose(ledger.gradient_bytes, expect)

    def test_mismatched_models_raise(self):
        with pytest.raises(ValueError, match="mismatch"):
            all_reduce_gradients([Linear(4, 2, seed=0), Linear(4, 3, seed=0)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            all_reduce_gradients([])

    def test_differently_named_parameters_raise(self):
        with pytest.raises(ValueError, match="mismatch"):
            all_reduce_gradients([Linear(4, 2, seed=0), MLP(4, 2, 2, seed=0)])

    def test_untouched_everywhere_is_zeros_in_the_parameter_dtype(self):
        models = make_replicas(3)
        for m in models:
            m.weight.data = m.weight.data.astype(np.float32)
            m.bias.grad = np.ones(2)
        all_reduce_gradients(models)
        grad = models[0].weight.grad
        assert grad.dtype == np.float32 and grad.shape == (4, 2)
        assert not grad.any()
        assert all(m.weight.grad is grad for m in models)

    def test_single_replica_costs_no_wire_bytes(self):
        models = make_replicas(1)
        models[0].weight.grad = np.ones((4, 2))
        ledger = CommLedger(1)
        all_reduce_gradients(models, ledger)
        assert not ledger.gradient_bytes.any()
        assert np.array_equal(models[0].weight.grad, np.ones((4, 2)))


class TestAverageParameters:
    def test_averages_weights_in_place(self):
        models = [Linear(4, 2, seed=i) for i in range(3)]
        want = sum(m.weight.data for m in models) / 3
        buffers = [m.weight.data for m in models]
        average_parameters(models)
        for m, buf in zip(models, buffers):
            assert m.weight.data is buf
            assert np.allclose(m.weight.data, want)
        assert all(np.array_equal(m.bias.data, models[0].bias.data)
                   for m in models)

    def test_records_wire_bytes(self):
        models = make_replicas(4)
        ledger = CommLedger(4)
        average_parameters(models, ledger)
        expect = 2.0 * 3 / 4 * gradient_nbytes(models[0])
        assert np.allclose(ledger.gradient_bytes, expect)

    def test_single_replica_costs_no_wire_bytes(self):
        models = make_replicas(1)
        before = models[0].weight.data.copy()
        ledger = CommLedger(1)
        average_parameters(models, ledger)
        assert not ledger.gradient_bytes.any()
        assert models[0].weight.data.tobytes() == before.tobytes()

    def test_mismatched_models_raise(self):
        with pytest.raises(ValueError, match="mismatch"):
            average_parameters([Linear(4, 2, seed=0), Linear(4, 3, seed=0)])

    def test_differently_named_parameters_raise(self):
        with pytest.raises(ValueError, match="mismatch"):
            average_parameters([Linear(4, 2, seed=0), MLP(4, 2, 2, seed=0)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            average_parameters([])


class TestGradientNbytes:
    """The all-reduce is priced from the parameters' own bytes.  At float32
    (``nn.module.DTYPE``) that is the 4 bytes per element the ledger and the
    simulator charged before the model trained float32, so neither moved."""

    @pytest.mark.parametrize("name", sorted(DATASET_REGISTRY))
    def test_four_bytes_per_parameter_for_every_bundled_model(self, name):
        ds = load_dataset(name, **({} if name == "tiny" else {"scale": 0.02}))
        exp = ds.metadata.get("default_experiment", {})
        model = GraphSAGE(ds.feature_dim, exp.get("hidden_dim", 64),
                          ds.num_classes, exp.get("num_layers", 2), seed=0)
        assert gradient_nbytes(model) == 4 * model.num_parameters()

    def test_reads_the_parameters_dtype(self):
        model = Linear(4, 2, seed=0)
        model.weight.data = model.weight.data.astype(np.float64)
        assert gradient_nbytes(model) == 8 * 4 * 2 + 4 * 2

    def test_ledger_and_simulator_charge_four_bytes_per_parameter(
            self, tiny_dataset):
        cfg = RunConfig(num_machines=2, replication_factor=0.1,
                        batch_size=16, fanouts=(5, 5))
        system = SalientPP.build(tiny_dataset, cfg)
        payload = 4 * system.trainer.models[0].num_parameters()
        assert system.cost_model.grad_nbytes == payload
        report = system.train_epoch(0).report
        per_step = ring_all_reduce_bytes(2, payload)
        assert np.array_equal(report.ledger.gradient_bytes,
                              np.full(2, report.steps_per_machine * per_step))


class TestBroadcast:
    def test_broadcast_synchronizes(self):
        models = [Linear(4, 2, seed=i) for i in range(3)]
        broadcast_state(models, source=1)
        for m in models:
            assert np.allclose(m.weight.data, models[1].weight.data)


class TestLedger:
    def test_feature_fetch_accounting(self):
        ledger = CommLedger(3)
        ledger.record_feature_fetch(0, np.array([0, 5, 3]), bytes_per_row=100)
        assert ledger.feature_bytes[0, 1] == 500
        assert ledger.feature_bytes[0, 2] == 300
        assert ledger.request_bytes[0, 1] == 40
        assert ledger.total_feature_bytes() == 800

    def test_merged(self):
        a, b = CommLedger(2), CommLedger(2)
        a.record_feature_fetch(0, np.array([0, 2]), 10)
        b.record_feature_fetch(1, np.array([3, 0]), 10)
        m = a.merged(b)
        assert m.total_feature_bytes() == 50
        assert m.total_bytes() > m.total_feature_bytes()
