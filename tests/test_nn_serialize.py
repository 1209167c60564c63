"""Tests for parameter flattening (the genome representation)."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Sequential,
    Tanh,
    count_parameters,
    load_state_dict,
    parameters_to_vector,
    state_dict,
    vector_to_parameters,
)
from repro.nn.autograd import Tensor


@pytest.fixture()
def net(rng):
    return Sequential(Linear(3, 5, rng), Tanh(), Linear(5, 2, rng))


class TestVector:
    def test_count(self, net):
        assert count_parameters(net) == 3 * 5 + 5 + 5 * 2 + 2

    def test_roundtrip_identity(self, net, rng):
        batch = Tensor(rng.normal(size=(2, 3)))
        vec = parameters_to_vector(net)
        out_before = net(batch).numpy().copy()
        vector_to_parameters(vec, net)
        np.testing.assert_array_equal(net(batch).numpy(), out_before)
        vec2 = parameters_to_vector(net)
        np.testing.assert_array_equal(vec, vec2)
        del out_before

    def test_transplant_between_networks(self, rng):
        a = Sequential(Linear(3, 4, rng), Linear(4, 1, rng))
        b = Sequential(Linear(3, 4, rng), Linear(4, 1, rng))
        x = rng.normal(size=(5, 3))
        vector_to_parameters(parameters_to_vector(a), b)
        np.testing.assert_allclose(a(Tensor(x)).numpy(), b(Tensor(x)).numpy())

    def test_preallocated_buffer(self, net):
        buf = np.empty(count_parameters(net))
        out = parameters_to_vector(net, out=buf)
        assert out is buf

    def test_buffer_wrong_shape_rejected(self, net):
        with pytest.raises(ValueError):
            parameters_to_vector(net, out=np.empty(3))

    def test_vector_wrong_shape_rejected(self, net):
        with pytest.raises(ValueError):
            vector_to_parameters(np.zeros(3), net)

    def test_write_is_in_place(self, net):
        size = count_parameters(net)  # first request: parameters move into the arena
        params_before = [p.data for p in net.parameters()]
        vector_to_parameters(np.zeros(size), net)
        for before, param in zip(params_before, net.parameters()):
            assert param.data is before  # same buffer, mutated
            assert np.all(param.data == 0)


class TestStateDict:
    def test_roundtrip(self, net, rng):
        state = state_dict(net)
        x = rng.normal(size=(2, 3))
        expected = net(Tensor(x)).numpy().copy()
        # Perturb, then restore.
        vector_to_parameters(np.zeros(count_parameters(net)), net)
        load_state_dict(net, state)
        np.testing.assert_allclose(net(Tensor(x)).numpy(), expected)

    def test_state_dict_copies(self, net):
        state = state_dict(net)
        first = next(iter(state))
        state[first][...] = 123.0
        assert not np.any(dict(net.named_parameters())[first].data == 123.0)

    def test_missing_key_rejected(self, net):
        state = state_dict(net)
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            load_state_dict(net, state)

    def test_unexpected_key_rejected(self, net):
        state = state_dict(net)
        state["bogus"] = np.zeros(2)
        with pytest.raises(KeyError):
            load_state_dict(net, state)

    def test_shape_mismatch_rejected(self, net):
        state = state_dict(net)
        first = next(iter(state))
        state[first] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            load_state_dict(net, state)
