"""Tests for SGD/Adam/RMSprop: step math, state handling, lr mutation hook."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, RMSprop, Tanh, optimizer_by_name


def quadratic(start=5.0):
    """A one-``Linear`` module whose weight ``x`` has loss x^2 (gradient 2x).

    Optimizers are built over the module; gradients are written *into*
    ``weight.grad`` — a view of the arena's gradient slab.
    """
    start = np.atleast_1d(np.asarray(start, dtype=np.float64))
    layer = Linear(1, start.size, None, bias=False)
    layer.weight.data[0] = start
    return layer


def x_of(net) -> np.ndarray:
    return net.weight.data[0]


def set_grad(net, grad) -> None:
    net.weight.grad[0] = grad


def grad_step(net) -> None:
    set_grad(net, 2.0 * x_of(net))  # d(x^2)/dx


class TestSgd:
    def test_plain_step_formula(self):
        net = quadratic(1.0)
        opt = SGD(net, learning_rate=0.1)
        grad_step(net)
        opt.step()
        assert x_of(net)[0] == pytest.approx(1.0 - 0.1 * 2.0)

    def test_momentum_accumulates(self):
        net = quadratic(1.0)
        opt = SGD(net, learning_rate=0.1, momentum=0.9)
        set_grad(net, 1.0)
        opt.step()
        first = x_of(net)[0]
        set_grad(net, 1.0)
        opt.step()
        # second velocity = 0.9*1 + 1 = 1.9
        assert (first - x_of(net)[0]) == pytest.approx(0.1 * 1.9)

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            SGD(quadratic(), learning_rate=0.1, momentum=1.0)

    def test_converges_on_quadratic(self):
        net = quadratic(5.0)
        opt = SGD(net, learning_rate=0.1)
        for _ in range(100):
            grad_step(net)
            opt.step()
        assert abs(x_of(net)[0]) < 1e-6

    def test_zero_gradient_leaves_a_parameter_alone(self):
        net = Linear(1, 1, None)  # weight gets a gradient, bias none
        net.weight.data[...] = net.bias.data[...] = 1.0
        opt = SGD(net, learning_rate=0.1)
        net.weight.grad[...] = 2.0
        opt.step()
        assert net.weight.data[0, 0] == pytest.approx(0.8)
        assert net.bias.data[0] == 1.0


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, the very first Adam step is ~lr * sign(grad).
        net = quadratic(1.0)
        opt = Adam(net, learning_rate=0.01)
        set_grad(net, 3.7)
        opt.step()
        assert (1.0 - x_of(net)[0]) == pytest.approx(0.01, rel=1e-6)

    def test_matches_reference_implementation(self, rng):
        data = rng.normal(size=(4,))
        net = quadratic(data)
        opt = Adam(net, learning_rate=0.002, betas=(0.9, 0.999), eps=1e-8)
        # Reference loop
        ref = data.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = 2 * ref  # same loss for both: x^2
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            ref = ref - 0.002 * m_hat / (np.sqrt(v_hat) + 1e-8)

            grad_step(net)
            opt.step()
        # The folded-scalar formulation differs from the textbook one only
        # in where eps is applied; tolerance covers that.
        np.testing.assert_allclose(x_of(net), ref, atol=1e-6)

    def test_converges_on_quadratic(self):
        net = quadratic(5.0)
        opt = Adam(net, learning_rate=0.5)
        for _ in range(300):
            grad_step(net)
            opt.step()
        assert abs(x_of(net)[0]) < 1e-3

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            Adam(quadratic(), learning_rate=0.1, betas=(1.0, 0.999))

    def test_state_roundtrip(self):
        net = quadratic(1.0)
        opt = Adam(net, learning_rate=0.01)
        for _ in range(3):
            grad_step(net)
            opt.step()
        state = opt.state_arrays()
        net2 = quadratic(x_of(net))
        opt2 = Adam(net2, learning_rate=0.5)
        opt2.load_state_arrays(state)
        assert opt2.t == opt.t
        assert opt2.learning_rate == 0.01
        for n, o in ((net, opt), (net2, opt2)):
            grad_step(n)
            o.step()
        np.testing.assert_allclose(x_of(net), x_of(net2), rtol=1e-12)


class TestRmsprop:
    def test_step_formula(self):
        net = quadratic(1.0)
        opt = RMSprop(net, learning_rate=0.01, alpha=0.9)
        set_grad(net, 2.0)
        opt.step()
        sq = 0.1 * 4.0
        expected = 1.0 - 0.01 * 2.0 / (np.sqrt(sq) + 1e-8)
        assert x_of(net)[0] == pytest.approx(expected, rel=1e-9)

    def test_converges_on_quadratic(self):
        net = quadratic(5.0)
        opt = RMSprop(net, learning_rate=0.05)
        for _ in range(500):
            grad_step(net)
            opt.step()
        assert abs(x_of(net)[0]) < 1e-2

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            RMSprop(quadratic(), learning_rate=0.1, alpha=1.5)


class TestCommon:
    def test_module_without_parameters_rejected(self):
        with pytest.raises(ValueError, match="without parameters"):
            SGD(Tanh(), learning_rate=0.1)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam(quadratic(), learning_rate=0.0)

    def test_zero_grad_clears(self):
        net = quadratic(1.0)
        opt = SGD(net, learning_rate=0.1)
        grad_step(net)
        opt.zero_grad()
        assert np.all(net.weight.grad == 0)

    def test_learning_rate_is_mutable(self):
        """The coevolutionary lr mutation adjusts the attribute directly."""
        net = quadratic(1.0)
        opt = Adam(net, learning_rate=0.01)
        opt.learning_rate = 0.123
        set_grad(net, 1.0)
        opt.step()
        assert (1.0 - x_of(net)[0]) == pytest.approx(0.123, rel=1e-6)

    @pytest.mark.parametrize("name,cls", [
        ("sgd", SGD), ("adam", Adam), ("rmsprop", RMSprop),
    ])
    def test_factory(self, name, cls):
        opt = optimizer_by_name(name, quadratic(), 0.01)
        assert isinstance(opt, cls)

    def test_factory_unknown(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            optimizer_by_name("lion", quadratic(), 0.01)
