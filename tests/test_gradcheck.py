import numpy as np

from rulegen import autodiff as ad
from rulegen.gradcheck import EPSILON, TOLERANCE, fd_errors


def test_retry_at_a_smaller_step_clears_a_relu_kink():
    # the step at EPSILON straddles the kink, the one at EPSILON / 10 does not
    x = ad.Tensor(np.array([3e-6]), requires_grad=True)
    assert x.data[0] - EPSILON < 0 < x.data[0] - EPSILON / 10
    [err] = fd_errors(lambda: ad.sum_all(ad.relu(x)), [x])
    assert err < TOLERANCE


def relu_with_doubled_backward(x):
    out = np.maximum(x.data, 0)
    return ad.Tensor(out, parents=(x,),
                     backward_fn=lambda g: (2.0 * g * (out > 0),))


def test_a_wrong_gradient_stays_flagged_after_the_retry():
    x = ad.Tensor(np.array([0.5, -0.3, 1.2, 3e-6]), requires_grad=True)
    [err] = fd_errors(lambda: ad.sum_all(relu_with_doubled_backward(x)), [x])
    assert err >= TOLERANCE
    assert abs(err - 0.5) < 1e-6


def test_one_reading_per_tensor_and_no_gradient_left_behind():
    rng = np.random.default_rng(0)
    a = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    errors = fd_errors(lambda: ad.sum_all(ad.matmul(a, b)), [a, b],
                       samples_per_tensor=3, rng=rng)
    assert len(errors) == 2
    assert max(errors) < TOLERANCE
    assert a.grad is None and b.grad is None
