import contextlib
import inspect

import numpy as np

from rulegen import autodiff as ad
from rulegen import gradcheck
from rulegen.gradcheck import EPSILON, TOLERANCE, fd_errors
from rulegen.params import ParamStore


def store_of(**arrays):
    """A float64 store holding these arrays, in keyword order."""
    store = ParamStore([(n, np.shape(a)) for n, a in arrays.items()],
                       dtype=np.float64)
    for n, a in arrays.items():
        store[n].data[...] = a
    return store


def test_retry_at_a_smaller_step_clears_a_relu_kink():
    # the step at EPSILON straddles the kink, the one at EPSILON / 10 does not
    store = store_of(x=[3e-6])
    x = store["x"]
    assert x.data[0] - EPSILON < 0 < x.data[0] - EPSILON / 10
    errors = fd_errors(lambda: ad.sum_all(ad.relu(x)), store)
    assert errors["x"] < TOLERANCE


def relu_with_doubled_backward(x):
    out = np.maximum(x.data, 0)
    return ad.Tensor(out, parents=(x,),
                     backward_fn=lambda g: (2.0 * g * (out > 0),))


def test_a_wrong_gradient_stays_flagged_after_the_retry():
    store = store_of(x=[0.5, -0.3, 1.2, 3e-6])
    errors = fd_errors(
        lambda: ad.sum_all(relu_with_doubled_backward(store["x"])), store)
    assert errors["x"] >= TOLERANCE
    assert abs(errors["x"] - 0.5) < 1e-6


def test_one_reading_per_tensor_and_no_gradient_left_behind():
    rng = np.random.default_rng(0)
    store = store_of(a=rng.standard_normal((3, 4)),
                     b=rng.standard_normal((4, 2)))
    errors = fd_errors(lambda: ad.sum_all(ad.matmul(store["a"], store["b"])),
                       store, samples_per_tensor=3, rng=rng)
    assert list(errors) == ["a", "b"]
    assert max(errors.values()) < TOLERANCE
    assert not store.grads.any()


def test_op_check_readings_do_not_depend_on_the_other_entries(monkeypatch):
    full = gradcheck.run_op_checks(seed=3)
    kept = gradcheck.OP_CHECKS[::3]
    monkeypatch.setattr(gradcheck, "OP_CHECKS", kept)
    assert gradcheck.run_op_checks(seed=3) == {
        name: full[name] for name, _, _ in kept}


def test_every_public_op_has_a_finite_difference_check():
    """Each public function of ``autodiff`` that builds a Tensor is named
    by some OP_CHECKS entry; ``sum_all`` reduces every entry's output."""
    ops = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
           if not name.startswith("_") and fn.__module__ == ad.__name__
           and inspect.signature(fn).return_annotation == "Tensor"}
    named = set()
    for _, op, _ in gradcheck.OP_CHECKS:
        named.add(op.__name__)
        named.update(op.__code__.co_names)
    assert ops - named == {"sum_all"}


def test_readings_do_not_depend_on_recording_the_perturbed_forwards(
        monkeypatch):
    """The perturbed forwards run without a graph; recording them gives the
    same readings, bit for bit."""
    def readings():
        ops = [gradcheck.run_op_checks(seed) for seed in range(5)]
        full = gradcheck.run_full_check()
        return [{k: v.hex() for k, v in r.items()} for r in ops + [full]]

    bare = readings()
    monkeypatch.setattr(ad, "no_graph", contextlib.nullcontext)
    assert readings() == bare
