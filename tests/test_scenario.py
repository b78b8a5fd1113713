import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskshare.errors import StructuralError
from riskshare.scenario import Functional, ScenarioSpace, SupportMask

from oracles import expectation, lower_quantile


def test_space_validation():
    with pytest.raises(StructuralError):
        ScenarioSpace(("a", "a"), np.array([0.5, 0.5]))
    with pytest.raises(StructuralError):
        ScenarioSpace(("a", "b"), np.array([0.7, 0.2]))
    with pytest.raises(StructuralError):
        ScenarioSpace(("a", "b"), np.array([1.1, -0.1]))
    sp = ScenarioSpace.uniform("abc")
    assert sp.size == 3
    assert np.allclose(sp.probs, 1 / 3)


def test_expectation_of_constant():
    sp = ScenarioSpace.uniform(["a", "b", "c"])
    one = Functional(sp, np.ones(3))
    assert expectation(one, sp.rv([7.5, 7.5, 7.5])) == pytest.approx(7.5)


def test_expectation_two_point_mean():
    sp = ScenarioSpace.uniform(["u", "d"])
    assert expectation(Functional(sp, [1, 1]), sp.rv([0, 4])) == pytest.approx(2.0)


def test_expectation_weighted_sum():
    sp = ScenarioSpace.uniform(list("wxyz"))
    q = Functional(sp, [2, 2, 0, 0])
    assert expectation(q, sp.rv([1, 2, 3, 4])) == pytest.approx(1.5)


def test_expectation_space_mismatch():
    a = ScenarioSpace.uniform(["a", "b"])
    b = ScenarioSpace.uniform(["a", "c"])
    with pytest.raises(StructuralError):
        expectation(Functional(a, [1, 1]), b.rv([1, 2]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_rejected_naming_scenario(bad):
    sp = ScenarioSpace.uniform(["a", "b", "c"])
    with pytest.raises(StructuralError, match="scenario 'b'"):
        sp.rv([1.0, bad, 3.0])


def test_non_finite_density_rejected_naming_scenario():
    # documents reach Functional through rv_from_dict, which checks first;
    # direct construction must refuse too
    sp = ScenarioSpace.uniform(["a", "b"])
    with pytest.raises(StructuralError, match="density inf at scenario 'b'"):
        Functional(sp, [1.0, np.inf])


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
@settings(max_examples=200)
def test_expectation_linearity(values, a, b):
    n = len(values)
    sp = ScenarioSpace.uniform([f"s{i}" for i in range(n)])
    rng = np.random.default_rng(len(values))
    q1 = Functional(sp, rng.uniform(0, 3, n))
    x = sp.rv(values)
    y = sp.rv(rng.uniform(-10, 10, n))
    lhs = expectation(q1, a * x + b * y)
    rhs = a * expectation(q1, x) + b * expectation(q1, y)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs) + abs(rhs))


def test_support_mask():
    sp = ScenarioSpace.uniform(["a", "b", "c"])
    mask = SupportMask.from_labels(sp, ["a", "b"])
    assert mask.dim == 2
    assert mask.contains(sp.rv([1, -2, 0]))
    assert not mask.contains(sp.rv([1, -2, 0.5]))
    assert SupportMask.full(sp).contains(sp.rv([9, 9, 9]))


def test_rv_from_dict_takes_real_numbers_only():
    sp = ScenarioSpace.uniform(["a", "b", "c"])
    x = sp.rv_from_dict({"a": 1, "b": np.float32(0.5), "c": np.int64(-2)})
    assert x.values.tolist() == [1.0, 0.5, -2.0]
    assert sp.rv_from_dict({"b": 2.5}).values.tolist() == [0.0, 2.5, 0.0]
    for bad in ("4", True, np.bool_(False), None, 1j):
        with pytest.raises(StructuralError,
                           match="non-numeric value .* at scenario 'b'"):
            sp.rv_from_dict({"a": 1.0, "b": bad})
    with pytest.raises(StructuralError, match="non-finite value inf"):
        sp.rv_from_dict({"c": 10 ** 400})


def test_lower_quantile():
    sp = ScenarioSpace.uniform(["a", "b", "c", "d"])
    x = sp.rv([1, 2, 3, 4])
    assert lower_quantile(x, 0.5) == 2
    assert lower_quantile(x, 0.75) == 3
    assert lower_quantile(x, 1.0) == 4
