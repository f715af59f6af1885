import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lposd.simplex import solve_standard_form

from reference_simplex import reference_solve


def test_textbook_two_variable_model():
    # min -3x - 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18 (slacked)
    c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    a = np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 1.0, 0.0],
        [3.0, 2.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([4.0, 12.0, 18.0])
    res = solve_standard_form(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-36.0, abs=1e-9)
    assert res.x[:2] == pytest.approx([2.0, 6.0], abs=1e-9)


def test_degenerate_cycling_guard():
    # the classic cycling example; Bland safeguard must terminate at -0.05
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    a = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_standard_form(c, a, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-9)


def test_infeasible_model():
    # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
    c = np.array([1.0, 1.0])
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 3.0])
    res = solve_standard_form(c, a, b)
    assert res.status == "infeasible"


def test_unbounded_model():
    # min -x with only x - y = 0: ray x = y -> -inf
    c = np.array([-1.0, 0.0])
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    res = solve_standard_form(c, a, b)
    assert res.status == "unbounded"


@st.composite
def random_feasible_models(draw):
    """Equality-form models with a known feasible point.

    b is built as a @ x0 for a nonnegative x0, so phase 1 always succeeds;
    costs are small integers to keep optima well conditioned.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 7))
    entries = draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n))
    a = np.array(entries, dtype=float).reshape(m, n)
    x0 = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
                  dtype=float)
    cost = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                    dtype=float)
    return cost, a, a @ x0


@given(random_feasible_models())
@settings(max_examples=60, deadline=None)
def test_agrees_with_reference_tableau(model):
    c, a, b = model
    res = solve_standard_form(c, a, b)
    status, _, objective = reference_solve(c, a, b)
    assert res.status == "optimal"
    assert status == "optimal"
    # nonnegative costs and a feasible point rule out unboundedness
    assert res.objective == pytest.approx(objective, abs=1e-7)


@given(random_feasible_models())
@settings(max_examples=60, deadline=None)
def test_agrees_with_scipy(model):
    c, a, b = model
    res = solve_standard_form(c, a, b)
    ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, abs=1e-7)


def test_solution_is_feasible_and_optimal_basis():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, n = 3, 6
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        x0 = rng.integers(0, 3, size=n).astype(float)
        b = a @ x0
        c = rng.integers(1, 4, size=n).astype(float)
        res = solve_standard_form(c, a, b)
        assert res.status == "optimal"
        assert np.allclose(a @ res.x, b, atol=1e-8)
        assert (res.x >= -1e-9).all()


@pytest.mark.parametrize("c", [[], [0.0], [1.0, 2.0], [-1e-12, 1.0], [0.0, -1.0],
                               [-3.0, 0.0, 2.0]])
def test_row_free_models_agree_with_reference_tableau(c):
    c = np.array(c, dtype=float)
    a, b = np.zeros((0, c.size)), np.zeros(0)
    res = solve_standard_form(c, a, b)
    status, x, objective = reference_solve(c, a, b)
    assert res.status == status
    if status == "optimal":
        assert res.objective == objective and np.array_equal(res.x, x)
