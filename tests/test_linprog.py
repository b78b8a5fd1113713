import math

import numpy as np
import pytest

from riskshare.errors import NumericalFailure, StructuralError
from riskshare.linprog import (
    CERT_TOL,
    EQ,
    GE,
    LE,
    LpProblem,
    LpSolution,
    null_space,
    solve,
    solve_batch,
)


def lp(c, rows, senses, rhs, lower=None, upper=None):
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    return LpProblem(
        c=c,
        rows=np.asarray(rows, dtype=float).reshape(-1, n),
        senses=senses,
        rhs=np.asarray(rhs, dtype=float),
        lower=lower if lower is None else np.asarray(lower, dtype=float),
        upper=upper if upper is None else np.asarray(upper, dtype=float),
    )


def test_min_x_geq_3():
    sol = solve(lp([1.0], [[1.0]], [GE], [3.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)


def test_unbounded_below():
    sol = solve(
        lp([1.0], [[1.0]], [LE], [3.0], lower=[-math.inf], upper=[math.inf])
    )
    assert sol.status == "unbounded"
    assert sol.ray is not None
    # ray decreases the objective and keeps feasibility
    assert sol.ray @ np.array([1.0]) < 0


def test_equality_dual_is_one():
    sol = solve(lp([1.0, 1.0], [[1.0, 1.0]], [EQ], [1.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-8)


def test_infeasible():
    sol = solve(lp([1.0], [[1.0], [1.0]], [GE, LE], [3.0, 1.0]))
    assert sol.status == "infeasible"


def test_infeasible_from_bounds():
    sol = solve(lp([1.0], np.zeros((0, 1)), [], [], lower=[2.0], upper=[1.0]))
    assert sol.status == "infeasible"


def test_pure_bounds_problem():
    sol = solve(
        lp([1.0, -1.0], np.zeros((0, 2)), [], [], lower=[2.0, 0.0], upper=[5.0, 3.0])
    )
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, [2.0, 3.0], atol=1e-9)


def test_free_variable_equality():
    # minimize x + 2y s.t. x + y = 4, x - y = 0, both free
    sol = solve(
        lp(
            [1.0, 2.0],
            [[1.0, 1.0], [1.0, -1.0]],
            [EQ, EQ],
            [4.0, 0.0],
            lower=[-math.inf, -math.inf],
            upper=[math.inf, math.inf],
        )
    )
    assert sol.status == "optimal"
    assert np.allclose(sol.primal, [2.0, 2.0], atol=1e-8)
    assert sol.objective_value == pytest.approx(6.0, abs=1e-8)


def test_certificates_on_optimal():
    sol = solve(
        lp(
            [3.0, 1.0, 2.0],
            [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0]],
            [GE, GE],
            [4.0, 3.0],
        )
    )
    assert sol.status == "optimal"
    assert sol.residuals["feasibility"] <= 1e-8
    assert sol.residuals["complementarity"] <= 1e-8
    assert sol.residuals["duality_gap"] <= 1e-8


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; must terminate via Bland's rule
    c = [-0.75, 150.0, -0.02, 6.0]
    rows = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    sol = solve(lp(c, rows, [LE, LE, LE], [0.0, 0.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-0.05, abs=1e-8)


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    c = rng.normal(size=6)
    rows = rng.uniform(0.1, 1.0, size=(4, 6))
    rhs = rng.uniform(1, 3, size=4)
    prob = lambda: lp(c, rows, [LE, LE, GE, GE], rhs,
                      lower=np.zeros(6), upper=np.full(6, 10.0))
    a = solve(prob())
    b = solve(prob())
    assert a.status == b.status == "optimal"
    assert a.primal.tobytes() == b.primal.tobytes()
    assert a.duals.tobytes() == b.duals.tobytes()


def test_duality_on_random_instances():
    # explicit dual of min c.x s.t. Ax >= b, x >= 0 is max y.b s.t. A^T y <= c, y >= 0
    rng = np.random.default_rng(11)
    for trial in range(25):
        m, n = rng.integers(1, 4), rng.integers(1, 5)
        A = rng.uniform(0.1, 2.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.uniform(0.5, 2.0, size=n)
        prim = solve(lp(c, A, [GE] * m, b))
        assert prim.status == "optimal", f"trial {trial}"
        dual = solve(
            lp(-b, A.T, [LE] * n, c)
        )  # maximize b.y  ==  minimize -b.y
        assert dual.status == "optimal"
        assert -dual.objective_value == pytest.approx(
            prim.objective_value, abs=1e-8
        ), f"strong duality failed on trial {trial}"
        # reported duals of the primal are feasible for the explicit dual
        y = prim.duals
        assert np.all(y >= -1e-8)
        assert np.all(A.T @ y <= c + 1e-8)


def test_iteration_cap_raises():
    rng = np.random.default_rng(3)
    A = rng.uniform(0.1, 1.0, size=(3, 4))
    with pytest.raises(NumericalFailure):
        solve(lp(np.ones(4), A, [GE] * 3, np.ones(3)), max_iterations=1)


def test_unbounded_ray_feasibility():
    # minimize -x - y s.t. x - y <= 1, x, y >= 0 : unbounded along (1,1)-ish rays
    prob = lp([-1.0, -1.0], [[1.0, -1.0]], [LE], [1.0])
    sol = solve(prob)
    assert sol.status == "unbounded"
    r = sol.ray
    assert np.asarray([1.0, -1.0]) @ r <= 1e-9          # stays feasible
    assert np.all(r >= -1e-12)
    assert np.asarray([-1.0, -1.0]) @ r < 0             # improves objective


# ----------------------------------------------------------------------
# batches of right-hand sides
# ----------------------------------------------------------------------

def batch_matches_solve(p, rhs):
    """solve_batch against one solve per row: equal statuses, objectives
    within CERT_TOL times the row's scale, feasible primal rows."""
    batch = solve_batch(p, rhs)
    for k, b in enumerate(rhs):
        one = solve(lp(p.c, p.rows, p.senses, b, p.lower, p.upper))
        assert batch.status[k] == one.status, k
        if not one.optimal:
            assert batch.objective_value[k] == one.objective_value
            continue
        scale = 1.0 + max(np.max(np.abs(b), initial=0.0),
                          abs(one.objective_value))
        assert abs(batch.objective_value[k] - one.objective_value) <= (
            CERT_TOL * scale), k
        x = batch.primal[k]
        assert batch.objective_value[k] == pytest.approx(p.c @ x, abs=1e-12 * scale)
        ax = p.rows @ x
        for i, sense in enumerate(p.senses):
            slack = {LE: b[i] - ax[i], GE: ax[i] - b[i]}.get(sense)
            if slack is None:
                assert abs(ax[i] - b[i]) <= CERT_TOL * scale
            else:
                assert slack >= -CERT_TOL * scale
        assert np.all(x >= p.lower - CERT_TOL * scale)
        assert np.all(x <= p.upper + CERT_TOL * scale)
    return batch


def test_batch_crosses_several_bases():
    rng = np.random.default_rng(3)
    for trial in range(10):
        A = rng.uniform(0.1, 2.0, size=(4, 3))
        c = rng.uniform(0.5, 2.0, size=3)
        rhs = rng.uniform(-1.0, 3.0, size=(40, 4))
        batch = batch_matches_solve(lp(c, A, [GE] * 4, np.ones(4)), rhs)
        assert 3 <= batch.solves < 40, trial


def test_batch_resolves_rows_outside_every_basis():
    # min x s.t. x >= b1, x >= b2: the basis of the first row leaves the
    # second row's slack negative, so that row needs its own solve
    p = lp([1.0], [[1.0], [1.0]], [GE, GE], [0.0, 0.0],
           lower=[-math.inf], upper=[math.inf])
    rhs = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, -1.0], [0.0, 5.0]])
    batch = batch_matches_solve(p, rhs)
    assert batch.status == ["optimal"] * 4
    assert np.array_equal(batch.objective_value, [2.0, 2.0, 3.0, 5.0])
    assert batch.solves == 2


def test_batch_infeasible_and_unbounded_rows():
    # min -x1 s.t. x1 - x2 <= b1, x3 <= b2, x3 >= b3, x >= 0: unbounded
    # whenever b2 >= max(b3, 0), infeasible otherwise
    p = lp([-1.0, 0.0, 0.0], [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                              [0.0, 0.0, 1.0]], [LE, LE, GE], np.zeros(3))
    rhs = np.random.default_rng(5).uniform(-1.0, 1.0, size=(30, 3))
    batch = batch_matches_solve(p, rhs)
    assert set(batch.status) == {"unbounded", "infeasible"}
    assert batch.solves == 30


def test_batch_degenerate_rows():
    # three constraints through one vertex at t (1, 1) / 2, the zero rhs,
    # and rows off the degenerate ray
    p = lp([1.0, 2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [GE] * 3,
           np.zeros(3))
    t = np.linspace(0.0, 2.0, 5)
    on_ray = np.column_stack([t, t / 2, t / 2])
    off = np.random.default_rng(9).uniform(-1.0, 2.0, size=(20, 3))
    batch = batch_matches_solve(p, np.vstack([on_ray, off]))
    assert batch.status == ["optimal"] * 25


def test_batch_redundant_equalities():
    # the simplex drops the second row as redundant; rows where it is
    # inconsistent with the first are infeasible, not screened
    p = lp([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], [EQ, EQ], [1.0, 2.0])
    b1 = np.linspace(0.5, 3.0, 6)
    rhs = np.column_stack([np.repeat(b1, 2), np.repeat(2 * b1, 2)])
    rhs[1::2, 1] += 0.5
    batch = batch_matches_solve(p, rhs)
    assert batch.status == ["optimal", "infeasible"] * 6


def test_batch_mixed_senses_and_bounds():
    rng = np.random.default_rng(21)
    for trial in range(10):
        m, n = 4, 5
        A = rng.normal(size=(m, n))
        c = rng.uniform(0.1, 2.0, size=n)
        lower = np.array([-math.inf, 0.0, -1.0, -math.inf, 0.0])
        upper = np.array([math.inf, math.inf, 2.0, 3.0, 1.0])
        c[0] = 0.0                     # the free variable cannot run off
        senses = [EQ, LE, GE, LE]
        rhs = rng.normal(size=(30, m))
        batch_matches_solve(lp(c, A, senses, np.zeros(m), lower, upper), rhs)


def test_batch_of_a_pure_bounds_problem():
    p = lp([1.0, -1.0], np.zeros((0, 2)), [], [], lower=[2.0, 0.0],
           upper=[5.0, 3.0])
    batch = batch_matches_solve(p, np.zeros((3, 0)))
    assert batch.solves == 1
    assert np.allclose(batch.primal, [[2.0, 3.0]] * 3)
    crossed = lp([1.0], np.zeros((0, 1)), [], [], lower=[2.0], upper=[1.0])
    assert batch_matches_solve(crossed, np.zeros((2, 0))).status == [
        "infeasible"] * 2


def test_batch_shape_refusals():
    p = lp([1.0], [[1.0]], [GE], [3.0])
    for bad in (np.ones(3), np.ones((2, 2)), np.ones((1, 1, 1))):
        with pytest.raises(StructuralError):
            solve_batch(p, bad)
    with pytest.raises(StructuralError):
        solve_batch(p, np.array([[np.nan]]))
    assert solve_batch(p, np.zeros((0, 1))).solves == 0


# ----------------------------------------------------------------------
# null spaces
# ----------------------------------------------------------------------

def test_null_space_identity():
    assert null_space(np.eye(3)).shape == (3, 0)


def test_null_space_zero_matrix():
    ns = null_space(np.zeros((2, 4)))
    assert ns.shape == (4, 4)
    assert np.allclose(ns.T @ ns, np.eye(4), atol=1e-12)


def test_null_space_hand_example():
    ns = null_space(np.array([[1.0, -1.0]]))
    assert ns.shape == (2, 1)
    v = ns[:, 0]
    assert np.allclose(v, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_null_space_rank_nullity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, n = rng.integers(1, 5), rng.integers(1, 6)
        A = rng.normal(size=(m, n))
        ns = null_space(A)
        rank = np.linalg.matrix_rank(A, tol=1e-10)
        assert ns.shape[1] == n - rank
        if ns.size:
            assert np.max(np.abs(A @ ns)) <= 1e-9
