import math
import subprocess
import sys

import numpy as np
import pytest

from riskshare import linprog
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
from riskshare.market import AgentSystem, capital_requirement, lambda_batch
from riskshare.scenario import ScenarioSpace

from helpers import ceiling_regime


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
# the row-sparse pivot against the dense one
# ----------------------------------------------------------------------

def dense_pivot(T, i, j):
    """The rank-one update over every tableau row, zero pivot-column
    entries included: the reference the row-sparse pivot must match."""
    piv_row = T[i] / T[i, j]
    T -= np.outer(T[:, j], piv_row)
    T[i] = piv_row


def assert_bitwise_equal(a, b):
    """Equal statuses, pivot counts and degeneracy flags, and the same
    bytes in every array field and in the objective (signed zeros
    included)."""
    assert (a.status, a.iterations, a.degenerate) == (
        b.status, b.iterations, b.degenerate)
    assert (np.float64(a.objective_value).tobytes()
            == np.float64(b.objective_value).tobytes())
    for name in ("primal", "duals", "ray"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.tobytes() == y.tobytes(), name


def solve_both_ways(monkeypatch, problems):
    sparse = [solve(p) for p in problems]
    with monkeypatch.context() as mp:
        mp.setattr(linprog, "_pivot", dense_pivot)
        dense = [solve(p) for p in problems]
    for a, b in zip(sparse, dense):
        assert_bitwise_equal(a, b)
    return sparse


def window_chain(m, n=4, seed=1):
    """n ceiling agents on m scenarios: agent i owns scenario 0 plus a
    window of consecutive scenarios overlapping the next agent's window by
    two, with random ceilings, and a random loss."""
    rng = np.random.default_rng(seed)
    space = ScenarioSpace.uniform([f"s{i}" for i in range(m)])
    width = -(-(m - 1) // n)
    regimes = []
    for i in range(n):
        lo = 1 + i * width
        owned = [0, *range(lo, min(m - 1, lo + width + 1) + 1)]
        labels = [space.labels[w] for w in owned]
        regimes.append(ceiling_regime(space, labels,
                                      rng.uniform(-2.0, 2.0, len(owned))))
    return AgentSystem(tuple(regimes)), space.rv(rng.uniform(-5.0, 5.0, m))


@pytest.mark.parametrize("m", [40, 160])
def test_sparse_pivot_bitwise_on_window_chains(monkeypatch, m):
    # every LP of a certified Lambda and of a batch of coordinate probes
    s, X = window_chain(m)
    problems = []
    record = linprog.solve

    def recorder(p, *args, **kwargs):
        problems.append(p)
        return record(p, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(linprog, "solve", recorder)
        capital_requirement(s, X, certify=True)
        lambda_batch(s, X.values + 1e-3 * np.vstack([np.eye(m)[:8],
                                                      -np.eye(m)[:8]]))
    # the sharing LP: the four agents own m + 9 scenarios in all (scenario
    # 0 four times, three overlaps of two), one acceptance row and two
    # columns (coordinate, security) each, plus m scenario rows
    assert (2 * m + 9, 2 * m + 18) in {p.rows.shape for p in problems}
    solved = solve_both_ways(monkeypatch, problems)
    assert all(sol.optimal for sol in solved)


def test_sparse_pivot_bitwise_on_random_lps(monkeypatch):
    # <=, = and >= rows; nonnegative, free, doubly bounded and upper-only
    # variables
    rng = np.random.default_rng(17)
    kinds = [(0.0, math.inf), (-math.inf, math.inf), (-1.0, 2.0),
             (-math.inf, 3.0)]
    problems = []
    for _ in range(60):
        m, n = rng.integers(2, 7), rng.integers(2, 8)
        # entries from 1e-13 to 1e2 in size, some exactly zero
        A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-13, 3, (m, n))
        A[rng.uniform(size=(m, n)) < 0.3] = 0.0
        bounds = [kinds[k] for k in rng.integers(0, 4, n)]
        problems.append(lp(rng.normal(size=n), A,
                           list(rng.choice([LE, EQ, GE], m)),
                           rng.normal(size=m), [b[0] for b in bounds],
                           [b[1] for b in bounds]))
    solved = solve_both_ways(monkeypatch, problems)
    assert {sol.status for sol in solved} == {"optimal", "unbounded",
                                              "infeasible"}


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


@pytest.mark.parametrize("u", [1.0, 1e4, 1e6])
def test_batch_screen_is_no_looser_than_phase_one(u):
    # min x s.t. x >= t, x <= u: the basis of the first row keeps x and the
    # ceiling's slack basic, and the second row drives that slack to -1e-5,
    # which solve's absolute phase-1 cut calls infeasible at every scale
    p = lp([1.0], [[1.0], [1.0]], [GE, LE], [0.0, u])
    rhs = np.array([[0.5 * u, u], [u + 1e-5, u], [u - 1e-5, u]])
    batch = batch_matches_solve(p, rhs)
    assert batch.status == ["optimal", "infeasible", "optimal"]


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

def test_cli_start_up_loads_no_scipy():
    # null spaces come from NumPy and no module of riskshare imports
    # scipy: starting the CLI must not pay for it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import riskshare.cli, sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
