"""Reference formulations that the library no longer builds.

scenario_row_sharing_lp is the sharing LP with one equality row per
scenario, the form market._sharing_lp had before each scenario's holder
took the remainder of the loss.  Tests compare the two; no library code
calls it."""

import math

import numpy as np

from riskshare import linprog


def scenario_row_sharing_lp(s, target, securities="own"):
    """The sharing LP of `s` with its scenario rows, and each agent's
    first column.

    Columns: the aggregate columns w (if any), then per agent i its
    supported coordinates X_i[inc_i], then its own z_i (if any), then its
    auxiliaries a_i >= aux_lower_i; every other column is free.  Rows: the
    acceptance blocks  W_i[:, inc_i] | -W_i B_i | A_i  (<= bounds_i),
    block-diagonal in agent order, then one equality row per scenario w
    with a 1 at every agent that holds w, B[w] in the aggregate columns,
    and right-hand side target[w].  `securities` is "own", "aggregate" or
    "none", as for market._sharing_lp.

    Returns (LpProblem, starts), starts[i] being agent i's first column.
    """
    m = s.space.size
    forms = [r.lp_rows() for r in s.regimes]
    own = securities == "own"
    if securities == "aggregate":
        B, prices, _ = s.stacked_basis()
    else:
        B, prices = np.zeros((m, 0)), np.zeros(0)
    blocks = []
    for r, (W, A, _, _) in zip(s.regimes, forms):
        z = [-(W @ r.market.basis_matrix())] if own else []
        blocks.append(np.hstack([W[:, r.support.included], *z, A]))
    k = B.shape[1]
    J = sum(b.shape[0] for b in blocks)
    n = k + sum(b.shape[1] for b in blocks)
    rows = np.zeros((J + m, n))
    rows[J:, :k] = B
    c = np.zeros(n)
    c[:k] = prices
    lower = np.full(n, -math.inf)
    starts, row, col = [], 0, k
    for r, b, (_, _, _, aux_lower) in zip(s.regimes, blocks, forms):
        rows[row:row + b.shape[0], col:col + b.shape[1]] = b
        held = np.flatnonzero(r.support.included)
        rows[J + held, col + np.arange(held.size)] = 1.0
        if own:
            c[col + held.size:col + held.size + r.market.dim] = r.market.prices
        lower[col + b.shape[1] - aux_lower.size:col + b.shape[1]] = aux_lower
        starts.append(col)
        row += b.shape[0]
        col += b.shape[1]
    rhs = np.concatenate([bounds for _, _, bounds, _ in forms] + [target])
    return linprog.LpProblem(
        c=c, rows=rows, senses=[linprog.LE] * J + [linprog.EQ] * m, rhs=rhs,
        lower=lower, upper=np.full(n, math.inf)), starts
