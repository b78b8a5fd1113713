"""Answers that depend on a security market alone, kept on the market.

A SecurityMarket computes its cash unit price, its unit LP per support
mask, its pricing density per probability vector and its
scalable-arbitrage verdict the first time each is asked; every later ask returns
the kept answer, bit for bit the answer a fresh computation gives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import law_invariant_regime
from riskshare import linprog
from riskshare.regime import (
    ENTROPIC,
    SecurityMarket,
    _arbitrage_verdict,
    _cash_unit_price,
    _pricing_margin,
    _unit_lp,
    rho,
    rho_batch,
)
from riskshare.scenario import ScenarioSpace


def _bits(answer):
    """An answer as comparable bits: floats by their hex form, arrays by
    their bytes, everything else as it is."""
    if isinstance(answer, tuple):
        return tuple(_bits(a) for a in answer)
    if isinstance(answer, np.ndarray):
        return answer.dtype.str, answer.shape, answer.tobytes()
    if isinstance(answer, (float, np.floating)):
        return float(answer).hex()
    return answer


@st.composite
def markets(draw):
    """A random market on m <= 5 scenarios: k <= m payoffs, the first one
    constant in some draws, with prices of either sign, and two support
    masks that include at least one scenario."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, m))
    B = rng.normal(0.0, 1.0, (m, k))
    if draw(st.booleans()):
        B[:, 0] = rng.uniform(0.5, 2.0)
    prices = rng.normal(0.5, 1.0, k)
    probs = rng.uniform(0.2, 1.0, m)
    space = ScenarioSpace(tuple(f"s{j}" for j in range(m)),
                          probs / probs.sum())
    mkt = SecurityMarket(tuple(space.rv(col) for col in B.T), prices)
    masks = [np.ones(m, dtype=bool)]
    for _ in range(2):
        mask = rng.uniform(size=m) < 0.6
        mask[int(rng.integers(m))] = True
        masks.append(mask)
    return mkt, masks


@settings(derandomize=True, deadline=None, max_examples=120)
@given(markets())
def test_kept_answers_are_fresh_computations_bitwise(drawn):
    mkt, masks = drawn
    B, prices, probs = mkt.basis_matrix(), mkt.prices, mkt.space.probs
    other = np.full(probs.size, 1.0 / probs.size)
    # ask each answer twice, interleaved, so that keys cannot collide
    for _ in range(2):
        for mask in masks:
            assert _bits(mkt.unit_certificate(mask)) == _bits(
                _unit_lp(B[mask], prices))
        for p in (probs, other):
            assert _bits(mkt.pricing_margin(p)) == _bits(
                _pricing_margin(p, B, prices, math.inf))
        assert _bits(mkt.cash_unit_price()) == _bits(_cash_unit_price(mkt))
        assert mkt.arbitrage_verdict() == _arbitrage_verdict(B, prices)
    # a fresh market over the same payoffs and prices gives the same bits
    fresh = SecurityMarket(mkt.basis, prices)
    for mask in masks:
        assert _bits(fresh.unit_certificate(mask)) == _bits(
            mkt.unit_certificate(mask))
    assert _bits(fresh.pricing_margin(probs)) == _bits(
        mkt.pricing_margin(probs))


def test_prices_and_kept_arrays_are_read_only():
    space = ScenarioSpace.uniform(["a", "b", "c"])
    given_prices = np.array([1.0, 0.2])
    mkt = SecurityMarket((space.rv(np.ones(3)), space.indicator(["a"])),
                         given_prices)
    with pytest.raises(ValueError, match="read-only"):
        mkt.prices[0] = 2.0
    # the market keeps its own copy: the caller's array stays writable
    given_prices[0] = 2.0
    assert mkt.prices.tolist() == [1.0, 0.2]
    _, coeffs = mkt.unit_certificate(np.ones(3, dtype=bool))
    _, density = mkt.pricing_margin(space.probs)
    for kept in (coeffs, density):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0


def test_rho_on_one_market_solves_its_market_lps_once(monkeypatch):
    # an entropic agent on cash and 1_a: the unit LP and the pricing
    # density depend on the market alone, so 5 rho calls and a rho_batch
    # solve each of them once
    space = ScenarioSpace.uniform(["a", "b", "c", "d"])
    mkt = SecurityMarket((space.rv(np.ones(4)), space.indicator(["a"])),
                         np.array([1.0, 0.3]))
    r = law_invariant_regime(space, ENTROPIC, 1.5, mkt)
    losses = np.random.default_rng(7).normal(0.0, 1.0, (5, 4))
    solves = []
    solve = linprog.solve
    monkeypatch.setattr(linprog, "solve",
                        lambda p: solves.append(p) or solve(p))
    values = [rho(r, space.rv(x)).value.as_float() for x in losses]
    assert rho_batch(r, losses).tolist() == values
    assert len(solves) == 2
