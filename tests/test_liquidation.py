import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookroute import liquidation
from hookroute.liquidation import (
    ADDITIVE,
    MAX_SOLVE_BYTES,
    MULTIPLICATIVE,
    MdpConfig,
    MispricingParams,
    PoolParams,
    clamp_mispricing,
    compare_vs_twamm,
    exchange_at_price,
    jump,
    reward,
    simulate_policy,
    step_mispricing,
    twamm_value,
    value_iteration,
    _bracket,
    _gauss_hermite,
    _grids,
)


def small_pool():
    return PoolParams(1e5, 5000 * 1e5, 0.003, 0.003)


# The paper's grid: 101 x 101 states, 51 actions, 9 quadrature nodes.
PAPER_GRID = dict(n_inventory=101, n_mispricing=101, n_actions=51, quad_order=9)
# The paper's TWAMM comparison config, with `small_pool()`.
PAPER_TWAMM = dict(PAPER_GRID, horizon=100, inventory=100.0)


def small_cfg(**kw):
    base = dict(
        horizon=30,
        inventory=1000.0,
        gas=2.0,
        inventory_cost=0.1,
        discount=0.01,
        n_inventory=31,
        n_mispricing=31,
        n_actions=11,
        quad_order=5,
    )
    base.update(kw)
    return MdpConfig(**base)


class TestClamp:
    def test_interior(self):
        assert clamp_mispricing(0.0, 0.003, 0.003) == 0.0

    def test_upper(self):
        assert clamp_mispricing(0.005, 0.003, 0.003) == 0.003

    def test_lower(self):
        assert clamp_mispricing(-0.01, 0.003, 0.003) == -0.003


class TestJump:
    def test_zero_trade(self):
        assert jump(0.0, 1.0, 100.0) == 0.0

    def test_value(self):
        assert jump(10.0, 1.0, 100.0) == pytest.approx(-2 * math.log(1.1), abs=1e-15)

    def test_monotone(self):
        assert jump(20.0, 1.0, 100.0) < jump(10.0, 1.0, 100.0)

    @given(
        p=st.floats(1e-3, 1e5),
        liq=st.floats(1.0, 1e8),
        delta=st.floats(0.0, 1e5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reserve_update(self, p, liq, delta):
        # Independent route: move the implied reserves and re-derive the log
        # price move from the squared-liquidity identity.
        r_in = liq / math.sqrt(p)
        price_after = (liq / (r_in + delta)) ** 2
        price_before = (liq / r_in) ** 2
        assert jump(delta, p, liq) == pytest.approx(
            math.log(price_after / price_before), abs=1e-12
        )


class TestStepMispricing:
    def test_multiplicative_absorbing_at_zero(self):
        pool = small_pool()
        params = MispricingParams(0.1, 0.5, 1.0)
        for eps in (-2.0, 0.0, 3.0):
            assert step_mispricing(0.0, 0.0, eps, params, pool, MULTIPLICATIVE) == 0.0

    def test_additive_deterministic_noop(self):
        pool = small_pool()
        params = MispricingParams(0.0, 0.0, 1.0)
        assert step_mispricing(0.001, 0.0, 0.7, params, pool, ADDITIVE) == pytest.approx(0.001)

    def test_additive_plugin(self):
        pool = small_pool()
        params = MispricingParams(0.0, 0.003, 1.0)
        out = step_mispricing(0.0, 0.0, 1.0, params, pool, ADDITIVE)
        assert out == pytest.approx(0.0029955, abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            step_mispricing(0.0, 0.0, 0.0, MispricingParams(0, 1, 1), small_pool(), "jumpy")


class TestExchangeAtPrice:
    def test_zero(self):
        assert exchange_at_price(0.0, 1.0, 100.0) == 0.0

    def test_half_reserves(self):
        assert exchange_at_price(100.0, 1.0, 100.0) == pytest.approx(50.0)

    def test_small_trade_limit(self):
        for p in (0.5, 1.0, 4200.0):
            assert exchange_at_price(1e-9, p, 1e6) / 1e-9 == pytest.approx(p, rel=1e-6)


class TestReward:
    def test_all_zero(self):
        assert reward(0.0, 0.1, 0.0, small_cfg(), small_pool()) == 0.0

    def test_pegged_price_pays_costs_only(self):
        cfg, pool = small_cfg(), small_pool()
        assert reward(100.0, 0.0, 10.0, cfg, pool) == pytest.approx(
            -cfg.gas - cfg.inventory_cost * 100.0
        )

    def test_favorable_mispricing_pays(self):
        cfg, pool = small_cfg(), small_pool()
        r_fav = reward(100.0, -0.003, 10.0, cfg, pool)
        r_peg = reward(100.0, 0.0, 10.0, cfg, pool)
        assert r_fav > r_peg
        improvement = r_fav - r_peg
        assert improvement == pytest.approx(10 * 5000 * 0.003, rel=0.05)

    def test_overtrade_rejected(self):
        with pytest.raises(ValueError):
            reward(5.0, 0.0, 6.0, small_cfg(), small_pool())


class TestValueIteration:
    def test_zero_inventory_row(self):
        vf, pol = value_iteration(small_cfg(), small_pool(), MispricingParams(0, 1.0, 1))
        assert np.all(vf.values[:, 0, :] == 0.0)
        assert np.all(pol.action_index[:, 0, :] == 0)

    def test_prohibitive_gas_means_no_trading(self):
        cfg = small_cfg(gas=1e15, inventory_cost=0.0)
        vf, pol = value_iteration(cfg, small_pool(), MispricingParams(0, 1.0, 1))
        assert np.all(pol.action_index == 0)
        assert np.all(vf.values == 0.0)

    def test_value_largest_at_most_negative_mispricing(self):
        pool = PoolParams(1e4, 5000 * 1e4, 0.003, 0.003)
        cfg = small_cfg(horizon=40)
        vf, _ = value_iteration(cfg, pool, MispricingParams(0.0, 8.0, 1.0))
        v_row = vf.values[0, -1, :]
        tol = 1e-9 * max(1.0, np.abs(v_row).max())
        assert np.all(np.diff(v_row) <= tol)
        assert int(np.argmax(v_row)) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_config_refused(self, bad):
        for field in ("inventory", "gas", "inventory_cost", "discount"):
            with pytest.raises(ValueError, match="finite"):
                small_cfg(**{field: bad})
        with pytest.raises(ValueError, match="finite"):
            PoolParams(1e5, bad, 0.003, 0.003)
        with pytest.raises(ValueError, match="finite"):
            PoolParams(1e5, 5e8, 0.003, 0.003, external_price=bad)
        for args in ((bad, 1.0, 1.0), (0.0, bad, 1.0), (0.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                MispricingParams(*args)

    def test_refinement_stability(self):
        pool = small_pool()
        params = MispricingParams(0.0, 2.0, 1.0)
        coarse = small_cfg(horizon=25, n_mispricing=51)
        fine = small_cfg(horizon=25, n_mispricing=101)
        v0 = []
        for cfg in (coarse, fine):
            vf, _ = value_iteration(cfg, pool, params)
            zmid = np.argmin(np.abs(vf.mispricing_grid))
            v0.append(vf.values[0, -1, zmid])
        assert abs(v0[1] - v0[0]) < 0.02 * max(1.0, abs(v0[0]))


def reference_value_iteration(cfg, pool, params):
    """Per-block gather loop that `value_iteration` replaced, kept as the reference."""
    inv_grid, z_grid = _grids(cfg, pool)
    n_i, n_z, n_a = cfg.n_inventory, cfg.n_mispricing, cfg.n_actions
    eps, quad_w = _gauss_hermite(cfg.quad_order)
    fracs = np.linspace(0.0, 1.0, n_a)
    dz = z_grid[1] - z_grid[0]

    inv_lo = np.empty((n_a, n_i), dtype=np.int64)
    inv_w = np.empty((n_a, n_i))
    step_i = (inv_grid[1] - inv_grid[0]) or 1.0
    for k, frac in enumerate(fracs):
        nxt = inv_grid * (1.0 - frac)
        pos = np.clip(nxt / step_i, 0.0, n_i - 1 - 1e-12)
        inv_lo[k] = pos.astype(np.int64)
        inv_w[k] = 1.0 - (pos - inv_lo[k])

    z_lo = np.empty((n_a, n_i, n_z, len(eps)), dtype=np.int32)
    z_w = np.empty((n_a, n_i, n_z, len(eps)))
    rewards = np.empty((n_a, n_i, n_z))
    for k, frac in enumerate(fracs):
        delta = inv_grid * frac
        z_next = step_mispricing(
            z_grid[None, :, None], delta[:, None, None], eps[None, None, :], params, pool, cfg.dynamics
        )
        pos = np.clip((z_next - z_grid[0]) / dz, 0.0, n_z - 1 - 1e-12)
        z_lo[k] = pos.astype(np.int32)
        z_w[k] = 1.0 - (pos - z_lo[k])
        rewards[k] = reward(inv_grid[:, None], z_grid[None, :], delta[:, None], cfg, pool)

    values = np.zeros((cfg.horizon, n_i, n_z))
    actions = np.zeros((cfg.horizon, n_i, n_z), dtype=np.int16)
    v_next = np.zeros((n_i, n_z))
    rows = np.arange(n_i)[:, None, None]
    for t in range(cfg.horizon - 1, -1, -1):
        best_v = None
        best_k = None
        for k in range(n_a):
            v_at_inv = inv_w[k][:, None] * v_next[inv_lo[k]] + (1.0 - inv_w[k])[:, None] * v_next[
                np.minimum(inv_lo[k] + 1, n_i - 1)
            ]
            lo = z_lo[k]
            interp = v_at_inv[rows, lo] * z_w[k] + v_at_inv[rows, np.minimum(lo + 1, n_z - 1)] * (
                1.0 - z_w[k]
            )
            q = rewards[k] + cfg.discount * (interp @ quad_w)
            if best_v is None:
                best_v = q
                best_k = np.zeros((n_i, n_z), dtype=np.int16)
            else:
                better = q > best_v
                best_v = np.where(better, q, best_v)
                best_k = np.where(better, np.int16(k), best_k)
        values[t] = best_v
        actions[t] = best_k
        v_next = best_v
    return values, actions


def reference_operator_value_iteration(cfg, pool, params):
    """Per-action CSR operators that the one operator over all actions replaced.

    Each action builds its own (cells x cells) z-operator from that action's
    trade sizes, and each backup applies the 51 of them one by one. Kept as
    the bit-for-bit reference: the shared rows must sum the same entries in
    the same order.
    """
    from scipy import sparse

    inv_grid, z_grid = _grids(cfg, pool)
    n_i, n_z, n_a = cfg.n_inventory, cfg.n_mispricing, cfg.n_actions
    cells = n_i * n_z
    eps, quad_w = _gauss_hermite(cfg.quad_order)
    n_e = len(eps)
    fracs = np.linspace(0.0, 1.0, n_a)
    dz = z_grid[1] - z_grid[0]
    step_i = (inv_grid[1] - inv_grid[0]) or 1.0

    inv_lo = np.empty((n_a, n_i), dtype=np.int64)
    inv_w = np.empty((n_a, n_i, 1))
    ops = []
    rewards = np.empty((n_a, cells))
    block_start = (np.arange(n_i) * n_z)[:, None, None]
    indptr = np.arange(0, 2 * n_e * cells + 1, 2 * n_e)
    node_w = cfg.discount * quad_w
    for k, frac in enumerate(fracs):
        inv_lo[k], inv_w[k, :, 0] = _bracket(inv_grid * (1.0 - frac) / step_i, n_i)
        delta = inv_grid * frac
        z_next = step_mispricing(
            z_grid[None, :, None], delta[:, None, None], eps[None, None, :], params, pool, cfg.dynamics
        )
        lo, w = _bracket((z_next - z_grid[0]) / dz, n_z)
        cols = block_start + lo
        op = sparse.csr_matrix(
            (
                np.stack((node_w * w, node_w * (1.0 - w)), axis=-1).ravel(),
                np.stack((cols, cols + 1), axis=-1).ravel(),
                indptr,
            ),
            shape=(cells, cells),
        )
        op.sum_duplicates()
        ops.append(op)
        rewards[k] = reward(inv_grid[:, None], z_grid[None, :], delta[:, None], cfg, pool).ravel()
    inv_hi = inv_lo + 1
    inv_w_hi = 1.0 - inv_w

    values = np.zeros((cfg.horizon, n_i, n_z))
    actions = np.zeros((cfg.horizon, n_i, n_z), dtype=np.int16)
    q = np.empty((n_a, cells))
    cell = np.arange(cells)
    v_next = np.zeros((n_i, n_z))
    for t in range(cfg.horizon - 1, -1, -1):
        for k in range(n_a):
            v_at_inv = inv_w[k] * v_next[inv_lo[k]] + inv_w_hi[k] * v_next[inv_hi[k]]
            q[k] = ops[k] @ v_at_inv.ravel()
        q += rewards
        best = q.argmax(axis=0)
        actions[t] = best.reshape(n_i, n_z)
        values[t] = q[best, cell].reshape(n_i, n_z)
        if values[t].tobytes() == v_next.tobytes():
            values[:t] = values[t]
            actions[:t] = actions[t]
            break
        v_next = values[t]
    return values, actions


def skewed_pool():
    """A fee band of [-0.005, 0.02]: asymmetric, and wider above than below."""
    return PoolParams(1e5, 5000 * 1e5, 0.02, 0.005)


def _equivalence_cases():
    grid = dict(horizon=6, n_inventory=11, n_mispricing=13, n_actions=7, quad_order=5)
    pool = small_pool()
    for dynamics in (MULTIPLICATIVE, ADDITIVE):
        for volatility in (0.0, 0.5, 8.0):
            yield pytest.param(dict(grid, dynamics=dynamics), volatility, pool, id=f"{dynamics}-{volatility}")
        yield pytest.param(dict(grid, dynamics=dynamics), 0.5, skewed_pool(), id=f"{dynamics}-asymmetric-band")
    yield pytest.param(dict(grid, inventory=0.0), 0.5, pool, id="inventory=0")
    yield pytest.param(dict(grid, inventory=0.0, dynamics=ADDITIVE), 8.0, pool, id="additive-inventory=0")
    # Past 2**14 points, n - 1 - 1e-12 rounds to n - 1; the nodes reach
    # beyond the band, so positions clip there.
    yield pytest.param(
        dict(horizon=2, n_inventory=2, n_mispricing=20001, n_actions=3, quad_order=9, dynamics=ADDITIVE),
        0.5,
        pool,
        id="wide-z-grid",
    )


def assert_matches_reference(cfg, params, pool=None):
    """Solve with `value_iteration` and check every block against the reference loop."""
    pool = pool or small_pool()
    ref_values, ref_actions = reference_value_iteration(cfg, pool, params)
    vf, pol = value_iteration(cfg, pool, params)
    scale = max(1.0, np.abs(ref_values).max())
    assert np.all(np.abs(vf.values - ref_values) <= 1e-12 * np.maximum(np.abs(ref_values), scale))
    assert np.array_equal(pol.action_index, ref_actions)
    return vf


class TestBackupOperator:
    @pytest.mark.parametrize("overrides, volatility, pool", _equivalence_cases())
    def test_matches_reference_loop(self, overrides, volatility, pool):
        assert_matches_reference(small_cfg(**overrides), MispricingParams(0.0, volatility, 1.0), pool)

    # These grids reach the fixed point after 10 (multiplicative) and 3
    # (additive) backups, so a 30-block horizon stops early and a 2-block one
    # runs every backup; the reference loop runs every backup either way.
    @pytest.mark.parametrize("horizon", [30, 2])
    @pytest.mark.parametrize("dynamics", [MULTIPLICATIVE, ADDITIVE])
    def test_fixed_point_stop(self, horizon, dynamics):
        cfg = small_cfg(
            horizon=horizon, n_inventory=11, n_mispricing=13, n_actions=7, quad_order=5, dynamics=dynamics
        )
        vf = assert_matches_reference(cfg, MispricingParams(0.0, 8.0, 1.0))
        if horizon == 30:
            assert vf.backups < horizon
        else:
            assert vf.backups == horizon

    @pytest.mark.parametrize(
        "overrides, volatility, pool",
        [
            *_equivalence_cases(),
            # The benchmark's liquidation and TWAMM configs at three blocks.
            pytest.param(dict(PAPER_GRID, horizon=3), 8.0, small_pool(), id="bench-liquidation"),
            pytest.param(dict(PAPER_GRID, horizon=3, inventory=100.0), 0.0, small_pool(), id="bench-twamm"),
        ],
    )
    def test_bit_equal_to_per_action_operators(self, overrides, volatility, pool):
        cfg, params = small_cfg(**overrides), MispricingParams(0.0, volatility, 1.0)
        ref_values, ref_actions = reference_operator_value_iteration(cfg, pool, params)
        vf, pol = value_iteration(cfg, pool, params)
        assert vf.values.tobytes() == ref_values.tobytes()
        assert pol.action_index.tobytes() == ref_actions.tobytes()

    def test_rows_built_once_per_distinct_trade_size(self, monkeypatch):
        points = []

        def counted(z, trade_size, noise, *args):
            points.append(np.broadcast(z, trade_size, noise).size)
            return step_mispricing(z, trade_size, noise, *args)

        monkeypatch.setattr(liquidation, "step_mispricing", counted)
        value_iteration(small_cfg(horizon=1, **PAPER_GRID), small_pool(), MispricingParams(0.0, 8.0, 1.0))
        # The 51 x 101 (action, inventory) pairs trade 2305 distinct sizes; a
        # size's rows take 101 mispricings x 9 nodes.
        assert sum(points) == 2305 * 101 * 9

    def test_backup_is_two_sparse_products(self, monkeypatch):
        from scipy import sparse

        products = []
        matmul = sparse.csr_matrix.__matmul__

        def counted(self, other):
            products.append(self.shape)
            return matmul(self, other)

        monkeypatch.setattr(sparse.csr_matrix, "__matmul__", counted)
        vf, _ = value_iteration(small_cfg(horizon=3), small_pool(), MispricingParams(0.0, 8.0, 1.0))
        assert vf.backups == 3
        assert len(products) == 2 * vf.backups

    @pytest.mark.parametrize(
        "overrides, volatility, pool",
        [
            *(
                pytest.param(dict(PAPER_TWAMM, dynamics=d), s, small_pool(), id=f"{d}-{s}")
                for d in (MULTIPLICATIVE, ADDITIVE)
                for s in (0.0, 1.0, 8.0)
            ),
            pytest.param(
                dict(horizon=2, n_inventory=2, n_mispricing=20001, n_actions=3, quad_order=9, dynamics=ADDITIVE),
                0.5,
                small_pool(),
                id="wide-z-grid",
            ),
            # Selling nothing or everything: every nonzero trade size is
            # distinct, and a wide band leaves few duplicate columns to sum.
            pytest.param(
                dict(horizon=5, n_inventory=101, n_mispricing=101, n_actions=2, quad_order=9),
                0.3,
                PoolParams(1e5, 5000 * 1e5, 2.0, 2.0),
                id="distinct-sizes",
            ),
        ],
    )
    def test_memory_estimate_bounds_the_peak(self, overrides, volatility, pool):
        cfg, params = small_cfg(**overrides), MispricingParams(0.0, volatility, 1.0)
        # Warm up first, so that scipy's import is not traced.
        value_iteration(small_cfg(horizon=1, n_inventory=3, n_mispricing=3, n_actions=2), pool, params)
        tracemalloc.start()
        try:
            value_iteration(cfg, pool, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cfg.solve_bytes

    def test_memory_budget(self):
        small_cfg(horizon=200, n_inventory=101, n_mispricing=101, n_actions=51, quad_order=9)
        with pytest.raises(ValueError, match="budget"):
            small_cfg(n_mispricing=MAX_SOLVE_BYTES)
        with pytest.raises(ValueError, match="budget"):
            small_cfg(horizon=MAX_SOLVE_BYTES // (10 * 31 * 31) + 1)


class TestSimulation:
    def test_zero_policy_keeps_inventory_flat(self):
        cfg = small_cfg(gas=1e15, inventory_cost=0.0)
        pool = small_pool()
        params = MispricingParams(0, 1.0, 1)
        _, pol = value_iteration(cfg, pool, params)
        sim = simulate_policy(pol, cfg, pool, params, 5, seed=1)
        assert np.all(sim.inventory == cfg.inventory)
        assert np.all(sim.outputs == 0.0)

    def test_deterministic_when_noiseless(self):
        cfg = small_cfg(dynamics=ADDITIVE)
        pool = small_pool()
        params = MispricingParams(0.0, 0.0, 1.0)
        _, pol = value_iteration(cfg, pool, params)
        a = simulate_policy(pol, cfg, pool, params, 4, seed=3, z0=-0.002)
        b = simulate_policy(pol, cfg, pool, params, 4, seed=99, z0=-0.002)
        assert np.array_equal(a.inventory, b.inventory)
        assert np.array_equal(a.inventory[0], a.inventory[1])

    def test_inventory_monotone_nonnegative(self):
        cfg = small_cfg()
        pool = small_pool()
        params = MispricingParams(0.0, 4.0, 1.0)
        _, pol = value_iteration(cfg, pool, params)
        sim = simulate_policy(pol, cfg, pool, params, 20, seed=7, z0=-0.003)
        assert np.all(np.diff(sim.inventory, axis=1) <= 1e-12)
        assert np.all(sim.inventory >= 0.0)

    def test_seed_reproducibility(self):
        cfg = small_cfg()
        pool = small_pool()
        params = MispricingParams(0.0, 4.0, 1.0)
        _, pol = value_iteration(cfg, pool, params)
        a = simulate_policy(pol, cfg, pool, params, 8, seed=11, z0=-0.001)
        b = simulate_policy(pol, cfg, pool, params, 8, seed=11, z0=-0.001)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.rewards, b.rewards)


class TestTwamm:
    def test_constant_price_value(self):
        # No noise, no drift, flat start, and an effectively infinite pool.
        pool = PoolParams(1e15, 5000 * 1e15, 0.003, 0.003)
        cfg = small_cfg(horizon=20)
        params = MispricingParams(0.0, 0.0, 1.0)
        value = twamm_value(cfg, pool, params, 10, seed=0)
        assert value == pytest.approx(5000.0 * cfg.inventory - cfg.gas, rel=1e-9)

    def test_gas_shifts_value_exactly(self):
        pool = small_pool()
        params = MispricingParams(0.0, 3.0, 1.0)
        lo = twamm_value(small_cfg(gas=2.0), pool, params, 30, seed=5, z0=-0.001)
        hi = twamm_value(small_cfg(gas=2.5), pool, params, 30, seed=5, z0=-0.001)
        assert lo - hi == pytest.approx(0.5, abs=1e-9)

    def test_empty_order_still_pays_gas(self):
        cfg = small_cfg(inventory=0.0)
        value = twamm_value(cfg, small_pool(), MispricingParams(0, 1, 1), 10, seed=2)
        assert value == pytest.approx(-cfg.gas)


class TestCompareVsTwamm:
    def test_no_signal_no_edge(self):
        pool = small_pool()
        cfg = small_cfg(horizon=20)
        params = MispricingParams(0.0, 0.0, 1.0)
        [(sigma, mean, stderr)] = compare_vs_twamm([0.0], cfg, pool, params, 20, seed=4)
        assert sigma == 0.0
        assert mean <= 0.0 + 2 * stderr

    def test_bit_identical_rerun(self):
        pool = small_pool()
        cfg = small_cfg(horizon=15)
        params = MispricingParams(0.0, 1.0, 1.0)
        a = compare_vs_twamm([0.5, 2.0], cfg, pool, params, 12, seed=21, z0=-0.003)
        b = compare_vs_twamm([0.5, 2.0], cfg, pool, params, 12, seed=21, z0=-0.003)
        assert a == b

    def test_noise_drawn_once(self, monkeypatch):
        # Every volatility's policy simulation and uniform split read one
        # noise matrix: the one simulate_policy and twamm_value draw alone.
        draws = []
        original = liquidation._noise_matrix

        def counted(*args):
            draws.append(args)
            return original(*args)

        monkeypatch.setattr(liquidation, "_noise_matrix", counted)
        pool, cfg = small_pool(), small_cfg(horizon=15)
        params = MispricingParams(0.0, 1.0, 1.0)
        results = compare_vs_twamm([0.0, 0.5, 2.0], cfg, pool, params, 12, seed=21, z0=-0.003)
        assert draws == [(12, 15, 21)]
        for sigma, mean, _ in results:
            params = MispricingParams(0.0, sigma, 1.0)
            _, policy = value_iteration(cfg, pool, params)
            sim = simulate_policy(policy, cfg, pool, params, 12, seed=21, z0=-0.003)
            tw = twamm_value(cfg, pool, params, 12, seed=21, z0=-0.003)
            assert mean == pytest.approx(np.mean(sim.outputs) - tw, rel=0.0, abs=1e-9 * abs(tw))

    def test_negative_volatility_rejected(self):
        with pytest.raises(ValueError):
            compare_vs_twamm(
                [-1.0], small_cfg(), small_pool(), MispricingParams(0, 1, 1), 4, seed=0
            )


class TestFeeBand:
    """The mispricing grid is the fee band; off the band, only the clamp counts."""

    @pytest.mark.parametrize("pool", [small_pool(), skewed_pool()], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("volatility", [0.0, 1.0, 4.0, 8.0])
    @pytest.mark.parametrize("dynamics", [MULTIPLICATIVE, ADDITIVE])
    def test_grid_is_the_band(self, dynamics, volatility, pool):
        cfg = small_cfg(horizon=3, n_inventory=5, n_mispricing=21, n_actions=3, quad_order=3, dynamics=dynamics)
        vf, policy = value_iteration(cfg, pool, MispricingParams(0.0, volatility, 1.0))
        band = np.linspace(-pool.fee_bound_lower, pool.fee_bound_upper, cfg.n_mispricing)
        assert np.array_equal(vf.mispricing_grid, band)
        assert np.array_equal(policy.mispricing_grid, band)

    @pytest.mark.parametrize("pool", [small_pool(), skewed_pool()], ids=["symmetric", "asymmetric"])
    def test_reward_priced_at_the_clamp(self, pool):
        cfg = small_cfg()
        lower, upper = -pool.fee_bound_lower, pool.fee_bound_upper
        z = np.array([-1.0, lower - 1e-4, upper + 1e-4, 2.0])
        clamped = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
        assert np.array_equal(clamped, [lower, lower, upper, upper])
        for trade in (0.0, 10.0, cfg.inventory):
            off_band = reward(cfg.inventory, z, trade, cfg, pool)
            assert np.array_equal(off_band, reward(cfg.inventory, clamped, trade, cfg, pool))

    @pytest.mark.parametrize("dynamics", [MULTIPLICATIVE, ADDITIVE])
    def test_zero_width_band_solves(self, dynamics):
        pool = PoolParams(1e5, 5000 * 1e5, 0.0, 0.0)
        cfg = small_cfg(horizon=5, dynamics=dynamics)
        params = MispricingParams(0.0, 2.0, 1.0)
        vf, policy = value_iteration(cfg, pool, params)
        assert vf.mispricing_grid[0] == 0.0
        assert vf.mispricing_grid[-1] == 1e-12
        assert np.all(np.isfinite(vf.values))
        # Both grid ends clamp to the one point of the band.
        assert np.array_equal(vf.values[..., 0], vf.values[..., -1])
        sim = simulate_policy(policy, cfg, pool, params, 4, seed=1)
        assert np.all(np.isfinite(sim.outputs))

    @pytest.mark.parametrize("volatility", [2.0, 4.0, 6.0])
    def test_twamm_config_sells_out_and_beats_uniform_split(self, volatility):
        # The twamm config of scripts/reproduce.py, cut to 10 blocks.
        pool = PoolParams(1e5, 5000 * 1e5, 0.003, 0.003)
        cfg = MdpConfig(horizon=10, inventory=100.0, gas=2.0, inventory_cost=0.1, discount=0.01)
        params = MispricingParams(0.0, volatility, 1.0)
        _, policy = value_iteration(cfg, pool, params)
        sim = simulate_policy(policy, cfg, pool, params, 50, seed=11, z0=-0.003)
        assert np.all(sim.inventory[:, -1] == 0.0)
        [(_, mean, _)] = compare_vs_twamm([volatility], cfg, pool, params, 50, seed=11, z0=-0.003)
        assert mean > 0.0
