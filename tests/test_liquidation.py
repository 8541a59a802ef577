import dataclasses
import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hookroute import liquidation
from hookroute.cfmm import MAX_SOLVE_BYTES, FieldError
from hookroute.liquidation import (
    ADDITIVE,
    MULTIPLICATIVE,
    MdpConfig,
    MispricingParams,
    PoolParams,
    clamp_mispricing,
    compare_vs_twamm,
    draw_noise,
    exchange_at_price,
    jump,
    reward,
    simulate_policy,
    step_mispricing,
    value_iteration,
    _bracket,
    _gauss_hermite,
    _grids,
)


def small_pool():
    return PoolParams(1e5, 5000 * 1e5, 0.003, 0.003)


def overflowing_draw(params):
    """The draw past which one block's shock at trade size 0 exceeds ln of
    the largest float, so the next mispricing overflows. A refusal test on
    drawn noise asserts that its draws pass it, so that a change of the
    noise layout cannot disarm the test."""
    drift = (params.drift - params.volatility**2 / 2.0) * params.dt
    return (math.log(sys.float_info.max) - drift) / (params.volatility * math.sqrt(params.dt))


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
        pol = value_iteration(small_cfg(), small_pool(), MispricingParams(0, 1.0, 1))
        assert np.all(pol.values[:, 0, :] == 0.0)
        assert np.all(pol.action_index[:, 0, :] == 0)

    def test_prohibitive_gas_means_no_trading(self):
        cfg = small_cfg(gas=1e15, inventory_cost=0.0)
        pol = value_iteration(cfg, small_pool(), MispricingParams(0, 1.0, 1))
        assert np.all(pol.action_index == 0)
        assert np.all(pol.values == 0.0)

    def test_value_largest_at_most_negative_mispricing(self):
        pool = PoolParams(1e4, 5000 * 1e4, 0.003, 0.003)
        cfg = small_cfg(horizon=40)
        pol = value_iteration(cfg, pool, MispricingParams(0.0, 8.0, 1.0))
        v_row = pol.values[0, -1, :]
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
            pol = value_iteration(cfg, pool, params)
            zmid = np.argmin(np.abs(pol.mispricing_grid))
            v0.append(pol.values[0, -1, zmid])
        assert abs(v0[1] - v0[0]) < 0.02 * max(1.0, abs(v0[0]))


class TestBracket:
    @pytest.mark.parametrize("n", [2, 3, 101, 20001])
    def test_top_end_weighs_the_end_point_alone(self, n):
        lo, w = _bracket(np.array([n - 1.0, float(n), math.inf]), n)
        assert lo.dtype == np.int32
        assert lo.tolist() == [n - 2] * 3
        assert w.tolist() == [0.0] * 3

    @pytest.mark.parametrize("n", [2, 3, 101, 20001])
    def test_bottom_end_weighs_the_end_point_alone(self, n):
        lo, w = _bracket(np.array([0.0, -1.0, -math.inf]), n)
        assert lo.tolist() == [0] * 3
        assert w.tolist() == [1.0] * 3

    def test_interior_positions(self):
        lo, w = _bracket(np.array([0.25, 1.5, 2.0]), 4)
        assert lo.tolist() == [0, 1, 2]
        assert w.tolist() == [0.75, 0.5, 1.0]


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
        pos = np.clip(nxt / step_i, 0.0, n_i - 1)
        inv_lo[k] = np.minimum(pos.astype(np.int64), n_i - 2)
        inv_w[k] = 1.0 - (pos - inv_lo[k])

    z_lo = np.empty((n_a, n_i, n_z, len(eps)), dtype=np.int32)
    z_w = np.empty((n_a, n_i, n_z, len(eps)))
    rewards = np.empty((n_a, n_i, n_z))
    for k, frac in enumerate(fracs):
        delta = inv_grid * frac
        z_next = step_mispricing(
            z_grid[None, :, None], delta[:, None, None], eps[None, None, :], params, pool, cfg.dynamics
        )
        pos = np.clip((z_next - z_grid[0]) / dz, 0.0, n_z - 1)
        z_lo[k] = np.minimum(pos.astype(np.int32), n_z - 2)
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
    return values, actions, cfg.horizon - t


def force_workers(monkeypatch, n):
    """Solve on n workers, whatever CPUs this process may run on."""
    monkeypatch.setattr(liquidation, "_workers", lambda: n)


def operator_blocks(monkeypatch, cfg, pool, params):
    """The z-operator's row blocks, as the backups of a `value_iteration`
    solve multiply them: one per worker for each backup run."""
    from scipy import sparse

    blocks = []
    matmul = sparse.csr_matrix.__matmul__
    width = cfg.n_actions * cfg.n_inventory * cfg.n_mispricing

    def recorded(self, other):
        if self.shape[1] == width:
            blocks.append(self)
        return matmul(self, other)

    monkeypatch.setattr(sparse.csr_matrix, "__matmul__", recorded)
    value_iteration(cfg, pool, params)
    return blocks


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
    # A grid of 20001 points whose nodes reach beyond the band at both ends,
    # so that positions clip there.
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
    pol = value_iteration(cfg, pool, params)
    scale = max(1.0, np.abs(ref_values).max())
    assert np.all(np.abs(pol.values - ref_values) <= 1e-12 * np.maximum(np.abs(ref_values), scale))
    assert np.array_equal(pol.action_index, ref_actions)
    return pol


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
        pol = assert_matches_reference(cfg, MispricingParams(0.0, 8.0, 1.0))
        if horizon == 30:
            assert pol.backups < horizon
        else:
            assert pol.backups == horizon

    @pytest.mark.parametrize(
        "overrides, volatility, pool",
        [
            *_equivalence_cases(),
            # The benchmark's liquidation and TWAMM configs at three blocks.
            pytest.param(dict(PAPER_GRID, horizon=3), 8.0, small_pool(), id="bench-liquidation"),
            pytest.param(dict(PAPER_GRID, horizon=3, inventory=100.0), 0.0, small_pool(), id="bench-twamm"),
        ],
    )
    # Three workers split the inventory rows unevenly (11 = 3 + 4 + 4,
    # 101 = 33 + 34 + 34); every worker count must give the same bits.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_equal_to_per_action_operators(self, monkeypatch, workers, overrides, volatility, pool):
        cfg, params = small_cfg(**overrides), MispricingParams(0.0, volatility, 1.0)
        ref_values, ref_actions, ref_backups = reference_operator_value_iteration(cfg, pool, params)
        force_workers(monkeypatch, workers)
        pol = value_iteration(cfg, pool, params)
        assert pol.values.tobytes() == ref_values.tobytes()
        assert pol.action_index.tobytes() == ref_actions.tobytes()
        assert pol.backups == ref_backups

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        # Eight workers write disjoint row blocks of the same value and action
        # arrays while the interpreter switches threads every microsecond; a
        # lost or misplaced write would change the bits.
        cfg, params = small_cfg(n_inventory=17), MispricingParams(0.0, 8.0, 1.0)
        force_workers(monkeypatch, 1)
        ref = value_iteration(cfg, small_pool(), params)
        force_workers(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                pol = value_iteration(cfg, small_pool(), params)
                assert pol.values.tobytes() == ref.values.tobytes()
                assert pol.action_index.tobytes() == ref.action_index.tobytes()
                assert pol.backups == ref.backups
        finally:
            sys.setswitchinterval(interval)

    def test_rows_built_once_per_distinct_trade_size(self, monkeypatch):
        points = []

        def counted(z, trade_size, noise, *args):
            points.append(np.broadcast(z, trade_size, noise).size)
            return step_mispricing(z, trade_size, noise, *args)

        monkeypatch.setattr(liquidation, "step_mispricing", counted)
        value_iteration(small_cfg(horizon=1, **PAPER_GRID), small_pool(), MispricingParams(0.0, 8.0, 1.0))
        # The 51 x 101 (action, inventory) pairs trade 2305 distinct sizes; a
        # size's rows take 101 mispricings x 9 nodes. `check_transition` adds
        # its corners: 2 mispricings x 2 sizes x 2 nodes.
        assert sum(points) == 2305 * 101 * 9 + 2 * 2 * 2

    @pytest.mark.parametrize("workers", [1, 3])
    def test_backup_is_one_product_per_row_block(self, monkeypatch, workers):
        from scipy import sparse

        products = []
        matmul = sparse.csr_matrix.__matmul__

        def counted(self, other):
            products.append(self.shape)
            return matmul(self, other)

        monkeypatch.setattr(sparse.csr_matrix, "__matmul__", counted)
        force_workers(monkeypatch, workers)
        cfg = small_cfg(horizon=3)
        pol = value_iteration(cfg, small_pool(), MispricingParams(0.0, 8.0, 1.0))
        assert pol.backups == 3
        # Each backup: one inventory interpolation, then one product on each
        # row block, whose rows are whole inventory rows of the operator.
        n_i, n_z, n_a = cfg.n_inventory, cfg.n_mispricing, cfg.n_actions
        interp = (n_a * n_i, n_i)
        blocks = [rows for rows, cols in products if (rows, cols) != interp and cols == n_a * n_i * n_z]
        assert products.count(interp) == pol.backups
        assert len(blocks) == len(products) - pol.backups == workers * pol.backups
        assert all(rows % (n_z * n_a) == 0 for rows in blocks)
        assert sum(blocks) == pol.backups * n_a * n_i * n_z

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_operator_blocks_store_no_zero_and_int32_indices(self, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        # The benchmark's liquidation config, one block: nodes on a grid point
        # or clamped at either end leave exact-zero weights, which the
        # operator drops.
        cfg = small_cfg(horizon=1, **PAPER_GRID)
        blocks = operator_blocks(monkeypatch, cfg, small_pool(), MispricingParams(0.0, 8.0, 1.0))
        assert len(blocks) == workers
        for block in blocks:
            assert block.indices.dtype == block.indptr.dtype == np.int32
            assert block.has_canonical_format
            assert np.all(block.data != 0)
        assert sum(block.nnz for block in blocks) == 1_813_152

    @pytest.mark.parametrize("workers", [1, 2])
    def test_next_mispricing_above_the_band_reads_its_top_end(self, monkeypatch, workers):
        # Additive dynamics with drift 5: every node's next mispricing lies
        # above the band, so every row holds one entry, the discounted sum of
        # the node weights, on its block's top-end column.
        cfg = small_cfg(horizon=1, n_inventory=5, n_mispricing=7, n_actions=3, quad_order=5, dynamics=ADDITIVE)
        pool, params = small_pool(), MispricingParams(5.0, 1.0, 1.0)
        eps = _gauss_hermite(cfg.quad_order)[0]
        lowest = step_mispricing(-pool.fee_bound_lower, cfg.inventory, eps[0], params, pool, ADDITIVE)
        assert lowest > pool.fee_bound_upper
        force_workers(monkeypatch, workers)
        blocks = operator_blocks(monkeypatch, cfg, pool, params)
        assert len(blocks) == workers
        for block in blocks:
            assert np.array_equal(np.diff(block.indptr), np.ones(block.shape[0]))
            assert np.all(block.indices % cfg.n_mispricing == cfg.n_mispricing - 1)
            np.testing.assert_allclose(block.data, cfg.discount, rtol=1e-14)

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
    @pytest.mark.parametrize("workers", [1, 4])
    def test_memory_estimate_bounds_the_peak(self, monkeypatch, workers, overrides, volatility, pool):
        cfg, params = small_cfg(**overrides), MispricingParams(0.0, volatility, 1.0)
        force_workers(monkeypatch, workers)
        # Warm up first, so that scipy's import is not traced.
        value_iteration(small_cfg(horizon=1, n_inventory=3, n_mispricing=3, n_actions=2), pool, params)
        tracemalloc.start()
        try:
            value_iteration(cfg, pool, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cfg.solve_bytes

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_build_temporaries_within_their_charge(self, monkeypatch, workers):
        # The build's peak, less the rows it keeps (charged to the operator),
        # stays under the 128 * quad_order bytes per state that
        # `MdpConfig.solve_bytes` charges for the temporaries of the sizes in
        # flight. On the benchmark's config (2305 sizes) it reads 2-5 MB of
        # 11.8 MB; building every size in one piece reads 85 MB.
        import concurrent.futures

        cfg, params = small_cfg(horizon=1, **PAPER_GRID), MispricingParams(0.0, 8.0, 1.0)
        excess = []

        class TracedBuild(concurrent.futures.ThreadPoolExecutor):
            def map(self, fn, *iterables):
                # The first phase mapped is the build of the shared rows.
                if excess:
                    return super().map(fn, *iterables)
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                built = list(super().map(fn, *iterables))
                kept = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in built)
                excess.append(tracemalloc.get_traced_memory()[1] - start - kept)
                return built

        force_workers(monkeypatch, workers)
        # Warm up first, so that first-use imports fall outside the trace.
        value_iteration(small_cfg(horizon=1, n_inventory=3, n_mispricing=3, n_actions=2), small_pool(), params)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", TracedBuild)
        tracemalloc.start()
        try:
            value_iteration(cfg, small_pool(), params)
        finally:
            tracemalloc.stop()
        [build] = excess
        assert 0 < build <= 128 * cfg.quad_order * cfg.n_inventory * cfg.n_mispricing

    def test_memory_budget(self):
        small_cfg(horizon=200, n_inventory=101, n_mispricing=101, n_actions=51, quad_order=9)
        with pytest.raises(ValueError, match="budget"):
            small_cfg(n_mispricing=MAX_SOLVE_BYTES)
        with pytest.raises(ValueError, match="budget"):
            small_cfg(horizon=MAX_SOLVE_BYTES // (10 * 31 * 31) + 1)


@st.composite
def small_solves(draw):
    """A small solve: either dynamics, horizons 1-8, grids of 2-15 points,
    2-8 actions and 2-5 nodes, volatility up to 1, and fee bounds that may
    be zero, so bands that are zero-width or one-sided."""
    bound = st.sampled_from([0.0, 0.001, 0.003, 0.02])
    cfg = MdpConfig(
        horizon=draw(st.integers(1, 8)),
        inventory=draw(st.floats(0.0, 1e4)),
        gas=draw(st.floats(0.0, 10.0)),
        inventory_cost=draw(st.floats(0.0, 1.0)),
        discount=draw(st.floats(0.01, 1.0)),
        n_inventory=draw(st.integers(2, 15)),
        n_mispricing=draw(st.integers(2, 15)),
        n_actions=draw(st.integers(2, 8)),
        quad_order=draw(st.integers(2, 5)),
        dynamics=draw(st.sampled_from([MULTIPLICATIVE, ADDITIVE])),
    )
    pool = PoolParams(1e5, 5000 * 1e5, draw(bound), draw(bound))
    return cfg, pool, MispricingParams(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 1.0)), 1.0)


class TestValueIterationProperties:
    @given(small_solves())
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    def test_finite_and_matches_reference_at_any_worker_count(self, solve):
        cfg, pool, params = solve
        policies = []
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("error")
            ref_values, _ = reference_value_iteration(cfg, pool, params)
            for workers in (1, 2):
                force_workers(patch, workers)
                policies.append(value_iteration(cfg, pool, params))
        one, two = policies
        assert np.isfinite(one.values).all()
        scale = max(1.0, np.abs(ref_values).max())
        assert np.all(np.abs(one.values - ref_values) <= 1e-12 * np.maximum(np.abs(ref_values), scale))
        assert one.values.tobytes() == two.values.tobytes()
        assert one.action_index.tobytes() == two.action_index.tobytes()
        assert one.backups == two.backups


class TestSimulation:
    def test_zero_policy_keeps_inventory_flat(self):
        cfg = small_cfg(gas=1e15, inventory_cost=0.0)
        pool = small_pool()
        params = MispricingParams(0, 1.0, 1)
        pol = value_iteration(cfg, pool, params)
        sim = simulate_policy(pol, cfg, pool, params, draw_noise(5, cfg.horizon, 1))
        assert np.all(sim.inventory == cfg.inventory)
        assert np.all(sim.outputs == 0.0)

    def test_deterministic_when_noiseless(self):
        cfg = small_cfg(dynamics=ADDITIVE)
        pool = small_pool()
        params = MispricingParams(0.0, 0.0, 1.0)
        pol = value_iteration(cfg, pool, params)
        a = simulate_policy(pol, cfg, pool, params, draw_noise(4, cfg.horizon, 3), z0=-0.002)
        b = simulate_policy(pol, cfg, pool, params, draw_noise(4, cfg.horizon, 99), z0=-0.002)
        assert np.array_equal(a.inventory, b.inventory)
        assert np.array_equal(a.inventory[0], a.inventory[1])

    def test_inventory_monotone_nonnegative(self):
        cfg = small_cfg()
        pool = small_pool()
        params = MispricingParams(0.0, 4.0, 1.0)
        pol = value_iteration(cfg, pool, params)
        sim = simulate_policy(pol, cfg, pool, params, draw_noise(20, cfg.horizon, 7), z0=-0.003)
        assert np.all(np.diff(sim.inventory, axis=1) <= 1e-12)
        assert np.all(sim.inventory >= 0.0)

    def test_seed_reproducibility(self):
        cfg = small_cfg()
        pool = small_pool()
        params = MispricingParams(0.0, 4.0, 1.0)
        pol = value_iteration(cfg, pool, params)
        a = simulate_policy(pol, cfg, pool, params, draw_noise(8, cfg.horizon, 11), z0=-0.001)
        b = simulate_policy(pol, cfg, pool, params, draw_noise(8, cfg.horizon, 11), z0=-0.001)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.inventory, b.inventory)


class TestDrawNoise:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_rows_of_one_stream(self, seed):
        noise = draw_noise(5000, 20, seed)
        assert np.array_equal(noise, np.random.default_rng(seed).standard_normal((5000, 20)))
        # Rows fill in order, so a row does not depend on the path count.
        assert np.array_equal(draw_noise(500, 20, seed), noise[:500])
        assert np.array_equal(draw_noise(1, 20, seed), noise[:1])

    def test_drawn_in_bulk(self):
        best = math.inf
        for seed in range(5):
            start = time.perf_counter()
            draw_noise(5000, 20, seed)
            best = min(best, time.perf_counter() - start)
        assert best < 5e-3

    @pytest.mark.parametrize(
        "n_paths, seed, field",
        [(0, 0, "paths"), (MAX_SOLVE_BYTES, 0, "paths"), (3, -1, "seed"), (0, -1, "seed")],
    )
    def test_refused_before_drawing(self, n_paths, seed, field):
        with pytest.raises(FieldError) as refusal:
            draw_noise(n_paths, 5, seed)
        assert refusal.value.field == field

    @pytest.mark.parametrize("noise", [np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2), np.zeros((2, 2, 1))])
    def test_noise_of_another_width_refused(self, monkeypatch, noise):
        cfg = small_cfg(horizon=2, n_inventory=5, n_mispricing=5, n_actions=3, quad_order=3)
        params = MispricingParams(0.0, 1.0, 1.0)
        policy = value_iteration(cfg, small_pool(), params)
        with pytest.raises(ValueError, match="2 draws per path"):
            simulate_policy(policy, cfg, small_pool(), params, noise)
        monkeypatch.setattr(liquidation, "value_iteration", lambda *args: pytest.fail("a solve ran"))
        with pytest.raises(ValueError, match="2 draws per path"):
            compare_vs_twamm([0.0], cfg, small_pool(), params, noise)


def policy_value(policy, cfg, pool, params, eps, z0):
    """Per path, the DP's objective along `policy` on the noise `eps`: the
    discounted sum of `reward` over the blocks, block t selling `Policy.sale`."""
    n_paths = len(eps)
    inventory = np.full(n_paths, cfg.inventory)
    z = np.full(n_paths, float(z0))
    total = np.zeros(n_paths)
    for t in range(cfg.horizon):
        delta = policy.sale(t, inventory, z)
        total += cfg.discount**t * reward(inventory, z, delta, cfg, pool)
        inventory = inventory - delta
        z = step_mispricing(z, delta, eps[:, t], params, pool, cfg.dynamics)
    return total


# The battery's liquidation config with additive dynamics, volatility 0.002,
# discount 0.99 and carry 0.1 (z0 = 0): a case in which noise, time and the
# grid all matter, where the battery's own configs sell in block 0 or never.
NOISY_CFG = MdpConfig(
    horizon=200, inventory=1000.0, gas=2.0, inventory_cost=0.1, discount=0.99, dynamics=ADDITIVE, **PAPER_GRID
)
NOISY_PARAMS = MispricingParams(0.0, 0.002, 1.0)


class TestPolicyValue:
    """The DP's semantic gate: V0 matches a Monte Carlo of the DP's own
    objective along its own policy."""

    PATHS = 20000
    # V0 moves by 5.1 between 51 and 301 mispricing points (12417.51 to
    # 12412.41). Twice that covers the interpolated values of the DP against
    # the nearest-grid actions of the simulation.
    GRID_ALLOWANCE = 10.0

    @pytest.fixture(scope="class")
    def eps(self):
        return draw_noise(self.PATHS, NOISY_CFG.horizon, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_value_within_monte_carlo_error(self, monkeypatch, eps, workers):
        force_workers(monkeypatch, workers)
        pool = small_pool()
        policy = value_iteration(NOISY_CFG, pool, NOISY_PARAMS)
        assert policy.backups == NOISY_CFG.horizon
        # V0 at the whole inventory, linear in z between grid points.
        v0 = np.interp(0.0, policy.mispricing_grid, policy.values[0, -1])
        values = policy_value(policy, NOISY_CFG, pool, NOISY_PARAMS, eps, 0.0)
        stderr = np.std(values, ddof=1) / math.sqrt(self.PATHS)
        assert abs(v0 - np.mean(values)) <= 3 * stderr + self.GRID_ALLOWANCE

    def test_value_stable_under_refinement(self):
        # V0(1000, z = 0) is 12417.51 at 51 mispricing points and 12412.72
        # at 201, 3.9e-4 apart relative.
        pool = small_pool()
        v0 = []
        for n_mispricing in (51, 201):
            cfg = dataclasses.replace(NOISY_CFG, n_mispricing=n_mispricing)
            policy = value_iteration(cfg, pool, NOISY_PARAMS)
            v0.append(np.interp(0.0, policy.mispricing_grid, policy.values[0, -1]))
        assert abs(v0[1] - v0[0]) < 1e-3 * abs(v0[0])

    def test_sold_over_many_blocks(self):
        pool = small_pool()
        policy = value_iteration(NOISY_CFG, pool, NOISY_PARAMS)
        inventory = simulate_policy(policy, NOISY_CFG, pool, NOISY_PARAMS, draw_noise(200, NOISY_CFG.horizon, 3)).inventory
        # Neither sold whole in block 0 nor held whole to the horizon, and
        # the noise gives the paths different schedules.
        assert np.all(inventory[:, 1] > 0.0)
        assert np.all(inventory[:, -1] < NOISY_CFG.inventory)
        assert len(np.unique(inventory[:, 10])) > 1


def reference_linear_twamm(cfg, pool, params, eps, z0):
    """The TWAMM priced linearly: each slice at the clamped marginal price, no slippage.

    A reference that the curve-priced TWAMM approaches on a deep pool.
    """
    n_paths = len(eps)
    slice_size = cfg.inventory / cfg.horizon
    z = np.full(n_paths, float(z0))
    totals = np.zeros(n_paths)
    for t in range(cfg.horizon):
        z_star = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
        totals += pool.external_price * np.exp(-z_star) * slice_size
        z = step_mispricing(z, slice_size, eps[:, t], params, pool, cfg.dynamics)
    return totals - cfg.gas


def twamm_values(cfg, pool, params, eps, z0):
    """Per-path TWAMM output as `compare_vs_twamm` values it: the uniform split
    through the policy's simulator, no per-trade gas, gas paid once."""

    def uniform(t, inventory, z):
        return cfg.inventory / cfg.horizon

    return liquidation._simulate(uniform, 0.0, cfg, pool, params, eps, z0).outputs - cfg.gas


def twamm_mean(cfg, pool, params, eps, z0=0.0):
    """Mean TWAMM output on the noise `eps`."""
    return float(np.mean(twamm_values(cfg, pool, params, eps, z0)))


class TestTwamm:
    def test_constant_price_value(self):
        # No noise, no drift, flat start, and an effectively infinite pool.
        pool = PoolParams(1e15, 5000 * 1e15, 0.003, 0.003)
        cfg = small_cfg(horizon=20)
        params = MispricingParams(0.0, 0.0, 1.0)
        value = twamm_mean(cfg, pool, params, draw_noise(10, cfg.horizon, 0))
        assert value == pytest.approx(5000.0 * cfg.inventory - cfg.gas, rel=1e-9)

    def test_gas_shifts_value_exactly(self):
        pool = small_pool()
        params = MispricingParams(0.0, 3.0, 1.0)
        eps = draw_noise(30, small_cfg().horizon, 5)
        lo = twamm_mean(small_cfg(gas=2.0), pool, params, eps, z0=-0.001)
        hi = twamm_mean(small_cfg(gas=2.5), pool, params, eps, z0=-0.001)
        assert lo - hi == pytest.approx(0.5, abs=1e-9)

    def test_empty_order_still_pays_gas(self):
        cfg = small_cfg(inventory=0.0)
        value = twamm_mean(cfg, small_pool(), MispricingParams(0, 1, 1), draw_noise(10, cfg.horizon, 2))
        assert value == pytest.approx(-cfg.gas)

    @pytest.mark.parametrize("volatility", [0.0, 1.0, 8.0])
    def test_deep_pool_matches_linear_reference(self, volatility):
        # Reserves 10^6 times the paper's: the curve's slippage on a one-unit
        # slice is about 1e-11 of its output (1e-5 at the paper's reserves).
        pool = PoolParams(1e5 * 1e6, 5000 * 1e5 * 1e6, 0.003, 0.003)
        cfg = MdpConfig(**PAPER_TWAMM, gas=2.0, inventory_cost=0.1, discount=0.01)
        params = MispricingParams(0.0, volatility, 1.0)
        eps = draw_noise(50, cfg.horizon, 11)
        curve = twamm_values(cfg, pool, params, eps, -0.003)
        linear = reference_linear_twamm(cfg, pool, params, eps, -0.003)
        assert np.all(curve < linear)
        np.testing.assert_allclose(curve, linear, rtol=1e-9, atol=0.0)

    def test_zero_volatility_closed_form(self):
        # With no noise every path follows one deterministic mispricing path;
        # each slice is sold on the curve at its clamped price, gas paid once.
        pool = small_pool()
        cfg = MdpConfig(**PAPER_TWAMM, gas=2.0, inventory_cost=0.1, discount=0.01)
        params = MispricingParams(0.0, 0.0, 1.0)
        slice_size = cfg.inventory / cfg.horizon
        z, total = -0.003, 0.0
        for _ in range(cfg.horizon):
            z_star = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
            total += exchange_at_price(slice_size, pool.external_price * math.exp(-z_star), pool.liquidity)
            z = step_mispricing(z, slice_size, 0.0, params, pool)
        values = twamm_values(cfg, pool, params, draw_noise(20, cfg.horizon, 3), -0.003)
        np.testing.assert_allclose(values, total - cfg.gas, rtol=1e-12, atol=0.0)


# Four paths of `small_cfg()`'s horizon, for comparisons refused before they simulate.
SMALL_NOISE = draw_noise(4, small_cfg().horizon, 0)


class TestCompareVsTwamm:
    def test_no_signal_no_edge(self):
        pool = small_pool()
        cfg = small_cfg(horizon=20)
        params = MispricingParams(0.0, 0.0, 1.0)
        [(sigma, mean, stderr)] = compare_vs_twamm([0.0], cfg, pool, params, draw_noise(20, cfg.horizon, 4))
        assert sigma == 0.0
        assert mean <= 0.0 + 2 * stderr

    def test_bit_identical_rerun(self):
        pool = small_pool()
        cfg = small_cfg(horizon=15)
        params = MispricingParams(0.0, 1.0, 1.0)
        a = compare_vs_twamm([0.5, 2.0], cfg, pool, params, draw_noise(12, cfg.horizon, 21), z0=-0.003)
        b = compare_vs_twamm([0.5, 2.0], cfg, pool, params, draw_noise(12, cfg.horizon, 21), z0=-0.003)
        assert a == b

    def test_every_volatility_reads_the_one_noise_matrix(self):
        # Every volatility's policy simulation and uniform split run on the
        # noise passed in: the one simulate_policy and twamm_mean read alone.
        pool, cfg = small_pool(), small_cfg(horizon=15)
        params = MispricingParams(0.0, 1.0, 1.0)
        eps = draw_noise(12, cfg.horizon, 21)
        results = compare_vs_twamm([0.0, 0.5, 2.0], cfg, pool, params, eps, z0=-0.003)
        for sigma, mean, _ in results:
            params = MispricingParams(0.0, sigma, 1.0)
            policy = value_iteration(cfg, pool, params)
            sim = simulate_policy(policy, cfg, pool, params, eps, z0=-0.003)
            tw = twamm_mean(cfg, pool, params, eps, z0=-0.003)
            assert mean == pytest.approx(np.mean(sim.outputs) - tw, rel=0.0, abs=1e-9 * abs(tw))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_benchmark_twamm_check_holds(self, seed):
        # The benchmark's compare-twamm run (paper-liquidation): the twamm
        # config at 10 blocks, --grid 0:8:2, 500 paths. Its output check asks
        # for an excess of at most 2 stderr at sigma = 0 and a positive one at
        # sigma = 8.
        cfg = MdpConfig(horizon=10, inventory=100.0, gas=2.0, inventory_cost=0.1, discount=0.01)
        params = MispricingParams(0.0, 0.0, 1.0)
        [(_, mean0, stderr0), (_, mean8, _)] = compare_vs_twamm(
            [0.0, 8.0], cfg, small_pool(), params, draw_noise(500, cfg.horizon, seed), z0=-0.003
        )
        assert mean0 <= 2 * stderr0
        assert mean8 > 0.0

    def test_negative_volatility_rejected(self):
        with pytest.raises(ValueError):
            compare_vs_twamm([-1.0], small_cfg(), small_pool(), MispricingParams(0, 1, 1), SMALL_NOISE)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_every_volatility_checked_before_the_first_solve(self, monkeypatch, bad):
        solves = []
        monkeypatch.setattr(liquidation, "value_iteration", lambda *args: solves.append(args))
        with pytest.raises(ValueError, match="volatility"):
            compare_vs_twamm([1.0, bad], small_cfg(), small_pool(), MispricingParams(0, 1, 1), SMALL_NOISE)
        assert solves == []


    def test_swept_volatility_checked_before_the_first_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(liquidation, "value_iteration", lambda *args: solves.append(args))
        with pytest.raises(FieldError, match="next mispricing") as refusal:
            compare_vs_twamm([0.0, 1e200], small_cfg(), small_pool(), MispricingParams(0, 1, 1), SMALL_NOISE)
        assert refusal.value.field == "mispricing"
        assert solves == []

    def test_every_volatility_checked_on_the_drawn_noise(self, monkeypatch):
        # The outer quadrature nodes accept drift 705 at volatility 2, but
        # 200 paths of 12 blocks draw past them (see TestRefusals).
        solves = []
        monkeypatch.setattr(liquidation, "value_iteration", lambda *args: solves.append(args))
        cfg = small_cfg(horizon=12, inventory=100.0, n_inventory=15, n_mispricing=15, n_actions=6, quad_order=4)
        noise = draw_noise(200, cfg.horizon, 1)
        assert noise.max() > overflowing_draw(MispricingParams(705.0, 2.0, 1.0))
        with pytest.raises(FieldError, match="next mispricing") as refusal:
            compare_vs_twamm([2.0], cfg, small_pool(), MispricingParams(705.0, 1.0, 1.0), noise)
        assert refusal.value.field == "mispricing"
        assert solves == []


class TestFeeBand:
    """The mispricing grid is the fee band; off the band, only the clamp counts."""

    @pytest.mark.parametrize("pool", [small_pool(), skewed_pool()], ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("volatility", [0.0, 1.0, 4.0, 8.0])
    @pytest.mark.parametrize("dynamics", [MULTIPLICATIVE, ADDITIVE])
    def test_grid_is_the_band(self, dynamics, volatility, pool):
        cfg = small_cfg(horizon=3, n_inventory=5, n_mispricing=21, n_actions=3, quad_order=3, dynamics=dynamics)
        policy = value_iteration(cfg, pool, MispricingParams(0.0, volatility, 1.0))
        band = np.linspace(-pool.fee_bound_lower, pool.fee_bound_upper, cfg.n_mispricing)
        assert np.array_equal(policy.mispricing_grid, band)
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
        policy = value_iteration(cfg, pool, params)
        assert policy.mispricing_grid[0] == 0.0
        assert policy.mispricing_grid[-1] == 1e-12
        assert np.all(np.isfinite(policy.values))
        # Both grid ends clamp to the one point of the band.
        assert np.array_equal(policy.values[..., 0], policy.values[..., -1])
        sim = simulate_policy(policy, cfg, pool, params, draw_noise(4, cfg.horizon, 1))
        assert np.all(np.isfinite(sim.outputs))

    @pytest.mark.parametrize("volatility", [2.0, 4.0, 6.0])
    def test_twamm_config_sells_out_and_beats_uniform_split(self, volatility):
        # The twamm config of scripts/reproduce.py, cut to 10 blocks.
        pool = PoolParams(1e5, 5000 * 1e5, 0.003, 0.003)
        cfg = MdpConfig(horizon=10, inventory=100.0, gas=2.0, inventory_cost=0.1, discount=0.01)
        params = MispricingParams(0.0, volatility, 1.0)
        policy = value_iteration(cfg, pool, params)
        sim = simulate_policy(policy, cfg, pool, params, draw_noise(50, cfg.horizon, 11), z0=-0.003)
        assert np.all(sim.inventory[:, -1] == 0.0)
        [(_, mean, _)] = compare_vs_twamm([volatility], cfg, pool, params, draw_noise(50, cfg.horizon, 11), z0=-0.003)
        assert mean > 0.0


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: small_cfg(horizon=0), "horizon"),
            (lambda: small_cfg(inventory=-1.0), "inventory must be nonnegative"),
            (lambda: small_cfg(gas=-1.0), "gas and inventory cost"),
            (lambda: small_cfg(inventory_cost=-1.0), "gas and inventory cost"),
            (lambda: small_cfg(discount=0.0), "discount"),
            (lambda: small_cfg(discount=1.5), "discount"),
            (lambda: small_cfg(n_inventory=1), "at least two points"),
            (lambda: small_cfg(quad_order=1), "at least two points"),
            (lambda: small_cfg(dynamics="linear"), "dynamics"),
            (lambda: PoolParams(0.0, 1.0, 0.003, 0.003), "reserves must be positive"),
            (lambda: PoolParams(1.0, -1.0, 0.003, 0.003), "reserves must be positive"),
            (lambda: PoolParams(1.0, 1.0, -0.003, 0.003), "fee bounds"),
            (lambda: PoolParams(1.0, 1.0, 0.003, -0.003), "fee bounds"),
            (lambda: PoolParams(5e-324, 5e8, 0.003, 0.003), "finite and positive"),
            (lambda: PoolParams(1e5, 1e308, 0.003, 0.003), "finite and positive"),
            (lambda: PoolParams(1e5, 5e8, 1e9, 0.003), "finite and positive"),
            (lambda: PoolParams(1e5, 5e8, 0.003, 710.0), "finite and positive"),
            (lambda: MispricingParams(0.0, -1.0, 1.0), "volatility"),
            (lambda: MispricingParams(0.0, 1.0, 0.0), "dt must be positive"),
            (lambda: clamp_mispricing(0.0, -0.003, 0.003), "fee bounds"),
            (lambda: clamp_mispricing(0.0, 0.003, -0.003), "fee bounds"),
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "params, dynamics",
        [
            (MispricingParams(710.0, 1.0, 1.0), MULTIPLICATIVE),
            (MispricingParams(0.0, 1e308, 1.0), MULTIPLICATIVE),
            (MispricingParams(1e308, 0.0, 10.0), ADDITIVE),
        ],
    )
    def test_overflowing_transition_refused(self, params, dynamics):
        # Checked before value_iteration, which a non-finite next mispricing
        # once made index past its grid.
        cfg = small_cfg(horizon=2, n_inventory=5, n_mispricing=5, n_actions=3, quad_order=3, dynamics=dynamics)
        with pytest.raises(ValueError, match="next mispricing"):
            liquidation.check_transition(cfg, small_pool(), params)
        with pytest.raises(ValueError, match="next mispricing"):
            value_iteration(cfg, small_pool(), params)
        liquidation.check_transition(cfg, small_pool(), MispricingParams(700.0, 1.0, 1.0))

    def test_simulated_draws_checked_at_their_extremes(self):
        # At drift 705 and volatility 2 the largest shock, at trade size 0,
        # is 703 + 2 x the largest draw: 707.7 at the outer node (2.33 at 4
        # nodes), past ln of the largest float (709.78) beyond a draw of 3.39.
        cfg = small_cfg(horizon=12, inventory=100.0, n_inventory=15, n_mispricing=15, n_actions=6, quad_order=4)
        pool, params = small_pool(), MispricingParams(705.0, 2.0, 1.0)
        assert 3.3 < overflowing_draw(params) < 3.4
        policy = value_iteration(cfg, pool, params)
        liquidation.check_transition(cfg, pool, params, np.array([[-3.3, 3.3]]))
        with pytest.raises(FieldError, match="next mispricing") as refusal:
            liquidation.check_transition(cfg, pool, params, np.array([[-3.3, 3.4]]))
        assert refusal.value.field == "mispricing"
        many, few = draw_noise(200, cfg.horizon, 1), draw_noise(2, cfg.horizon, 1)
        assert few.max() < overflowing_draw(params) < many.max()
        with pytest.raises(FieldError, match="next mispricing"):
            simulate_policy(policy, cfg, pool, params, many, z0=0.0)
        assert np.isfinite(simulate_policy(policy, cfg, pool, params, few, z0=0.0).outputs).all()

    def test_next_mispricing_past_the_positions_float_range(self):
        # At drift 707.5 the next mispricing stays finite, but its grid
        # position (z - lo) / dz does not; the clip takes it to the grid's end.
        cfg = small_cfg(horizon=3, inventory=100.0, n_inventory=11, n_mispricing=11, n_actions=5, quad_order=3)
        policy = value_iteration(cfg, small_pool(), MispricingParams(707.5, 1.0, 1.0))
        assert np.isfinite(policy.values).all()

    @pytest.mark.parametrize("key, value", [("inventory", 1e308), ("inventory_cost", 1e308), ("gas", 1e200)])
    def test_overflowing_rewards_refused(self, key, value):
        # A gas of 1e200 keeps every value and path total finite, but once
        # overflowed the squares of compare_vs_twamm's standard error.
        grid = dict(horizon=2, n_inventory=5, n_mispricing=5, n_actions=3, quad_order=3)
        with pytest.raises(FieldError, match="path totals") as refusal:
            value_iteration(small_cfg(**grid, **{key: value}), small_pool(), MispricingParams(0.0, 1.0, 1.0))
        assert refusal.value.field == "mdp"
        cfg = small_cfg(**grid, gas=1e100, inventory=1e100)
        excess = compare_vs_twamm([0.0, 8.0], cfg, small_pool(), MispricingParams(0.0, 1.0, 1.0), draw_noise(20, cfg.horizon, 3))
        assert np.isfinite(excess).all()

    def test_policy_of_another_shape_refused(self):
        cfg = small_cfg(horizon=2, n_inventory=5, n_mispricing=5, n_actions=3, quad_order=3)
        params = MispricingParams(0.0, 1.0, 1.0)
        policy = value_iteration(cfg, small_pool(), params)
        other = small_cfg(horizon=3, n_inventory=5, n_mispricing=5, n_actions=3, quad_order=3)
        with pytest.raises(ValueError, match="policy shape"):
            simulate_policy(policy, other, small_pool(), params, draw_noise(2, other.horizon, 0))
