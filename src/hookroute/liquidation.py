"""Timed liquidation against a mispricing signal, plus a TWAMM benchmark.

A user unwinds an inventory on a constant-product pool over a block horizon.
Each block, arbitrageurs first clamp the log mispricing between the pool and
an external market into the fee band; the user then trades at the clamped
price; noise and the trade's deterministic log price impact then move the
mispricing to the next block's value. The optimal trade schedule is the
solution of a finite-horizon dynamic program over (inventory, mispricing),
solved by backward induction with Gauss-Hermite quadrature over the noise and
bilinear interpolation on a grid that spans the fee band. The benchmark splits
the inventory uniformly over the horizon for a single gas fee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cfmm import check_finite

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
_MODES = (MULTIPLICATIVE, ADDITIVE)

# Memory budget of one `value_iteration` solve, checked by `MdpConfig` from
# the grid sizes before anything is allocated. The paper's 200-block config
# needs about 274 MB by the same estimate. `check_paths` holds a simulation's
# path arrays to the same budget.
MAX_SOLVE_BYTES = 10**9


@dataclass(frozen=True)
class PoolParams:
    """Constant-product pool: reserves of the sold and received asset, fee band."""

    reserve_in: float
    reserve_out: float
    fee_bound_upper: float
    fee_bound_lower: float
    external_price: float | None = None

    def __post_init__(self):
        check_finite(
            reserve_in=self.reserve_in,
            reserve_out=self.reserve_out,
            fee_bound_upper=self.fee_bound_upper,
            fee_bound_lower=self.fee_bound_lower,
            external_price=self.external_price,
        )
        if self.reserve_in <= 0 or self.reserve_out <= 0:
            raise ValueError("reserves must be positive")
        if self.fee_bound_upper < 0 or self.fee_bound_lower < 0:
            raise ValueError("fee bounds must be nonnegative")
        if self.external_price is None:
            object.__setattr__(self, "external_price", self.reserve_out / self.reserve_in)
        elif self.external_price <= 0:
            raise ValueError("external price must be positive")

    @property
    def liquidity(self) -> float:
        return math.sqrt(self.reserve_in * self.reserve_out)


@dataclass(frozen=True)
class MispricingParams:
    drift: float
    volatility: float
    dt: float

    def __post_init__(self):
        check_finite(drift=self.drift, volatility=self.volatility, dt=self.dt)
        if self.volatility < 0:
            raise ValueError("volatility must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class MdpConfig:
    horizon: int
    inventory: float
    gas: float
    inventory_cost: float
    discount: float
    n_inventory: int = 101
    n_mispricing: int = 101
    n_actions: int = 51
    quad_order: int = 9
    dynamics: str = MULTIPLICATIVE

    def __post_init__(self):
        check_finite(
            inventory=self.inventory,
            gas=self.gas,
            inventory_cost=self.inventory_cost,
            discount=self.discount,
        )
        if self.horizon < 1:
            raise ValueError("horizon must be at least one block")
        if self.inventory < 0:
            raise ValueError("inventory must be nonnegative")
        if self.gas < 0 or self.inventory_cost < 0:
            raise ValueError("gas and inventory cost must be nonnegative")
        if not 0 < self.discount <= 1:
            raise ValueError("discount must lie in (0, 1]")
        if min(self.n_inventory, self.n_mispricing, self.n_actions, self.quad_order) < 2:
            raise ValueError("grids need at least two points")
        if self.dynamics not in _MODES:
            raise ValueError(f"dynamics must be one of {_MODES}")
        need = self.solve_bytes
        if need > MAX_SOLVE_BYTES:
            raise ValueError(
                f"the solve would need about {need / 1e6:.0f} MB, over the "
                f"{MAX_SOLVE_BYTES / 1e6:.0f} MB budget; use fewer grid points, "
                "actions, quadrature nodes or blocks"
            )

    @property
    def solve_bytes(self) -> int:
        """An upper bound on the peak bytes of `value_iteration`, from the grid sizes.

        Per (action, state) row: at most two operator entries per quadrature
        node (8-byte value, 4-byte column), counted twice because the build
        holds the shared rows, never more entries, next to the operator; and
        32 bytes for the gather's row index and index pointers, the rewards
        and a backup's arrays. Per (state, node): 128 bytes of one build
        chunk's temporaries. Per (block, state): a stored value and an int16
        action.
        """
        q, cells = self.quad_order, self.n_inventory * self.n_mispricing
        return cells * ((48 * q + 32) * self.n_actions + 128 * q + 10 * self.horizon)


@dataclass
class ValueFunction:
    values: np.ndarray  # (horizon, n_inventory, n_mispricing)
    inventory_grid: np.ndarray
    mispricing_grid: np.ndarray
    # Bellman backups run; blocks 0 .. horizon - backups all equal the block
    # horizon - backups (see `value_iteration`).
    backups: int


@dataclass
class Policy:
    action_index: np.ndarray  # (horizon, n_inventory, n_mispricing), int16
    action_fractions: np.ndarray  # fraction of current inventory per index
    inventory_grid: np.ndarray
    mispricing_grid: np.ndarray


@dataclass
class SimResult:
    inventory: np.ndarray  # (n_paths, horizon + 1)
    outputs: np.ndarray  # (n_paths,) realized numeraire net of gas


def clamp_mispricing(z: float, upper: float, lower: float):
    """Post-arbitrage mispricing: clipped to the no-trade fee band."""
    if upper < 0 or lower < 0:
        raise ValueError("fee bounds must be nonnegative")
    return np.clip(z, -lower, upper)


def jump(trade_size, price, liquidity):
    """Log price impact of selling `trade_size` into a constant-product pool."""
    return -2.0 * np.log1p(trade_size * np.sqrt(price) / liquidity)


def step_mispricing(z, trade_size, noise, params: MispricingParams, pool: PoolParams, mode: str = MULTIPLICATIVE):
    """One-block transition of the mispricing after arbitrage and a trade."""
    zc = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
    pool_price = pool.external_price * np.exp(-zc)
    shock = (
        (params.drift - params.volatility**2 / 2.0) * params.dt
        + params.volatility * math.sqrt(params.dt) * noise
        + jump(trade_size, pool_price, pool.liquidity)
    )
    if mode == MULTIPLICATIVE:
        return zc * np.exp(shock)
    if mode == ADDITIVE:
        return zc + shock
    raise ValueError(f"unknown dynamics mode {mode!r}")


def exchange_at_price(trade_size, price, liquidity):
    """Constant-product output for a trade at a given instantaneous price.

    Reserves are implied by the price and the pool's liquidity; no fee is
    charged here (fees act only through the mispricing band). Evaluated as
    r_out * trade / (r_in + trade), the cancellation-free form of
    r_out - liquidity^2 / (r_in + trade).
    """
    r_in = liquidity / np.sqrt(price)
    r_out = liquidity * np.sqrt(price)
    return r_out * trade_size / (r_in + trade_size)


def reward(inventory, z, trade_size, cfg: MdpConfig, pool: PoolParams):
    """Per-block reward: price-improvement of the trade minus gas and carry.

    Arbitrage clamps z into the fee band first, so the trade is priced at the
    clamped mispricing; noise and impact move z only after it.
    """
    if np.any(trade_size > np.asarray(inventory) * (1 + 1e-12)):
        raise ValueError("trade size exceeds inventory")
    zc = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
    improvement = exchange_at_price(
        trade_size, pool.external_price * np.exp(-zc), pool.liquidity
    ) - exchange_at_price(trade_size, pool.external_price, pool.liquidity)
    return improvement - cfg.gas * (np.asarray(trade_size) > 0) - cfg.inventory_cost * np.asarray(inventory)


def _gauss_hermite(order):
    x, w = np.polynomial.hermite.hermgauss(order)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def _grids(cfg, pool):
    """Inventory grid, and the mispricing grid spanning the fee band.

    A block first clamps the mispricing into the band, then trades at the
    clamped price, then moves by noise and impact. Reward, transition, value
    and action thus depend on z only through the clamp, so values off the band
    equal those at its nearer end, which is where `_bracket` puts them. A
    zero-width band is widened by 1e-12 to give the grid a step.
    """
    lo, hi = -pool.fee_bound_lower, pool.fee_bound_upper
    if hi == lo:
        hi = lo + 1e-12
    inv = np.linspace(0.0, cfg.inventory, cfg.n_inventory)
    z = np.linspace(lo, hi, cfg.n_mispricing)
    return inv, z


def _bracket(pos, n):
    """Lower grid neighbour and its weight for fractional grid positions.

    Positions are clipped to [0, n - 1) so that the upper neighbour lo + 1 is
    always on the grid. The clip bound is the float just below n - 1 where
    n - 1 - 1e-12 would round back up to n - 1 (grids past 2**14 points).
    """
    pos = np.clip(pos, 0.0, min(n - 1 - 1e-12, np.nextafter(n - 1, 0)))
    lo = pos.astype(np.int64)
    return lo, 1.0 - (pos - lo)


def _two_point_rows(lo, w_lo, w_hi, shape):
    """CSR matrix weighting the grid neighbours lo and lo + 1 of each point.

    `lo`, `w_lo` and `w_hi` hold one entry per point, and the points fill the
    rows in order, the same number to each row.
    """
    from scipy import sparse

    return sparse.csr_matrix(
        (
            np.stack((w_lo, w_hi), axis=-1).ravel(),
            np.stack((lo, lo + 1), axis=-1).ravel(),
            np.arange(0, 2 * lo.size + 1, 2 * lo.size // shape[0]),
        ),
        shape=shape,
    )


def value_iteration(cfg: MdpConfig, pool: PoolParams, params: MispricingParams):
    """Backward induction over the (inventory, mispricing) grid.

    Actions are fractions of the current inventory; the expectation over the
    noise uses Gauss-Hermite quadrature with the next mispricing clamped to
    the fee band, the grid's ends, and the next state is looked up by
    bilinear interpolation.

    Nothing but the values depends on the block, so a backup's two linear
    maps are built once, each as one CSR matrix over all actions. The first
    interpolates the next values in inventory: a row per (action, inventory)
    pair, with the two bracket weights of (1 - frac) * I. The second is
    block-diagonal, an n_z-row block per pair; it maps the pair's
    interpolated values to the discounted expectation over the quadrature
    nodes, with the two z-neighbours of every node summed into one entry per
    grid column. Such a row depends on z and the trade size frac * I alone,
    so the rows of each distinct size are built once and gathered into every
    pair that trades it, in (inventory, mispricing, action) order, so that
    each state's actions are adjacent: 2305 sizes for the 5151 pairs of the paper's
    101 x 101 grid with 51 actions and 9 nodes, whose operator holds about
    2.3M entries (at most 2 * quad_order per row, 9.4M before summing). A
    backup is then two sparse products, the rewards added, and the first
    best action of each state kept. `MdpConfig` refuses grids whose solve would exceed
    `MAX_SOLVE_BYTES`; its estimate bounds the peak, reached while the
    gather holds the shared rows next to the operator.

    Backward induction stops at its fixed point. A backup is a function of
    the next block's values alone, so once a block's values equal the next
    block's byte for byte (`-0.0` and `0.0` differ), every earlier block
    repeats that block's values and actions exactly: they are copied and no
    further backup runs. `ValueFunction.backups` counts the backups run. The
    stop is exact only while nothing in a backup depends on the block index
    t; a time-varying reward, discount or operator must drop it.
    """
    from scipy import sparse

    inv_grid, z_grid = _grids(cfg, pool)
    n_i, n_z, n_a = cfg.n_inventory, cfg.n_mispricing, cfg.n_actions
    cells = n_i * n_z
    eps, quad_w = _gauss_hermite(cfg.quad_order)
    fracs = np.linspace(0.0, 1.0, n_a)
    dz = z_grid[1] - z_grid[0]
    step_i = (inv_grid[1] - inv_grid[0]) or 1.0  # degenerate zero-inventory grid
    node_w = cfg.discount * quad_w

    # A row of the z-operator depends on z and the trade size alone: build the
    # n_z rows of each distinct size once, n_i sizes at a time. Sizes match
    # as floats, so a shared row is exactly the row its pairs would build.
    delta = inv_grid * fracs[:, None]
    sizes, which = np.unique(delta, return_inverse=True)
    chunks = []
    for start in range(0, len(sizes), n_i):
        size = sizes[start : start + n_i]
        z_next = step_mispricing(
            z_grid[None, :, None], size[:, None, None], eps[None, None, :], params, pool, cfg.dynamics
        )
        lo, w = _bracket((z_next - z_grid[0]) / dz, n_z)
        chunk = _two_point_rows(lo, node_w * w, node_w * (1.0 - w), (len(size) * n_z, n_z))
        chunk.sum_duplicates()
        chunks.append(chunk)
    shared = sparse.vstack(chunks, format="csr")
    del chunks
    # Gather the row of each (inventory, mispricing, action), then shift its
    # columns to its (action, inventory) block's slot of the interpolated
    # values. A per-row constant shift keeps every row sorted and free of
    # duplicates. The chunks and the shared rows are dropped as soon as they
    # are copied: `MdpConfig.solve_bytes` counts no more than the shared rows
    # next to the operator.
    op = shared[(which.reshape(n_a, n_i).T[:, None, :] * n_z + np.arange(n_z)[:, None]).ravel()]
    del shared
    slot = (np.arange(n_i, dtype=np.int32)[:, None, None] + n_i * np.arange(n_a, dtype=np.int32)) * n_z
    op.indices += np.repeat(np.broadcast_to(slot, (n_i, n_z, n_a)).ravel(), np.diff(op.indptr))
    op = sparse.csr_matrix((op.data, op.indices, op.indptr), shape=(n_a * cells, n_a * cells))

    # Inventory interpolation: row (action, inventory) brackets (1 - frac) * I.
    inv_lo, inv_w = _bracket(inv_grid * (1.0 - fracs[:, None]) / step_i, n_i)
    interp = _two_point_rows(inv_lo, inv_w, 1.0 - inv_w, (n_a * n_i, n_i))
    rewards = reward(inv_grid[:, None], z_grid, delta[:, :, None], cfg, pool).transpose(1, 2, 0).reshape(cells, n_a)

    values = np.zeros((cfg.horizon, n_i, n_z))
    actions = np.zeros((cfg.horizon, n_i, n_z), dtype=np.int16)
    cell = np.arange(cells)
    v_next = np.zeros((n_i, n_z))
    for t in range(cfg.horizon - 1, -1, -1):
        q = (op @ (interp @ v_next).ravel()).reshape(cells, n_a)
        q += rewards
        # argmax keeps the first of tied actions, the smallest trade.
        best = q.argmax(axis=1)
        actions[t] = best.reshape(n_i, n_z)
        values[t] = q[cell, best].reshape(n_i, n_z)
        if values[t].tobytes() == v_next.tobytes():
            values[:t] = values[t]
            actions[:t] = actions[t]
            break
        v_next = values[t]

    vf = ValueFunction(values, inv_grid, z_grid, backups=cfg.horizon - t)
    policy = Policy(actions, fracs, inv_grid, z_grid)
    return vf, policy


def check_paths(n_paths, horizon):
    """Refuse a path count whose simulation arrays would pass `MAX_SOLVE_BYTES`.

    A simulation, or a TWAMM comparison, holds two float arrays of
    n_paths x (horizon + 1): the noise, which a comparison draws once for
    all its volatilities, and the policy's inventory path. The bound counts
    three, leaving one array of headroom.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    need = 3 * 8 * n_paths * (horizon + 1)
    if need > MAX_SOLVE_BYTES:
        raise ValueError(
            f"{n_paths} paths of {horizon} blocks would need about {need / 1e6:.0f} MB, "
            f"over the {MAX_SOLVE_BYTES / 1e6:.0f} MB budget; use fewer paths"
        )


def _noise_matrix(n_paths, horizon, seed):
    # Path generators keyed by (seed, path index): reproducible regardless of
    # evaluation order, and shared across strategies for common random numbers.
    check_paths(n_paths, horizon)
    eps = np.empty((n_paths, horizon))
    for p in range(n_paths):
        eps[p] = np.random.default_rng([seed, p]).standard_normal(horizon)
    return eps


def simulate_policy(
    policy: Policy,
    cfg: MdpConfig,
    pool: PoolParams,
    params: MispricingParams,
    n_paths: int,
    seed: int,
    z0: float = 0.0,
) -> SimResult:
    """Monte Carlo of the stored policy: nearest-grid action, inventory-capped."""
    if policy.action_index.shape != (cfg.horizon, cfg.n_inventory, cfg.n_mispricing):
        raise ValueError("policy shape does not match the configuration")
    return _simulate(policy, cfg, pool, params, _noise_matrix(n_paths, cfg.horizon, seed), z0)


def _simulate(policy, cfg, pool, params, eps, z0):
    """`simulate_policy` on a drawn noise matrix, one row per path."""
    n_paths = len(eps)
    inv_grid, z_grid = policy.inventory_grid, policy.mispricing_grid
    step_i = (inv_grid[1] - inv_grid[0]) or 1.0
    dz = z_grid[1] - z_grid[0]

    inventory = np.full(n_paths, cfg.inventory)
    z = np.full(n_paths, float(z0))
    inv_path = np.empty((n_paths, cfg.horizon + 1))
    outputs = np.zeros(n_paths)
    inv_path[:, 0] = inventory
    for t in range(cfg.horizon):
        i_idx = np.clip(np.rint(inventory / step_i), 0, cfg.n_inventory - 1).astype(np.int64)
        z_idx = np.clip(np.rint((z - z_grid[0]) / dz), 0, cfg.n_mispricing - 1).astype(np.int64)
        frac = policy.action_fractions[policy.action_index[t, i_idx, z_idx]]
        delta = frac * inventory
        z_star = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
        trading = delta > 0
        outputs += np.where(
            trading,
            exchange_at_price(delta, pool.external_price * np.exp(-z_star), pool.liquidity)
            - cfg.gas,
            0.0,
        )
        inventory = inventory - delta
        z = step_mispricing(z, delta, eps[:, t], params, pool, cfg.dynamics)
        inv_path[:, t + 1] = inventory
    return SimResult(inv_path, outputs)


def _twamm_path_values(cfg, pool, params, eps, z0):
    n_paths = len(eps)
    slice_size = cfg.inventory / cfg.horizon
    z = np.full(n_paths, float(z0))
    totals = np.zeros(n_paths)
    for t in range(cfg.horizon):
        z_star = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
        totals += pool.external_price * np.exp(-z_star) * slice_size
        z = step_mispricing(z, slice_size, eps[:, t], params, pool, cfg.dynamics)
    return totals - cfg.gas


def compare_vs_twamm(
    sigma_grid,
    cfg: MdpConfig,
    pool: PoolParams,
    params: MispricingParams,
    n_paths: int,
    seed: int,
    z0: float = 0.0,
):
    """Mean excess output of the optimal schedule over the uniform split.

    Uses common random numbers: both strategies, at every volatility, see
    the same noise paths, drawn once. Returns (sigma, mean excess, standard
    error) triples.
    """
    eps = _noise_matrix(n_paths, cfg.horizon, seed)
    results = []
    for sigma in sigma_grid:
        if sigma < 0:
            raise ValueError("volatility must be nonnegative")
        params_s = MispricingParams(params.drift, float(sigma), params.dt)
        _, policy = value_iteration(cfg, pool, params_s)
        sim = _simulate(policy, cfg, pool, params_s, eps, z0)
        tw = _twamm_path_values(cfg, pool, params_s, eps, z0)
        excess = sim.outputs - tw
        stderr = float(np.std(excess, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        results.append((float(sigma), float(np.mean(excess)), stderr))
    return results
