"""Timed liquidation against a mispricing signal, plus a TWAMM benchmark.

A user unwinds an inventory on a constant-product pool over a block horizon.
Arbitrageurs keep the log mispricing between the pool and an external market
clamped inside the fee band each block; trading moves it further through a
deterministic log price impact. The optimal trade schedule is the solution of
a finite-horizon dynamic program over (inventory, mispricing), solved by
backward induction with Gauss-Hermite quadrature over the noise and bilinear
interpolation on the grid. The benchmark splits the inventory uniformly over
the horizon for a single gas fee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
_MODES = (MULTIPLICATIVE, ADDITIVE)

# Memory budget of one `value_iteration` solve, checked by `MdpConfig` from
# the grid sizes before anything is allocated. The paper's 200-block config
# needs about 133 MB by the same estimate.
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
    z_bounds: tuple[float, float] | None = None

    def __post_init__(self):
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
        # Operator entries (8-byte value, 4-byte column) at their bound of two
        # per quadrature node, plus the stored values and int16 actions.
        cells = self.n_inventory * self.n_mispricing
        need = 12 * 2 * self.quad_order * self.n_actions * cells + 10 * self.horizon * cells
        if need > MAX_SOLVE_BYTES:
            raise ValueError(
                f"the solve would need about {need / 1e6:.0f} MB, over the "
                f"{MAX_SOLVE_BYTES / 1e6:.0f} MB budget; use fewer grid points, "
                "actions, quadrature nodes or blocks"
            )


@dataclass
class ValueFunction:
    values: np.ndarray  # (horizon, n_inventory, n_mispricing)
    inventory_grid: np.ndarray
    mispricing_grid: np.ndarray


@dataclass
class Policy:
    action_index: np.ndarray  # (horizon, n_inventory, n_mispricing), int16
    action_fractions: np.ndarray  # fraction of current inventory per index
    inventory_grid: np.ndarray
    mispricing_grid: np.ndarray


@dataclass
class SimResult:
    inventory: np.ndarray  # (n_paths, horizon + 1)
    rewards: np.ndarray  # (n_paths, horizon)
    outputs: np.ndarray  # (n_paths,) realized numeraire net of gas
    seed: int


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
    """Per-block reward: price-improvement of the trade minus gas and carry."""
    if np.any(trade_size > np.asarray(inventory) * (1 + 1e-12)):
        raise ValueError("trade size exceeds inventory")
    improvement = exchange_at_price(
        trade_size, pool.external_price * np.exp(-np.asarray(z, dtype=float)), pool.liquidity
    ) - exchange_at_price(trade_size, pool.external_price, pool.liquidity)
    return improvement - cfg.gas * (np.asarray(trade_size) > 0) - cfg.inventory_cost * np.asarray(inventory)


def _gauss_hermite(order):
    x, w = np.polynomial.hermite.hermgauss(order)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def required_z_bounds(cfg: MdpConfig, pool: PoolParams, params: MispricingParams):
    """Mispricing range reachable from the fee band in one block."""
    drift = (params.drift - params.volatility**2 / 2.0) * params.dt
    spread = 4.0 * params.volatility * math.sqrt(params.dt)
    if cfg.dynamics == MULTIPLICATIVE:
        # The transition scales the clamped value, so the band scales by the
        # largest one-block factor (trade impact only shrinks it).
        factor = max(1.0, math.exp(drift + spread))
        return -pool.fee_bound_lower * factor, pool.fee_bound_upper * factor
    worst_price = pool.external_price * math.exp(pool.fee_bound_lower)
    max_impact = -float(jump(cfg.inventory, worst_price, pool.liquidity))
    lo = -pool.fee_bound_lower - spread + min(0.0, drift) - max_impact
    hi = pool.fee_bound_upper + spread + max(0.0, drift)
    return lo, hi


def _grids(cfg, pool, params):
    lo, hi = required_z_bounds(cfg, pool, params)
    if cfg.z_bounds is not None:
        zlo, zhi = cfg.z_bounds
        if zlo > lo + 1e-15 or zhi < hi - 1e-15:
            raise ValueError(
                f"mispricing grid {cfg.z_bounds} does not cover the reachable "
                f"range; use at least ({lo!r}, {hi!r})"
            )
        lo, hi = zlo, zhi
    if hi <= lo:
        hi = lo + max(1e-12, abs(lo) * 1e-9, 1e-12)
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


def value_iteration(cfg: MdpConfig, pool: PoolParams, params: MispricingParams):
    """Backward induction over the (inventory, mispricing) grid.

    Actions are fractions of the current inventory; the expectation over the
    noise uses Gauss-Hermite quadrature with the next mispricing clamped to
    the grid ends, and the next state is looked up by bilinear interpolation.

    The interpolation does not depend on the block, so the mispricing half of
    each backup is built once: per action, a CSR operator that is
    block-diagonal over inventory and maps the values at the next inventory to
    the discounted expectation over the quadrature nodes, with the two
    z-neighbours of every node summed into one entry per grid column. It holds
    at most 2 * quad_order entries per state (about 2.3M on the paper's
    101 x 101 grid with 51 actions and 9 nodes, out of 9.4M before summing).
    A block then interpolates the next values in inventory for each action,
    applies that action's operator, adds the rewards and keeps the first best
    action. `MdpConfig` refuses grids whose solve would exceed
    `MAX_SOLVE_BYTES`.
    """
    from scipy import sparse

    inv_grid, z_grid = _grids(cfg, pool, params)
    n_i, n_z, n_a = cfg.n_inventory, cfg.n_mispricing, cfg.n_actions
    cells = n_i * n_z
    eps, quad_w = _gauss_hermite(cfg.quad_order)
    n_e = len(eps)
    fracs = np.linspace(0.0, 1.0, n_a)
    dz = z_grid[1] - z_grid[0]
    step_i = (inv_grid[1] - inv_grid[0]) or 1.0  # degenerate zero-inventory grid

    # Per action: the inventory bracket of (1 - frac) * I, the z-operator and
    # the rewards, all shared across blocks.
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
            z_grid[None, :, None],
            delta[:, None, None],
            eps[None, None, :],
            params,
            pool,
            cfg.dynamics,
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
        # argmax keeps the first of tied actions, the smallest trade.
        best = q.argmax(axis=0)
        actions[t] = best.reshape(n_i, n_z)
        values[t] = q[best, cell].reshape(n_i, n_z)
        v_next = values[t]

    vf = ValueFunction(values, inv_grid, z_grid)
    policy = Policy(actions, fracs, inv_grid, z_grid)
    return vf, policy


def _noise_matrix(n_paths, horizon, seed):
    # Path generators keyed by (seed, path index): reproducible regardless of
    # evaluation order, and shared across strategies for common random numbers.
    if n_paths < 1:
        raise ValueError("need at least one path")
    return np.stack(
        [np.random.default_rng([seed, p]).standard_normal(horizon) for p in range(n_paths)]
    )


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
    eps = _noise_matrix(n_paths, cfg.horizon, seed)
    inv_grid, z_grid = policy.inventory_grid, policy.mispricing_grid
    step_i = (inv_grid[1] - inv_grid[0]) or 1.0
    dz = z_grid[1] - z_grid[0]

    inventory = np.full(n_paths, cfg.inventory)
    z = np.full(n_paths, float(z0))
    inv_path = np.empty((n_paths, cfg.horizon + 1))
    reward_path = np.empty((n_paths, cfg.horizon))
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
        reward_path[:, t] = reward(inventory, z, delta, cfg, pool)
        inventory = inventory - delta
        z = step_mispricing(z, delta, eps[:, t], params, pool, cfg.dynamics)
        inv_path[:, t + 1] = inventory
    return SimResult(inv_path, reward_path, outputs, seed)


def _twamm_path_values(cfg, pool, params, n_paths, seed, z0):
    eps = _noise_matrix(n_paths, cfg.horizon, seed)
    slice_size = cfg.inventory / cfg.horizon
    z = np.full(n_paths, float(z0))
    totals = np.zeros(n_paths)
    for t in range(cfg.horizon):
        z_star = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
        totals += pool.external_price * np.exp(-z_star) * slice_size
        z = step_mispricing(z, slice_size, eps[:, t], params, pool, cfg.dynamics)
    return totals - cfg.gas


def twamm_value(
    cfg: MdpConfig,
    pool: PoolParams,
    params: MispricingParams,
    n_paths: int,
    seed: int,
    z0: float = 0.0,
) -> float:
    """Expected output of splitting the inventory uniformly for one gas fee."""
    return float(np.mean(_twamm_path_values(cfg, pool, params, n_paths, seed, z0)))


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

    Uses common random numbers: both strategies see identical noise paths per
    volatility. Returns (sigma, mean excess, standard error) triples.
    """
    results = []
    for sigma in sigma_grid:
        if sigma < 0:
            raise ValueError("volatility must be nonnegative")
        params_s = MispricingParams(params.drift, float(sigma), params.dt)
        _, policy = value_iteration(cfg, pool, params_s)
        sim = simulate_policy(policy, cfg, pool, params_s, n_paths, seed, z0)
        tw = _twamm_path_values(cfg, pool, params_s, n_paths, seed, z0)
        excess = sim.outputs - tw
        stderr = float(np.std(excess, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        results.append((float(sigma), float(np.mean(excess)), stderr))
    return results
