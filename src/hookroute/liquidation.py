"""Timed liquidation against a mispricing signal, plus a TWAMM benchmark.

A user unwinds an inventory on a constant-product pool over a block horizon.
Each block, arbitrageurs first clamp the log mispricing between the pool and
an external market into the fee band; the user then trades at the clamped
price; noise and the trade's deterministic log price impact then move the
mispricing to the next block's value. The optimal trade schedule is the
solution of a finite-horizon dynamic program over (inventory, mispricing),
solved by backward induction with Gauss-Hermite quadrature over the noise and
bilinear interpolation on a grid that spans the fee band. The benchmark is a
TWAMM: it splits the inventory uniformly over the horizon and pays gas once.
One simulator values both schedules, and every sale, the TWAMM's slices too,
pays the pool's curve at the clamped price.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .cfmm import MAX_SOLVE_BYTES, FieldError, check_budget, check_finite

_SPARSE_LOCK = threading.Lock()

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
_MODES = (MULTIPLICATIVE, ADDITIVE)


@dataclass(frozen=True)
class PoolParams:
    """Constant-product pool: reserves of the sold and received asset, fee band."""

    reserve_in: float
    reserve_out: float
    fee_bound_upper: float
    fee_bound_lower: float

    def __post_init__(self):
        check_finite(
            reserve_in=self.reserve_in,
            reserve_out=self.reserve_out,
            fee_bound_upper=self.fee_bound_upper,
            fee_bound_lower=self.fee_bound_lower,
        )
        if self.reserve_in <= 0 or self.reserve_out <= 0:
            raise ValueError("reserves must be positive")
        if self.fee_bound_upper < 0 or self.fee_bound_lower < 0:
            raise ValueError("fee bounds must be nonnegative")
        with np.errstate(all="ignore"):
            edges = self.external_price * np.exp([-self.fee_bound_upper, self.fee_bound_lower])
        derived = (self.external_price, self.liquidity, *edges.tolist())
        if not all(0 < x < math.inf for x in derived):
            raise ValueError(
                "the external price, the liquidity and the pool price at each edge "
                f"of the fee band must be finite and positive, got {derived}"
            )

    @property
    def external_price(self) -> float:
        """The price the reserves imply, which arbitrage holds the pool to."""
        return self.reserve_out / self.reserve_in

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
        check_budget(self.solve_bytes, "the solve", "grid points, actions, quadrature nodes or blocks")

    @property
    def solve_bytes(self) -> int:
        """An upper bound on the peak bytes of `value_iteration`, from the grid sizes.

        Per (action, state) row: at most two operator entries per quadrature
        node (8-byte value, 4-byte column), counted twice because the build
        holds the shared rows, never more entries, next to the operator's row
        blocks; and 32 bytes for the gather's row index and index pointers,
        the rewards and a backup's arrays. Per (state, node): 128 bytes of
        build temporaries, since the workers together build at most
        n_inventory * n_mispricing rows at a time. Per (block, state): a stored
        value and an int16 action. No term depends on the number of workers,
        so a grid is accepted or refused alike on any CPU count.
        """
        q, cells = self.quad_order, self.n_inventory * self.n_mispricing
        return cells * ((48 * q + 32) * self.n_actions + 128 * q + 10 * self.horizon)


@dataclass
class Policy:
    """A solve's result: each block's value and best action at every grid state."""

    values: np.ndarray  # (horizon, n_inventory, n_mispricing)
    action_index: np.ndarray  # same shape, int16
    action_fractions: np.ndarray  # fraction of current inventory per index
    inventory_grid: np.ndarray
    mispricing_grid: np.ndarray
    # Bellman backups run; blocks 0 .. horizon - backups all equal the block
    # horizon - backups (see `value_iteration`).
    backups: int
    # The z-operator's stored entries, and the (state, action) pairs that the
    # value bounds dropped before it was built (see `value_iteration`).
    operator_entries: int
    eliminated_pairs: int

    def sale(self, t, inventory, z):
        """Block t's sale from `inventory` at mispricing `z`: the action of the
        nearest grid state. A `z` off the grid takes its nearer end, clipped
        before the division so that a far-off one cannot overflow."""
        inv_grid, z_grid = self.inventory_grid, self.mispricing_grid
        step_i = (inv_grid[1] - inv_grid[0]) or 1.0
        i_idx = np.clip(np.rint(inventory / step_i), 0, len(inv_grid) - 1).astype(np.int64)
        z_pos = (np.clip(z, z_grid[0], z_grid[-1]) - z_grid[0]) / (z_grid[1] - z_grid[0])
        z_idx = np.clip(np.rint(z_pos), 0, len(z_grid) - 1).astype(np.int64)
        return self.action_fractions[self.action_index[t, i_idx, z_idx]] * inventory


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


def check_transition(cfg: MdpConfig, pool: PoolParams, params: MispricingParams, noise=None):
    """Raise a `FieldError` unless every number that a solve, a simulation
    or a TWAMM comparison computes stays finite, checked at the solve's
    corners.

    The next mispricing is monotone in the mispricing, the trade size and
    the noise, so the corners of the grid, trade sizes 0 and `inventory` and
    the outer quadrature nodes bound every node; a non-finite one would
    index past the grid when `_bracket` casts it (`mispricing`). A
    simulation steps with the standard normal draws `noise`, which may lie
    past those nodes: the least and the greatest of them are checked too. A
    block's reward, or a simulated block's output net of gas, is at most the
    largest sale's output, of `inventory` at the band's highest price, plus
    gas and carry. A value or a path sums `horizon` of them, and
    `compare_vs_twamm` sums the excesses and their squared spreads over the
    paths, fewer than `MAX_SOLVE_BYTES` since each holds more than a byte of
    that budget (`mdp`).
    """
    z_ends = _grids(cfg, pool)[1][[0, -1], None, None]
    nodes = _gauss_hermite(cfg.quad_order)[0][[0, -1]]
    if noise is not None:
        nodes = np.append(nodes, [noise.min(), noise.max()])
    with np.errstate(all="ignore"):
        try:
            z_next = step_mispricing(z_ends, np.array([[0.0], [cfg.inventory]]), nodes, params, pool, cfg.dynamics)
        except OverflowError:  # the volatility's square
            z_next = np.array(math.nan)
        sale = exchange_at_price(cfg.inventory, pool.external_price * np.exp(-z_ends[0, 0, 0]), pool.liquidity)
        spread = 4 * cfg.horizon * (sale + cfg.gas + cfg.inventory_cost * cfg.inventory)
        squares = spread * spread * MAX_SOLVE_BYTES
    if not np.isfinite(z_next).all():
        raise FieldError("the next mispricing overflows at these drift, volatility, dt and pool values", "mispricing")
    if not np.isfinite(squares):
        raise FieldError("rewards or path totals overflow at these inventory, gas, inventory cost and pool values", "mdp")


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
    return np.linspace(0.0, cfg.inventory, cfg.n_inventory), np.linspace(lo, hi, cfg.n_mispricing)


def _bracket(pos, n):
    """Lower grid neighbour and its weight for fractional grid positions.

    Positions are clipped to [0, n - 1] and `lo` is capped at n - 2, so that
    the upper neighbour lo + 1 is always on the grid. A position at or past
    either end thus puts weight exactly 1 on the end point and exactly 0 on
    its neighbour: the value at the grid's nearer end. `lo` is int32, the
    index type of the CSR matrices built from it.
    """
    pos = np.clip(pos, 0.0, n - 1)
    lo = np.minimum(pos.astype(np.int32), n - 2)
    return lo, 1.0 - (pos - lo)


def _sparse():
    """`scipy.sparse`, imported without running numpy's f2py, testing and ma.

    scipy's array-API layer copies every public name of numpy, which makes
    numpy import these three submodules (about 90 ms of a 130 ms import on a
    2-vCPU host); neither scipy.sparse nor this module uses them. Each one
    not yet imported is registered first as a lazy module, in `sys.modules`
    and as numpy's attribute as a real import leaves it (without the
    attribute, numpy's `__getattr__` re-enters itself), and runs on its first
    attribute access. A module already imported is left as it is. The lock
    makes concurrent first calls register one module each; `value_iteration`
    calls this before its workers start, since before Python 3.12 a lazy
    module is not safe to load from two threads at once.
    """
    with _SPARSE_LOCK:
        for name in ("f2py", "testing", "ma"):
            full = "numpy." + name
            if full not in sys.modules:
                spec = importlib.util.find_spec(full)
                spec.loader = importlib.util.LazyLoader(spec.loader)
                module = importlib.util.module_from_spec(spec)
                sys.modules[full] = module
                setattr(np, name, module)
                spec.loader.exec_module(module)
        from scipy import sparse
    return sparse


def _two_point_rows(lo, w, scale, shape):
    """CSR matrix weighting the grid neighbours lo and lo + 1 of each point
    by scale * w and scale * (1 - w).

    `lo` (int32) and `w` hold one entry per point, `scale` broadcasts
    against them, and the points fill the rows in order, the same number to
    each row. The weights and columns are written interleaved straight into
    the matrix's arrays, which scipy then takes as they are.
    """
    sparse = _sparse()
    data = np.empty(w.shape + (2,))
    np.multiply(scale, w, out=data[..., 0])
    np.subtract(1.0, w, out=data[..., 1])
    data[..., 1] *= scale
    indices = np.empty(lo.shape + (2,), dtype=np.int32)
    indices[..., 0] = lo
    np.add(lo, 1, out=indices[..., 1])
    indptr = np.arange(0, 2 * lo.size + 1, 2 * lo.size // shape[0], dtype=np.int32)
    return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=shape)


def _workers():
    """The CPUs this process may run on: a solve runs one worker on each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spans(n, parts):
    """`parts` contiguous (start, stop) spans of range(n), sizes differing by at most one."""
    return [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def _value_bounds(rewards, cfg: MdpConfig):
    """Bounds (low, high) on every block's values, from the rewards alone.

    `rewards` holds one row of action rewards per state. With m the least
    over states of a state's best reward, M the largest reward and S the sum
    of discount**k over k < horizon, every block's values lie in
    [min(0, m) * S, max(0, M) * S]: by induction from the zero values past
    the horizon, since a backup adds a reward to the discounted expectation
    of the next values, a convex combination of them (the quadrature weights
    sum to 1 and the bilinear weights are convex). S is computed without
    cancellation, so it holds to a few ulps at a discount near 1.
    """
    beta, horizon = cfg.discount, cfg.horizon
    total = horizon if beta == 1 else math.expm1(horizon * math.log(beta)) / (beta - 1)
    return min(0.0, rewards.max(axis=1).min()) * total, max(0.0, rewards.max()) * total


def value_iteration(cfg: MdpConfig, pool: PoolParams, params: MispricingParams):
    """Backward induction over the (inventory, mispricing) grid.

    Actions are fractions of the current inventory; the expectation over the
    noise uses Gauss-Hermite quadrature with the next mispricing clamped to
    the fee band, the grid's ends, and the next state is looked up by
    bilinear interpolation. Both interpolations read a point at or past
    either end of their grid at that end exactly (`_bracket`).

    Pairs that cannot win are dropped before anything is built. Every
    block's values lie in the bounds [low, high] of `_value_bounds`, so a
    (state, action) pair's q is at most its reward plus discount * high, and
    the q of the state's best-reward action at least that reward plus
    discount * low. A pair whose upper end falls short of that lower end,
    less a slack of 1e-9 times the largest |reward| and |bound| for float
    rounding, is beaten by that action in every block. It gets reward -inf
    and an empty operator row, so its q is -inf in every backup and no
    argmax, value or fixed-point stop changes: the elimination is exact, and
    where nothing is dropped (a discount near 1) the solve is the one
    without it. At the paper configs' discount of 0.01 it drops about 83% of
    the pairs: the benchmark's config (below) keeps 88,847 of 520,251, and
    reads 43,989 of the 232,805 (size, z) rows that its pairs trade.

    Nothing but the values depends on the block, so a backup's two linear
    maps are built once. The first interpolates the next values in
    inventory, one CSR matrix over all actions: a row per (action,
    inventory) pair, with the two bracket weights of (1 - frac) * I. The
    second is block-diagonal, an n_z-row block per pair; it maps the pair's
    interpolated values to the discounted expectation over the quadrature
    nodes, with the two z-neighbours of every node summed into one entry per
    grid column. Such a row depends on z and the trade size frac * I alone,
    so each (size, z) row that a kept pair reads is built once and gathered
    into every kept pair that reads it, in (inventory, mispricing, action)
    order, so that each state's actions are adjacent: the paper's 101 x 101
    grid with 51 actions and 9 nodes trades 2305 sizes over its 5151
    (action, inventory) pairs. A row is written straight into CSR arrays
    with int32 indices; its duplicate columns are summed and its exact-zero
    weights dropped. A node on a grid point, or clamped to either end of the
    grid, puts zero weight on one of its two neighbours, and with finite
    values a zero product changes no sum. On the benchmark's config (that
    grid, volatility 8, 20 blocks) the operator holds 302,987 entries.
    Without the elimination it would hold 1,813,152: 2,328,252 before the
    zeros are dropped, 9.4M before summing, at most 2 * quad_order per row.
    `Policy.operator_entries` and `Policy.eliminated_pairs` record both
    counts.

    The work runs on one pool thread per CPU the process may use, each
    phase mapped over contiguous spans (numpy's and scipy's kernels release
    the GIL). The workers build the rows in pieces, at most n_inventory *
    n_mispricing rows in flight between them, and each gathers one
    contiguous block of inventory rows of the second map into its own CSR
    matrix. A backup is then one interpolation product, and on each row
    block one sparse product, the rewards added, and the first best action
    of each state kept. Every row is computed by the same operations on the
    same inputs at any worker count, so values, actions and `backups` do not
    depend on it. `MdpConfig` refuses grids whose solve would exceed
    `cfmm.MAX_SOLVE_BYTES`; its estimate bounds the peak at any worker
    count, reached while the gather holds the shared rows next to the
    operator.

    Backward induction stops at its fixed point. A backup is a function of
    the next block's values alone, so once a block's values equal the next
    block's byte for byte (`-0.0` and `0.0` differ), every earlier block
    repeats that block's values and actions exactly: they are copied and no
    further backup runs. `Policy.backups` counts the backups run. The
    stop is exact only while nothing in a backup depends on the block index
    t; a time-varying reward, discount or operator must drop it, and so must
    the value bounds, which assume one reward for every block.
    """
    from concurrent.futures import ThreadPoolExecutor

    check_transition(cfg, pool, params)
    sparse = _sparse()
    inv_grid, z_grid = _grids(cfg, pool)
    n_i, n_z, n_a = cfg.n_inventory, cfg.n_mispricing, cfg.n_actions
    cells = n_i * n_z
    eps, quad_w = _gauss_hermite(cfg.quad_order)
    fracs = np.linspace(0.0, 1.0, n_a)
    dz = z_grid[1] - z_grid[0]
    step_i = (inv_grid[1] - inv_grid[0]) or 1.0  # degenerate zero-inventory grid
    node_w = cfg.discount * quad_w
    workers = min(_workers(), n_i)

    # Drop the pairs that the value bounds prove suboptimal. The best action
    # of each state passes the test, whatever the rounding, so every state
    # keeps one.
    delta = inv_grid * fracs[:, None]
    rewards = reward(inv_grid[:, None], z_grid, delta[:, :, None], cfg, pool).transpose(1, 2, 0).reshape(cells, n_a)
    low, high = _value_bounds(rewards, cfg)
    slack = 1e-9 * (np.abs(rewards).max() + abs(low) + abs(high))
    kept = rewards + cfg.discount * high >= (rewards.max(axis=1) + cfg.discount * low - slack)[:, None]
    rewards[~kept] = -np.inf

    # A row of the z-operator depends on z and the trade size alone. Key each
    # pair by its (size, z) row; sizes match as floats, so a shared row is
    # exactly the row its pairs would build. Only the rows that kept pairs
    # read are built (`needed`), and `rows` points each pair at its built
    # row; a dropped pair takes the key past them all, which points at an
    # empty row appended after the built ones. The rows are built in pieces
    # of at most (n_i // workers) * n_z, so that the workers keep no more
    # than n_i * n_z rows' temporaries alive at once, as
    # `MdpConfig.solve_bytes` counts.
    sizes, which = np.unique(delta, return_inverse=True)
    keys = which.reshape(n_a, n_i).T[:, None, :] * n_z + np.arange(n_z)[:, None]
    keys = np.where(kept.reshape(n_i, n_z, n_a), keys, len(sizes) * n_z)
    read = np.zeros(len(sizes) * n_z + 1, dtype=bool)
    read[keys] = True
    needed = np.flatnonzero(read[:-1])
    rows = (np.cumsum(read, dtype=np.int32) - 1)[keys]
    del keys, read
    pieces = _spans(len(needed), math.ceil(len(needed) / (n_i // workers * n_z)))

    def build(piece):
        key = needed[slice(*piece)]
        z_next = step_mispricing(z_grid[key % n_z, None], sizes[key // n_z, None], eps, params, pool, cfg.dynamics)
        # A finite next mispricing far past the grid may put its position
        # past the float range; `_bracket` clips the infinity to the grid's end.
        with np.errstate(over="ignore"):
            pos = (z_next - z_grid[0]) / dz
        lo, w = _bracket(pos, n_z)
        built = _two_point_rows(lo, w, node_w, (len(key), n_z))
        built.sum_duplicates()
        built.eliminate_zeros()
        return built

    # Gather the row of each (inventory, mispricing, action) into its row
    # block, then, once the shared rows are dropped, shift its columns to its
    # (action, inventory) block's slot of the interpolated values. A per-row
    # constant shift keeps every row sorted and free of duplicates.
    # `MdpConfig.solve_bytes` counts no more than the shared rows next to the
    # operator.
    slot = (np.arange(n_i, dtype=np.int32)[:, None, None] + n_i * np.arange(n_a, dtype=np.int32)) * n_z
    blocks = _spans(n_i, workers)

    def gather(block):
        return shared[rows[slice(*block)].ravel()]

    def shift(block, op):
        i0, i1 = block
        op.indices += np.repeat(np.broadcast_to(slot[i0:i1], (i1 - i0, n_z, n_a)).ravel(), np.diff(op.indptr))
        return sparse.csr_matrix((op.data, op.indices, op.indptr), shape=(op.shape[0], n_a * cells))

    def backup(block, op):
        i0, i1 = block
        q = (op @ x).reshape(-1, n_a)
        q += rewards[i0 * n_z : i1 * n_z]
        # argmax keeps the first of tied actions, the smallest trade.
        best = q.argmax(axis=1)
        actions[t, i0:i1] = best.reshape(-1, n_z)
        values[t, i0:i1] = np.take_along_axis(q, best[:, None], 1).reshape(-1, n_z)

    with ThreadPoolExecutor(workers) as executor:
        shared = sparse.vstack([*executor.map(build, pieces), sparse.csr_matrix((1, n_z))], format="csr")
        ops = list(executor.map(gather, blocks))
        del shared, rows
        ops = list(executor.map(shift, blocks, ops))

        # Inventory interpolation: row (action, inventory) brackets (1 - frac) * I.
        inv_lo, inv_w = _bracket(inv_grid * (1.0 - fracs[:, None]) / step_i, n_i)
        interp = _two_point_rows(inv_lo, inv_w, 1.0, (n_a * n_i, n_i))

        values = np.zeros((cfg.horizon, n_i, n_z))
        actions = np.zeros((cfg.horizon, n_i, n_z), dtype=np.int16)
        v_next = np.zeros((n_i, n_z))
        for t in range(cfg.horizon - 1, -1, -1):
            x = (interp @ v_next).ravel()
            list(executor.map(backup, blocks, ops))
            if values[t].tobytes() == v_next.tobytes():
                values[:t] = values[t]
                actions[:t] = actions[t]
                break
            v_next = values[t]

    return Policy(
        values,
        actions,
        fracs,
        inv_grid,
        z_grid,
        backups=cfg.horizon - t,
        operator_entries=sum(op.nnz for op in ops),
        eliminated_pairs=int(kept.size - np.count_nonzero(kept)),
    )


def check_paths(n_paths, horizon):
    """Refuse a path count whose simulation arrays would pass `cfmm.MAX_SOLVE_BYTES`.

    A simulation, or a TWAMM comparison, holds two float arrays of
    n_paths x (horizon + 1): the noise (`draw_noise`), which every schedule
    and volatility of a run reads, and the inventory path of the schedule
    being simulated. The bound counts three, leaving one array of
    headroom.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    check_budget(3 * 8 * n_paths * (horizon + 1), f"{n_paths} paths of {horizon} blocks", "paths")


def draw_noise(n_paths, horizon, seed):
    """The standard normal draws of a Monte Carlo run: one row of `horizon`
    blocks per path, all from one generator seeded by `seed`. Row p is the
    p-th row of that one stream, so the first k rows of an n-path draw equal
    the k-path draw. Every schedule and volatility simulated on one matrix
    sees common random numbers.

    A negative seed is refused naming `seed`, and a path count that
    `check_paths` refuses naming `paths`, before anything is drawn.
    """
    if seed < 0:
        raise FieldError(f"--seed {seed}: the seed must be nonnegative", "seed")
    try:
        check_paths(n_paths, horizon)
    except ValueError as exc:
        raise FieldError(f"--paths: {exc}", "paths") from exc
    return np.random.default_rng(seed).standard_normal((n_paths, horizon))


def _check_noise(cfg, pool, params, noise):
    """Refuse `noise` unless it holds one row of `cfg.horizon` draws per
    path, and unless `check_transition` passes on its extremes."""
    if np.ndim(noise) != 2 or np.shape(noise)[1] != cfg.horizon:
        raise ValueError(f"noise of shape {np.shape(noise)} does not hold {cfg.horizon} draws per path")
    check_transition(cfg, pool, params, noise)


def simulate_policy(
    policy: Policy,
    cfg: MdpConfig,
    pool: PoolParams,
    params: MispricingParams,
    noise: np.ndarray,
    z0: float = 0.0,
) -> SimResult:
    """Monte Carlo of the stored policy on `noise` (see `draw_noise`), one
    path per row: nearest-grid action, inventory-capped."""
    if policy.action_index.shape != (cfg.horizon, cfg.n_inventory, cfg.n_mispricing):
        raise ValueError("policy shape does not match the configuration")
    _check_noise(cfg, pool, params, noise)
    return _simulate(policy.sale, cfg.gas, cfg, pool, params, noise, z0)


def _simulate(sale, trade_gas, cfg, pool, params, eps, z0):
    """A schedule on a drawn noise matrix, one row per path.

    Block t sells `sale(t, inventory, z)` at the clamped price on the pool's
    curve and pays `trade_gas` if the sale is positive; noise and the sale's
    impact then move z.
    """
    n_paths = len(eps)
    inventory = np.full(n_paths, cfg.inventory)
    z = np.full(n_paths, float(z0))
    inv_path = np.empty((n_paths, cfg.horizon + 1))
    outputs = np.zeros(n_paths)
    inv_path[:, 0] = inventory
    for t in range(cfg.horizon):
        delta = sale(t, inventory, z)
        z_star = clamp_mispricing(z, pool.fee_bound_upper, pool.fee_bound_lower)
        outputs += np.where(
            delta > 0,
            exchange_at_price(delta, pool.external_price * np.exp(-z_star), pool.liquidity) - trade_gas,
            0.0,
        )
        inventory = inventory - delta
        z = step_mispricing(z, delta, eps[:, t], params, pool, cfg.dynamics)
        inv_path[:, t + 1] = inventory
    return SimResult(inv_path, outputs)


def compare_vs_twamm(
    sigma_grid,
    cfg: MdpConfig,
    pool: PoolParams,
    params: MispricingParams,
    noise: np.ndarray,
    z0: float = 0.0,
):
    """Mean excess output of the optimal schedule over a TWAMM's uniform split.

    One simulator values both schedules: the policy pays gas on each block
    it trades, the TWAMM sells inventory / horizon every block and pays gas
    once, and every sale pays the pool's curve at the clamped price. Uses
    common random numbers: both strategies, at every volatility, run on the
    one matrix `noise` (see `draw_noise`), one path per row. Returns (sigma,
    mean excess, standard error) triples.
    """
    # Every volatility is checked, on the noise too, before the first solve.
    grid = [MispricingParams(params.drift, float(sigma), params.dt) for sigma in sigma_grid]
    for params_s in grid:
        _check_noise(cfg, pool, params_s, noise)
    n_paths = len(noise)

    def uniform(t, inventory, z):
        return cfg.inventory / cfg.horizon

    results = []
    for params_s in grid:
        policy = value_iteration(cfg, pool, params_s)
        outputs = _simulate(policy.sale, cfg.gas, cfg, pool, params_s, noise, z0).outputs
        tw = _simulate(uniform, 0.0, cfg, pool, params_s, noise, z0).outputs - cfg.gas
        excess = outputs - tw
        stderr = float(np.std(excess, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
        results.append((params_s.volatility, float(np.mean(excess)), stderr))
    return results
