"""Reference answers computed apart from the program.

Imports nothing from ``fedgame``.  Every error is the paper's quadratic form
in a weight row ``v`` over a coalition: for member ``j``

    MSE_j(v) = mu * sum_i v_i^2 c_i + bias * (sum_{i!=j} v_i^2 + (sum_{i!=j} v_i)^2)

with ``c_i = 1/n_i`` for mean estimation and ``d/(n_i-d-1)`` for linear
regression.  Uniform federation takes ``v_i = n_i/N``.  Optimal coarse
federation minimises the form over ``v = w e_j + (1-w) u``; the form is a
parabola in ``w``, fitted here from three evaluations.  Optimal fine
federation minimises it over every row summing to one, which is
``1 / (1^T A^-1 1)`` for the form's matrix ``A`` (a batched linear solve).

Comparisons follow the paper's preference relation.  Float mode uses the
relative epsilon that float verdicts document (1e-9, floor 1e-15); exact
mode compares values and treats a relative gap below ``CLOSE`` as a tie.  A
comparison too close to its decision boundary for a float reference raises
``Ambiguous``: the benchmark's inputs are drawn away from such cases, apart
from the deliberate all-ties game, whose answer is fixed by the paper.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

EPSILON = 1e-9
FLOOR = 1e-15
# The values here agree with exact arithmetic to about 1e-15 relative.  A
# float decision within CLOSE (relative) of its boundary is too close to
# call.  In exact mode a gap below CLOSE is a tie, and one below 100 * CLOSE
# is too close to call.
CLOSE = 1e-13

SCHEMES = ("uniform", "coarse-optimal", "fine-optimal")


class Ambiguous(ValueError):
    """A comparison sits too close to its boundary for a float reference."""


class Game(NamedTuple):
    players: tuple
    mu_e: float
    sigma_sq: float
    linreg: Optional[tuple] = None  # (d, sigma_bias_sq)


def _params(game: Game) -> tuple[np.ndarray, float, float]:
    n = np.asarray(game.players, dtype=float)
    if game.linreg is None:
        return 1.0 / n, float(game.mu_e), float(game.sigma_sq)
    d, bias = game.linreg
    return d / (n - d - 1.0), float(game.mu_e), float(bias)


def _quadratic(rows: np.ndarray, c, mu, bias) -> np.ndarray:
    """MSE of player j under the weight row rows[..., j, :]."""
    m = rows.shape[-1]
    off = 1.0 - np.eye(m)
    sq = rows * rows
    var = mu * np.einsum("...ji,i->...j", sq, c)
    off_sq = np.einsum("...ji,ji->...j", sq, off)
    off_sum = np.einsum("...ji,ji->...j", rows, off)
    return var + bias * (off_sq + off_sum * off_sum)


def member_matrix(m: int) -> np.ndarray:
    """Row k marks the members of coalition mask k (row 0 is empty)."""
    masks = np.arange(1 << m)
    return ((masks[:, None] >> np.arange(m)) & 1).astype(bool)


def error_table(game: Game, scheme: str, masks: Optional[Sequence[int]] = None) -> np.ndarray:
    """E[mask, j]: player j's error inside coalition ``mask``; NaN off-member.

    ``masks`` restricts the table to those coalitions; other rows stay NaN.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"oracle scheme {scheme!r}")
    if game.linreg is not None and scheme != "uniform":
        raise ValueError("the oracle covers linear regression under uniform federation")
    c, mu, bias = _params(game)
    n = np.asarray(game.players, dtype=float)
    m = len(n)
    members = member_matrix(m)
    masks = np.arange(1, 1 << m) if masks is None else np.asarray(sorted(set(masks)))
    table = np.full((1 << m, m), np.nan)
    sizes = members[masks].sum(axis=1)
    eye = np.eye(m)
    for k in np.unique(sizes):
        group = masks[sizes == k]
        mem = members[group]  # (g, m)
        if k == 1 or scheme != "fine-optimal":
            share = np.where(mem, n, 0.0)
            u = share / share.sum(axis=1, keepdims=True)  # (g, m)
            uniform_rows = np.broadcast_to(u[:, None, :], (len(group), m, m))
            q0 = _quadratic(uniform_rows, c, mu, bias)
            if scheme == "uniform" or k == 1:
                vals = q0
            else:
                local_rows = np.broadcast_to(eye, (len(group), m, m))
                q1 = _quadratic(local_rows, c, mu, bias)
                qh = _quadratic(0.5 * (uniform_rows + local_rows), c, mu, bias)
                a = 2.0 * (q1 + q0 - 2.0 * qh)
                b = q1 - q0 - a
                w = np.clip(-b / (2.0 * a), 0.0, 1.0)
                vals = a * w * w + b * w + q0
        else:
            vals = _fine_optimal(mem, c, mu, bias)
        table[group] = np.where(mem, vals, np.nan)
    return table


def _fine_optimal(mem: np.ndarray, c, mu, bias) -> np.ndarray:
    """min over rows summing to one of the quadratic form, per (mask, j)."""
    g, m = mem.shape
    k = int(mem[0].sum())
    idx = np.array([np.flatnonzero(row) for row in mem])  # (g, k)
    cc = c[idx]  # (g, k)
    out = np.full((g, m), np.nan)
    ones = np.ones(k)
    for pos in range(k):
        o = np.ones(k)
        o[pos] = 0.0
        a = mu * cc[:, :, None] * np.eye(k) + bias * (np.diag(o) + np.outer(o, o))
        x = np.linalg.solve(a, np.broadcast_to(ones, (g, k))[..., None])[..., 0]
        out[np.arange(g), idx[:, pos]] = 1.0 / x.sum(axis=1)
    return out


def optimal_coarse_weight(game: Game, coalition: Sequence[int], j: int) -> float:
    """Minimiser w* of the parabola MSE_j(w e_j + (1-w) u)."""
    c, mu, bias = _params(game)
    n = np.asarray(game.players, dtype=float)
    m = len(n)
    mem = np.zeros(m, dtype=bool)
    mem[list(coalition)] = True
    if mem.sum() == 1:
        return 1.0
    u = np.where(mem, n, 0.0) / n[mem].sum()
    e = np.eye(m)[j]
    q = [float(_quadratic(np.tile(w * e + (1 - w) * u, (m, 1))[None], c, mu, bias)[0, j])
         for w in (0.0, 0.5, 1.0)]
    a = 2.0 * (q[2] + q[0] - 2.0 * q[1])
    b = q[2] - q[0] - a
    return min(1.0, max(0.0, -b / (2.0 * a)))


def optimal_fine_row(game: Game, coalition: Sequence[int], j: int) -> dict[int, float]:
    """v* = A^-1 1 / (1^T A^-1 1) over the coalition's members."""
    c, mu, bias = _params(game)
    idx = sorted(coalition)
    k = len(idx)
    o = np.array([0.0 if i == j else 1.0 for i in idx])
    a = mu * np.diag(c[idx]) + bias * (np.diag(o) + np.outer(o, o))
    x = np.linalg.solve(a, np.ones(k))
    return {i: float(v) for i, v in zip(idx, x / x.sum())}


def row_error(game: Game, row: dict[int, float], j: int) -> float:
    """The quadratic form for an explicit row (any fixed-weight scheme)."""
    c, mu, bias = _params(game)
    m = len(game.players)
    v = np.zeros(m)
    for i, w in row.items():
        v[i] = w
    return float(_quadratic(np.tile(v, (m, 1))[None], c, mu, bias)[0, j])


# --- comparisons ----------------------------------------------------------------


def _exact_gap(new, old):
    gap = old - new
    tie = np.abs(gap) <= CLOSE * np.abs(old)
    return gap, tie, ~tie & (np.abs(gap) <= 100 * CLOSE * np.abs(old))


def _strict(new, old, exact: bool):
    """(new strictly preferred to old, too close to call), elementwise."""
    if exact:
        gap, tie, amb = _exact_gap(new, old)
        return (gap > 0) & ~tie, amb
    edge = old * (1.0 - EPSILON) - FLOOR
    return new < edge, np.abs(new - edge) <= CLOSE * np.abs(old)


def _weak(new, old, exact: bool):
    """(new weakly preferred to old, too close to call), elementwise."""
    if exact:
        gap, tie, amb = _exact_gap(new, old)
        return (gap > 0) | tie, amb
    edge = old * (1.0 + EPSILON)
    return new <= edge, np.abs(new - edge) <= CLOSE * np.abs(old)


def _raise_if(amb, what: str) -> None:
    if np.any(amb):
        raise Ambiguous(f"{what}: a comparison lies within the oracle margin")


def strictly_less(new, old, exact: bool):
    """new is strictly preferred to old (elementwise); raises Ambiguous."""
    ok, amb = _strict(np.asarray(new), np.asarray(old), exact)
    _raise_if(amb, "comparison")
    return ok


def weakly_less(new, old, exact: bool):
    """new is weakly preferred to old (elementwise); raises Ambiguous."""
    ok, amb = _weak(np.asarray(new), np.asarray(old), exact)
    _raise_if(amb, "comparison")
    return ok


# --- labeled stability ------------------------------------------------------------


def partitions(m: int) -> list[tuple[int, ...]]:
    """Every set partition of 0..m-1 as sorted block masks, in
    restricted-growth-string order."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, blocks: list[int]) -> None:
        if i == m:
            out.append(tuple(sorted(blocks, key=lambda b: b & -b)))
            return
        for k in range(len(blocks)):
            blocks[k] |= 1 << i
            rec(i + 1, blocks)
            blocks[k] &= ~(1 << i)
        blocks.append(1 << i)
        rec(i + 1, blocks)
        blocks.pop()

    rec(0, [])
    return out


def bell(m: int) -> int:
    """Bell(m) from the Bell triangle."""
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def _current(table: np.ndarray, parts: Sequence[tuple[int, ...]], m: int) -> np.ndarray:
    owner = np.zeros((len(parts), m), dtype=np.int64)
    for p, blocks in enumerate(parts):
        for b in blocks:
            for j in range(m):
                if b >> j & 1:
                    owner[p, j] = b
    return table[owner, np.arange(m)]


def first_blocking(
    table: np.ndarray, parts: Sequence[tuple[int, ...]], m: int, strict_notion: bool, exact: bool
) -> list[Optional[int]]:
    """Per partition, the first blocking coalition mask in ascending order."""
    members = member_matrix(m)[1:]  # masks 1 .. 2^m-1
    errs = table[1:]  # (K, m)
    cur = _current(table, parts, m)  # (P, m)
    out: list[Optional[int]] = []
    chunk = max(1, 200_000 // (errs.size + 1))  # keeps the temporaries small
    for start in range(0, len(parts), chunk):
        c = cur[start:start + chunk, None, :]  # (p, 1, m)
        e = np.where(members, errs, 0.0)[None]  # (1, K, m)
        less, amb_s = _strict(e, c, exact)
        if strict_notion:
            weak, amb_w = _weak(e, c, exact)
            ok = np.all(weak | ~members, axis=2) & np.any(less & members, axis=2)
            _raise_if((amb_s | amb_w) & members, "strict-core check")
        else:
            ok = np.all(less | ~members, axis=2)
            _raise_if(amb_s & members, "core check")
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        out.extend(int(f) + 1 if h else None for h, f in zip(hit, first))
    return out


def first_deviation(
    table: np.ndarray, blocks: tuple[int, ...], m: int, exact: bool
) -> Optional[tuple[int, int]]:
    """First individual deviation (player, target mask) in the paper's scan
    order: players ascending, target blocks by least member, then leaving."""
    owner = {}
    for b in blocks:
        for j in range(m):
            if b >> j & 1:
                owner[j] = b
    cur = {j: table[owner[j], j] for j in range(m)}
    for i in range(m):
        for b in blocks:
            if b >> i & 1:
                continue
            joined = b | 1 << i
            gain, amb = _strict(table[joined, i], cur[i], exact)
            _raise_if(amb, "individual check")
            if not gain:
                continue
            agree = True
            for j in range(m):
                if b >> j & 1:
                    ok, amb = _weak(table[joined, j], cur[j], exact)
                    _raise_if(amb, "individual check")
                    agree = agree and bool(ok)
            if agree:
                return i, joined
        if owner[i] != 1 << i:
            gain, amb = _strict(table[1 << i, i], cur[i], exact)
            _raise_if(amb, "individual check")
            if gain:
                return i, 1 << i
    return None


def stable_partitions(game: Game, scheme: str, notion: str, exact: bool) -> list[tuple[int, ...]]:
    m = len(game.players)
    table = error_table(game, scheme)
    parts = partitions(m)
    if notion == "individual":
        return [p for p in parts if first_deviation(table, p, m, exact) is None]
    firsts = first_blocking(table, parts, m, notion == "strict", exact)
    return [p for p, f in zip(parts, firsts) if f is None]


def verdict(game: Game, scheme: str, notion: str, blocks: tuple[int, ...], exact: bool):
    """(stable, witness) with witness a coalition mask or (player, target mask)."""
    m = len(game.players)
    table = error_table(game, scheme)
    if notion == "individual":
        dev = first_deviation(table, blocks, m, exact)
        return dev is None, dev
    (first,) = first_blocking(table, [blocks], m, notion == "strict", exact)
    return first is None, first


# --- two-size games ----------------------------------------------------------------


class TwoSize(NamedTuple):
    n_s: int
    n_l: int
    S: int
    L: int
    mu_e: float
    sigma_sq: float


def two_size_grid(g: TwoSize, scheme: str, s_max: int, l_max: int):
    """(small-member error, large-member error) over profiles 0..s_max x
    0..l_max; NaN where the role is absent."""
    s = np.arange(s_max + 1, dtype=float)[:, None]
    l = np.arange(l_max + 1, dtype=float)[None, :]
    total = s * g.n_s + l * g.n_l
    mu, bias = float(g.mu_e), float(g.sigma_sq)

    def role(n_j, present, others_sq):
        with np.errstate(divide="ignore", invalid="ignore"):
            u_j = n_j / total
            rest = (total - n_j) / total

            def q(w):
                v_j = w + (1 - w) * u_j
                var = v_j * v_j / n_j + (1 - w) ** 2 * (total - n_j) / (total * total)
                return mu * var + bias * (1 - w) ** 2 * (others_sq / (total * total) + rest * rest)

            q0 = q(0.0)
            if scheme == "uniform":
                vals = q0
            else:
                q1, qh = q(1.0), q(0.5)
                a = 2.0 * (q1 + q0 - 2.0 * qh)
                b = q1 - q0 - a
                w = np.where(a > 0, np.clip(-b / (2.0 * np.where(a > 0, a, 1.0)), 0.0, 1.0), 1.0)
                vals = a * w * w + b * w + q0
        alone = total == n_j
        vals = np.where(alone, mu / n_j, vals)
        return np.where(present, vals, np.nan)

    err_s = role(g.n_s, s >= 1, (s - 1) * g.n_s**2 + l * g.n_l**2)
    err_l = role(g.n_l, l >= 1, s * g.n_s**2 + (l - 1) * g.n_l**2)
    return err_s, err_l


def _scan_order(g: TwoSize):
    """Candidate profiles: s descending from S, l ascending from 0."""
    s = np.repeat(np.arange(g.S, -1, -1), g.L + 1)
    l = np.tile(np.arange(g.L + 1), g.S + 1)
    keep = s + l > 0
    return s[keep], l[keep]


def two_size_blocking(g: TwoSize, arrangement, scheme: str, exact: bool, weak_notion: bool):
    """First profile in scan order that blocks the arrangement; None if none.

    weak_notion=False: every participant strictly gains (core).
    weak_notion=True: every participant weakly gains, one strictly (strict core).
    """
    err_s, err_l = two_size_grid(g, scheme, g.S, g.L)
    arr = np.array(arrangement, dtype=float)
    cs = err_s[arr[:, 0].astype(int), arr[:, 1].astype(int)]
    cl = err_l[arr[:, 0].astype(int), arr[:, 1].astype(int)]
    order_s, order_l = _scan_order(g)
    chunk = max(1, 200_000 // len(arrangement))  # keeps the temporaries small
    for at in range(0, len(order_s), chunk):
        s, l = order_s[at:at + chunk], order_l[at:at + chunk]
        hit = _first_block(err_s[s, l], err_l[s, l], s, l, arr, (cs, cl), exact, weak_notion)
        if hit is not None:
            return int(s[hit]), int(l[hit])
    return None


def _first_block(cand_s, cand_l, s, l, arr, current, exact: bool, weak_notion: bool):
    """Index of the first blocking candidate among (s, l), or None."""
    cs, cl = current
    has_s, has_l = arr[:, 0] > 0, arr[:, 1] > 0

    def counts(cand, cur, has, weights):
        strict, amb_s = _strict(cand, np.where(has, cur, 1.0)[None], exact)
        weak, amb_w = _weak(cand, np.where(has, cur, 1.0)[None], exact)
        strict &= has[None]
        weak &= has[None]
        return strict @ weights, weak @ weights, (amb_s | amb_w) & has[None]

    st_s, wk_s, amb_s = counts(np.nan_to_num(cand_s, nan=1.0)[:, None], cs, has_s, arr[:, 0])
    st_l, wk_l, amb_l = counts(np.nan_to_num(cand_l, nan=1.0)[:, None], cl, has_l, arr[:, 1])
    need_s, need_l = s > 0, l > 0
    if weak_notion:
        ok = (~need_s | (wk_s >= s)) & (~need_l | (wk_l >= l))
        ok &= (need_s & (st_s > 0)) | (need_l & (st_l > 0))
    else:
        ok = (~need_s | (st_s >= s)) & (~need_l | (st_l >= l))
    if not ok.any():
        _raise_if(amb_s[need_s].any() or amb_l[need_l].any(), "two-size blocking check")
        return None
    k = int(ok.argmax())
    seen = slice(0, k + 1)
    _raise_if(amb_s[seen][need_s[seen]].any() or amb_l[seen][need_l[seen]].any(), "two-size blocking check")
    return k


def two_size_deviation(g: TwoSize, arrangement, scheme: str, exact: bool):
    """First individual deviation (role, source, target) in the paper's scan
    order: blocks in order, smalls before larges, joins before leaving."""
    err_s, err_l = two_size_grid(g, scheme, g.S + 1, g.L + 1)
    blocks = [tuple(p) for p in arrangement]

    def cmp(fn, new, old):
        ok, amb = fn(new, old, exact)
        _raise_if(amb, "two-size individual check")
        return bool(ok)

    for idx, (s_k, l_k) in enumerate(blocks):
        for role, count in (("small", s_k), ("large", l_k)):
            if not count:
                continue
            table = err_s if role == "small" else err_l
            cur = table[s_k, l_k]
            for t_idx, (s_t, l_t) in enumerate(blocks):
                if t_idx == idx:
                    continue
                ns, nl = s_t + (role == "small"), l_t + (role == "large")
                if not cmp(_strict, table[ns, nl], cur):
                    continue
                if s_t and not cmp(_weak, err_s[ns, nl], err_s[s_t, l_t]):
                    continue
                if l_t and not cmp(_weak, err_l[ns, nl], err_l[s_t, l_t]):
                    continue
                return role, (s_k, l_k), (ns, nl)
            if s_k + l_k > 1:
                alone = (1, 0) if role == "small" else (0, 1)
                if cmp(_strict, table[alone], cur):
                    return role, (s_k, l_k), alone
    return None
