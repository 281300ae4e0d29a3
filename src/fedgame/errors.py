"""Exact expected mean-squared errors for every federation scheme.

Mean estimation and linear regression share one structure: a variance term
with per-player multiplier (1/n_i for means, d/(n_i-d-1) for regression
under zero-mean multivariate-normal inputs) plus a bias term whose
coefficient is sigma_sq (means) or sigma_bias_sq (regression).

All formulas are rational in the sample counts and the distribution
parameters, so they evaluate exactly when called with Fraction parameters
(see ``model.exact_config``).  Expressions are ordered so that integer
subterms are multiplied by a parameter before any division.

Each scheme's formula is written once, as a function of one member and of
terms the whole coalition shares.  ``scheme_formula`` resolves a scheme once
for a config: it dispatches on the scheme, computes the per-player terms
(local errors, the optimal-fine V_i, the regression numerators and
denominators) and returns a ``Formula``: ``error(j, N, Q, terms)``, the
member's closed form given the coalition's sample sums N and Q, and
``shared(members, N)``, which gives ``terms`` once per coalition.  ``shared``
is None for the schemes whose member error needs only (n_j, N, Q): local,
mean uniform, coarse-optimal and mean coarse; the fine-grained schemes share
the member list and regression uniform and coarse the global variance.
``alone`` lists each player's error alone, their local error, so a caller
reads it without calling ``error``.  Regression uniform and coarse and
fine-optimal also have a floor, ``floor(j, N, Q, rest)``, which
``make_floor()`` builds for a stability scan that asks: a lower bound on the
error that needs no shared term and costs O(1), which the scan compares
first; ``rest`` sums the scheme's per-player ``addends``
(fine-optimal: 1/V_i) over the other members, or their sample counts.  The
regression floor is the bias part, which ``error`` adds last to a
non-negative variance part.  The fine-optimal floor is the error's closed
form a_j*(1 + b*S)/(1 + V_j*S): in exact mode the error itself, which
``Formula.floor_is_error`` says so a scan can take it as the error, in
float mode reduced by a relative bound on the rounding of both ways of
computing it, derived in the ``Formula`` docstring.
``member_formula`` checks one coalition, takes its sums and shared term and
binds them to ``error``; ``coalition_errors`` (every member),
``coalition_member_mse`` (one member) and the per-scheme functions go
through it.  The stability scans resolve the scheme once per error table
and call ``error`` directly, once per member they ask about, with sums they
carry from mask to mask.

Two-size profile errors are ``scheme_formula`` with the roles, small and
large, as the players; ``two_size_formula`` resolves it once per search.

One overflow rule: a float member error that overflows (not finite, or
``OverflowError``) or is 0, as no error is, is evaluated again in the exact
twin of the scheme and config and rounded to a float once, refused where
that rounds to inf or to 0 (``_rounded_twin``); every other float error
keeps its bits.  Where the per-player terms leave the float range at
resolution, every error of the formula takes that path.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .model import (
    Coalition,
    CoarseOptimal,
    Coarse,
    FederationScheme,
    Fine,
    FineOptimal,
    GameConfig,
    Local,
    Number,
    Partition,
    Record,
    TwoSizeGame,
    Uniform,
    ValidationError,
    _check_type,
    _is_count,
    exact_config,
    exact_scheme,
    scheme_name,
)

_INF = math.inf

LINREG_OPTIMAL_NOTE = (
    "optimal weights for linear regression use the many-samples "
    "mean-estimation approximation (mu_e' = d*mu_e, bias = sigma_bias_sq)"
)


class ErrorReport(Record):
    """Per-player expected MSE for one partition under one scheme."""

    _fields = ("values", "note")

    values: Mapping[int, Number]
    note: str | None = None


def _check_member(j: int, coalition: Coalition) -> None:
    if j not in coalition:
        raise ValidationError(f"player {j} is not a member of coalition {coalition.members}")


def _check_player(j: int, config: GameConfig) -> None:
    if not 0 <= j < len(config.players):
        raise ValidationError(f"player index {j} out of range for {len(config.players)} players")


def _bias_coef(config: GameConfig) -> Number:
    return config.sigma_sq if config.linreg is None else config.linreg.sigma_bias_sq


def effective_mean_params(config: GameConfig) -> tuple[Number, Number, bool]:
    """(mu, bias, is_approximation) for the optimal-weight formulas.

    Mean estimation passes through; linear regression substitutes
    mu_e' = d*mu_e and bias = sigma_bias_sq (valid when n_i >> d).
    """
    if config.linreg is None:
        return config.mu_e, config.sigma_sq, False
    return config.mu_e * config.linreg.d, config.linreg.sigma_bias_sq, True


def _sample_sums(members: Iterable[int], ns: Sequence[int]) -> tuple[int, int]:
    """(N, Q): the members' sample total and their sum of squared counts."""
    total = square = 0
    for i in members:
        n = ns[i]
        total += n
        square += n * n
    return total, square


def _bias_integer(n_j: int, total: int, square: int) -> int:
    """B_j: the other members' squared counts plus (N - n_j)^2."""
    return square - n_j * n_j + (total - n_j) ** 2


# --- member formulas: one scheme each, given the coalition-wide terms ---------


def _coarse_variance(
    n_j: int, w: Number, total: int, global_var: Number | None, config: GameConfig
) -> Number:
    """The variance part of a coarse member's error, non-negative for w in
    [0,1]; the bias part is the scheme's ``Formula.floor``."""
    if config.linreg is None:
        return config.mu_e * (w * w / n_j) + config.mu_e * (1 - w * w) / total
    d = config.linreg.d
    return (1 - w) ** 2 * global_var + config.mu_e * (
        w * w + (1 - w) * w * 2 * n_j / total
    ) * d / (n_j - d - 1)


def _fine_member(j: int, row: Mapping[int, Number], config: GameConfig) -> Number:
    """Fine-grained MSE of player j with weight row ``row``: the variance
    terms in row order, then the bias term from the other members' weights.
    Each sum is taken left to right (see ``_optimal_row``)."""
    ns = config.players
    mu_e = config.mu_e
    variance = off = off_sq = 0
    if config.linreg is None:
        for i, v in row.items():
            variance += mu_e * v * v / ns[i]
    else:
        d = config.linreg.d
        for i, v in row.items():
            variance += mu_e * v * v * d / (ns[i] - d - 1)
    for i, v in row.items():
        if i != j:
            off += v
            off_sq += v * v
    return variance + _bias_coef(config) * (off_sq + off * off)


def _optimal_fine_terms(
    config: GameConfig,
) -> tuple[Number, Number, list[Number], list[Number]]:
    """(mu, bias, V, 1/V) for the optimal fine rows, V_i = bias + mu/n_i,
    with V and 1/V listed per player.  In floats, ``OverflowError`` where a
    row's divisor V_i*(1 + V_j*S) may overflow and read as a weight of 0.
    With t = bias + mu >= V_i and T = sum 1/V_i >= S, 1/t, it is at most
    t + t^2*T <= 2*t^2*T, below 2^1000 at once where bias > 2^-300 (so
    T <= m/bias) and t < 2^300."""
    mu, bias, _ = effective_mean_params(config)
    v_of = [bias + mu / n for n in config.players]
    inv = [1 / v for v in v_of]
    top = bias + mu
    if not (bias > 2.0**-300 and top < 2.0**300 or top * (top * sum(inv)) < 2.0**1000):
        if isinstance(inv[0], float):
            raise OverflowError("an optimal fine row's divisor overflows a float")
    return mu, bias, v_of, inv


def _optimal_row(
    j: int,
    members: Iterable[int],
    v_of: Sequence[Number],
    inv: Sequence[Number],
    bias: Number,
) -> dict[int, Number]:
    """Player j's error-minimizing fine row over at least two members.

    The sum of 1/V_i over the other members is taken afresh for each j, in
    member order: subtracting 1/V_j from a shared total would change the
    last bits of the result.  It is a left-to-right loop, as is every float
    sum here: from CPython 3.12 on, ``sum()`` compensates float rounding,
    and the result would depend on the version.
    """
    inv_sum = 0
    for i in members:
        if i != j:
            inv_sum += inv[i]
    den = 1 + v_of[j] * inv_sum
    row: dict[int, Number] = {j: (1 + bias * inv_sum) / den}
    for k in members:
        if k != j:
            row[k] = (v_of[j] - bias) / (v_of[k] * den)
    return row


def _check_row(row: Mapping[int, Number], members: Sequence[int]) -> None:
    """Row keys must be the coalition; the row sum is checked by ``Fine``."""
    if set(row) != set(members):
        raise ValidationError(
            f"weight row keys {sorted(row)} do not match coalition {tuple(members)}"
        )


MemberError = Callable[[int], Number]
# ``Formula``'s floor(j, N, Q, rest)
Floor = Callable[[int, int, int, Number], Number]


def _count_text(n: int) -> str:
    """A count as a message prints it: past 30 digits, its decimal order
    (``str`` refuses ints of over 4,300 digits)."""
    return str(n) if n < 10**30 else f"about 10^{math.log10(n):.1f}"


def _rounded_twin(scheme: FederationScheme, config: GameConfig) -> "Formula":
    """The scheme resolved for the exact twin of the scheme and config
    (``exact_scheme``, ``exact_config``), each error rounded to a float
    once and refused where it rounds to inf, or to 0: no error is 0.  A
    float shared term, a float formula's global variance, is taken exactly."""
    from fractions import Fraction

    twin = scheme_formula(exact_scheme(scheme), exact_config(config))
    ns = config.players

    def rounded(j: int, total: int, square: int, terms: Any) -> float:
        terms = Fraction(terms) if isinstance(terms, float) else terms
        try:
            err = float(twin.error(j, total, square, terms))
        except OverflowError:
            err = 0.0
        if err:
            return err
        raise ValidationError(
            f"{scheme_name(scheme)} error of a member with {_count_text(ns[j])} samples, in "
            f"a coalition of {_count_text(total)} samples, overflows the float range or "
            "rounds to 0"
        )

    return Formula(rounded, twin.shared, _no_floor, None, False, [_INF] * len(ns))


def _listed(members: Sequence[int], total: int) -> Sequence[int]:
    """The shared term of the fine-grained schemes: the members themselves."""
    return members


def _no_floor() -> None:
    """``Formula.make_floor`` of a scheme without a floor."""
    return None


class Formula(NamedTuple):
    """A scheme resolved for one config (``scheme_formula``).

    ``error(j, N, Q, terms)`` is player j's expected MSE in a coalition whose
    members have sample sums N and Q (``_sample_sums``).  ``terms`` is what
    ``shared(members, N)`` returns for that coalition, members listed in
    ascending order; a caller takes it once per coalition, when the first
    member error is needed.  ``shared`` is None, and ``terms`` is passed as
    None, for the schemes whose member error needs only (n_j, N, Q): local,
    mean uniform, coarse-optimal and mean coarse.  The fine-grained schemes
    share the member list; regression uniform and coarse share the global
    variance.

    ``alone[j]`` is player j's error alone, ``error(j, n_j, n_j^2, terms)``:
    their local error, listed once, so a caller reads it without a call.
    An entry is inf, or 0, where ``error`` evaluates again or checks the
    scheme first: a float local error that overflows or is 0, a player a
    coarse scheme has no weight for, and every player under fine federation,
    whose rows ``error`` checks.  A caller asks ``error`` wherever
    ``alone[j]`` is not positive and finite, and so meets the same answer.

    ``make_floor()`` builds ``floor(j, N, Q, rest)``, a lower bound on
    player j's error that needs no shared term and costs O(1):
    ``floor <= error`` wherever it is a number, so a scan settles a member
    whose floor already rules out a gain without taking the shared term.  A
    scan that asks for the floor builds it once; the callers that do not,
    such as ``member_formula``, pay nothing for it.  ``rest`` is the sum of
    ``addends``, one value per player, over the coalition's members other
    than j, in ascending order from 0; where ``addends`` is None it is their
    sample count, N - n_j.  A floor is given for regression uniform and
    coarse and for fine-optimal; ``make_floor()`` returns None elsewhere,
    and where the float fine-optimal floor is withheld.  ``addends`` is None
    but under fine-optimal.  ``floor_is_error`` says that the floor is the
    error itself, to the last bit and of the same type, so a scan may take
    it as the error: so only under fine-optimal federation in exact mode.

    Regression uniform and coarse: the floor is the bias part
    sigma_bias_sq*B_j*(1-w)^2/N^2, w = 0 under uniform federation and
    B_j = Q - n_j^2 + rest^2.  ``error`` adds it last to a variance part
    that is non-negative (a coarse weight lies in [0,1]), so
    ``error >= floor``: in float mode because rounding is monotone, in exact
    mode because the two differ by that variance.  A float bias part that
    overflows is NaN: it settles no member, as every comparison with it is
    false, and ``error`` evaluates the member again.

    Fine-optimal: ``addends`` are the 1/V_i, so ``rest`` is S, the sum of
    1/V_i over the other members that ``error`` takes, bit for bit.  With
    a_i = mu/n_i, b the bias (``effective_mean_params``) and V_i = b + a_i,
    the error at j's optimal row is E = a_j*(1 + b*S)/(1 + V_j*S); a member
    alone has S = 0 and E = a_j, their local error under mean estimation
    and below it under regression.  In exact mode the floor is the error
    itself: E, for the identity holds in rationals, and for a member alone
    their local error.  In float mode it is E computed in floats with mu
    replaced by mu*keep, keep = 1 - (7*m + 69)*u, from a rounding-error
    bound.  Write u = 2^-53, <k> for a product of k factors (1+e)^(+-1)
    with |e| <= u, so |<k> - 1| <= k*u/(1 - k*u), and m for the player
    count.  An operation with an int operand counts twice: the operand's
    conversion, then the operation.  While every intermediate is a normal
    float:
      - a_i carries <2>, V_i <4>, 1/V_i <5>, S <m+4> (a sum of positive
        terms), 1 + V_j*S <m+10> and 1 + b*S <m+7>;
      - j's own weight, own = (1 + b*S)/(1 + V_j*S), carries <2m+18>, and
        its term in ``error``, a_j*own^2 = own*E, comes out at least
        (1 - g)*own*E, g = (5m+41)*u*(1 + 2^-38) for m <= 1024;
      - the other terms are positive and sum to (1 - own)*E < E/kappa_j,
        kappa_j = V_j/a_j.  They scale with ``scale = V_j - b``, the one
        difference, which cancels.  Where kappa_j*u <= 1/4 it is
        a_j*<3>*(1 + r), |r| <= 1.01*kappa_j*u, and they come out at least
        (1 - g)*(1 - 2.02*kappa_j*u) times their sum: a loss below
        2.02*u*E.  Elsewhere they come out at least 0: a loss below
        E/kappa_j < 4*u*E.  So ``error`` >= E*(1 - g)*(1 - 4*u);
      - the floor, ((mu*keep)/n_j)*(1 + b*S)/(1 + V_j*S) in that order, is
        at most E*keep*(1 + h), h = (2m+23)*u*(1 + 2^-38).
    So floor <= error when keep <= 1 - g - h - 4*u, and keep, exact in
    floats, leaves nearly u to spare.  The float floor is given only where
    mu, a non-zero bias and the counts keep every intermediate within
    [2^-1000, 2^1000], clear of the edges of the normal range where relative
    bounds fail, and m <= 1024 (``_fine_floor_scale``).

    Every float error is positive and finite: where its evaluation is not,
    it is the exact twin's rounded once (``_rounded_twin``), refused with
    ``ValidationError`` where that rounds to inf or to 0.
    """

    error: Callable[[int, int, int, Any], Number]
    shared: Optional[Callable[[Sequence[int], int], Any]]
    make_floor: Callable[[], Optional[Floor]]
    addends: Optional[Sequence[Number]]
    floor_is_error: bool
    alone: Sequence[Number]


# the range a float fine-optimal floor needs of mu and the bias (``Formula``)
_LOW, _HIGH = 2.0**-100, 2.0**100


def _fine_floor_scale(mu: Number, bias: Number, n_max: int, m: int) -> Optional[Number]:
    """mu*keep for the float fine-optimal floor (``Formula``), or None where
    there is none: unless m <= 1024, the largest count n_max <= 2^60, and mu
    and a non-zero bias b lie in [2^-100, 2^100].

    Those bounds keep every intermediate of ``error`` and of the floor, in
    any coalition, within [2^-1000, 2^1000]: a_i >= 2^-160,
    V_i <= b + mu <= 2^101, V_max/V_min <= n_max, so 1 + V_j*S <= 2^71,
    1/V_i, b*S and S within [2^-201, 2^171], ``scale`` >= a_j/2 wherever
    its cancellation is bounded, each weight >= 2^-333 and each term
    ``error`` sums >= 2^-826.  O(1), given the largest count.
    """
    if m > 1024 or n_max > 2**60 or not _LOW <= mu <= _HIGH:
        return None
    if bias and not _LOW <= bias <= _HIGH:
        return None
    return mu * (1 - (7 * m + 69) * 2.0**-53)


def scheme_formula(scheme: FederationScheme, config: GameConfig) -> Formula:
    """Resolve the scheme once for a config: its ``Formula``.

    Everything that does not depend on the coalition is done here, once: the
    scheme dispatch, each player's local error, the optimal-weight
    parameters, the optimal-fine V_i and 1/V_i, and each player's
    linear-regression numerator mu_e*n_i*n_i*d and denominator n_i-d-1.
    The fine-optimal floor is built by ``make_floor``, for a scan that asks.

    A member's error costs O(1), or O(|C|) under the fine-grained schemes,
    plus the shared term, O(|C|), once per coalition; a floor costs O(1),
    given its ``rest``.  A coarse weight or a fine row is looked up only for
    the member asked about.  A member whose own samples are the coalition's
    (N = n_j) is alone and gets their local error.
    """
    ns = config.players
    mu_e = config.mu_e
    try:
        # each player's local error
        if config.linreg is None:
            local = [mu_e / n for n in ns]
        else:
            d = config.linreg.d
            local = [mu_e * d / (n - d - 1) for n in ns]
    except OverflowError:  # a count too large for a float
        return _rounded_twin(scheme, config)
    if isinstance(scheme, Local):

        def local_error(j: int, total: int, square: int, terms: None) -> Number:
            err = local[j]
            if err and err < _INF:
                return err
            return _rounded_twin(scheme, config).error(j, total, square, terms)

        return Formula(local_error, None, _no_floor, None, False, local)
    if isinstance(scheme, Fine):
        rows = scheme.rows

        def fine(j: int, total: int, square: int, members: Sequence[int]) -> Number:
            if j not in rows:
                raise ValidationError(f"fine scheme has no row for player {j}")
            row = rows[j]
            _check_row(row, members)
            try:
                err = local[j] if len(members) == 1 else _fine_member(j, row, config)
                if err and err < _INF:
                    return err
            except OverflowError:  # an int or Fraction term too large for a float
                pass
            return _rounded_twin(scheme, config).error(j, total, square, members)

        return Formula(fine, _listed, _no_floor, None, False, [_INF] * len(ns))
    if isinstance(scheme, CoarseOptimal):
        mu, bias, _ = effective_mean_params(config)
        if (mu < 2.0**-511 or bias and mu * bias < 2.0**-1022) and isinstance(mu * bias, float):
            # mu^2 or mu*bias below the normal range loses bits the counts multiply up
            return _rounded_twin(scheme, config)

        def coarse_optimal(j: int, total: int, square: int, terms: None) -> Number:
            n = ns[j]
            try:
                if total == n:
                    err = local[j]
                else:
                    # B_j inline (``_bias_integer``): this runs once per
                    # member a scan asks about
                    rest = total - n
                    b = square - n * n + rest * rest
                    err = (mu * mu * rest + mu * bias * b) / (mu * total * rest + bias * n * b)
                if err and err < _INF:
                    return err
            except OverflowError:  # B_j, or N - n_j, too large for a float
                pass
            return _rounded_twin(scheme, config).error(j, total, square, terms)

        return Formula(coarse_optimal, None, _no_floor, None, False, local)
    if isinstance(scheme, FineOptimal):
        try:
            mu, bias, v_of, inv = _optimal_fine_terms(config)
        except (OverflowError, ZeroDivisionError):  # a 1/V_i or a row's divisor out of range
            return _rounded_twin(scheme, config)

        def fine_optimal(j: int, total: int, square: int, members: Sequence[int]) -> Number:
            """The error at player j's optimal row (``_optimal_row``) in the
            mean-estimation form of ``_fine_member``, with mu and bias from
            ``effective_mean_params``, without building the row: the sum of
            1/V_i over the other members, then each entry of the row as the
            error's sums take it, j's first, in the same order and grouping."""
            n = ns[j]
            if total == n:
                err = local[j]
            else:
                inv_sum = 0
                for i in members:
                    if i != j:
                        inv_sum += inv[i]
                v_j = v_of[j]
                den = 1 + v_j * inv_sum
                own = (1 + bias * inv_sum) / den
                scale = v_j - bias
                variance = mu * own * own / n
                off = off_sq = 0
                for i in members:
                    if i != j:
                        v = scale / (v_of[i] * den)
                        variance += mu * v * v / ns[i]
                        off += v
                        off_sq += v * v
                err = variance + bias * (off_sq + off * off)
            if err and err < _INF:
                return err
            return _rounded_twin(scheme, config).error(j, total, square, members)

        exact = not isinstance(v_of[0], float)

        def make_floor() -> Optional[Floor]:
            if exact:
                lead = [mu / n for n in ns]

                def exact_floor(j: int, total: int, square: int, rest: Number) -> Number:
                    """The error itself: E = a_j*(1 + b*S)/(1 + V_j*S), S = ``rest``,
                    or the local error of a member alone (``Formula``)."""
                    if total == ns[j]:
                        return local[j]
                    return lead[j] * (1 + bias * rest) / (1 + v_of[j] * rest)

                return exact_floor
            scaled = _fine_floor_scale(mu, bias, max(ns), len(ns))
            if scaled is None:
                return None

            def float_floor(j: int, total: int, square: int, rest: Number) -> Number:
                """E*keep, E = a_j*(1 + b*S)/(1 + V_j*S) and S = ``rest``
                (``Formula``)."""
                return scaled / ns[j] * (1 + bias * rest) / (1 + v_of[j] * rest)

            return float_floor

        return Formula(fine_optimal, _listed, make_floor, inv, exact, local)
    bias_coef = _bias_coef(config)
    global_variance = None
    if config.linreg is not None:
        num = [mu_e * n * n * d for n in ns]
        den = [n - d - 1 for n in ns]

        def global_variance(members: Sequence[int], total: int) -> Optional[Number]:
            """Variance of the coalition's sample-weighted model, from each
            member's numerator mu_e*n_i*n_i*d and denominator n_i-d-1; None
            for a member alone.

            The integer divisor (n_i-d-1)*N*N is exact in any grouping, so
            N*N is taken once; the terms are summed in member order.  Where
            that overflows, the variance is the exact twin's, not rounded:
            the member error that takes it is rounded once."""
            if len(members) == 1:
                return None
            square_total = total * total
            variance = 0
            try:
                for i in members:
                    variance += num[i] / (den[i] * square_total)
                if variance < _INF:
                    return variance
            except OverflowError:  # (n_i-d-1)*N*N too large for a float
                pass
            return _rounded_twin(scheme, config).shared(members, total)

    if isinstance(scheme, Uniform):

        def uniform_bias(j: int, total: int, square: int, rest: int) -> Number:
            n = ns[j]
            # B_j inline (``_bias_integer``), rest = N - n_j: this runs once
            # per member a scan asks about
            b = square - n * n + rest * rest
            try:
                bias = bias_coef * b / (total * total)
            except OverflowError:  # B_j too large for a float
                return math.nan
            return bias if bias < _INF else math.nan

        def uniform(j: int, total: int, square: int, variance: Optional[Number]) -> Number:
            n = ns[j]
            try:
                if total == n:
                    err = local[j]
                else:
                    # mean estimation has no shared term: the variance is mu_e/N
                    part = mu_e / total if variance is None else variance
                    err = part + uniform_bias(j, total, square, total - n)
                if err and err < _INF:
                    return err
            except OverflowError:  # N too large for a float
                pass
            return _rounded_twin(scheme, config).error(j, total, square, variance)

        make_floor = _no_floor if global_variance is None else lambda: uniform_bias
        return Formula(uniform, global_variance, make_floor, None, False, local)
    if isinstance(scheme, Coarse):
        weights = scheme.weights

        def coarse_bias(j: int, total: int, square: int, rest: int) -> Number:
            if j not in weights:
                raise ValidationError(f"coarse scheme has no weight for player {j}")
            n = ns[j]
            b = square - n * n + rest * rest  # B_j, ``_bias_integer``, rest = N - n_j
            try:
                bias = bias_coef * b * (1 - weights[j]) ** 2 / (total * total)
            except OverflowError:  # B_j, or an exact coefficient times it, too large for a float
                return math.nan
            return bias if bias < _INF else math.nan

        def coarse(j: int, total: int, square: int, global_var: Optional[Number]) -> Number:
            bias = coarse_bias(j, total, square, total - ns[j])
            n = ns[j]
            try:
                if total == n:
                    err = local[j]
                else:
                    err = _coarse_variance(n, weights[j], total, global_var, config) + bias
                if err and err < _INF:
                    return err
            except OverflowError:  # N, or an exact term times a weight, too large for a float
                pass
            return _rounded_twin(scheme, config).error(j, total, square, global_var)

        make_floor = _no_floor if global_variance is None else lambda: coarse_bias
        alone = [err if j in weights else _INF for j, err in enumerate(local)]
        return Formula(coarse, global_variance, make_floor, None, False, alone)
    raise ValidationError(f"unknown federation scheme {scheme!r}")


def member_formula(
    members: Sequence[int], scheme: FederationScheme, config: GameConfig
) -> MemberError:
    """Player -> expected MSE inside the coalition ``members`` under scheme.

    ``members`` are distinct player indices in ascending order.  This checks
    the coalition, takes its sample sums and its shared term, and binds them
    to the scheme's ``scheme_formula`` error: the one path to every
    coalition-member error outside the stability scans.
    """
    _check_type("config", config, GameConfig)
    if not members:
        raise ValidationError("coalition: must be non-empty")
    if not all(map(_is_count, members)):
        raise ValidationError(f"coalition {tuple(members)}: members must be integer player indices")
    if any(a >= b for a, b in zip(members, members[1:])):
        raise ValidationError(f"coalition {tuple(members)}: members must be distinct and ascending")
    _check_player(members[0], config)
    _check_player(members[-1], config)
    total, square = _sample_sums(members, config.players)
    error, shared = scheme_formula(scheme, config)[:2]
    terms = None if shared is None else shared(members, total)
    return lambda j: error(j, total, square, terms)


def coalition_errors(
    coalition: Coalition | Sequence[int], scheme: FederationScheme, config: GameConfig
) -> dict[int, Number]:
    """Every member's expected MSE inside the coalition, in one pass.

    ``coalition`` may also be given as its members: distinct player indices
    in ascending order, as read from a membership bitmask.  Each value is
    identical, value and type, to ``coalition_member_mse`` for that member.
    """
    members = coalition.members if isinstance(coalition, Coalition) else coalition
    error_of = member_formula(members, scheme, config)
    return {j: error_of(j) for j in members}


def coalition_member_mse(
    j: int, coalition: Coalition, scheme: FederationScheme, config: GameConfig
) -> Number:
    """Expected MSE of player j inside its coalition under any scheme."""
    _check_type("coalition", coalition, Coalition)
    _check_member(j, coalition)
    return member_formula(coalition.members, scheme, config)(j)


def mse_local(j: int, config: GameConfig) -> Number:
    """Expected MSE of local estimation: mu_e/n_j, or mu_e*d/(n_j-d-1)."""
    return member_formula([j], Local(), config)(j)


def mse_uniform(j: int, coalition: Coalition, config: GameConfig) -> Number:
    """Expected MSE of player j under the single sample-weighted model."""
    return coalition_member_mse(j, coalition, Uniform(), config)


def mse_coarse(j: int, coalition: Coalition, w: Number, config: GameConfig) -> Number:
    """Expected MSE of player j blending global and local models with w."""
    return coalition_member_mse(j, coalition, Coarse({j: w}), config)


def mse_fine(
    j: int, coalition: Coalition, row: Mapping[int, Number], config: GameConfig
) -> Number:
    """Expected MSE of player j combining member models with weight row."""
    return coalition_member_mse(j, coalition, Fine({j: row}), config)


def player_errors(
    partition: Partition, scheme: FederationScheme, config: GameConfig
) -> ErrorReport:
    """Evaluate every player within its own coalition of the partition."""
    _check_type("partition", partition, Partition)
    _check_type("config", config, GameConfig)
    if partition.player_count != len(config.players):
        raise ValidationError(
            f"partition covers {partition.player_count} players, "
            f"config has {len(config.players)}"
        )
    values: dict[int, Number] = {}
    for coalition in partition.coalitions:
        values.update(coalition_errors(coalition, scheme, config))
    note = None
    if config.linreg is not None and isinstance(scheme, (CoarseOptimal, FineOptimal)):
        note = LINREG_OPTIMAL_NOTE
    return ErrorReport(values=dict(sorted(values.items())), note=note)


# --- two-size (count-symmetric) profile errors -------------------------------


def two_size_formula(
    game: TwoSizeGame, mu_e: Number, sigma_sq: Number, scheme: FederationScheme
) -> Callable[[int, int], tuple[Number | None, Number | None]]:
    """(s, l) -> (small-member error, large-member error), None for a role
    the profile lacks: the ``scheme_formula`` error of each role, as a player
    of ``GameConfig((n_s, n_l), mu_e, sigma_sq)``, at the profile's sums.
    Checks the game, the parameters and the scheme once; not the profile."""
    _check_type("game", game, TwoSizeGame)
    if not isinstance(scheme, (Uniform, CoarseOptimal)):
        raise ValidationError(
            "two-size analysis supports uniform and optimal coarse-grained "
            f"federation, not {scheme_name(scheme)}"
        )
    n_s, n_l = game.n_s, game.n_l
    error = scheme_formula(scheme, GameConfig((n_s, n_l), mu_e, sigma_sq)).error

    def profile_errors(s: int, l: int) -> tuple[Number | None, Number | None]:
        total = s * n_s + l * n_l
        square = s * n_s * n_s + l * n_l * n_l
        return (
            error(0, total, square, None) if s else None,
            error(1, total, square, None) if l else None,
        )

    return profile_errors


def two_size_errors(
    game: TwoSizeGame,
    small_count: int,
    large_count: int,
    mu_e: Number,
    sigma_sq: Number,
    scheme: FederationScheme,
) -> tuple[Number | None, Number | None]:
    """(small-member error, large-member error) for one coalition profile:
    its ``two_size_formula`` errors.  The profile is hypothetical: counts need
    not fit inside game.S/game.L, which lets grid property checks range freely."""
    counts = (small_count, large_count)
    if not all(_is_count(c) and c >= 0 for c in counts) or sum(counts) < 1:
        raise ValidationError(f"profile {counts!r} must be non-negative integer counts, not both 0")
    return two_size_formula(game, mu_e, sigma_sq, scheme)(small_count, large_count)
