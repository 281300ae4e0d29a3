"""Command-line front end: error tables, weights, stability, construction,
Monte Carlo verification and reproduction of the reference tables.

All numeric logic lives in the library modules; this file only parses
inputs, dispatches and renders.  Players are written as letters a..m, then
p13, p14, ... (``p<index>`` is read for every player), a partition as
``{a,b}|{c}``, and numbers render with 6 decimals (round-half-even).  Exit
codes: 0 success, 1 validation/usage error, 2 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import constructive, errors, stability, weights
from .model import (
    CapExceededError,
    Coalition,
    Coarse,
    CoarseOptimal,
    FederationScheme,
    Fine,
    FineOptimal,
    GameConfig,
    LinRegSpec,
    Local,
    Number,
    Partition,
    TwoSizeGame,
    Uniform,
    ValidationError,
    _check_finite,
    enumerate_partitions,
)

LETTERS = "abcdefghijklm"

DOCUMENT_KEYS = {"mu_e", "sigma_sq", "players", "scheme", "linreg", "two_size", "mc"}
LINREG_KEYS = {"d", "sigma_bias_sq", "coef_variances"}
TWO_SIZE_KEYS = {"n_s", "n_l", "S", "L"}
MC_KEYS = {"trials", "seed", "theta_family", "theta_mean", "epsilon_rule", "sample_family"}

SCHEME_NAMES = ("local", "uniform", "coarse", "coarse-optimal", "fine", "fine-optimal")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# --- letters, coalitions, partitions -----------------------------------------


def player_letter(i: int) -> str:
    return LETTERS[i] if 0 <= i < len(LETTERS) else f"p{i}"


def _letter_index(token: str, m: int) -> int:
    """Read back a name ``player_letter`` writes; ``p<index>`` names any player."""
    token = token.strip()
    idx = LETTERS.find(token) if len(token) == 1 else -1
    digits = token[1:]
    if token[:1] == "p" and digits.isdecimal() and str(int(digits)) == digits:
        idx = int(digits)
    if idx < 0:
        last = LETTERS[min(m, len(LETTERS)) - 1]
        raise ValidationError(f"expected a player letter a..{last} or p<index>, got {token!r}")
    if idx >= m:
        raise ValidationError(f"player {token!r} out of range for {m} players")
    return idx


def parse_coalition(text: str, m: int) -> Coalition:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValidationError(f"coalition {text!r} must look like {{a,b}}")
    inner = text[1:-1].strip()
    if not inner:
        raise ValidationError("coalition must not be empty")
    return Coalition(tuple(_letter_index(tok, m) for tok in inner.split(",")))


def parse_partition(text: str, m: int) -> Partition:
    parts = [parse_coalition(piece, m) for piece in text.split("|")]
    partition = Partition(tuple(parts))
    if partition.player_count != m:
        raise ValidationError(
            f"partition covers {partition.player_count} players, expected {m}"
        )
    return partition


def format_coalition(coalition: Coalition) -> str:
    return "{" + ",".join(player_letter(i) for i in coalition) + "}"


def format_partition(partition: Partition) -> str:
    return "|".join(format_coalition(c) for c in partition.coalitions)


def format_profiles(profiles: Sequence[tuple[int, int]]) -> str:
    """Profile blocks as "pi(70,3) + 4 singletons"."""
    big = [p for p in profiles if sum(p) > 1]
    singles = len(profiles) - len(big)
    parts = [f"pi({s},{l})" for s, l in big]
    if singles == 1:
        parts.append("1 singleton")
    elif singles > 1:
        parts.append(f"{singles} singletons")
    return " + ".join(parts)


# --- rendering ----------------------------------------------------------------


def fmt_num(value: Number) -> str:
    """Six decimals of a float, or of an exact value's float; an exact value
    beyond the float range is rounded to six decimals by itself."""
    try:
        return f"{float(value):.6f}"
    except OverflowError:
        units, micros = divmod(round(abs(value) * 1_000_000), 1_000_000)
        return f"{'-' if value < 0 else ''}{units}.{micros:06d}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return out.getvalue().rstrip("\n")
    widths = [len(h) for h in headers]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = [" ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append(" ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# --- config / scheme ingestion ------------------------------------------------


def _parse_players(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"players: expected comma-separated integers, {exc}")


def _parse_number(text: str, exact: bool) -> Number:
    try:
        return Fraction(text) if exact else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad number {text!r}: {exc}")


def _strict_int(value: object, field: str) -> int:
    """An integer field of a config document; 2.5, "2" or true is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field}: must be an integer, got {value!r}")
    return value


def _player_key(key: str, m: int) -> int:
    if key.isdigit():
        idx = int(key)
        if not 0 <= idx < m:
            raise ValidationError(f"player index {key} out of range")
        return idx
    return _letter_index(key, m)


def _scheme_from_document(spec: object, m: int) -> FederationScheme:
    if isinstance(spec, str):
        kind = spec
        payload: dict = {}
    elif isinstance(spec, dict):
        unknown = set(spec) - {"kind", "weights", "rows"}
        if unknown:
            raise ValidationError(f"unknown scheme keys: {sorted(unknown)}")
        kind = spec.get("kind", "")
        payload = spec
    else:
        raise ValidationError("scheme must be a name or an object with a kind")
    if kind not in SCHEME_NAMES:
        raise ValidationError(f"unknown scheme {kind!r}, expected one of {SCHEME_NAMES}")
    if kind == "local":
        return Local()
    if kind == "uniform":
        return Uniform()
    if kind == "coarse-optimal":
        return CoarseOptimal()
    if kind == "fine-optimal":
        return FineOptimal()
    if kind == "coarse":
        raw = payload.get("weights")
        if isinstance(raw, list):
            if len(raw) != m:
                raise ValidationError(f"coarse weights need {m} entries, got {len(raw)}")
            return Coarse({i: w for i, w in enumerate(raw)})
        if isinstance(raw, dict):
            return Coarse({_player_key(k, m): w for k, w in raw.items()})
        raise ValidationError("coarse scheme needs a weights list or map")
    raw = payload.get("rows")
    if not isinstance(raw, dict):
        raise ValidationError("fine scheme needs a rows map: player -> {player: weight}")
    rows = {
        _player_key(k, m): {_player_key(kk, m): vv for kk, vv in row.items()}
        for k, row in raw.items()
    }
    return Fine(rows)


def _load_document(path: str, exact: bool) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            if exact:
                data = json.load(handle, parse_float=Fraction)
            else:
                data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer literal
        # with more digits than Python converts
        raise ValidationError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValidationError("config document must be a JSON object")
    unknown = set(data) - DOCUMENT_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return data


class Inputs:
    """Game config, scheme and auxiliary sections resolved from CLI args."""

    def __init__(self, args: argparse.Namespace) -> None:
        exact = getattr(args, "exact", False)
        doc: dict = {}
        if getattr(args, "config", None):
            doc = _load_document(args.config, exact)
        players = doc.get("players")
        if players is not None and not isinstance(players, list):
            raise ValidationError(f"players: must be a list of sample counts, got {players!r}")
        if getattr(args, "players", None):
            players = list(_parse_players(args.players))
        mu_e = doc.get("mu_e")
        if getattr(args, "mue", None) is not None:
            mu_e = _parse_number(args.mue, exact)
        sigma_sq = doc.get("sigma_sq")
        if getattr(args, "sigma2", None) is not None:
            sigma_sq = _parse_number(args.sigma2, exact)

        linreg = None
        self.coef_variances = None
        raw_linreg = doc.get("linreg")
        if getattr(args, "linreg_d", None) is not None:
            if args.linreg_bias is None:
                raise ValidationError("--linreg-d also needs --linreg-bias")
            raw_linreg = {
                "d": args.linreg_d,
                "sigma_bias_sq": _parse_number(args.linreg_bias, exact),
            }
        if raw_linreg is not None:
            unknown = set(raw_linreg) - LINREG_KEYS
            if unknown:
                raise ValidationError(f"unknown linreg keys: {sorted(unknown)}")
            coef = raw_linreg.get("coef_variances")
            bias = raw_linreg.get("sigma_bias_sq")
            if coef is not None:
                if not isinstance(coef, list):
                    raise ValidationError(
                        f"linreg.coef_variances: must be a list of numbers, got {coef!r}"
                    )
                for k, value in enumerate(coef):
                    _check_finite(f"linreg.coef_variances[{k}]", value)
                self.coef_variances = list(coef)
                if bias is None:
                    # left to right: from CPython 3.12 on, sum() compensates
                    # float rounding
                    bias = 0
                    for value in coef:
                        bias += value
            if bias is None:
                raise ValidationError("linreg needs sigma_bias_sq or coef_variances")
            linreg = LinRegSpec(d=_strict_int(raw_linreg.get("d"), "linreg.d"), sigma_bias_sq=bias)

        self.config: GameConfig | None = None
        if players is not None:
            if mu_e is None or sigma_sq is None:
                raise ValidationError("config needs players, mu_e and sigma_sq")
            self.config = GameConfig(tuple(players), mu_e, sigma_sq, linreg)

        self.scheme: FederationScheme | None = None
        raw_scheme = doc.get("scheme")
        if getattr(args, "scheme", None):
            if args.scheme == "coarse" and getattr(args, "w", None):
                raw_scheme = {
                    "kind": "coarse",
                    "weights": [_parse_number(t, exact) for t in args.w.split(",")],
                }
            else:
                raw_scheme = args.scheme
        if raw_scheme is not None:
            m = len(self.config.players) if self.config else len(LETTERS)
            self.scheme = _scheme_from_document(raw_scheme, m)

        self.two_size: TwoSizeGame | None = None
        raw_two = doc.get("two_size")
        if raw_two is not None:
            unknown = set(raw_two) - TWO_SIZE_KEYS
            if unknown:
                raise ValidationError(f"unknown two_size keys: {sorted(unknown)}")
            missing = TWO_SIZE_KEYS - set(raw_two)
            if missing:
                raise ValidationError(f"two_size section is missing {sorted(missing)}")
            fields = {k: _strict_int(raw_two[k], f"two_size.{k}") for k in TWO_SIZE_KEYS}
            self.two_size = TwoSizeGame(**fields)

        self.mc = dict(doc.get("mc") or {})
        unknown = set(self.mc) - MC_KEYS
        if unknown:
            raise ValidationError(f"unknown mc keys: {sorted(unknown)}")
        self.mu_e = mu_e
        self.sigma_sq = sigma_sq

    def require_config(self) -> GameConfig:
        if self.config is None:
            raise ValidationError("a game config is required (--config or --players/--mue/--sigma2)")
        return self.config

    def require_scheme(self) -> FederationScheme:
        if self.scheme is None:
            raise ValidationError(f"a scheme is required: one of {SCHEME_NAMES}")
        return self.scheme


# --- subcommands ----------------------------------------------------------------


def _print(text: str) -> None:
    sys.stdout.write(text + "\n")


def cmd_errors(args: argparse.Namespace) -> int:
    inputs = Inputs(args)
    config = inputs.require_config()
    scheme = inputs.require_scheme()
    m = len(config.players)
    if args.partition:
        partition = parse_partition(args.partition, m)
        report = errors.player_errors(partition, scheme, config)
        rows = [[player_letter(j), fmt_num(v)] for j, v in report.values.items()]
        _print(render_table(["player", "err"], rows, args.format))
        if report.note:
            _print(f"note: {report.note}")
        return 0
    if m > 5:
        raise ValidationError("full partition tables are limited to 5 players; use --partition")
    headers = ["structure"] + [f"err_{player_letter(j)}" for j in range(m)]
    rows = []
    note = None
    for partition in enumerate_partitions(m):
        report = errors.player_errors(partition, scheme, config)
        note = note or report.note
        rows.append(
            [format_partition(partition)] + [fmt_num(report.values[j]) for j in range(m)]
        )
    _print(render_table(headers, rows, args.format))
    if note:
        _print(f"note: {note}")
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    inputs = Inputs(args)
    config = inputs.require_config()
    m = len(config.players)
    coalition = (
        parse_coalition(args.coalition, m) if args.coalition else Coalition(tuple(range(m)))
    )
    headers = ["player", "w_opt", "coarse_opt_mse", "fine_opt_mse"]
    rows = []
    for j in coalition:
        rows.append(
            [
                player_letter(j),
                fmt_num(weights.optimal_w(j, coalition, config)),
                fmt_num(weights.optimal_coarse_mse(j, coalition, config)),
                fmt_num(weights.optimal_fine_mse(j, coalition, config)),
            ]
        )
    _print(render_table(headers, rows, args.format))
    if args.format == "plain":
        for j in coalition:
            row = weights.optimal_v(j, coalition, config).row
            cells = " ".join(f"{player_letter(i)}={fmt_num(v)}" for i, v in sorted(row.items()))
            _print(f"v[{player_letter(j)}]: {cells}")
    if config.linreg is not None:
        _print(f"note: {errors.LINREG_OPTIMAL_NOTE}")
    return 0


def _witness_text(witness) -> str:
    if isinstance(witness, Coalition):
        return f"blocking coalition {format_coalition(witness)}"
    return f"player {player_letter(witness.player)} moves to {format_coalition(witness.target)}"


def cmd_stability(args: argparse.Namespace) -> int:
    inputs = Inputs(args)
    config = inputs.require_config()
    scheme = inputs.require_scheme()
    prefs = stability.PreferenceOrder(exact=args.exact)
    m = len(config.players)
    if args.enumerate:
        found = stability.find_stable_partitions(config, scheme, args.notion, prefs)
        for partition in found:
            _print(format_partition(partition))
        return 0
    if not args.partition:
        raise ValidationError("stability needs --partition or --enumerate")
    partition = parse_partition(args.partition, m)
    check = {
        "core": stability.is_core_stable,
        "strict": stability.is_strict_core_stable,
        "individual": stability.is_individually_stable,
    }[args.notion]
    verdict = check(partition, scheme, config, prefs)
    if verdict.stable:
        _print("stable")
    else:
        _print(f"unstable ({_witness_text(verdict.witness)})")
    return 0


def _construct_uniform(
    game: TwoSizeGame, config: GameConfig, prefs: stability.PreferenceOrder
) -> tuple[constructive.ProfilePartition, stability.TwoSizeDeviation | None, tuple[int, int] | None]:
    """The constructed uniform-federation arrangement, its first individual
    deviation and its first blocking profile (None where there is none)."""
    built = constructive.construct_individually_stable_uniform(game, config, prefs)
    deviation = stability.two_size_individually_stable(game, built.profiles, Uniform(), config, prefs)
    blocked = stability.two_size_blocking_search(game, built.profiles, Uniform(), config, prefs)
    return built, deviation, blocked


def cmd_construct(args: argparse.Namespace) -> int:
    inputs = Inputs(args)
    game = inputs.two_size
    flags = (args.ns, args.nl, args.S, args.L)
    if any(v is not None for v in flags):
        if any(v is None for v in flags):
            raise ValidationError("construct flags need all of --ns --nl --S --L")
        game = TwoSizeGame(n_s=args.ns, n_l=args.nl, S=args.S, L=args.L)
    if game is None:
        raise ValidationError(
            "construct needs --ns/--nl/--S/--L or a config with a two_size section"
        )
    if inputs.mu_e is None or inputs.sigma_sq is None:
        raise ValidationError("construct needs --mue and --sigma2 (or a config)")
    config = constructive.two_size_game_config(game, inputs.mu_e, inputs.sigma_sq)
    prefs = stability.PreferenceOrder(exact=args.exact)
    if args.uniform:
        built, deviation, blocked = _construct_uniform(game, config, prefs)
        indiv = "yes" if deviation is None else f"no ({deviation.role} leaves)"
        core = "yes" if blocked is None else f"no (blocked by pi({blocked[0]},{blocked[1]}))"
        _print(f"{format_profiles(built.profiles)}; individually stable: {indiv}; core stable: {core}")
        return 0
    built = constructive.construct_strict_core_coarse(game, config, prefs)
    weak = stability.two_size_weak_blocking_search(
        game, built.profiles, CoarseOptimal(), config, prefs
    )
    strict = "yes" if weak is None else f"no (weakly blocked by pi({weak[0]},{weak[1]}))"
    _print(f"{format_profiles(built.profiles)}; strictly core stable: {strict}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import montecarlo  # numpy loads here, not at start-up

    trials = args.trials
    seed = args.seed
    if args.battery:
        plan = montecarlo.TrialPlan(trials=trials, seed=seed)
        headers = ["case", "closed_form", "empirical", "se", "z"]
        rows = []
        for case in montecarlo.agreement_battery():
            result = montecarlo.run_case(case, plan)
            z = (result.mse - case.expected) / result.se if result.se else float("inf")
            rows.append(
                [case.label, fmt_num(case.expected), fmt_num(result.mse), fmt_num(result.se), f"{z:+.2f}"]
            )
        _print(render_table(headers, rows, args.format))
        return 0
    inputs = Inputs(args)
    config = inputs.require_config()
    scheme = inputs.require_scheme()
    m = len(config.players)
    coalition = (
        parse_coalition(args.coalition, m) if args.coalition else Coalition(tuple(range(m)))
    )
    mc = inputs.mc
    plan = montecarlo.TrialPlan(
        trials=_strict_int(mc.get("trials", trials), "mc.trials"),
        seed=_strict_int(mc.get("seed", seed), "mc.seed"),
    )
    dist = montecarlo.DistributionSpec(
        theta_family=mc.get("theta_family", "gaussian"),
        theta_mean=float(mc.get("theta_mean", 0.0)),
        epsilon_rule=mc.get("epsilon_rule", "constant"),
        sample_family=mc.get("sample_family", "gaussian"),
    )
    headers = ["player", "closed_form", "empirical", "se", "z"]
    rows = []
    for j in coalition:
        closed = float(errors.coalition_member_mse(j, coalition, scheme, config))
        explicit = Fine({j: weights.explicit_row(j, coalition, scheme, config)})
        if config.linreg is None:
            result = montecarlo.empirical_mse_mean(config, coalition, explicit, j, dist, plan)
        else:
            result = montecarlo.empirical_mse_linreg(
                config, coalition, explicit, j, plan, inputs.coef_variances
            )
        z = (result.mse - closed) / result.se if result.se else float("inf")
        rows.append(
            [player_letter(j), fmt_num(closed), fmt_num(result.mse), fmt_num(result.se), f"{z:+.2f}"]
        )
    _print(render_table(headers, rows, args.format))
    return 0


# --- reproduce -----------------------------------------------------------------


def _reference_tables() -> list[dict]:
    mean = lambda players: GameConfig(tuple(players), 10, 1)  # noqa: E731
    return [
        {
            "number": 1,
            "title": "Table 1: uniform federation, players with 5,5,5 samples (mu_e=10, sigma_sq=1)",
            "config": mean([5, 5, 5]),
            "scheme": Uniform(),
            "blocks": [[[0], [1], [2]], [[0, 1], [2]], [[0, 1, 2]]],
            "show": [0, 1, 2],
        },
        {
            "number": 2,
            "title": "Table 2: uniform federation, players with 5,5,25 samples (mu_e=10, sigma_sq=1)",
            "config": mean([5, 5, 25]),
            "scheme": Uniform(),
            "blocks": [
                [[0], [1], [2]],
                [[0, 1], [2]],
                [[0], [1, 2]],
                [[0, 1, 2]],
            ],
            "show": [0, 1, 2],
        },
        {
            "number": 3,
            "title": "Table 3: uniform federation, players with 25,25,25 samples (mu_e=10, sigma_sq=1)",
            "config": mean([25, 25, 25]),
            "scheme": Uniform(),
            "blocks": [[[0], [1], [2]], [[0, 1], [2]], [[0, 1, 2]]],
            "show": [0, 1, 2],
        },
        {
            "number": 4,
            "title": "Table 4: optimal coarse-grained federation, players with 30,30,30,300 samples (mu_e=10, sigma_sq=1)",
            "config": mean([30, 30, 30, 300]),
            "scheme": CoarseOptimal(),
            "blocks": [[[0], [1], [2], [3]], [[0, 1, 2], [3]], [[0, 1, 2, 3]]],
            "show": [0, 3],
        },
        {
            "number": 5,
            "title": "Table 5: optimal fine-grained federation, players with 30,30,30,300 samples (mu_e=10, sigma_sq=1)",
            "config": mean([30, 30, 30, 300]),
            "scheme": FineOptimal(),
            "blocks": [[[0], [1], [2], [3]], [[0, 1, 2], [3]], [[0, 1, 2, 3]]],
            "show": [0, 3],
        },
    ]


def _emit_reference_table(spec: dict, fmt: str) -> None:
    config: GameConfig = spec["config"]
    headers = ["structure"] + [f"err_{player_letter(j)}" for j in spec["show"]]
    rows = []
    for blocks in spec["blocks"]:
        partition = Partition.from_blocks(blocks)
        report = errors.player_errors(partition, spec["scheme"], config)
        rows.append(
            [format_partition(partition)] + [fmt_num(report.values[j]) for j in spec["show"]]
        )
    _print(spec["title"])
    _print(render_table(headers, rows, fmt))


def _emit_counterexample(fmt: str) -> None:
    game = TwoSizeGame(n_s=11, n_l=106, S=70, L=7)

    def err(s: int, l: int) -> tuple:
        return errors.two_size_errors(game, s, l, 100, 1, Uniform())

    values = [
        ("err_s(pi(70,3))", err(70, 3)[0]),
        ("err_s(pi(70,0))", err(70, 0)[0]),
        ("err_l(pi(70,3))", err(70, 3)[1]),
        ("err_l(pi(0,1))", err(0, 1)[1]),
        ("err_l(pi(70,4))", err(70, 4)[1]),
        ("err_s(pi(68,4))", err(68, 4)[0]),
        ("err_l(pi(68,4))", err(68, 4)[1]),
    ]
    _print(
        "Counterexample (individually stable, not core stable): uniform "
        "federation, mu_e=100, sigma_sq=1, n_s=11, n_l=106, S=70, L=7"
    )
    rows = [[name, fmt_num(v)] for name, v in values]
    _print(render_table(["quantity", "value"], rows, fmt))
    config = constructive.two_size_game_config(game, 100, 1)
    built, deviation, blocked = _construct_uniform(game, config, stability.PreferenceOrder())
    core = "yes" if blocked is None else f"no (blocked by pi({blocked[0]},{blocked[1]}))"
    _print(f"constructed: {format_profiles(built.profiles)}")
    _print(f"individually stable: {'yes' if deviation is None else 'no'}")
    _print(f"core stable: {core}")


def cmd_reproduce(args: argparse.Namespace) -> int:
    tables = _reference_tables()
    if args.all:
        chosen = [str(t["number"]) for t in tables] + ["counterexample"]
    elif args.table:
        chosen = [args.table]
    else:
        raise ValidationError("reproduce needs --table N or --all")
    first = True
    for token in chosen:
        if not first:
            _print("")
        first = False
        if token == "counterexample":
            _emit_counterexample(args.format)
            continue
        spec = next((t for t in tables if str(t["number"]) == token), None)
        if spec is None:
            raise ValidationError(f"unknown table {token!r}; expected 1..5 or counterexample")
        _emit_reference_table(spec, args.format)
    return 0


# --- parser --------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, with_scheme: bool = True) -> None:
    parser.add_argument("--config", help="JSON config document")
    parser.add_argument("--players", help="comma-separated sample counts, e.g. 5,5,25")
    parser.add_argument("--mue", help="expected sampling-noise variance mu_e")
    parser.add_argument("--sigma2", help="variance of true parameters sigma_sq")
    parser.add_argument("--linreg-d", type=int, help="linear-regression dimension")
    parser.add_argument("--linreg-bias", help="aggregate bias coefficient sigma_bias_sq")
    parser.add_argument("--exact", action="store_true", help="exact rational arithmetic")
    parser.add_argument("--format", choices=("plain", "csv"), default="plain")
    if with_scheme:
        parser.add_argument("--scheme", choices=SCHEME_NAMES, help="federation scheme")
        parser.add_argument("--w", help="comma-separated coarse weights, aligned with players")


def build_parser() -> _Parser:
    parser = _Parser(prog="fedgame", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_err = sub.add_parser("errors", help="per-player expected MSE tables")
    _add_common(p_err)
    p_err.add_argument("--partition", help='partition such as "{a,b}|{c}"')
    p_err.set_defaults(func=cmd_errors)

    p_w = sub.add_parser("weights", help="optimal personalization weights and errors")
    _add_common(p_w, with_scheme=False)
    p_w.add_argument("--coalition", help='coalition such as "{a,b}" (default: everyone)')
    p_w.set_defaults(func=cmd_weights)

    p_st = sub.add_parser("stability", help="stability verdicts and stable sets")
    _add_common(p_st)
    p_st.add_argument("--partition", help='partition such as "{a,b}|{c}"')
    p_st.add_argument("--enumerate", action="store_true", help="list all stable partitions")
    p_st.add_argument(
        "--notion", choices=stability.NOTIONS, default="core", help="stability notion"
    )
    p_st.set_defaults(func=cmd_stability)

    p_c = sub.add_parser("construct", help="constructive two-size arrangements")
    group = p_c.add_mutually_exclusive_group(required=True)
    group.add_argument("--uniform", action="store_true", help="individually stable, uniform")
    group.add_argument("--coarse", action="store_true", help="strictly core stable, optimal coarse")
    p_c.add_argument("--config", help="JSON config document with a two_size section")
    p_c.add_argument("--ns", type=int, help="small sample count n_s")
    p_c.add_argument("--nl", type=int, help="large sample count n_l")
    p_c.add_argument("--S", type=int, help="number of small players")
    p_c.add_argument("--L", type=int, help="number of large players")
    p_c.add_argument("--mue", help="mu_e")
    p_c.add_argument("--sigma2", help="sigma_sq")
    p_c.add_argument("--exact", action="store_true")
    p_c.set_defaults(func=cmd_construct)

    p_v = sub.add_parser("verify", help="Monte Carlo vs closed-form comparison")
    _add_common(p_v)
    p_v.add_argument("--coalition", help='coalition such as "{a,b}" (default: everyone)')
    p_v.add_argument("--trials", type=int, default=20000)
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--battery", action="store_true", help="run the 12-case agreement battery")
    p_v.set_defaults(func=cmd_verify)

    p_r = sub.add_parser("reproduce", help="emit the reference tables")
    p_r.add_argument("--table", help="1..5 or counterexample")
    p_r.add_argument("--all", action="store_true", help="all tables plus the counterexample numbers")
    p_r.add_argument("--format", choices=("plain", "csv"), default="plain")
    p_r.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            sys.stderr.write("error: a subcommand is required\n")
            return 1
        return args.func(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
