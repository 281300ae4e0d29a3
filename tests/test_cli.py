import json
from pathlib import Path

import pytest

from fedgame import ValidationError
from fedgame.cli import format_partition, main, parse_coalition, parse_partition, render_table

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- reproduce -------------------------------------------------------------------


def test_reproduce_table1_values(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--table", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("Table 1")
    assert lines[2].split() == ["{a}|{b}|{c}", "2.000000", "2.000000", "2.000000"]
    assert lines[3].split() == ["{a,b}|{c}", "1.500000", "1.500000", "2.000000"]
    assert lines[4].split() == ["{a,b,c}", "1.333333", "1.333333", "1.333333"]


def test_reproduce_all_matches_golden_bytes(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--all")
    assert code == 0
    assert out == GOLDEN.joinpath("reproduce_all.txt").read_text()
    code, out, _ = run_cli(capsys, "reproduce", "--all", "--format", "csv")
    assert code == 0
    assert out == GOLDEN.joinpath("reproduce_all_csv.txt").read_text()


def test_reproduce_requires_selection(capsys):
    code, _, err = run_cli(capsys, "reproduce")
    assert code == 1 and "reproduce needs" in err


# --- errors ----------------------------------------------------------------------


def test_errors_single_partition_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "errors",
        "--players",
        "30,30,30,300",
        "--mue",
        "10",
        "--sigma2",
        "1",
        "--scheme",
        "coarse-optimal",
        "--partition",
        "{a,b,c,d}",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "player,err"
    assert lines[1] == "a,0.279642"
    assert lines[4] == "d,0.032581"


def test_errors_all_partitions_table(capsys):
    code, out, _ = run_cli(
        capsys, "errors", "--players", "5,5,5", "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["structure", "err_a", "err_b", "err_c"]
    assert len(lines) == 1 + 5  # Bell(3) partitions


def test_errors_prints_an_exact_error_beyond_the_float_range(capsys):
    # player a's exact local error is 4e308, beyond the float range
    argv = (
        "errors", "--players", "6,200", "--mue", "1e308", "--sigma2", "1",
        "--linreg-d", "4", "--linreg-bias", "1", "--scheme", "uniform",
    )
    code, out, _ = run_cli(capsys, *argv, "--exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[2].split()[:2] == ["{a}|{b}", "4" + "0" * 308 + ".000000"]
    # in floats the same error overflows and is refused
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:") and "overflows" in err


def test_errors_needs_partition_beyond_five_players(capsys):
    code, _, err = run_cli(
        capsys, "errors", "--players", "5,5,5,5,5,5", "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform",
    )
    assert code == 1 and "--partition" in err


# --- weights ----------------------------------------------------------------------


def test_weights_reference_population(capsys):
    code, out, _ = run_cli(
        capsys, "weights", "--players", "30,30,30,300", "--mue", "10", "--sigma2", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["player", "w_opt", "coarse_opt_mse", "fine_opt_mse"]
    assert lines[1].split() == ["a", "0.825503", "0.279642", "0.269424"]
    assert any(line.startswith("v[a]:") for line in lines)


# --- stability ----------------------------------------------------------------------


def test_stability_individual_from_config_document(tmp_path, capsys):
    doc = {"players": [5, 5, 25], "mu_e": 10, "sigma_sq": 1, "scheme": "uniform"}
    path = tmp_path / "t2.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        capsys, "stability", "--config", str(path),
        "--partition", "{a,b}|{c}", "--notion", "individual",
    )
    assert code == 0
    assert out.strip() == "stable"


def test_stability_witness_reported(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--players", "5,5,25", "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform", "--partition", "{a}|{b,c}", "--notion", "core",
    )
    assert code == 0
    assert out.strip() == "unstable (blocking coalition {a,b})"


def test_stability_partition_names_players_beyond_m(capsys):
    # 14 players: the fourteenth prints as p13 and must read back as p13.
    players = ",".join(["5"] * 14)
    common = ("stability", "--players", players, "--mue", "10", "--sigma2", "1", "--scheme", "uniform")
    singletons = "|".join("{%s}" % name for name in [*"abcdefghijklm", "p13"])
    code, out, err = run_cli(capsys, *common, "--partition", singletons)
    assert (code, out, err) == (0, "unstable (blocking coalition {a,b})\n", "")
    grand = "{" + ",".join([*"abcdefghijklm", "p13"]) + "}"
    code, out, err = run_cli(capsys, *common, "--partition", grand)
    assert (code, out, err) == (0, "stable\n", "")


def test_stability_enumerate(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--players", "5,5,25", "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform", "--enumerate", "--notion", "core",
    )
    assert code == 0
    assert out.strip() == "{a,b}|{c}"


def test_stability_exact_mode_boundary(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--players", "10,10", "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform", "--partition", "{a}|{b}", "--notion", "strict", "--exact",
    )
    assert code == 0
    assert out.strip() == "stable"


def test_stability_cap_exit_code(capsys):
    players = ",".join(["5"] * 14)
    code, _, err = run_cli(
        capsys, "stability", "--players", players, "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform", "--enumerate", "--notion", "core",
    )
    assert code == 2 and "cap" in err


# --- construct ----------------------------------------------------------------------


def test_construct_uniform_counterexample_line(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--uniform", "--ns", "11", "--nl", "106",
        "--S", "70", "--L", "7", "--mue", "100", "--sigma2", "1",
    )
    assert code == 0
    assert out.strip() == (
        "pi(70,3) + 4 singletons; individually stable: yes; "
        "core stable: no (blocked by pi(68,4))"
    )


def test_construct_coarse_split(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--coarse", "--ns", "30", "--nl", "300",
        "--S", "3", "--L", "1", "--mue", "10", "--sigma2", "1",
    )
    assert code == 0
    assert out.strip() == "pi(3,0) + 1 singleton; strictly core stable: yes"


def test_construct_validation_exit(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--uniform", "--ns", "5", "--nl", "9",
        "--S", "2", "--L", "1", "--mue", "10", "--sigma2", "1",
    )
    assert code == 1 and "n_l" in err


# --- verify ----------------------------------------------------------------------------


def test_verify_runs_small_mean_case(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--players", "5,5", "--mue", "10", "--sigma2", "1",
        "--scheme", "uniform", "--trials", "3000", "--seed", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["player", "closed_form", "empirical", "se", "z"]
    assert len(lines) == 3


def test_verify_battery_smoke(capsys):
    code, out, _ = run_cli(capsys, "verify", "--battery", "--trials", "500", "--seed", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 13


# --- plumbing ----------------------------------------------------------------------------


def test_unknown_subcommand_usage_exit_1(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_missing_subcommand_exit_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_unknown_document_keys_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"players": [5], "mu_e": 1, "sigma_sq": 1, "extra": 2}))
    code, _, err = run_cli(capsys, "errors", "--config", str(path), "--scheme", "uniform")
    assert code == 1 and "unknown config keys" in err


def test_invalid_config_value_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "errors", "--players", "5", "--mue", "-3", "--sigma2", "1",
        "--scheme", "uniform",
    )
    assert code == 1 and "mu_e" in err


@pytest.mark.parametrize("d", [2.5, "2", True, None])
def test_non_integral_linreg_d_exit_1(tmp_path, capsys, d):
    linreg = {"sigma_bias_sq": 1} if d is None else {"d": d, "sigma_bias_sq": 1}
    doc = {"players": [30, 40], "mu_e": 10, "sigma_sq": 1, "linreg": linreg}
    path = tmp_path / "linreg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "errors", "--config", str(path), "--scheme", "uniform")
    assert code == 1 and "linreg.d" in err and out == ""


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"players": 5}, "players"),
        ({"linreg": {"d": 2, "coef_variances": ["a"]}}, "linreg.coef_variances[0]"),
        ({"linreg": {"d": 2, "coef_variances": [0.5, None]}}, "linreg.coef_variances[1]"),
        ({"linreg": {"d": 2, "coef_variances": [0.5, True]}}, "linreg.coef_variances[1]"),
        ({"linreg": {"d": 2, "coef_variances": 1}}, "linreg.coef_variances"),
    ],
)
def test_ill_typed_document_field_exit_1(tmp_path, capsys, doc, field):
    path = tmp_path / "ill_typed.json"
    path.write_text(json.dumps({"players": [30, 40], "mu_e": 10, "sigma_sq": 1, **doc}))
    code, out, err = run_cli(capsys, "errors", "--config", str(path), "--scheme", "uniform")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "digits, message",
    [(401, "mu_e: must be finite"), (5001, "is not valid JSON")],
)
def test_integer_beyond_the_float_range_exit_1(tmp_path, capsys, digits, message):
    # written by hand: json.dumps cannot print a 5001-digit integer
    mu_e = "1" + "0" * (digits - 1)
    path = tmp_path / "big.json"
    path.write_text(f'{{"players": [5, 5], "mu_e": {mu_e}, "sigma_sq": 1}}')
    code, out, err = run_cli(capsys, "errors", "--config", str(path), "--scheme", "uniform")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("field", ["n_s", "n_l", "S", "L"])
def test_non_integral_two_size_field_exit_1(tmp_path, capsys, field):
    two_size = {"n_s": 11, "n_l": 106, "S": 70, "L": 7}
    two_size[field] += 0.5
    path = tmp_path / "two_size.json"
    path.write_text(json.dumps({"mu_e": 100, "sigma_sq": 1, "two_size": two_size}))
    code, out, err = run_cli(capsys, "construct", "--uniform", "--config", str(path))
    assert code == 1 and f"two_size.{field}" in err and out == ""


def test_non_integral_mc_fields_exit_1(tmp_path, capsys):
    doc = {"players": [5, 5], "mu_e": 10, "sigma_sq": 1, "mc": {"trials": 2000.7, "seed": 3.9}}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--scheme", "uniform")
    assert code == 1 and "mc.trials" in err and out == ""
    doc["mc"] = {"trials": 200, "seed": 3.9}
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--scheme", "uniform")
    assert code == 1 and "mc.seed" in err and out == ""


def test_partition_grammar():
    p = parse_partition("{a,c}|{b}", 3)
    assert [c.members for c in p.coalitions] == [(0, 2), (1,)]
    assert format_partition(p) == "{a,c}|{b}"
    with pytest.raises(Exception):
        parse_partition("{a}|{b}", 3)  # player c missing
    fourteen = parse_partition("{p0,b}|{c,d,e,f,g,h,i,j,k,l,m,p13}", 14)
    assert format_partition(fourteen) == "{a,b}|{c,d,e,f,g,h,i,j,k,l,m,p13}"
    with pytest.raises(ValidationError, match="out of range"):
        parse_coalition("{a,p14}", 14)
    for bad in ("{a,p013}", "{a,p}", "{a,n}", "{a,p-1}", "{a,p\u0661}", "{a,p\u00b2}"):
        with pytest.raises(ValidationError, match="expected a player letter"):
            parse_coalition(bad, 14)


def test_render_table_alignment_and_csv_quoting():
    plain = render_table(["x", "value"], [["{a,b}", "1.5"], ["{c}", "10.25"]], "plain")
    assert plain.splitlines() == ["x     value", "{a,b} 1.5", "{c}   10.25"]
    quoted = render_table(["x"], [["{a,b}"]], "csv")
    assert quoted.splitlines()[1] == '"{a,b}"'


def test_errors_with_inline_coarse_weights(capsys):
    code, out, _ = run_cli(
        capsys, "errors", "--players", "5,5", "--mue", "10", "--sigma2", "1",
        "--scheme", "coarse", "--w", "1,1", "--partition", "{a,b}",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split() == ["a", "2.000000"]  # w=1 is pure local learning


def test_verify_linreg_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--players", "30,40", "--mue", "10", "--sigma2", "1",
        "--linreg-d", "2", "--linreg-bias", "1", "--scheme", "uniform",
        "--trials", "2000", "--seed", "9",
    )
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    for row in rows:
        assert abs(float(row[4])) < 5  # z column sane


def test_weights_note_for_linreg(capsys):
    code, out, _ = run_cli(
        capsys, "weights", "--players", "30,40", "--mue", "10", "--sigma2", "1",
        "--linreg-d", "2", "--linreg-bias", "1",
    )
    assert code == 0
    assert "mean-estimation approximation" in out


def test_construct_from_config_document(tmp_path, capsys):
    doc = {
        "mu_e": 100,
        "sigma_sq": 1,
        "two_size": {"n_s": 11, "n_l": 106, "S": 70, "L": 7},
    }
    path = tmp_path / "two_size.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "construct", "--uniform", "--config", str(path))
    assert code == 0
    assert out.startswith("pi(70,3) + 4 singletons")


def test_construct_partial_flags_rejected(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--uniform", "--ns", "5", "--mue", "10", "--sigma2", "1",
    )
    assert code == 1 and "all of" in err
