import json

from carmsim import cli


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_facts_text(capsys):
    code, out, _ = run_cli(["facts", "561"], capsys)
    assert code == 0
    assert "CompositeCarmichael" in out
    assert "phi: 320" in out and "t_k: 0" in out


def test_facts_prime_and_json(capsys):
    code, out, _ = run_cli(["facts", "2", "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["facts"]["classification"] == "Prime"
    code, out, _ = run_cli(["facts", "15"], capsys)
    assert "t_k: 4" in out


def test_certify_flow(capsys):
    code, out, _ = run_cli(
        ["certify", "561", "--P", "16", "--R", "2", "--reps", "3", "--seed", "1"], capsys
    )
    assert code == 0
    assert "majority: ProbablyCarmichael" in out
    code, out, _ = run_cli(["certify", "15", "--reps", "3"], capsys)
    assert code == 0
    assert "majority: NotCarmichael" in out


def test_certify_prime_exits_2(capsys):
    code, _, err = run_cli(["certify", "13", "--reps", "1"], capsys)
    assert code == 2
    assert "prime" in err


def test_certify_reps_below_one_exits_2(capsys):
    for reps in ("0", "-3"):
        code, out, err = run_cli(["certify", "561", "--reps", reps], capsys)
        assert code == 2
        assert out == ""
        assert "reps must be >= 1" in err


def test_two_plane_reach_beyond_dense_limits(capsys):
    # 151 * 751 * 28351 lies above the base mask's k < 2^31 guard
    code, out, _ = run_cli(["certify", "3215031751", "--reps", "3"], capsys)
    assert code == 0
    assert "majority: ProbablyCarmichael (3/3 ProbablyCarmichael)" in out
    assert out.count("exact_allzero=1.0") == 3
    # 1024 * 10^5 dense amplitudes would exceed the 2^26 cap
    code, out, _ = run_cli(["count-carmichael", "100000", "--Q", "1024", "--reps", "3"], capsys)
    assert code == 0
    assert "t_N: 16" in out.splitlines()
    # the cap still binds the counters: 4096^3 * 2 amplitudes
    code, out, err = run_cli(["certify", "15", "--P", "4096", "--R", "3"], capsys)
    assert code == 3
    assert out == "" and "capacity" in err.lower()


def test_capacity_exits_3(capsys):
    code, _, err = run_cli(["enumerate", "100000000"], capsys)
    assert code == 3
    assert "capacity" in err.lower()


def test_enumerate_output(capsys):
    code, out, _ = run_cli(["enumerate", "10000"], capsys)
    assert code == 0
    assert out.splitlines()[-1].strip() == "8911"
    code, out, _ = run_cli(["enumerate", "10000", "--output", "json"], capsys)
    payload = json.loads(out)
    assert payload["count"] == 7
    assert payload["carmichaels"][-1] == 8911


def test_count_carmichael_summary(capsys):
    code, out, _ = run_cli(
        ["count-carmichael", "600", "--Q", "64", "--reps", "20", "--seed", "7", "--output", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t_N"] == 1
    assert payload["success_fraction"] >= 0.81
    assert len(payload["estimates"]) == 20


def test_count_bases(capsys):
    code, out, _ = run_cli(
        ["count-bases", "15", "--P", "16", "--reps", "10", "--output", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t_true"] == 4
    assert set(payload["estimates"][0]) == {"l", "f_tilde", "theta_tilde", "t_tilde", "bound", "in_ansatz"}


def test_psw_csv_columns(capsys):
    code, out, _ = run_cli(
        ["psw", "10000", "--epsilon", "0.5", "--delta", "0.05", "--reps", "5", "--output", "csv"],
        capsys,
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "N,t_N,t_tilde,dt_exp,dt_th,psw_lower,psw_upper,Q,epsilon,delta"
    assert row.split(",")[0] == "10000" and row.split(",")[1] == "7"


def test_bounds_command(capsys):
    code, out, _ = run_cli(["bounds", "500", "--P", "16", "--output", "json"], capsys)
    assert code == 0
    payload = json.loads(out)["bounds"]
    assert payload["correction_ok"] is True
    assert payload["beta_violations"] == []


def test_byte_identical_outputs(tmp_path):
    cases = [
        ["certify", "15", "--mode", "sample", "--reps", "5", "--seed", "3", "--output", "json"],
        ["count-carmichael", "600", "--Q", "64", "--reps", "10", "--seed", "4", "--output", "csv"],
        ["psw", "10000", "--reps", "5", "--seed", "5", "--output", "csv"],
        ["facts", "561", "--output", "json"],
    ]
    for i, args in enumerate(cases):
        first = tmp_path / f"a{i}.txt"
        second = tmp_path / f"b{i}.txt"
        assert cli.main(args + ["--out", str(first)]) == 0
        assert cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes()  # nonempty


def test_different_seed_changes_sampled_output(tmp_path):
    base = ["certify", "15", "--mode", "sample", "--reps", "8", "--output", "json"]
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert cli.main(base + ["--seed", "1", "--out", str(one)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(two)]) == 0
    assert one.read_bytes() != two.read_bytes()
