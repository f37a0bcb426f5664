import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from carmsim import cli, counting

ROOT = Path(__file__).resolve().parents[1]


def run_process(args, stdout=subprocess.PIPE):
    """Run a Python module or script in a fresh interpreter over src/.

    stdout is block-buffered, as in a plain shell, even where the caller's
    environment sets PYTHONUNBUFFERED.
    """
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )


CONFIG_KEYS = ["command", "target", "P", "R", "Q", "epsilon", "delta", "mode", "seed", "reps"]


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
    for args in (["enumerate", "1000000001"], ["bounds", "10000001"]):
        code, _, err = run_cli(args, capsys)
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


def test_count_bases_carmichael_reads_zero(capsys):
    code, out, _ = run_cli(["count-bases", "561", "--reps", "10", "--seed", "0", "--output", "json"], capsys)
    assert code == 0
    assert all(e["t_tilde"] == 0.0 for e in json.loads(out)["estimates"])


def test_count_bases_within_bound(capsys):
    for k, t in ((15, 4), (25, 16)):
        args = ["count-bases", str(k), "--P", "16", "--reps", "120", "--seed", "4", "--output", "json"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        estimates = json.loads(out)["estimates"]
        bound = counting.estimate_error_bound(k, 16, t)
        assert all(e["bound"] == bound for e in estimates)
        hits = sum(1 for e in estimates if abs(e["t_tilde"] - t) <= bound)
        assert hits / len(estimates) >= 8 / math.pi**2
    code, out, err = run_cli(["count-bases", "13", "--P", "16"], capsys)
    assert code == 2 and out == ""
    assert err == "error: 13 is prime; certification presumes a composite input\n"


def test_psw_csv_columns(capsys):
    code, out, _ = run_cli(
        ["psw", "10000", "--epsilon", "0.5", "--delta", "0.05", "--reps", "5", "--output", "csv"],
        capsys,
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "N,t_N,t_tilde,dt_exp,dt_th,psw_lower,psw_upper,Q,epsilon,delta"
    assert row.split(",")[0] == "10000" and row.split(",")[1] == "7"


def test_psw_at_the_pomerance_selfridge_wagstaff_scale(capsys):
    # N = 10^8, the regime of the paper's density application: t_N is
    # Pinch's C(10^8) and the policy counter is ceil(l(N)^1.4)
    code, out, _ = run_cli(["psw", "100000000", "--reps", "5", "--output", "json"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    assert report["t_N"] == 255 and report["Q"] == 12906


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


#: sha256 of stdout with --seed 42 --output json; a shift in any rep's
#: stream or in the map from its uniform to an outcome changes a digest
PINNED_STDOUT = [
    (["certify", "561", "--mode", "exact"], "839330a8950435e31bce2f2fba5c9b796f9b952c6c1aa4ff9071136dea51a971"),
    (["certify", "561", "--mode", "sample"], "e443be509221342fceb6e877c3f7cee047bf530a85d3f81b1b4a57eb6c5decbb"),
    (["certify", "15", "--mode", "exact"], "2d51e4a17158a9711aa8acc38b9ceea6a934f1b657c2532033bf95499aba86fc"),
    (["certify", "15", "--mode", "sample"], "adb2f2cdb8e934ecb9a8281e82d358c0edbefe46f7b68e8c2be91202559cdcff"),
    (["count-bases", "25001", "--P", "64"], "b7f2a921fb5c3a6cff90127c3a7a0038a005fa2421ad9a99cfa16375082874dd"),
    (["count-carmichael", "65000", "--Q", "64"], "99f9a719e6f9cd574796d49721e95ef015cefda8e199b88235eb501775cebd4c"),
    (["psw", "10000", "--reps", "5"], "eb4f4f648c5a50ec82ceba3d2cb9a269678e8c3eef2380667224ea2f4929244a"),
]


@pytest.mark.parametrize("args,digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_seeded_stdout_is_pinned(args, digest, capsys):
    code, out, _ = run_cli(args + ["--seed", "42", "--output", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_different_seed_changes_sampled_output(tmp_path):
    base = ["certify", "15", "--mode", "sample", "--reps", "8", "--output", "json"]
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert cli.main(base + ["--seed", "1", "--out", str(one)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(two)]) == 0
    assert one.read_bytes() != two.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["psw", "10000", "--epsilon", "nan"],
        ["psw", "10000", "--delta", "nan"],
        ["psw", "10000", "--epsilon", "inf"],
        ["psw", "10000", "--Q", "64", "--epsilon", "nan", "--output", "json"],
        ["psw", "10000", "--Q", "-5", "--reps", "5"],
    ],
)
def test_psw_bad_options_exit_2(args):
    proc = run_process(["-m", "carmsim.cli", *args])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")


def test_unwritable_out_path_exits_2(tmp_path):
    target = tmp_path / "missing" / "x"
    proc = run_process(["-m", "carmsim.cli", "facts", "561", "--out", str(target)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {target}")


def test_subcommand_defaults(capsys):
    for args, expected in [
        (["facts", "561"], {"P": 16, "R": 2, "Q": 128, "epsilon": 0.5, "delta": 0.05}),
        (["bounds", "500"], {"P": 64, "Q": 128}),
        (["psw", "10000", "--reps", "2"], {"P": 16, "Q": 0, "mode": "exact"}),
        (["count-carmichael", "600", "--reps", "2"], {"Q": 128, "seed": 42}),
    ]:
        code, out, _ = run_cli(args + ["--output", "json"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert list(config) == CONFIG_KEYS
        assert {key: config[key] for key in expected} == expected


COMMANDS = [
    ["facts", "561"],
    ["certify", "15", "--mode", "sample", "--reps", "5"],
    ["count-bases", "15", "--P", "16", "--reps", "5"],
    ["count-carmichael", "600", "--Q", "64", "--reps", "5"],
    ["psw", "1000", "--reps", "3"],
    ["bounds", "2000"],
    ["enumerate", "10000"],
]


@pytest.mark.parametrize("output", ["text", "json", "csv"])
@pytest.mark.parametrize("args", COMMANDS, ids=[args[0] for args in COMMANDS])
def test_every_command_renders_every_form(args, output, capsys):
    code, out, err = run_cli(args + ["--output", output], capsys)
    assert code == 0 and err == ""
    if output == "json":
        payload = json.loads(out)
        assert list(payload)[0] == "config" and list(payload["config"]) == CONFIG_KEYS
    elif output == "csv":
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert rows and all(len(row) == len(header) for row in rows)
    assert out.endswith("\n") and len(out) > 1


def test_csv_quotes_a_field_holding_a_comma():
    record = cli.Record(table=lambda: (["name", "value", "flag"], [["6,9", None, True], ["x", 1.5, False]]))
    assert cli.render("csv", record) == 'name,value,flag\n"6,9",None,True\nx,1.5,False\n'


BAD_INPUTS = {
    "certify-seed": (["certify", "15", "--seed", "-1"], 2, "error: seed must be >= 0"),
    "count-bases-seed": (["count-bases", "15", "--seed", "-1"], 2, "error: seed must be >= 0"),
    "count-carmichael-seed": (["count-carmichael", "600", "--seed", "-1"], 2, "error: seed must be >= 0"),
    "psw-seed": (["psw", "1000", "--seed", "-1"], 2, "error: seed must be >= 0"),
    "psw-epsilon": (["psw", "100", "--epsilon", "1e308"], 3, "capacity error: "),
    "psw-delta": (["psw", "100", "--delta", "1e308"], 3, "capacity error: "),
    "count-bases-P2": (["count-bases", "15", "--P", "2"], 2, "error: counter size must be >= 4"),
    "count-bases-P1": (["count-bases", "15", "--P", "1"], 2, "error: counter size must be >= 4"),
    "count-carmichael-Q3": (["count-carmichael", "600", "--Q", "3"], 2, "error: counter size must be >= 4"),
}


@pytest.mark.parametrize("args,code,prefix", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_seed_and_counter_size_exit_cleanly(args, code, prefix, capsys):
    got, out, err = run_cli(args + ["--reps", "2"], capsys)
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and "Traceback" not in err


def test_commands_that_draw_nothing_never_import_numpy_random():
    # importing numpy.random adds start-up time and memory to a process;
    # only qsim.rep_streams loads it
    check = "import sys; from carmsim import cli; cli.main(['facts', '561']); print('numpy.random' in sys.modules)"
    proc = run_process(["-c", check])
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "False"


def test_reps_past_one_seed_word_exit_3(capsys):
    code, out, err = run_cli(["certify", "15", "--reps", str(2**32 + 1)], capsys)
    assert (code, out) == (3, "")
    assert err == "capacity error: 4294967297 reps exceed cap 4294967296\n"


SCRIPTS = [
    ("certify_error_sweep.py", ["--kmax", "20"], "k,t,P,R,allzero,alpha_pow,gap_bound"),
    (
        "counting_success_experiment.py",
        ["--N", "600", "--Q", "32", "--reps", "5"],
        "N,Q,t_N,success_fraction,error_bound,peak_probability,in_ansatz",
    ),
    (
        "psw_table.py",
        ["--N", "1000", "--reps", "5"],
        "N,t_N,t_tilde,dt_exp,dt_th,psw_lower,psw_upper,Q,epsilon,delta,meets_target",
    ),
]


@pytest.mark.parametrize("script,args,header", SCRIPTS)
def test_scripts_smoke(script, args, header):
    proc = run_process([str(ROOT / "scripts" / script), *args])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) >= 2


SCRIPT_BAD_INPUTS = {
    "psw-reps0": ("psw_table.py", ["--reps", "0"], 2),
    "psw-seed": ("psw_table.py", ["--seed", "-1"], 2),
    "psw-N10": ("psw_table.py", ["--N", "10"], 2),
    "counting-Q2": ("counting_success_experiment.py", ["--Q", "2"], 2),
    "counting-N-past-enumeration": ("counting_success_experiment.py", ["--N", "2000000000"], 3),
    "sweep-P2": ("certify_error_sweep.py", ["--P", "2"], 2),
    "sweep-R0": ("certify_error_sweep.py", ["--R", "0"], 2),
}


@pytest.mark.parametrize("script,args,code", SCRIPT_BAD_INPUTS.values(), ids=SCRIPT_BAD_INPUTS.keys())
def test_script_bad_inputs_exit_cleanly(script, args, code):
    proc = run_process([str(ROOT / "scripts" / script), *args])
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("error: " if code == 2 else "capacity error: ")
    assert "Traceback" not in proc.stderr


CLOSED_STDOUT = {script: [str(ROOT / "scripts" / script), *args] for script, args, _ in SCRIPTS}
CLOSED_STDOUT["cli"] = ["-m", "carmsim.cli", "facts", "561"]


@pytest.mark.parametrize("args", CLOSED_STDOUT.values(), ids=CLOSED_STDOUT.keys())
def test_closed_stdout_exits_2(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with a broken pipe
    try:
        proc = run_process(args, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout") and "Traceback" not in proc.stderr


#: the counter options each command takes (every command takes --reps and --seed)
COUNTER_OPTIONS = {
    "facts": (),
    "certify": ("--P", "--R"),
    "count-bases": ("--P",),
    "count-carmichael": ("--Q",),
    "psw": ("--Q",),
    "bounds": ("--P",),
    "enumerate": (),
}


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument vector
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


@given(
    command=st.sampled_from(sorted(COUNTER_OPTIONS)),
    target=st.integers(-5, 10**4),
    counter=st.integers(-2, 64),
    registers=st.integers(0, 2),
    reps=st.integers(-1, 3),
    seed=st.integers(-2, 10),
    output=st.sampled_from(["text", "json", "csv"]),
)
def test_fuzzed_arguments_exit_cleanly(command, target, counter, registers, reps, seed, output):
    # sizes stay small: at most 64^2 * 2 counter amplitudes and sieves over k <= 10^4
    argv = [command, str(target), "--reps", str(reps), "--seed", str(seed), "--output", output]
    for option in COUNTER_OPTIONS[command]:
        argv += [option, str(registers if option == "--R" else counter)]
    code, out, err = run_in_process(argv)
    assert code in (0, 2, 3, ("argparse", 2)), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out.endswith("\n") and not err
    else:
        assert not out and err
    assert run_in_process(argv) == (code, out, err)
