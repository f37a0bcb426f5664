import contextlib
import csv
import enum
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from carmsim import carmichael, cli, counting, numtheory

import oracles
import scale_checks

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

#: the commands that draw, the only ones that take --seed and --reps
DRAWING = ("certify", "count-bases", "count-carmichael", "psw")


def seeded(args):
    """args with --seed 42 for a command that draws; the others take no --seed."""
    return args + ["--seed", "42"] if args[0] in DRAWING else args


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
    for args in (["enumerate", "10000000001"], ["bounds", "10000001"]):
        code, _, err = run_cli(args, capsys)
        assert code == 3
        assert "capacity" in err.lower()


@pytest.mark.parametrize(
    "error,line",
    [
        (MemoryError("Unable to allocate 7.45 GiB"), "capacity error: Unable to allocate 7.45 GiB\n"),
        (MemoryError(), "capacity error: out of memory\n"),
    ],
)
def test_memory_error_exits_3(error, line, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(carmichael, "certify_reps", exhausted)
    assert run_cli(["certify", "561", "--reps", "10000000"], capsys) == (3, "", line)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_memory_error_in_a_chunk_exits_3(workers, monkeypatch, capsys):
    # bounds 60000 runs leakage on the four chunks from k = 1, 16385, 32769
    # and 49153; the second raises, and the chunks beside it in its wave
    # finish before the command exits
    started, finished = [], []
    leakage = carmichael.leakage

    def failing(counts, p, lo, hi):
        started.append(lo)
        try:
            if lo == 1 + numtheory._CHUNK:
                raise MemoryError()
            if lo > 1 + numtheory._CHUNK:
                time.sleep(0.2)  # still running when the second chunk has failed
            return leakage(counts, p, lo, hi)
        finally:
            finished.append(lo)

    monkeypatch.setattr(carmichael, "leakage", failing)
    with oracles.chunk_workers(workers):
        result = run_cli(["bounds", "60000", "--P", "16"], capsys)
        done = sorted(finished)
    assert result == (3, "", "capacity error: out of memory\n")
    assert sorted(started) == done == [1 + i * numtheory._CHUNK for i in range(max(workers, 2))]


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
    assert header == "N,t_N,t_tilde,dt_exp,dt_th,Q,epsilon,delta"
    assert row.split(",")[0] == "10000" and row.split(",")[1] == "7"


def test_psw_row_is_one_record(capsys):
    # the CSV header, the JSON report's keys and the text form's key lines are one list
    args = ["psw", "10000", "--reps", "5", "--seed", "5", "--output"]
    forms = {form: run_cli(args + [form], capsys) for form in ("csv", "json", "text")}
    assert {code for code, _, _ in forms.values()} == {0}
    csv_keys = forms["csv"][1].splitlines()[0].split(",")
    json_keys = list(json.loads(forms["json"][1])["report"])
    text_keys = [line.split(": ")[0] for line in forms["text"][1].splitlines()[1:]]
    assert csv_keys == json_keys == text_keys == list(carmichael.PswReport.CSV_HEADER)


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


#: sha256 of stdout with --output json, and --seed 42 where the command
#: draws; a shift in any rep's stream or in the map from its uniform to an
#: outcome changes a digest
PINNED_STDOUT = [
    (["certify", "561", "--mode", "exact"], "839330a8950435e31bce2f2fba5c9b796f9b952c6c1aa4ff9071136dea51a971"),
    (["certify", "561", "--mode", "sample"], "e443be509221342fceb6e877c3f7cee047bf530a85d3f81b1b4a57eb6c5decbb"),
    (["certify", "15", "--mode", "exact"], "f940082415d72ba6290c976d0e7da6b353c57fc7187911d2ccc62bcdaa1c64ed"),
    (["certify", "15", "--mode", "sample"], "adb2f2cdb8e934ecb9a8281e82d358c0edbefe46f7b68e8c2be91202559cdcff"),
    # 41 distinct records among 100 reps, and 36 with flag retries over several rounds
    (["certify", "341", "--mode", "exact"], "c897f439b64996c93096503249a4663e0c239f369ee12513c2540058924264c8"),
    (["certify", "645", "--mode", "sample"], "94d1a3ce78e5ec160d453bc60799af72f0467363250a666f27e9f8fa8b917df4"),
    (["count-bases", "25001", "--P", "64"], "b7f2a921fb5c3a6cff90127c3a7a0038a005fa2421ad9a99cfa16375082874dd"),
    (["count-carmichael", "65000", "--Q", "64"], "99f9a719e6f9cd574796d49721e95ef015cefda8e199b88235eb501775cebd4c"),
    (["psw", "10000", "--reps", "5"], "ee4849c0d2fbe8ec1b31314b579f1a7617e079dbb16ff93cc87ceac0e28aa184"),
    # bounds draws nothing; its digest pins the sieve and kernel floats
    (["bounds", "31000", "--P", "64"], "52af1a4a5c8bdaae0690ace2d98073dc033f41292ebcd72d0148fd48ac5b00c8"),
    (["bounds", "100000", "--P", "16"], "c139109c5e65fe7c8e90796b726c256fe05cfcc0853b858575328f66461915d8"),
]


@pytest.mark.parametrize("args,digest", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_seeded_stdout_is_pinned(args, digest, capsys):
    code, out, _ = run_cli(seeded(args) + ["--output", "json"], capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: sha256 of certify's text and CSV stdout with --seed 42: these forms print
#: the record's fields themselves (a tuple of ancillas, a kind's value), so
#: a change of the record type shows here and not in the JSON digests
PINNED_FORMS = [
    (["certify", "645", "--mode", "sample", "--output", "text"],
     "4b336c39f8e24db532b509f2330eec4fa7dd04a6d7ee1a3cc81c54afe78215c3"),
    (["certify", "645", "--mode", "sample", "--output", "csv"],
     "e53b304fab71912d074c11921818774a106c288270defad998ab3f6fb019c9f4"),
    (["certify", "91", "--R", "3", "--mode", "exact", "--output", "text"],
     "db66b4937b0cbd33eed5929b453c1507a73910919ca21879ff9959f95942a3bc"),
    (["certify", "91", "--R", "3", "--mode", "exact", "--output", "csv"],
     "6bb3dd3909aa8aac96614409deffb56d68af5a9a39d77f384cda079d414aabd8"),
]


@pytest.mark.parametrize("args,digest", PINNED_FORMS, ids=[" ".join(a) for a, _ in PINNED_FORMS])
def test_seeded_text_and_csv_are_pinned(args, digest, capsys):
    code, out, _ = run_cli(seeded(args), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: every pinned command in full, and its digest
PINNED_COMMANDS = [(seeded(args) + ["--output", "json"], digest) for args, digest in PINNED_STDOUT] + [
    (seeded(args), digest) for args, digest in PINNED_FORMS
]

#: prints the stdout sha256 of every pinned command, one per line
PINNED_DIGEST_SCRIPT = """
import contextlib, hashlib, io, sys
from carmsim import cli
for args in ARGS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(args)
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_seeded_stdout_does_not_depend_on_the_blas_kernel():
    # Prescott is OpenBLAS's SSE3 kernel, which every x86-64 CPU runs; a
    # BLAS build other than OpenBLAS ignores the variable
    script = f"ARGS = {[args for args, _ in PINNED_COMMANDS]!r}\n{PINNED_DIGEST_SCRIPT}"
    digests = []
    for coretype in (None, "Prescott"):
        env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1] == [digest for _, digest in PINNED_COMMANDS]


def test_norm_drift_exits_3_with_one_line(capsys):
    # a counter of 2^19 drifts past the norm tolerance in its power table
    code, out, err = run_cli(["count-bases", "15", "--P", "524288"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("capacity error: norm^2 drifted to ")
    assert "NORM_TOL = 1e-10" in err and "(524288, 2)" in err  # the limit and the counter size
    assert err.count("\n") == 1 and err.endswith("\n")


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


def _per_rep_outputs(args: list[str], seed: int, reps: int) -> tuple[list[str], str]:
    """The rep lines of the text form and the whole CSV form, every rep formatted from its own record."""
    command, target = args[0], int(args[1])
    if command == "certify":
        verdicts = oracles.per_rep(*carmichael.certify_reps(target, 8, 2, mode=args[-1], seed=seed, reps=reps))
        header = ["rep", "kind", "error_bound", "observed_ancillas", "flag_retries", "grover_applications"]
        rows = [
            [i, v.kind.value, v.error_bound, ";".join(str(a) for a in v.observed_ancillas), v.flag_retries, v.grover_applications]
            for i, v in enumerate(verdicts)
        ]
        lines = [
            f"  rep {i}: {v.kind.value} ancillas={v.observed_ancillas} "
            f"error_bound={v.error_bound} flag_retries={v.flag_retries}"
            + (f" exact_allzero={v.exact_allzero}" if v.exact_allzero is not None else "")
            for i, v in enumerate(verdicts)
        ]
        distinct = len({id(v) for v in verdicts})
    else:
        if command == "count-bases":
            t_true = carmichael.composite_facts(target).t_k
            estimates = oracles.per_rep(*counting.run_count(target, t_true, 64, seed=seed, reps=reps))
        else:
            result = carmichael.count_carmichaels_quantum(target, 64, seed=seed, reps=reps)
            estimates = oracles.per_rep(result.estimates, result.index)
        header = ["rep", "l", "f_tilde", "theta_tilde", "t_tilde", "bound", "in_ansatz"]
        rows = [
            [i, e.measured_l, e.f_tilde, e.theta_tilde, e.t_tilde, e.error_bound, e.in_ansatz]
            for i, e in enumerate(estimates)
        ]
        lines = [
            f"  rep {i}: l={e.measured_l} t_tilde={e.t_tilde} bound={e.error_bound} in_ansatz={e.in_ansatz}"
            for i, e in enumerate(estimates)
        ]
        distinct = len({id(e) for e in estimates})
    assert distinct < reps / 10  # the payload repeats its records
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([str(v) for v in row] for row in [header, *rows])
    return lines, buf.getvalue()


SHARED_RECORD_COMMANDS = [
    ["certify", "403", "--P", "8", "--R", "2", "--mode", "exact"],
    ["certify", "403", "--P", "8", "--R", "2", "--mode", "sample"],
    ["count-bases", "25001", "--P", "64"],
    ["count-carmichael", "65000", "--Q", "64"],
]


@pytest.mark.parametrize("seed", [0, 2**100 + 7])
@pytest.mark.parametrize("args", SHARED_RECORD_COMMANDS, ids=[" ".join(a) for a in SHARED_RECORD_COMMANDS])
def test_shared_rep_texts_equal_per_rep_formatting(args, seed, capsys):
    lines, table = _per_rep_outputs(args, seed, 400)
    common = ["--seed", str(seed), "--reps", "400", "--output"]
    code, out, _ = run_cli(args + common + ["csv"], capsys)
    assert code == 0 and out == table
    code, out, _ = run_cli(args + common + ["text"], capsys)
    rep_lines = [line for line in out.splitlines() if line.startswith("  rep ")]
    assert code == 0 and rep_lines == lines


def test_csv_quotes_a_field_holding_a_comma():
    rows = [["name", "value", "flag"], ["6,9", None, True], ["x", 1.5, False]]
    record = cli.Record(table=lambda: [cli.csv_line(row) for row in rows])
    assert cli.render("csv", record) == 'name,value,flag\n"6,9",None,True\nx,1.5,False\n'


AMPLITUDE_CAP_LINE = "capacity error: counter registers exceed the cap of 67108864 amplitudes"

#: an argument vector that argparse rejects: exit 2 from its SystemExit
USAGE = ("argparse", 2)

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
    # counter sizes whose amplitude count, or R itself, is too large to build, index or print
    "certify-R-past-index": (["certify", "15", "--R", str(10**30)], 3, AMPLITUDE_CAP_LINE),
    "certify-R7200": (["certify", "15", "--P", "4", "--R", "7200"], 3, AMPLITUDE_CAP_LINE),
    "count-bases-P-4300-digits": (["count-bases", "15", "--P", "9" * 4300], 3, AMPLITUDE_CAP_LINE),
    "count-carmichael-Q-4300-digits": (["count-carmichael", "600", "--Q", "9" * 4300], 3, AMPLITUDE_CAP_LINE),
    "psw-Q-4300-digits": (["psw", "1000", "--Q", "9" * 4300], 3, AMPLITUDE_CAP_LINE),
    "certify-P-4300-digits": (["certify", "15", "--P", "9" * 4300], 3, AMPLITUDE_CAP_LINE),
    "bounds-P-past-float": (["bounds", "100", "--P", str(2**1024)], 3, "capacity error: counter size P exceeds the float range"),
    # the commands that draw nothing take neither --seed nor --reps
    "facts-seed": (["facts", "561", "--seed", "1"], USAGE, "error: carmsim: unrecognized arguments: --seed 1"),
    "facts-reps": (["facts", "561", "--reps", "2"], USAGE, "error: carmsim: unrecognized arguments: --reps 2"),
    "bounds-seed": (["bounds", "100", "--seed", "1"], USAGE, "error: carmsim: unrecognized arguments: --seed 1"),
    "bounds-reps": (["bounds", "100", "--reps", "2"], USAGE, "error: carmsim: unrecognized arguments: --reps 2"),
    "enumerate-seed": (["enumerate", "100", "--seed", "-5"], USAGE, "error: carmsim: unrecognized arguments: --seed -5"),
    "enumerate-reps": (["enumerate", "100", "--reps", "2"], USAGE, "error: carmsim: unrecognized arguments: --reps 2"),
    # a subcommand's own rejections name the subcommand
    "certify-P-not-int": (["certify", "15", "--P", "x"], USAGE, "error: carmsim certify: argument --P: invalid int value: 'x'"),
    "certify-no-k": (["certify"], USAGE, "error: carmsim certify: the following arguments are required: k"),
}


@pytest.mark.parametrize("args,code,prefix", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_seed_and_counter_size_exit_cleanly(args, code, prefix):
    got, out, err = run_in_process(args + (["--reps", "2"] if args[0] in DRAWING else []))
    assert (got, out) == (code, "")
    # the package's own errors and argparse's rejections alike are one line
    (line,) = err.splitlines()
    assert line.startswith(prefix) and "Traceback" not in err and err.endswith("\n")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the runner hashes with hashlib.file_digest")
def test_scale_checks_report_only_the_wrong_rows(monkeypatch):
    # the fresh-process table can fail: one run of facts 561 meets its true
    # row and misses a wrong digest, a wrong exit code and a bound below its peak
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    result = scale_checks.run("facts 561")
    row = ("facts 561", 0, "ab35cf557905daa4d4b0bfbac9a03d713fa2c16137943266a543a45e3400139c", 400)
    assert scale_checks.problems(row, result) == []
    wrong = [(*row[:2], "0" * 64, 400), (row[0], 2, *row[2:]), (*row[:3], result.mib - 1)]
    assert [scale_checks.problems(w, result) for w in wrong] == [
        [f"sha256 {row[2]}, expected {'0' * 64}"],
        ["exit 0, expected 2"],
        [f"peak {result.mib:.1f} MiB, bound {result.mib - 1}"],
    ]


def test_a_million_counter_registers_exit_3_at_once():
    # the cap stops the read of the register sizes at the first one past it;
    # no tuple of the R sizes and no product of them is ever built
    args = ["certify", "15", "--P", "4", "--R", "1000000", "--reps", "1"]
    proc = run_process(["-m", "carmsim.cli", *args])
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == AMPLITUDE_CAP_LINE + "\n"


#: every command, the drawing ones with each of their draw paths
ALL_COMMANDS = [
    ["certify", "561", "--mode", "exact"],
    ["certify", "561", "--mode", "sample"],
    ["count-bases", "561"],
    ["count-carmichael", "5000", "--Q", "64"],
    ["psw", "10000"],
    ["facts", "561"],
    ["bounds", "1000"],
    ["enumerate", "10000"],
]


def test_payload_leaves_are_exact_types():
    # the renderer writes only the exact leaf types itself and sends a
    # subclass to json.dumps, so every command's leaves are the exact types
    leaf_types = {str, int, float, bool, type(None)}

    def walk(value):
        if type(value) is dict:
            assert {type(key) for key in value} <= {str}
            for item in value.values():
                walk(item)
        elif type(value) in (list, tuple):
            for item in value:
                walk(item)
        else:
            assert type(value) in leaf_types, (value, type(value))

    for argv in ALL_COMMANDS:
        cfg = cli.build_parser().parse_args(argv)
        walk({"config": cli._config(cfg), **cfg.handler(cfg).payload()})


#: counting runs at the enumeration bound whose options fail; the enumeration takes seconds there
ENUMERATING_BAD_INPUTS = {
    "Q2": (["count-carmichael", "10000000000", "--Q", "2"], 2, "error: counter size must be >= 4, got 2"),
    "reps0": (["count-carmichael", "10000000000", "--reps", "0"], 2, "error: reps must be >= 1, got 0"),
    "seed-1": (["count-carmichael", "10000000000", "--seed", "-1"], 2, "error: seed must be >= 0, got -1"),
    "Q-past-cap": (["count-carmichael", "10000000000", "--Q", "1000000000"], 3, AMPLITUDE_CAP_LINE),
    "psw-reps0": (["psw", "10000000000", "--reps", "0"], 2, "error: reps must be >= 1, got 0"),
}


@pytest.mark.parametrize("args,code,line", ENUMERATING_BAD_INPUTS.values(), ids=ENUMERATING_BAD_INPUTS.keys())
def test_counting_commands_check_options_before_enumerating(args, code, line, monkeypatch, capsys):
    def enumerate_carmichaels(n):
        raise AssertionError("enumerated before the options were checked")

    monkeypatch.setattr(numtheory, "enumerate_carmichaels", enumerate_carmichaels)
    assert run_cli(args, capsys) == (code, "", line + "\n")


@pytest.mark.parametrize("module", ["numpy.random", "dataclasses", "csv", "concurrent.futures"])
def test_no_command_imports(module):
    # each module adds start-up time to a process: the rep streams are qsim's
    # own PCG64, the result records NamedTuples, csv is imported by csv_line
    # alone, so only a command run with --output csv loads it, and a one-chunk
    # bounds starts no thread
    runs = [[*argv, "--output", output] for output in ("text", "json") for argv in ALL_COMMANDS]
    csv_runs = [[*argv, "--output", "csv"] for argv in ALL_COMMANDS]
    probe = f"print({module!r} in sys.modules, file=sys.stderr)"
    check = (f"import sys; from carmsim import cli; [cli.main(c) for c in {runs}]; {probe}; "
             f"[cli.main(c) for c in {csv_runs}]; {probe}")
    proc = run_process(["-c", check], stdout=subprocess.DEVNULL)
    assert proc.returncode == 0
    assert proc.stderr.split() == ["False", str(module == "csv")]


def test_counting_commands_never_import_numpy_ma():
    # np.median's NaN check imports numpy.ma, about 10 ms of a process's
    # first call; the counting commands take their median by sorting
    commands = [["count-carmichael", "5000", "--Q", "64"], ["count-bases", "561"], ["psw", "10000"]]
    check = f"import sys; from carmsim import cli; [cli.main(c) for c in {commands}]; print('numpy.ma' in sys.modules)"
    proc = run_process(["-c", check])
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "False"


#: every character, lone surrogates and control characters included
JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["\ud800", "\udfff x", "\x00\x1f\x7f", "é€😀\u2028"]
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320, 1e300]),
    JSON_TEXT,
)
JSON_KEYS = st.one_of(JSON_TEXT, st.integers(), st.floats(), st.booleans(), st.none())


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, children, max_size=4),
        # one child object repeated in a list, and recurring at other depths
        st.builds(lambda child, n: [child] * n, children, st.integers(2, 4)),
        children.map(lambda child: {"shallow": child, "deep": [[child], (child, child)]}),
    )


def _render_json(payload: dict) -> str:
    return cli.render("json", cli.Record(table=lambda: ([], []), payload=lambda: payload))


class _Str(str):
    pass


class _Float(float):
    pass


class _Int(enum.IntEnum):
    ONE = 1


_SHARED_FLOAT = 0.1


@given(st.recursive(JSON_SCALARS, _json_containers, max_leaves=12))
# where the renderer's own path meets json.dumps: a recurring dict with a
# non-str key, empty containers under a non-str key, and recurring non-finite floats
@example([{1: [math.nan]}] * 3)
@example({"a": [[], {}], "b": {"c": {True: None}}})
@example([math.inf, -math.inf, math.nan] * 2)
# the layout templates: keys that hold % or a % mapping key, in a layout that
# recurs, and one key tuple at two depths
@example([{"%": "%s", "%(x)s": 1, "%%": None}, {"%": 2, "%(x)s": "%(x)s", "%%": "%"}])
@example({"a": {"a": 1}, "b": [{"a": {"a": 2}}, {"a": {"a": 3}}]})
# subclass leaves, which json.dumps writes, and a NaN beside a float object that the records share
@example([{"s": _Str("x"), "i": _Int.ONE, "f": _Float(1.5)}, {"s": _Str("y"), "i": _Int.ONE, "f": _Float(math.inf)}] * 2)
@example([{"a": _SHARED_FLOAT, "b": math.nan}, {"a": _SHARED_FLOAT, "b": _SHARED_FLOAT}, {"a": math.nan, "b": 2.0}])
def test_json_render_equals_json_dumps(value):
    assert _render_json({"value": value}) == json.dumps({"config": None, "value": value}, indent=2) + "\n"


#: values json.dumps rejects; where two are present, the first one reached is named
JSON_REJECTED = {
    "int64": np.int64(3),
    "set": {1, 2},
    "object": object(),
    "numpy-bool": np.bool_(True),
    "int64-before-set": [1.5, "x", np.int64(3), {2}],
    "set-before-int64": [{2}, np.int64(3)],
    "nested-object": {"a": [None, {"b": object()}], "c": np.int64(1)},
    "tuple-key": {"a": 1, (1,): 2},
    "tuple-key-before-value": {(1,): object()},
    "frozenset-key": {frozenset(): 1},
    "object-under-recurring-int-key": {"a": [{1: object()}] * 2},
    "tuple-key-after-int-key": {"a": {1: 2, (1,): 3}},
    "object-in-second-same-layout-dict": [{"a": 1, "b": 2}, {"a": 1, "b": object()}],
}


@pytest.mark.parametrize("value", JSON_REJECTED.values(), ids=JSON_REJECTED.keys())
def test_json_render_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError) as expected:
        json.dumps({"config": None, "value": value}, indent=2)
    with pytest.raises(TypeError) as rejected:
        _render_json({"value": value})
    assert str(rejected.value) == str(expected.value)


def test_reps_past_one_seed_word_exit_3(capsys):
    code, out, err = run_cli(["certify", "15", "--reps", str(2**32 + 1)], capsys)
    assert (code, out) == (3, "")
    assert err == "capacity error: 4294967297 reps exceed cap 4294967296\n"


CLAIMS = str(ROOT / "scripts" / "claims.py")

#: section, smoke arguments, CSV header, and the sha256 of its stdout as the
#: per-claim script it replaced printed it
SECTIONS = [
    (
        "leakage",
        ["--kmax", "20"],
        "k,t,P,R,allzero,alpha_pow,gap_bound",
        "fbbd9bc7d96c9b9044371e62e2988235392eb35899aae9af02cc17af302f2f58",
    ),
    (
        "counting",
        ["--N", "600", "--Q", "32", "--reps", "5"],
        "N,Q,t_N,success_fraction,error_bound,peak_probability,in_ansatz",
        "93cff05c94f30feefefe46e2d94f00552a3aae04ddb2935522167f23df09f2b7",
    ),
    (
        "psw",
        ["--N", "1000", "--reps", "5"],
        "N,t_N,t_tilde,dt_exp,dt_th,Q,epsilon,delta,e_exact,e_est,e_err",
        "78b21f33a97ae4f4a00ee08466d8a3de1e58c80b71ff15b04e8a613063b4ac49",
    ),
]


def run_claims(argv, capsys) -> tuple[int, str]:
    """claims.py's main in this process: its exit code and stdout."""
    code = runpy.run_path(CLAIMS)["main"](argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("section,args,header,digest", SECTIONS, ids=[entry[0] for entry in SECTIONS])
def test_scripts_smoke(section, args, header, digest):
    proc = run_process([CLAIMS, section, *args])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) >= 2
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


#: sha256 of each section's stdout at its defaults, as the per-claim script it replaced printed it
DEFAULT_DIGESTS = {
    "leakage": "0f97b61430bc240ea3e8339aa59eac008369e16124ee948717516fcdcd0eeeab",
    "counting": "5cd74a6e4b27c3f0f9e5674c618bd4cca6d7b7e17444b232e2640fdd12a35aee",
    "psw": "5abec27533d415f1f18616c8a6cdebe419e26fd11fc6c84b52e5465da95e283e",
}


@pytest.mark.parametrize("section,digest", DEFAULT_DIGESTS.items(), ids=DEFAULT_DIGESTS.keys())
def test_claims_sections_print_pinned_bytes(section, digest, capsys):
    code, out = run_claims([section], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_psw_table_exact_exponent(capsys):
    # e(N) = ln(N/C(N))/ln l(N) from Pinch's counts 7, 16 and 43; C(100) = 0
    code, out = run_claims(["psw", "--N", "100", "10000", "100000", "1000000", "--reps", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert (rows[0]["e_exact"], rows[0]["e_err"]) == ("inf", "inf")
    assert [float(row["e_exact"]) for row in rows[1:]] == pytest.approx([2.1955, 2.0763, 1.9795], abs=1e-4)


def test_error_sweep_factorizes_each_k_once(monkeypatch, capsys):
    calls = []
    factorize = numtheory.factorize
    monkeypatch.setattr(numtheory, "factorize", lambda k: calls.append(k) or factorize(k))
    code, out = run_claims(["leakage", "--kmax", "60"], capsys)
    assert code == 0
    assert out.startswith("k,t,P,R,allzero,alpha_pow,gap_bound\n")
    assert calls == list(range(4, 61))


#: argv after claims.py, exit code, and the start of the one stderr line
SCRIPT_BAD_INPUTS = {
    "psw-reps0": (["psw", "--reps", "0"], 2, "error: "),
    "psw-seed": (["psw", "--seed", "-1"], 2, "error: "),
    "psw-N10": (["psw", "--N", "10"], 2, "error: "),
    "counting-Q2": (["counting", "--Q", "2"], 2, "error: "),
    "counting-N-past-enumeration": (["counting", "--N", "20000000000"], 3, "capacity error: "),
    "sweep-P2": (["leakage", "--P", "2"], 2, "error: "),
    "sweep-R0": (["leakage", "--R", "0"], 2, "error: "),
    "no-section": ([], 2, "error: claims.py: the following arguments are required: section"),
    "unknown-section": (["sweep"], 2, "error: claims.py: argument section: invalid choice: 'sweep'"),
}


@pytest.mark.parametrize("argv,code,prefix", SCRIPT_BAD_INPUTS.values(), ids=SCRIPT_BAD_INPUTS.keys())
def test_script_bad_inputs_exit_cleanly(argv, code, prefix):
    proc = run_process([CLAIMS, *argv])
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith(prefix) and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


CLOSED_STDOUT = {section: [CLAIMS, section, *args] for section, args, _, _ in SECTIONS}
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


#: the counter options each command takes (the commands in DRAWING also take --reps and --seed)
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
    argv = [command, str(target), "--output", output]
    if command in DRAWING:
        argv += ["--reps", str(reps), "--seed", str(seed)]
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
