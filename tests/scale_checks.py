"""Fresh-process scale checks of the CLI.  Run (Python 3.11+): PYTHONPATH=src python3 tests/scale_checks.py

A row is (command, exit code, stdout sha256 or None, strict peak RSS bound in MiB or None).  Each command runs in
its own `python -m carmsim.cli` process, killed after 60 s; the runner prints its exit, seconds, and own peak MiB and
minor faults (os.wait4), and exits 1 if any row missed.  A child's peak RSS starts from its parent's: hold no output.
"""

import collections, hashlib, os, resource, subprocess, sys, tempfile, threading, time
Result = collections.namedtuple("Result", "code sha256 stderr seconds mib minflt")

ROWS = [
    ("count-carmichael 10000 --Q 64 --reps 1000000 --output csv", 0, None, 400),  # a million reps
    ("certify 561 --mode sample --reps 1000000 --output csv", 0, None, 400),  # flag rounds over many chunks
    ("certify 15 --mode sample --reps 1000000 --output json", 0, None, 600),
    ("certify 15 --mode sample --reps 1000000 --output text", 0, None, 300),
    ("certify 15 --mode sample --reps 200000 --output csv", 0,
     "1c37d9f1f5bb20706b5b19a11b6e54d616497a665c00fca508899abd4d54f772", None),  # 10-round flag blocks, 40 chunks
    ("certify 15 --mode sample --reps 200000 --output json", 0,
     "834ff54203b7ef98fe77e93cba9470fa5f35d0dd7438e0e3821e2d74b18d7bde", None),
    ("certify 15 --P 256 --R 3 --reps 3 --output json", 0, None, 450),  # a 128 MiB law and one working copy
    ("certify 15 --P 4 --R 1000000 --reps 1", 3, None, None),  # the amplitude cap, met at once
    ("count-bases 15 --P 262144 --reps 3", 0, None, None),
    ("count-bases 15 --P 524288", 3, None, None),  # its power table drifts past the norm tolerance
    ("bounds 10000000 --output json", 0, "12c3a2a00245d171775674ed18bceedac75afb6247a02b900a55e1ca95e29794", 300),
    ("bounds 1000000 --P 5 --output json", 0, "2c48b8ae537cc42800ac0e2e8d29a806d8f7b842dead5233807cd10f395b3567", None),
    ("bounds 1000000 --P 16 --output json", 0, "cc21a9f28e77311b5a26ebf2f72c92909dd89d4310158fda56f7e08c8b250573", None),
    ("enumerate 10000000 --output json", 0, "ad2a76eb1aca21c99c1afadc617996c9de45a82686f75bae17cea2f7ce316815", None),
    # these bytes list Pinch's C(10^10) = 1547 Carmichael numbers
    ("enumerate 10000000000 --output json", 0, "efd46b325427944d8febea192a13ff34a11fe9d5d886cbb4c7530e9c65bad87e", 48),
    # the psw row at the enumeration bound: t_N = 1547 at the policy Q = 126568
    ("psw 10000000000 --reps 3 --output json", 0, "1d43bd8d2ade8cf34dcc58d10a9291166de10fc9953d84b14d8de1a91e7ca5f8", None),
]


def run(command: str) -> Result:
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "carmsim.cli", *command.split()], stdout=out, stderr=err)
        (timer := threading.Timer(60, proc.kill)).start()  # kill polls first, so it spares a reaped pid
        _, status, usage = os.wait4(proc.pid, 0)
        seconds, proc.returncode = time.perf_counter() - start, os.waitstatus_to_exitcode(status)
        timer.cancel()
        out.seek(0)
        return Result(proc.returncode, hashlib.file_digest(out, "sha256").hexdigest(),
                      os.pread(err.fileno(), 1 << 20, 0).decode(errors="replace"),
                      seconds, usage.ru_maxrss / 1024, usage.ru_minflt)


def problems(row: tuple, result: Result) -> list:
    _, code, sha256, mib = row
    return [text for missed, text in [
        (result.code != code, f"exit {result.code}, expected {code}"),
        (sha256 is not None and result.sha256 != sha256, f"sha256 {result.sha256}, expected {sha256}"),
        (mib is not None and result.mib >= mib, f"peak {result.mib:.1f} MiB, bound {mib}"),
        ("Traceback" in result.stderr, "a traceback on stderr"),
        (result.code in (2, 3) and len(result.stderr.splitlines()) != 1, "exit 2 or 3 without one stderr line"),
    ] if missed]


def main() -> int:
    print("exit      s   MiB  minflt  command")
    missed = 0
    for row in ROWS:
        result = run(row[0])
        found = problems(row, result)
        print(f"{result.code:4} {result.seconds:6.2f} {result.mib:5.0f} {result.minflt:7}  {row[0]}", *found, sep="\n  missed: ")
        missed += len(found)
    print(f"runner peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())
