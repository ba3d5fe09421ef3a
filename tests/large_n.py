"""Byte checks of ``certify`` at large n, beyond what the test suite reaches.

Run it from anywhere as ``python3 tests/large_n.py``; it takes no options.
pytest does not collect it.  Each case runs ``python -m clawgenus certify``
in a fresh interpreter with this checkout's ``src/`` first on PYTHONPATH,
and the sha256 of its whole stdout must equal the digest pinned below.
Every JSON output must also pass the independent check in ``certcheck``.
The wall time of each step is printed.  The exit status is 1 if any digest
differs, a command fails or ``certcheck`` reports an error, else 0.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
sys.path[:0] = [SRC, str(HERE)]

from certcheck import certificate_errors  # noqa: E402

#: certify arguments and the sha256 of the whole stdout they print.
CASES = [
    (("--n", "0..400"),
     "cd9f59545fa1176edc9ced81eff336f51fba374ae06a93c7eb4675127345470b"),
    (("--n", "0..600"),
     "27f4f14f7fbfac0919fbda5c995e2b18d252b529f1a1cca0f69bea4dadc295d8"),
    (("--n", "0..300", "--format", "json"),
     "071c8f3306272a220b54f6faf75ce3573474609814e736db6133a7e3091433e4"),
    (("--n", "599..600", "--format", "json"),
     "8df48551c1374864266b08e01d69da4db479b89605718619a59fc7b6f1ab6080"),
]


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    failures = 0
    for argv, digest in CASES:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "clawgenus", "certify", *argv],
                              capture_output=True, env=env)
        got = hashlib.sha256(proc.stdout).hexdigest()
        ok = proc.returncode == 0 and got == digest
        print(f"certify {' '.join(argv):28} {'ok' if ok else 'MISMATCH'} {got[:12]} "
              f"{len(proc.stdout):>9} bytes {time.perf_counter() - t0:6.1f} s", flush=True)
        if proc.returncode:
            print(proc.stderr.decode(), end="")
        failures += not ok
        if "json" in argv and proc.returncode == 0:
            t0 = time.perf_counter()
            errors = certificate_errors(json.loads(proc.stdout))
            print(f"  certcheck {len(errors)} errors {time.perf_counter() - t0:6.1f} s",
                  flush=True)
            print("".join(f"  {e}\n" for e in errors[:10]), end="")
            failures += bool(errors)
    print("large-n check", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
