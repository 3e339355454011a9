"""Byte identity of the CLI's ν = 256 artefacts.

Writes ``construct --out`` for asl2:16, agl2:16 and agl1:256 into a
temporary directory and compares each file's sha256 with the digest
pinned below.  Each file is 251 MiB and takes 5-15 s to build and write
(2 vCPU), so these sit outside the tier-1 digests of
``tests/test_artefacts.py``; pytest does not collect this file.

Run from the repository root:

    python3 tests/large_artefacts.py

The exit status is 0 when every digest matches, else 1.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from astriples.cli import run  # noqa: E402

DIGESTS = {
    "asl2:16":
        "16802596b03f783c0f1d8681bbf08d00bcf52571a2ad2cd15c1c26f5bcba82db",
    "agl2:16":
        "68ed5b7c85759f57d3793907e4067f3aeb2a6f402defe4384946e10f23a0da80",
    "agl1:256":
        "95fb1c170451bb0a7d7c87eac57ac89105482cc1481c0d7fc609d138d1ffe3c7",
}


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for group, expected in DIGESTS.items():
            out = Path(tmp) / "scheme.json"
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = run(["construct", "--group", group, "--out", str(out)])
            got = _sha256(out) if code == 0 else f"exit code {code}"
            out.unlink(missing_ok=True)
            ok = got == expected
            failures += not ok
            print(f"{'ok' if ok else 'MISMATCH'} construct {group}: {got} "
                  f"({time.perf_counter() - start:.1f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
