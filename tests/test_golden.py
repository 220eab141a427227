"""Golden outputs: every call of a fixed argv list gives the bytes recorded in a manifest.

``golden_argv.json`` is a literal list of ``analyze``, ``kaon``, ``sweep`` and
rejected calls, including the hard regimes (overlaps 1 - 10^-k, |nu| down to
1e-8, near-maximal boundary states).  Each call runs through ``cli.main`` in
an empty directory; its output flag names the file ``out`` there.  The
manifest maps each call, its argv joined by spaces, to the sha256 of its exit
code, stdout and written file.

A change that moves output bits on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

and lists the calls and fields it moved in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from nonortho.cli import main

HERE = Path(__file__).resolve().parent
ARGV_FILE = HERE / "golden_argv.json"
MANIFEST_FILE = HERE / "golden_manifest.json"


def call_digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and the file ``out`` of one call in the working directory."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    out = Path("out")
    written = out.read_bytes() if out.exists() else b"<no file>"
    out.unlink(missing_ok=True)
    digest = hashlib.sha256(f"{code}\n".encode())
    digest.update(stdout.getvalue().encode())
    digest.update(b"\0")
    digest.update(written)
    return digest.hexdigest()


def digests() -> dict[str, str]:
    """Each golden call's digest, keyed by its argv joined by spaces, run in the working directory."""
    calls = json.loads(ARGV_FILE.read_text(encoding="utf-8"))
    keys = [" ".join(argv) for argv in calls]
    assert len(set(keys)) == len(keys), "the golden argv list repeats a call"
    return {key: call_digest(argv) for key, argv in zip(keys, calls)}


def test_golden_outputs_match_the_manifest(tmp_path, monkeypatch):
    want = json.loads(MANIFEST_FILE.read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    got = digests()
    assert list(got) == list(want)
    moved = [key for key in got if got[key] != want[key]]
    assert not moved, f"{len(moved)} of {len(got)} golden calls moved, e.g. {moved[:3]}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        manifest = digests()
    MANIFEST_FILE.write_text(json.dumps(manifest, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} digests to {MANIFEST_FILE}", file=sys.stderr)
