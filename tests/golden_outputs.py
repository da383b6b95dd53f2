"""The output manifest: one hash of every output of a frozen set of runs.

    PYTHONPATH=src python tests/golden_outputs.py          # replay
    PYTHONPATH=src python tests/golden_outputs.py --write  # rehash

`golden_outputs.json` lists [key, hash] pairs, one per line.  A key is an
`imj` argv, run in process through `imj.cli.main`, or ["ssq_stage", p, r,
kmax], one `towers.ssq_stage` call.  The hash is the first 16 hex digits of
the sha256 of (exit code, stdout, stderr, the files the run wrote into its
directory) for an argv, and of the sorted result for a call.  Every key
runs in one empty directory, which is emptied after each, with COLUMNS=80,
so argparse wraps its help the same on any terminal.

The keys are frozen in the file and nothing here draws them: the distinct
argvs and calls of the benchmark's workloads (batches 0-5 at seeds 1-5),
`test_cli._argvs()`, CI's refusals, `cobar -n N --smax S` for N <= 4 and
S <= 6, and at p = 3, 5, 7 the `abutment`, `cohomology`, `limits --moore`,
`run`, `e2` and `mahler` tables and JSON documents and both charts, each
on its other defaults.  Replay prints each key whose hash differs
and exits 1 if there is one.  `--write` rewrites the hashes of the keys in
the file; a change that means to alter an output rewrites them and names
the keys that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from imj.cli import main
from imj.towers import ssq_stage

MANIFEST = Path(__file__).resolve().parent / "golden_outputs.json"


def load() -> dict:
    """{key as a tuple: hash}, in the file's order."""
    return {tuple(key): digest
            for key, digest in json.loads(MANIFEST.read_text())}


def write(hashes: dict) -> None:
    lines = [json.dumps([list(key), digest]) for key, digest in hashes.items()]
    MANIFEST.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def outcome(key: tuple) -> list:
    """What one key yields, in the current directory, as JSON values."""
    if key[0] == "ssq_stage":
        return sorted(ssq_stage(*key[1:]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(key))
        except SystemExit as exc:  # argparse: help and usage errors
            rc = exc.code
    files = []
    for name in sorted(os.listdir()):
        files.append([name, Path(name).read_bytes().hex()])
        os.remove(name)
    return [rc, out.getvalue(), err.getvalue(), files]


def replay(keys, where) -> dict:
    """{key: hash} of each key, every one run in the directory `where`."""
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"):
            return {key: hashlib.sha256(json.dumps(outcome(key)).encode())
                    .hexdigest()[:16] for key in keys}
    finally:
        os.chdir(cwd)


def differing(want: dict, got: dict) -> list[tuple]:
    return [key for key, digest in want.items() if got[key] != digest]


if __name__ == "__main__":
    want = load()
    with tempfile.TemporaryDirectory() as tmp:
        got = replay(want, tmp)
    if sys.argv[1:] == ["--write"]:
        write(got)
        print(f"wrote {len(got)} hashes, {len(differing(want, got))} changed")
        sys.exit(0)
    bad = differing(want, got)
    print(*bad, f"{len(bad)} of {len(want)} keys differ", sep="\n")
    sys.exit(1 if bad else 0)
