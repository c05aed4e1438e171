"""Every result of tools/identity.py, bit for bit, against a committed digest.

tests/identity_digest.json holds one sha256 per record label of the tool's
output, the record count, and the Python and numpy versions it was made
with.  A change that alters any result on purpose regenerates it with

    python tests/test_identity.py

and says so in CHANGES.md.
"""

import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"
DIGEST = Path(__file__).with_name("identity_digest.json")


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def digest(output: str) -> dict:
    """The versions, the record count and one sha256 per label over that
    label's lines, in order; a label is the text before a record's
    arguments."""
    *lines, last = output.splitlines()
    shas = {}
    for line in lines:
        label = line.split(" [", 1)[0]
        shas.setdefault(label, hashlib.sha256()).update(line.encode() + b"\n")
    count = int(last.removeprefix("records "))
    assert count == len(lines), "the tool's record count disagrees with its lines"
    labels = {label: sha.hexdigest() for label, sha in sorted(shas.items())}
    return {**versions(), "records": count, "labels": labels}


def tool_output() -> str:
    """The tool's output, from its own process, so the store it grows to
    n = 1e6 leaves no trace in this one."""
    done = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_result_matches_the_digest():
    want = json.loads(DIGEST.read_text())
    made = {key: want[key] for key in versions()}
    assert made == versions(), (
        f"the digest was made with {made} but this is {versions()}: run on"
        " those versions, or regenerate the digest and record why"
    )
    got = digest(tool_output())
    differ = sorted(
        label
        for label in want["labels"].keys() | got["labels"].keys()
        if want["labels"].get(label) != got["labels"].get(label)
    )
    assert differ == [], f"results changed under these labels: {differ}"
    assert got["records"] == want["records"]


if __name__ == "__main__":
    DIGEST.write_text(json.dumps(digest(tool_output()), indent=1) + "\n")
