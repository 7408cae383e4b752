"""Rewrite the golden README outputs in this directory.

    python tests/golden/regenerate.py

In a temporary directory it writes the README generator's log,
``write_region_log("access.csv", region=2, n_accesses=200_000, seed=0)``,
and runs the ``d2dlab`` commands of README's ``sh`` block there through
``cli.main``. It then rewrites every golden file and deletes any other:

- ``commands.txt``: the commands, one a line, as ``shlex.join`` writes them;
- ``fit.json``, ``mstar.csv``, ``curve.csv`` and ``sim.json``, verbatim;
- ``SHA256SUMS``: the SHA-256 of ``fit_ranks.csv`` and ``policy.json``,
  in the format of ``sha256sum``;
- each ``<output>.manifest.json``, without ``started_at``, ``finished_at``
  and the ingest ``wall_s``, the fields that change from run to run.

``tests/test_golden.py`` runs the commands of ``commands.txt`` the same way
and compares every byte.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
README = GOLDEN.parents[1] / "README.md"

if __name__ == "__main__":  # regenerate from this checkout's code, not an installed copy
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from d2dlab import cli  # noqa: E402
from d2dlab.fixtures import write_region_log  # noqa: E402

COMMANDS = "commands.txt"
VERBATIM = ("fit.json", "mstar.csv", "curve.csv", "sim.json")
HASHED = ("fit_ranks.csv", "policy.json")
CHECKSUMS = "SHA256SUMS"


def readme_commands(readme: str) -> list[list[str]]:
    """The arguments after ``d2dlab`` of each command in README's ``sh`` block of them."""
    blocks = [block for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
              if re.search(r"^d2dlab ", block, re.M)]
    if len(blocks) != 1:
        raise ValueError(f"README has {len(blocks)} sh blocks of d2dlab commands, not 1")
    lines = blocks[0].replace("\\\n", " ").splitlines()
    commands = [words for words in (shlex.split(line, comments=True) for line in lines) if words]
    for words in commands:
        if words[0] != "d2dlab":
            raise ValueError(f"README's d2dlab block runs {shlex.join(words)!r}")
    return [words[1:] for words in commands]


def golden_commands() -> list[list[str]]:
    """The commands that the golden files were made from."""
    return [shlex.split(line) for line in (GOLDEN / COMMANDS).read_text(encoding="utf-8").splitlines()]


def expected_files() -> dict[str, bytes]:
    """Every golden file by name."""
    return {path.name: path.read_bytes() for path in GOLDEN.iterdir()
            if path.is_file() and path.suffix != ".py"}


def _timeless(manifest: bytes) -> bytes:
    record = json.loads(manifest)
    del record["started_at"], record["finished_at"]
    record.get("ingest", {}).pop("wall_s", None)
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()


def golden_files(workdir: Path, commands: list[list[str]]) -> dict[str, bytes]:
    """The golden files for commands that have run in workdir."""
    files = {COMMANDS: "".join(shlex.join(argv) + "\n" for argv in commands).encode()}
    files |= {name: (workdir / name).read_bytes() for name in VERBATIM}
    files[CHECKSUMS] = "".join(
        f"{hashlib.sha256((workdir / name).read_bytes()).hexdigest()}  {name}\n" for name in HASHED
    ).encode()
    files |= {path.name: _timeless(path.read_bytes())
              for path in sorted(workdir.glob("*.manifest.json"))}
    return files


def main() -> None:
    commands = readme_commands(README.read_text(encoding="utf-8"))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            write_region_log("access.csv", region=2, n_accesses=200_000, seed=0)
            for argv in commands:
                if cli.main(argv) != 0:
                    raise RuntimeError(f"d2dlab {shlex.join(argv)} failed")
            files = golden_files(Path(workdir), commands)
        finally:
            os.chdir(home)
    for name in expected_files().keys() - files.keys():
        (GOLDEN / name).unlink()
        print(f"deleted {name}")
    for name, data in sorted(files.items()):
        path = GOLDEN / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(f"wrote {name}")


if __name__ == "__main__":
    main()
