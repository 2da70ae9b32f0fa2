"""Run the mutation checks of tests/mutants.py and print killed or survived for each.

    python tests/run_mutants.py

Each mutant is applied to a fresh copy of src/ in a temporary directory, and its
selector runs under pytest with PYTHONPATH pointed at the copy (the pyproject
`pythonpath` setting is overridden so that the repository's src/ is not imported).
First every selector runs once on an unmutated copy; a selector that fails there
would count its mutant as killed, so the run stops. Exits 1 if a mutant survived
or did not run cleanly. Needs nothing beyond pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

REPO = Path(__file__).resolve().parents[1]


def _pytest(src: Path, selector) -> int:
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", "pythonpath=", *selector]
    return subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _copy(tmp: Path, name: str) -> Path:
    src = Path(tmp) / name
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="seqfam-mutants-") as tmp:
        selectors = [arg for m in MUTANTS for arg in m.selector]
        if _pytest(_copy(tmp, "control"), selectors) != 0:
            print("the selectors fail on unmutated code; no mutant was run", file=sys.stderr)
            return 2
        not_killed = 0
        for k, mutant in enumerate(MUTANTS):
            src = _copy(tmp, f"mutant{k}")
            path = src / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
                not_killed += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            code = _pytest(src, mutant.selector)
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            not_killed += verdict != "killed"
            print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f}s", flush=True)
    print(f"{len(MUTANTS) - not_killed} of {len(MUTANTS)} killed")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())
