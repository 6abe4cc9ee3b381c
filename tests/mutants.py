"""A mutation probe of the test suite: which source edits does it miss?

Each mutant is one exact-text edit of a file under ``src/`` (its old text must
occur there exactly once). For each, the repository is copied to a temporary
directory, the edit applied, and ``pytest -x -q`` run there; the mutant is
killed when a test fails (the first failing test is named) and survives
otherwise. ``tests/test_mutants.py`` is left out of the run: it fails on every
mutant, since it looks for the old texts. Uses the standard library only, and pytest does not collect it
(``tests/test_mutants.py`` checks that every old text is still there).

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: what the copy leaves out: version control, caches and run outputs
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                 ".bench_out", ".bench_work")


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    old: str
    new: str
    note: str = ""  # why a mutant is expected to survive, where it is


MUTANTS = [
    Mutant("bad-cavity-margin", "src/levicool/steady_state.py",
           "BAD_CAVITY_MARGIN = 10.0", "BAD_CAVITY_MARGIN = 11.0"),
    Mutant("feedback-factor", "src/levicool/steady_state.py",
           "FEEDBACK_OCCUPATION_FACTOR = 8.0", "FEEDBACK_OCCUPATION_FACTOR = 9.0"),
    Mutant("ground-state-tie", "src/levicool/steady_state.py",
           '"ground_state": occupation < 1.0,', '"ground_state": occupation <= 1.0,'),
    Mutant("resolved-tie", "src/levicool/dynamics.py",
           "resolved = 2.0 * coupling > (sphere_damping + atom_damping) / 2.0",
           "resolved = 2.0 * coupling >= (sphere_damping + atom_damping) / 2.0"),
    Mutant("strong-coupling-tie", "src/levicool/steady_state.py",
           '"strong_coupling": ratio > 1.0,', '"strong_coupling": ratio >= 1.0,',
           "no test has a design whose ratio is exactly 1"),
    Mutant("weak-coupling-margin", "src/levicool/steady_state.py",
           "WEAK_COUPLING_MARGIN = 0.1", "WEAK_COUPLING_MARGIN = 0.11"),
    Mutant("adiabatic-tie", "src/levicool/steady_state.py",
           '"adiabatic_ok": bundle.atom_cooling >= bundle.coupling,',
           '"adiabatic_ok": bundle.atom_cooling > bundle.coupling,',
           "no test has a design whose atom cooling rate equals its coupling"),
    Mutant("diffusion-limit", "src/levicool/steady_state.py",
           "term_diffusion_limit = bundle.atom_diffusion / (2.0 * bundle.atom_cooling)",
           "term_diffusion_limit = bundle.atom_diffusion / (2.1 * bundle.atom_cooling)"),
    Mutant("recoil-weight", "src/levicool/rates.py",
           "return (0.4 * (d.sphere_recoil_trap / d.sphere_frequency) * scatter_trap",
           "return (0.5 * (d.sphere_recoil_trap / d.sphere_frequency) * scatter_trap"),
    Mutant("display-hz", "src/levicool/constants.py",
           "return rate / TWO_PI", "return rate / 6.2832"),
    Mutant("atom-cooling-factor", "src/levicool/constants.py",
           "ATOM_COOLING_FACTOR = 1.1", "ATOM_COOLING_FACTOR = 1.2"),
    Mutant("first-least", "src/levicool/sweep.py",
           "return int(indices[np.argmin(values[indices])])",
           "return int(indices[::-1][np.argmin(values[indices][::-1])])"),
    Mutant("csv-exponent-range", "src/levicool/csvtext.py",
           "exact &= exponent <= 99", "exact &= exponent <= 100"),
    Mutant("tie-margin", "src/levicool/csvtext.py",
           "TIE_MARGIN = 1e-15", "TIE_MARGIN = 0"),
]


def check(mutant: Mutant, root: Path = ROOT) -> str:
    """The file's text, after asserting that the mutant's old text occurs once in it."""
    text = (root / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
    return text


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, the first failing test or pytest's last line) for one mutant."""
    text = check(mutant)
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        (copy / mutant.path).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--ignore=tests/test_mutants.py"],
                              cwd=copy, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    failed = [line.split()[1] for line in lines if re.match(r"(FAILED|ERROR) ", line)]
    return done.returncode != 0, failed[0] if failed else (lines[-1] if lines else "")


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        killed, by = run(mutant)
        note = f"  ({mutant.note})" if mutant.note and not killed else ""
        print(f"{mutant.name}: {'killed by ' + by if killed else 'survived'}{note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
