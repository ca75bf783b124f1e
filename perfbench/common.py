"""Paths, program launching, memory and source-size readings shared by workloads."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives under this directory of the checkout.
OUTPUT = os.path.join(ROOT, ".perfbench")

#: Upper bound on one program invocation; a hung program fails the run
#: instead of hanging it.
PROGRAM_TIMEOUT = 150.0


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def require_program() -> None:
    """Refuse to run without the program's sources; make them importable."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment of program subprocesses: the checkout's sources first."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    return env


@dataclass
class Invocation:
    """One finished program subprocess."""

    returncode: int
    stdout: str
    stderr: str
    wall: float


def run_program(module: str, args: Sequence[str], timeout: float = PROGRAM_TIMEOUT) -> Invocation:
    """Run ``python -m <module> <args>`` from the checkout root and time it."""
    command = [sys.executable, "-m", module, *args]
    started = time.perf_counter()
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=program_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    wall = time.perf_counter() - started
    return Invocation(completed.returncode, completed.stdout, completed.stderr, wall)


class Tally:
    """Attempted operations and failures of one run (``failed_ratio`` = failed / attempted)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation or output check; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def add(self, attempted: int, failed: int, what: str) -> None:
        """Count a batch of operations of which ``failed`` failed."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(f"{what}: {failed} of {attempted}")


def peak_rss_mb() -> float:
    """Largest resident set of any waited-for child process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def derive_seed(seed: int, index: int) -> int:
    """The program seed of the ``index``-th input drawn from benchmark seed ``seed``."""
    return (seed * 1_000_003 + index * 7_919) % (2**31 - 1)


def src_line_counts() -> Dict[str, int]:
    """Lines of Python per ``repro.*`` module (informational, not gated)."""
    package = os.path.join(SRC, "repro")
    counts: Dict[str, int] = {}
    for directory, _, files in os.walk(package):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, package).split(os.sep)
            if len(relative) == 1:
                module = "repro." + relative[0][: -len(".py")]
                if module == "repro.__init__":
                    module = "repro"
            else:
                module = "repro." + relative[0]
            with open(path, "rb") as handle:
                counts[module] = counts.get(module, 0) + handle.read().count(b"\n")
    return dict(sorted(counts.items()))


def format_line_counts(counts: Dict[str, int]) -> List[str]:
    """Human-readable ``src`` size lines."""
    total = sum(counts.values())
    body = ", ".join(f"{module}={lines}" for module, lines in counts.items())
    return [f"src lines (informational): total={total}", f"  {body}"]
