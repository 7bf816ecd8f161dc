"""Starting measured processes: each one through a fresh launch.py."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from launch import MARKER

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = str(BENCH_DIR / "launch.py")
RESULTS = BENCH_DIR / "results"


@dataclass(frozen=True)
class Launched:
    wall_s: float
    ref_s: float
    probe_s: float
    exit: int
    maxrss_kb: int
    cpu_s: float
    stdout: str
    stderr: str


def figures(done: Launched) -> dict:
    """What the launcher measured, without the outputs."""
    return {k: v for k, v in vars(done).items() if k not in ("stdout", "stderr")}


def cli_argv(args) -> list[str]:
    """The command line that runs catalan-lab with the given arguments."""
    return [sys.executable, "-m", "catalan_lab.cli", *args]


def launch(argv: list[str], env: dict[str, str]) -> Launched:
    """Run argv through a fresh launcher and return what it measured."""
    RESULTS.mkdir(exist_ok=True)
    output = RESULTS / f"stdout-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, LAUNCHER, str(output), *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            check=False,
        )
        stdout = output.read_text()
    finally:
        output.unlink(missing_ok=True)
    head, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    if proc.returncode != 0 or not last.startswith(MARKER):
        raise RuntimeError(f"launcher failed for {argv}: {proc.stderr[-2000:]}")
    return Launched(**json.loads(last[len(MARKER):]), stdout=stdout, stderr=head)
