"""catalan-lab benchmark: one command, three workloads, a traced layer run.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the chosen workload for S seconds. It
runs the workload's CLI commands as fresh processes, one at a time (a closed
loop with one client), again and again until S seconds have passed. Each
process is started through launch.py, which reports its wall time, exit
status, peak resident size and CPU time. Every output is checked. The run
also times set-up: fresh interpreters that import catalan_lab.cli and build
its parser. With ``--trace 1`` the run is the traced layer run of
tracing.py instead.

The run prints a readable report, writes a record with the full figures to
benchmark/results/, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics. The metric names, units and
bounds are those of BENCHMARK.json at the root. README.md in this
directory explains the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "catalan_lab"

SETUP_SAMPLES = 11
KB = 1024  # kilobytes in a megabyte (ru_maxrss is in kilobytes)
SETUP_ARGV = [sys.executable, "-c", "import catalan_lab.cli as cli; cli.build_parser()"]


def fail(message: str) -> None:
    sys.stderr.write(f"benchmark: {message}\n")
    sys.exit(2)


if not (PACKAGE / "cli.py").is_file():
    fail(f"no catalan_lab sources at {PACKAGE}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import runner  # noqa: E402
from workloads import COMMAND_NAMES, WORKLOADS  # noqa: E402


def child_env() -> dict[str, str]:
    """The environment of every measured process: the checkout's sources,
    no enumeration ceiling override, a fixed hash seed."""
    env = dict(os.environ)
    env.pop("CATALAN_LAB_MAX_N", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str | None:
    """The checked-out commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_files() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def stamp(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def src_lines() -> int:
    return sum(
        1
        for path in source_files()
        for line in path.read_text().splitlines()
        if line.strip()
    )


class Verdicts:
    """Checks outputs, checking each distinct output of a command only once.

    Repeated invocations with the same arguments and seed print the same
    bytes, so a verdict is keyed by the arguments and a digest of the output.
    """

    def __init__(self):
        self._seen: dict[tuple, str | None] = {}

    def __call__(self, cmd, done: runner.Launched) -> str | None:
        """None when the invocation succeeded, else why it failed."""
        if done.exit != 0:
            return f"exit code {done.exit}: {done.stderr[-500:]}"
        key = (cmd.args, hashlib.sha256(done.stdout.encode()).digest())
        if key not in self._seen:
            try:
                cmd.check(done.stdout)
                self._seen[key] = None
            except checks.CheckFailed as exc:
                self._seen[key] = str(exc)
        return self._seen[key]


def measure(args: argparse.Namespace, env: dict[str, str]) -> dict:
    """The untraced run: set-up samples, then workload iterations for --seconds.

    Iterations run while another one, of the mean length so far, fits in the
    time spent launching commands; time spent checking outputs is not
    counted. Gated times are at reference speed (see launch.py).
    """
    runner.launch(SETUP_ARGV, env)  # compiles the sources once, untimed
    setup = []
    for _ in range(SETUP_SAMPLES):
        done = runner.launch(SETUP_ARGV, env)
        if done.exit != 0:
            fail(f"set-up failed: {done.stderr[-2000:]}")
        setup.append(done)

    commands = WORKLOADS[args.workload](args.seed)
    verdicts = Verdicts()
    iterations, failures = [], []
    busy = 0.0
    while not iterations or busy * (1 + 1 / len(iterations)) <= args.seconds:
        runs = []
        for cmd in commands:
            started = time.perf_counter()
            done = runner.launch(runner.cli_argv(cmd.args), env)
            busy += time.perf_counter() - started
            error = verdicts(cmd, done)
            if error:
                failures.append(f"{' '.join(cmd.args)}: {error}")
            runs.append((cmd.name, done))
        iterations.append(runs)

    def median(per_iteration) -> tuple[float, int]:
        values = [per_iteration(runs) for runs in iterations]
        return statistics.median(values), len(values)

    def total(attr: str, name: str | None = None):
        return lambda runs: sum(getattr(d, attr) for n, d in runs if name in (None, n))

    def peak_mb(runs) -> float:
        return max(d.maxrss_kb for _, d in runs) / KB

    # each command's median over the passes, so that one slow spell moves
    # one term of the sum rather than a whole pass
    command_medians = [
        statistics.median(runs[i][1].ref_s for runs in iterations)
        for i in range(len(commands))
    ]
    metrics = {
        "wall_s": (sum(command_medians), len(iterations), "s"),
        "setup_s": (statistics.median(d.ref_s for d in setup), len(setup), "s"),
        "peak_rss_mb": (*median(peak_mb), "MB"),
    }
    informational = {
        "raw_wall_s": (*median(total("wall_s")), "s"),
        "raw_setup_s": (statistics.median(d.wall_s for d in setup), len(setup), "s"),
        "cpu_s": (*median(total("cpu_s")), "s"),
        "probe_ms": (
            statistics.median(d.probe_s for runs in iterations for _, d in runs) * 1000,
            sum(map(len, iterations)),
            "ms",
        ),
    }
    for name in COMMAND_NAMES:
        if any(cmd.name == name for cmd in commands):
            informational[f"{name}_s"] = (*median(total("ref_s", name)), "s")
    return {
        "metrics": metrics,
        "informational": informational,
        "attempted": len(iterations) * len(commands),
        "failures": failures,
        "invocations": [
            {"command": " ".join(cmd.args), **runner.figures(done)}
            for runs in iterations
            for cmd, (_, done) in zip(commands, runs)
        ],
        "setup_samples": [runner.figures(done) for done in setup],
    }


def traced(args: argparse.Namespace, env: dict[str, str]) -> dict:
    import tracing

    os.environ.pop("CATALAN_LAB_MAX_N", None)  # the in-process commands read it
    result = tracing.run(args.workload, args.seed, env, src_lines())
    return {
        "metrics": {name: (v, 1, unit) for name, (v, unit) in result.metrics.items()},
        "informational": {},
        "attempted": result.attempted,
        "failures": result.failures,
        "spans": [vars(s) for s in result.spans],
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    env = child_env()
    record = {"stamp": stamp(args)}
    record.update(traced(args, env) if args.trace else measure(args, env))

    # the declared metrics, in declared order, with the declared units
    measured = record["metrics"]
    metrics = {}
    for spec in declared_metrics(args.trace):
        value, samples, unit = measured.pop(spec["name"])
        if unit != spec["unit"]:
            fail(f"{spec['name']} measured in {unit}, declared in {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
        record["stamp"].setdefault("samples", {})[spec["name"]] = samples
    if measured:
        fail(f"measured but not declared in BENCHMARK.json: {sorted(measured)}")
    record["metrics"] = metrics

    failed = len(record["failures"])
    attempted = record["attempted"]
    s = record["stamp"]
    print(f"catalan-lab benchmark: workload {s['workload']}, seed {s['seed']}, "
          f"trace {s['trace']}")
    print(f"commit {s['commit'] or 'unknown (not a git checkout)'}, "
          f"sources sha256 {s['src_sha256'][:16]}, python {s['python']}, "
          f"nproc {s['nproc']}")
    if not args.trace:
        print("wall_s, setup_s and the per-command *_s are at reference speed "
              "(benchmark/launch.py); raw_* are as measured")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} "
              f"(n={s['samples'][name]})")
    for name, (value, samples, unit) in record["informational"].items():
        print(f"  {name:<46} {value:>14.6g} {unit:<6} (n={samples}, not gated)")
    print(f"  {'failed_ratio':<46} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    runner.RESULTS.mkdir(exist_ok=True)
    (runner.RESULTS / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
