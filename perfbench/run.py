"""End-to-end benchmark of the iqpsynth command line.

    python3 perfbench/run.py --workload exact_table --seed 1 --seconds 40 --trace 0

Drives the CLI as a user does: distribution file -> synth -> circuit file
-> verify, plus simulate and decompose.  Each workload is a fixed list of
jobs, run in whole rounds, closed loop, one call at a time, until the next
round would overrun --seconds.  A call's time is the median over the
rounds of a run, so one slow call moves no metric.  Every output is
checked by checks.py, which shares no code with the package; a later round
that writes the same bytes only has its digests compared.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
--trace 0 reports the end-to-end metrics; --trace 1 runs the same rounds
with spans around the layer calls (spans.py) and reports the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
CALL_TIMEOUT_S = 150
TEXTURES = ("dense", "spiky", "gappy", "ties")


@dataclass(frozen=True)
class Job:
    """One input and the CLI calls made on it in every round.

    mode None skips synth, verify and simulate; sparsity None skips decompose.
    form is the synth output: "phasetable", "gates", or "lower" (both).
    """

    name: str
    n: int
    texture: str
    mode: str | None
    m: int | None = None
    form: str = "phasetable"
    samples: int = 0
    sparsity: int | None = None


# One small exact and one small approx round trip ride along in exact_table,
# so that every subcommand and every layer runs in every workload and each
# metric is defined on each of them.  Their inputs do not depend on --seed,
# so the few gates they emit are the same count on every run.
SMOKE = (
    Job("smoke_exact", 4, "spiky", "exact", form="lower", sparsity=2),
    Job("smoke_approx", 4, "gappy", "approx", m=6, form="gates", samples=64, sparsity=3),
)


def _many_small() -> tuple[Job, ...]:
    # Two inputs per size and variant, each variant cycling through the
    # textures: the more inputs, the less a round's work depends on --seed.
    # Gate lists stop at 11 qubits; the Python loop of walsh_lower over
    # 2**15 coefficients would otherwise outweigh every fixed cost together.
    jobs = []
    for n in range(1, 7):
        for copy in range(2):
            t = 2 * n + copy
            jobs += [
                Job(f"e{n}_table{copy}", n, TEXTURES[t % 4], "exact", samples=32,
                    sparsity=2),
                Job(f"a{n}_table{copy}", n, TEXTURES[(t + 2) % 4], "approx", m=n + 2,
                    samples=32, sparsity=3),
            ]
            if n <= 5:
                jobs += [
                    Job(f"e{n}_gates{copy}", n, TEXTURES[(t + 1) % 4], "exact",
                        form="gates", sparsity=3),
                    Job(f"a{n}_gates{copy}", n, TEXTURES[(t + 3) % 4], "approx", m=n + 1,
                        form="gates", sparsity=2),
                ]
    return tuple(jobs)


# n=9 is the largest exact size whose verify still runs the dense cross-check
# (m+n <= 20).  Three textures keep an exact_table round near 16 s, so that
# a run holds two.  m+n = 16 (approx) and 15 (exact) are
# the lowering cap.  The wide decompositions stop at n=13: at n=14 the
# allocation's row-sum drift comes within 10% of SparseDist's 1e-12
# tolerance on some seeds, and n=15 fails.
WORKLOADS = {
    "exact_table": tuple(
        Job(f"table_{t}", 9, t, "exact", sparsity=3 if t == "gappy" else 2)
        for t in TEXTURES[1:]
    ) + SMOKE,
    "gates_decompose": (
        Job("approx_8_8", 8, "spiky", "approx", m=8, form="gates", sparsity=3),
        Job("approx_6_10", 6, "dense", "approx", m=10, form="gates"),
        Job("exact_7_gappy", 7, "gappy", "exact", form="gates", samples=64, sparsity=2),
    ) + tuple(
        Job(f"wide_{n}_s{s}", n, TEXTURES[(n + s) % 4], None, sparsity=s)
        for n in (11, 12, 13) for s in (2, 3)
    ),
    "many_small": _many_small(),
}
IN_PROCESS = {"many_small"}


def texture(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A normalized distribution over n bits with the named shape."""
    size = 1 << n
    if kind == "dense":
        w = 0.5 + rng.random(size)
    elif kind == "spiky":
        w = rng.random(size) ** 4
    elif kind == "gappy":  # about half the outcomes exactly zero
        w = rng.random(size) * (rng.random(size) < 0.5)
        w[rng.integers(size)] = 1.0
    else:  # ties: four mass levels shared by many outcomes
        w = rng.integers(1, 5, size).astype(np.float64)
    return w / math.fsum(w)


def dist_json(p: np.ndarray) -> str:
    n = p.size.bit_length() - 1
    probs = ", ".join(
        f'"{format(j, f"0{n}b")}": {float(v):.17g}' for j, v in enumerate(p) if v
    )
    return f'{{"n": {n}, "probs": {{{probs}}}}}\n'


@dataclass
class Round:
    walls: dict[tuple[str, str], float] = field(default_factory=dict)  # (job, command)
    traced: list[tuple[float, list[dict], float]] = field(default_factory=list)
    output_bytes: int = 0
    gate_count: int = 0
    digests: dict[str, str] = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, work: Path) -> None:
        self.jobs = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.work = work
        self.in_process = workload in IN_PROCESS
        self.inputs: dict[str, np.ndarray] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        # (job, output digest) -> what its checks returned.  Identical bytes
        # get the same verdict, so later rounds only compare digests.
        self.checked: dict[tuple[str, str], object] = {}
        self.check_s = 0.0  # time spent in those first checks
        self.correct = True
        os.environ.pop("IQP_MAX_QUBITS", None)  # a lowered cap would refuse jobs
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # The heap peaks of serialize and parse are measured on one job only,
        # the first with the most qubits: replays under tracemalloc run about
        # ten times slower.
        self.peak_job = max(
            (j for j in self.jobs if j.mode), key=lambda j: j.n + (j.m or j.n + 1)
        )
        self.recorder = None
        self.cli = None
        if self.in_process:
            sys.path.insert(0, str(SRC))
            import iqpsynth.cli

            self.cli = iqpsynth.cli
            if trace:
                self.recorder = spans.Recorder()
                self.recorder.install(sys.modules["iqpsynth"])

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Generate and write every input, then warm the CLI up; return seconds."""
        start = time.perf_counter()
        self.work.mkdir(parents=True, exist_ok=True)
        for k, job in enumerate(self.jobs):
            seed = 0 if job in SMOKE else self.seed
            p = texture(job.texture, job.n, np.random.default_rng([seed, k]))
            self.inputs[job.name] = p
            (self.work / f"{job.name}.json").write_text(dist_json(p))
        warm = self.work / "warm.json"
        warm.write_text(dist_json(np.array([0.125, 0.25, 0.25, 0.375])))
        argv = ["synth", str(warm), "-o", str(self.work / "warm.txt")]
        codes = [self._spawn(argv, trace=False)[0]]
        if self.in_process:
            codes.append(self._in_process(argv)[0])
        if any(codes):
            raise RuntimeError(f"warm-up synth exited {codes}")
        return time.perf_counter() - start

    # -- one CLI call -------------------------------------------------------

    def _spawn(self, argv: list[str], trace: bool, peaks: bool = False):
        out, err = self.work / "call.out", self.work / "call.err"
        cmd = [sys.executable, "-m", "iqpsynth.cli", *argv]
        if trace:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(self.work / "spans.json"),
                   str(int(peaks)), *argv]
        with open(out, "w") as fo, open(err, "w") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            try:
                code = proc.wait(timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = -9
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        call_spans, tracer_s = [], 0.0
        if trace and code == 0:
            record = json.loads((self.work / "spans.json").read_text())
            call_spans, tracer_s = record["spans"], record["tracer_s"]
        return code, wall, out.read_text(), err.read_text(), call_spans, tracer_s

    def _in_process(self, argv: list[str], peaks: bool = False):
        if self.recorder:
            self.recorder.peaks = peaks
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                err.write(f"{type(exc).__name__}: {exc}\n")
                code = -1
            wall = time.perf_counter() - start
        call_spans, tracer_s = self.recorder.take() if self.recorder else ([], 0.0)
        return code, wall, out.getvalue(), err.getvalue(), call_spans, tracer_s

    def call(self, rnd: Round, job: Job, command: str, argv: list[str]) -> tuple[bool, str, str]:
        self.attempted += 1
        peaks = self.trace and job is self.peak_job
        if self.in_process:
            code, wall, out, err, call_spans, tracer_s = self._in_process([command, *argv], peaks)
        else:
            code, wall, out, err, call_spans, tracer_s = self._spawn(
                [command, *argv], self.trace, peaks
            )
        if code != 0:
            self.failed += 1
            self.problem(f"{command} {' '.join(argv)} exited {code}: {err.strip()[-300:]}")
            return False, out, err
        rnd.walls[job.name, command] = wall
        if self.trace:
            rnd.traced.append((wall, call_spans, tracer_s))
        return True, out, err

    def skip(self, count: int) -> None:
        """Count calls that could not run because the call they read from failed."""
        self.attempted += count
        self.failed += count

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    # -- one round ----------------------------------------------------------

    def run_round(self) -> Round:
        rnd = Round()
        for job in self.jobs:
            try:
                self._run_job(rnd, job)
            except Exception as exc:  # a check that cannot even parse the output
                self.problem(f"{job.name}: {type(exc).__name__}: {exc}")
                self.correct = False
        return rnd

    def _output(self, rnd: Round, path: Path) -> tuple[str, str]:
        text = path.read_text()
        digest = rnd.digests[path.name] = hashlib.sha256(text.encode()).hexdigest()
        return text, digest

    def _once(self, job: Job, digest: str, check):
        key = (job.name, digest)
        if key not in self.checked:
            start = time.perf_counter()
            self.checked[key] = check()
            self.check_s += time.perf_counter() - start
        return self.checked[key]

    def _check_circuit(self, job: Job, text: str):
        circ = checks.read_circuit(text)
        marginal = self._check(lambda: checks.check_circuit(
            circ, self.inputs[job.name], job.mode, job.m, job.form != "gates",
            job.form != "phasetable"))
        return circ, marginal

    def _run_job(self, rnd: Round, job: Job) -> None:
        p = self.inputs[job.name]
        dist = str(self.work / f"{job.name}.json")
        if job.mode is not None:
            circ_path = self.work / f"{job.name}.txt"
            flags = ["--mode", job.mode]
            if job.m is not None:
                flags += ["--m", str(job.m)]
            flags += {"phasetable": [], "gates": ["--format", "gates"], "lower": ["--lower"]}[
                job.form
            ]
            later = 1 + (job.samples > 0)
            ok, _, _ = self.call(rnd, job, "synth", [dist, "-o", str(circ_path), *flags])
            if not ok:
                self.skip(later)
            else:
                text, digest = self._output(rnd, circ_path)
                rnd.output_bytes += len(text)
                circ, marginal = self._once(job, digest, lambda: self._check_circuit(job, text))
                rnd.gate_count += circ.gate_count
                report = self.work / f"{job.name}.report.json"
                ok, _, _ = self.call(rnd, job, "verify", [str(circ_path), dist, "-o", str(report)])
                if ok and marginal is not None:
                    self._check(lambda: checks.check_report(
                        report.read_text(), circ, marginal, p, job.mode))
                if job.samples:
                    ok, out, _ = self.call(rnd, job, "simulate", [
                        str(circ_path), "--samples", str(job.samples), "--seed", str(self.seed)])
                    if ok and marginal is not None:
                        digest = rnd.digests[f"{job.name}.samples"] = hashlib.sha256(
                            out.encode()).hexdigest()
                        self._once(job, digest, lambda: self._check(
                            lambda: checks.check_simulation(out, marginal, job.samples)))
        if job.sparsity is not None:
            cert = self.work / f"{job.name}.parts.json"
            ok, _, err = self.call(rnd, job, "decompose", [
                dist, "--sparsity", str(job.sparsity), "--check", "-o", str(cert)])
            if ok:
                text, digest = self._output(rnd, cert)
                rnd.output_bytes += len(text)
                self._once(job, digest, lambda: self._check(
                    lambda: checks.check_certificate(text, p, job.sparsity)))
                if not err.startswith("max reconstruction error"):
                    self.problem(f"{job.name}: decompose --check printed {err!r}")
                    self.correct = False

    def _check(self, check):
        try:
            return check()
        except checks.CheckFailed as exc:
            self.problem(f"check failed: {exc}")
            self.correct = False
            return None


def end_to_end(rounds: list[Round], setup_s: list[float], peak_rss_mb: float) -> dict:
    # Each call of a round gets its median wall time over the run's rounds;
    # a command's metric is the mean of those over the round's calls of it.
    times = {
        key: statistics.median(r.walls[key] for r in rounds if key in r.walls)
        for key in {key for r in rounds for key in r.walls}
    }

    def mean(command: str) -> float:
        return statistics.fmean(t for (_, c), t in times.items() if c == command)

    return {
        "synth_s": (mean("synth"), "s"),
        "verify_s": (mean("verify"), "s"),
        "decompose_s": (mean("decompose"), "s"),
        "calls_per_s": (len(times) / math.fsum(times.values()), "1/s"),
        "output_bytes": (rounds[0].output_bytes, "bytes"),
        "gate_count": (rounds[0].gate_count, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iqpsynth" / "cli.py").is_file():
        sys.stderr.write(f"error: no iqpsynth package under {SRC}\n")
        return 2
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(args.workload, args.seed, bool(args.trace), work)
        setup_s = [bench.setup() for _ in range(SETUP_REPEATS)]
        # In-process calls share the interpreter with the benchmark; keep the
        # collector from scanning the benchmark's own objects inside them.
        gc.collect()
        gc.freeze()
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            rounds.append(bench.run_round())
            # Full checks run in the first round only; a later round costs
            # about the mean round time without them.
            elapsed = time.perf_counter() - start
            if elapsed + (elapsed - bench.check_s) / len(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in rounds[1:]:
        if (r.digests, r.output_bytes, r.gate_count) != (
            rounds[0].digests, rounds[0].output_bytes, rounds[0].gate_count):
            bench.correct = False
            bench.problem("outputs differ between rounds of identical inputs")
            break
    if bench.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if args.trace:
        values = spans.median_layers([spans.round_layers(r.traced) for r in rounds])
        metrics = {k: (v, spans.LAYER_METRICS[k][0]) for k, v in values.items()}
    else:
        metrics = end_to_end(rounds, setup_s, peak_kb * 1024 / 1e6)

    for problem in bench.problems:
        sys.stderr.write(f"problem: {problem}\n")
    sys.stderr.write(
        f"{args.workload} seed={args.seed} rounds={len(rounds)} "
        f"attempted={bench.attempted} failed={bench.failed} correct={bench.correct}\n"
    )
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name:38s} {value:14.6g} {unit}\n")
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
