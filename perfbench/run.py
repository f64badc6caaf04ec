#!/usr/bin/env python3
"""esskit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload projects --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it measures the ``src/esskit`` tree
of the checkout that holds this file and refuses to run against any other
copy. With ``--trace 0`` it prints the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it prints the per-layer metrics, a
per-layer table and the tracing overhead. The last line of standard output
is one JSON object. The exit status is 0 when every operation passed its
oracle, 1 when one did not, and 2 when the checkout cannot be measured.

Inputs and scratch files live under ``.perfbench-work/`` and are removed at
the end; traced runs keep their spans under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from workloads import python

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 5
LADDER = (50, 75, 90, 95, 99, 99.9)
# The tail percentile is fixed per workload, so that it means the same thing
# on every commit: the highest percentile with at least ten samples beyond it
# at the baseline's sample count. A run with fewer samples falls back to a
# lower percentile and says so.
TAIL = {"corpus-cli": 90, "projects": 95, "enact": 95}
LAYER_MODULES = ("cli", "dsl", "model", "validator", "lint", "togaf", "render", "progress")


class CheckoutError(Exception):
    """The checkout cannot be measured: no esskit source, or another copy."""


def load_esskit() -> dict:
    """Import esskit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "esskit" / "__init__.py").is_file():
        raise CheckoutError(f"no esskit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import esskit

    located = Path(esskit.__file__).resolve()
    if SRC.resolve() not in located.parents:
        raise CheckoutError(f"imported esskit from {located}, not from {SRC}")
    return {name: importlib.import_module(f"esskit.{name}") for name in LAYER_MODULES}


def check_children(env: dict, work: Path) -> None:
    """Child processes must import this checkout's esskit too."""
    done = python(env, work, "-c", "import esskit; print(esskit.__file__)")
    located = Path(done.stdout.strip() or ".").resolve()
    if done.returncode != 0 or SRC.resolve() not in located.parents:
        raise CheckoutError(f"child processes import esskit from "
                            f"{done.stdout.strip() or done.stderr.strip()!r}, not from {SRC}")


def percentile(sorted_ms: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_ms)))
    return sorted_ms[rank - 1], len(sorted_ms) - rank


def tail(sorted_ms: list[float], workload: str) -> tuple[float, str]:
    wanted = TAIL[workload]
    for p in [wanted] + [p for p in reversed(LADDER) if p < wanted]:
        value, beyond = percentile(sorted_ms, p)
        if beyond >= 10:
            fallback = "" if p == wanted else f", too few for p{wanted:g}"
            return value, f"p{p:g} of {len(sorted_ms)} samples ({beyond} beyond it{fallback})"
    value, _ = percentile(sorted_ms, 100)
    return value, f"max of {len(sorted_ms)} samples (too few for any percentile)"


class Measurement:
    def __init__(self) -> None:
        self.samples: list[tuple[int, object]] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.failed


def measure(workload, tracer, seconds: float) -> Measurement:
    """Closed loop, one client: whole rounds until ``seconds`` have passed."""
    result = Measurement()
    ops = workload.round()
    after_round = getattr(workload, "after_round", None)
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            tracer.op += 1
            start = time.perf_counter_ns()
            try:
                output = tracer.call("op", workload.timed, op)
            except Exception as failure:  # counted as a failed operation
                result.failed += 1
                result.problems.append(f"{op.label}: {type(failure).__name__}: {failure}")
                continue
            elapsed = time.perf_counter_ns() - start
            problems = workload.check(op, output)
            del output  # hold no result while the next operation runs
            if problems:
                result.failed += 1
                result.problems += [f"{op.label}: {p}" for p in problems]
            else:
                result.samples.append((elapsed, op))
        if after_round:
            after_round()
        if time.perf_counter() >= deadline:
            return result
        # Collect between rounds, outside the timer, so that each round
        # starts from the same heap and no round pays for another's garbage.
        gc.collect()


def end_to_end(name: str, m: Measurement, setups: list[float], rss_mb: float) -> tuple[dict, list[str]]:
    total_s = sum(ns for ns, _ in m.samples) / 1e9
    ms = sorted(ns / 1e6 for ns, _ in m.samples)
    tail_ms, tail_note = tail(ms, name)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ms) / total_s,
        "kb_per_s": sum(op.source_bytes for _, op in m.samples) / 1024 / total_s,
        "steps_per_s": sum(op.steps for _, op in m.samples) / total_s,
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": tail_ms,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "ops_per_s": "operations / time spent in them",
        "op_ms.p50": f"{len(ms)} samples",
        "op_ms.tail": tail_note,
        "kb_per_s": "KB = 1024 bytes of .ess source",
        "peak_rss_mb": ("largest child process" if name == "corpus-cli"
                        else "this process, set-up included"),
    }
    return values, [f"{k:<14} {v:>14.4f}  {notes.get(k, '')}" for k, v in values.items()]


def import_breakdown(env: dict, work: Path) -> tuple[float, float, list[str]]:
    """Bare interpreter and ``import esskit.cli`` medians, and -X importtime rows."""
    def run(*args: str) -> subprocess.CompletedProcess:
        return python(env, work, *args)

    bare, imported = [], []
    for _ in range(15):
        for bucket, code in ((bare, "pass"), (imported, "import esskit.cli")):
            start = time.perf_counter_ns()
            run("-c", code)
            bucket.append((time.perf_counter_ns() - start) / 1e6)
    bare_ms = statistics.median(bare)
    import_ms = statistics.median(imported) - bare_ms
    rows = []
    for line in run("-X", "importtime", "-c", "import esskit.cli").stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if match:
            rows.append((int(match[1]), int(match[2]), match[4]))
    own = [r for r in rows if r[2].startswith("esskit")]
    others = sorted((r for r in rows if not r[2].startswith("esskit")), reverse=True)[:8]
    table = [f"{'module':<32} {'self us':>9} {'cumulative us':>14}"]
    table += [f"{name:<32} {s:>9} {c:>14}" for s, c, name in own + others]
    return bare_ms, import_ms, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        esskit = load_esskit()
    except (OSError, ValueError, CheckoutError, ImportError) as failure:
        print(f"cannot measure this checkout: {failure}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    traced = bool(args.trace)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tracer = spans.Tracer(enabled=False)
    ctx = workloads.Context(args.seed, work, env, esskit, tracer,
                            in_process=traced and args.workload == "corpus-cli")
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}  esskit {SRC / 'esskit'}"]
    try:
        check_children(env, work)
        setups = []
        for _ in range(1 if traced else SETUPS):
            workload = None  # each set-up starts from nothing
            gc.collect()
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](ctx)
            workload.setup()
            setups.append(time.perf_counter() - start)

        if not traced:
            m = measure(workload, tracer, args.seconds)
            if not m.samples:
                raise RuntimeError("no operation passed: " + "; ".join(m.problems[:5]))
            self_or_children = (resource.RUSAGE_CHILDREN if args.workload == "corpus-cli"
                                else resource.RUSAGE_SELF)
            rss_mb = resource.getrusage(self_or_children).ru_maxrss / 1024
            values, rows = end_to_end(args.workload, m, setups, rss_mb)
            lines += rows
            if args.workload == "corpus-cli" and workload.bare_ns:
                lines.append(f"bare interpreter (python -c pass), beside them: "
                             f"{statistics.median(workload.bare_ns) / 1e6:.2f} ms median "
                             f"of {len(workload.bare_ns)}")
            wanted = spec["end_to_end"]
            attempted, failed, problems = m.attempted, m.failed, m.problems
        else:
            plain = measure(workload, tracer, args.seconds / 2)
            saved = spans.install(tracer, esskit)
            tracer.enabled = True
            try:
                recorded = measure(workload, tracer, args.seconds / 2)
            finally:
                tracer.enabled = False
                spans.uninstall(saved)
            if not plain.samples or not recorded.samples:
                raise RuntimeError("no operation passed: "
                                   + "; ".join((plain.problems + recorded.problems)[:5]))
            values, rows = spans.layer_table(tracer, len(recorded.samples))
            plain_ms = statistics.median(ns / 1e6 for ns, _ in plain.samples)
            traced_ms = statistics.median(ns / 1e6 for ns, _ in recorded.samples)
            values["trace.overhead_pct"] = (traced_ms - plain_ms) / plain_ms * 100
            values["cli.interpreter_ms"] = values["cli.import_ms"] = 0.0
            lines += rows
            lines.append(f"tracing overhead: operation p50 {plain_ms:.3f} ms untraced, "
                         f"{traced_ms:.3f} ms traced "
                         f"({values['trace.overhead_pct']:+.1f}%)")
            if args.workload == "corpus-cli":
                bare_ms, import_ms, table = import_breakdown(env, work)
                values["cli.interpreter_ms"], values["cli.import_ms"] = bare_ms, import_ms
                lines.append(f"bare interpreter {bare_ms:.2f} ms; import esskit.cli "
                             f"{import_ms:.2f} ms beyond it (medians of 15)")
                lines += table
            lines += [
                "all layers run in one thread with no queues, so no span waits: "
                "there is no wait time to report",
                "render.export_json_ms includes the resolve that export_json runs "
                "inside itself, which is invisible from outside",
                "layers a workload does not call read 0",
            ]
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_file)
            lines.append(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
            wanted = spec["per_layer"]
            attempted = plain.attempted + recorded.attempted
            failed = plain.failed + recorded.failed
            problems = plain.problems + recorded.problems
    except CheckoutError as failure:
        print(f"cannot measure this checkout: {failure}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.SubprocessError) as failure:
        print(f"run failed: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines.append(f"operations {attempted} attempted, {failed} failed "
                 f"(failed_ratio {failed / max(attempted, 1):.6f})")
    lines += [f"MISMATCH {p}" for p in problems[:20]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
