"""The workloads: set-up, one timed operation, and its oracle.

Each workload object is built once per run. ``setup`` is timed and repeated;
``round`` lists the operations of one pass over the inputs; ``timed`` is the
only part inside the latency timer; ``check`` compares what ``timed``
returned with the generator's records or the frozen corpus files and returns
a list of mismatches (empty when the output is right).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen

CLI_CODE = "from esskit.cli import main; main()"

# The projects oracle enacts each method for this many steps: enough to pass
# the preamble and wrap a 12-practice cycle, and the same for every method,
# so that steps per operation do not vary by seed.
ORACLE_STEPS = 24
# Share of a project's lookups made for ids that do not exist.
ABSENT_SHARE = 0.1


@dataclass
class Op:
    """One operation: what it runs on, and how much work it represents."""

    label: str
    payload: object
    source_bytes: int
    steps: int


@dataclass
class Context:
    seed: int
    work: Path
    env: dict
    esskit: dict
    tracer: object
    # corpus-cli runs commands through cli.run in this process when traced.
    in_process: bool


def python(env: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion (killed after 60 s)."""
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def _record_counts(tree: dict) -> Counter:
    """Element records per kind in an export_json tree."""
    counts = Counter()
    stack = [value for key, value in tree.items() if key not in ("diagnostics", "assessments")]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, dict):
            if "id" in item and "kind" in item:
                counts[item["kind"]] += 1
            stack.extend(v for v in item.values() if isinstance(v, (list, dict)))
    return counts


def _dot_counts(text: str) -> dict:
    lines = text.splitlines()
    edges = sum(1 for line in lines if '" -> "' in line)
    nodes = sum(1 for line in lines if line.startswith('  "') and '" -> "' not in line)
    return {"nodes": nodes, "edges": edges}


def _mapped_shape(practice) -> dict:
    shape = {"top_spaces": len(practice.members), "nested_spaces": 0, "activities": 0}
    stack = [m for top in practice.members for m in top.members]
    while stack:
        member = stack.pop()
        if member.kind == "activity":
            shape["activities"] += 1
        else:
            shape["nested_spaces"] += 1
            stack.extend(member.members)
    return shape


def _compare(label: str, got, want, problems: list[str]) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


class CorpusCli:
    """Cold `esskit` processes on the bundled corpus, one at a time."""

    name = "corpus-cli"
    COMMANDS = (
        ("check",),
        ("lint",),
        ("map",),
        ("export", "--format", "tree"),
        ("export", "--format", "dot"),
        ("enact", "--method", "adm", "--steps", "10"),
    )

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.corpus = ctx.work / "corpus"
        self.bare_ns: list[int] = []

    def after_round(self) -> None:
        """Time a bare interpreter beside the commands (not in-process)."""
        if not self.ctx.in_process:
            start = time.perf_counter_ns()
            self._spawn("-c", "pass")
            self.bare_ns.append(time.perf_counter_ns() - start)

    def _spawn(self, *args: str) -> subprocess.CompletedProcess:
        return python(self.ctx.env, self.ctx.work, *args)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        if self.ctx.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.ctx.esskit["cli"].run(argv)
            return code, out.getvalue()
        done = self._spawn("-c", CLI_CODE, *argv)
        return done.returncode, done.stdout

    def setup(self) -> None:
        code, out = self.cli(["corpus", str(self.corpus)])
        if code != 0:
            raise RuntimeError(f"esskit corpus exited {code}")
        self.files = sorted(str(p) for p in self.corpus.glob("*.ess"))
        self.source_bytes = sum(Path(p).stat().st_size for p in self.files)
        self.manifest = json.loads((self.corpus / "manifest.json").read_text(encoding="utf-8"))
        practices = (self.corpus / "practices.ess").read_text(encoding="utf-8")
        self.practices_text = practices[practices.index("\npractice ") + 1:]
        warm = Op("check", ("check",), self.source_bytes, 0)
        problems = self.check(warm, self.timed(warm))
        if problems:
            raise RuntimeError("warm-up failed: " + "; ".join(problems))

    def round(self) -> list[Op]:
        return [Op(" ".join(c[:3]), c, self.source_bytes,
                   int(c[-1]) if c[0] == "enact" else 0) for c in self.COMMANDS]

    def timed(self, op: Op):
        return self.cli([op.payload[0], *self.files, *op.payload[1:]])

    def check(self, op: Op, result) -> list[str]:
        code, out = result
        problems: list[str] = []
        _compare(f"{op.label} exit code", code, 0, problems)
        command = op.payload[0]
        lints = self.manifest["lints"]
        if command == "check":
            _compare("check output", out, "0 errors, 0 warnings\n", problems)
        elif command == "lint":
            rules = Counter(line.split(" ", 1)[0] for line in out.splitlines()[:-1])
            _compare("lint counts", dict(rules), lints, problems)
            _compare("lint summary", out.splitlines()[-1:],
                     [f"{sum(lints.values())} lint warnings"], problems)
        elif command == "map":
            _compare("map output equals corpus/practices.ess", out == self.practices_text,
                     True, problems)
        elif command == "enact":
            _compare("enact output", out.split(), "P A B C D E F G H A".split(), problems)
        elif op.payload[2] == "dot":
            _compare("dot output", (out.startswith("digraph "), out.endswith("}\n")),
                     (True, True), problems)
        else:
            self._check_tree(out, problems)
        return problems

    def _check_tree(self, out: str, problems: list[str]) -> None:
        try:
            tree = json.loads(out)
        except ValueError as failure:
            problems.append(f"export tree is not JSON: {failure}")
            return
        m = self.manifest
        counts = _record_counts(tree)
        kernel = m["kernel"]
        _compare("tree counts", {k: counts[k] for k in
                                 ("area", "alpha", "state", "competency", "role",
                                  "method", "practice", "phase")},
                 {"area": kernel["areas"], "alpha": kernel["alphas"],
                  "state": kernel["alpha_states"], "competency": kernel["competencies"],
                  "role": m["roles"], "method": m["methods"],
                  "practice": m["practices"], "phase": len(m["phases"])}, problems)

        def specs(items):
            return sum(1 + specs(item["activities"]) for item in items)

        for phase in tree.get("phases", []):
            want = m["phases"].get(phase["phase"], {})
            got = {"name": phase["name"], "steps": len(phase["steps"]),
                   "outputs": len(phase["outputs"]),
                   "activities": sum(specs(s["activities"]) for s in phase["steps"])}
            _compare(f"tree phase {phase['phase']}", got,
                     {k: want.get(k) for k in got}, problems)
        rules = Counter(d["rule"] for d in tree.get("diagnostics", []))
        _compare("tree diagnostics", dict(rules), m["lints"], problems)


class Projects:
    """Generated multi-file projects through the whole in-process pipeline."""

    name = "projects"
    COUNT = 100
    SIZES = (3_000, 60_000)

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        rng = random.Random(self.ctx.seed)
        sizes = gen.stratified_log_uniform(rng, self.COUNT, *self.SIZES)
        rng.shuffle(sizes)
        self.ops = []
        for index, size in enumerate(sizes):
            files, expect = gen.project(rng.randrange(2**32), int(size))
            folder = self.ctx.work / "projects" / f"p{index:02d}"
            folder.mkdir(parents=True, exist_ok=True)
            texts = []
            for name, text in files.items():
                path = folder / name
                path.write_text(text, encoding="utf-8")
                texts.append((path.read_text(encoding="utf-8"), name))
            source_bytes = sum(len(t.encode("utf-8")) for t, _ in texts)
            queries = [ident for ident, _ in expect["ids"]]
            queries += [f"practice.absent_{k}"
                        for k in range(int(len(queries) * ABSENT_SHARE))]
            rng.shuffle(queries)
            expect["names"] = dict(expect["ids"])
            self.ops.append(Op(f"p{index:02d}", (texts, expect, queries), source_bytes,
                               ORACLE_STEPS * len(expect["methods"])))
        smallest = min(self.ops, key=lambda op: op.source_bytes)
        problems = self.check(smallest, self.timed(smallest))
        if problems:
            raise RuntimeError("warm-up failed: " + "; ".join(problems))

    def round(self) -> list[Op]:
        return self.ops

    def timed(self, op: Op) -> dict:
        e = self.ctx.esskit
        dsl, model, validator = e["dsl"], e["model"], e["validator"]
        lint, togaf, render = e["lint"], e["togaf"], e["render"]
        texts, expect, queries = op.payload
        document = model.merge(*[dsl.parse(text, name) for text, name in texts])
        resolved = validator.resolve(document)
        wellformed = validator.check_wellformedness(resolved)
        lints = lint.run_lints(resolved)
        mapped = {phase.phase: togaf.map_phase(phase, resolved)
                  for phase in document.phases()}
        text = render.render_canonical(document)
        exported = render.export_json(document, diagnostics=wellformed + lints)
        dot = render.export_dot(document)
        reparsed = dsl.parse(text, "rendered.ess")
        again = render.render_canonical(reparsed)
        tracer = self.ctx.tracer
        found = tracer.call("model.lookup", lambda: [model.lookup(document, q) for q in queries],
                            n=len(queries), opaque=True)
        tracer.counts["model.lookups"] += len(queries)
        kinds = {kind: len(model.iter_elements(document, kind)) for kind in gen.KINDS}
        visits = [(record, e["progress"].visitation(method, ORACLE_STEPS))
                  for method, record in zip(document.methods(), expect["methods"])]
        return {"doc": document, "wellformed": wellformed, "lints": lints,
                "mapped": mapped, "text": text, "json": exported, "dot": dot,
                "reparsed": reparsed, "rendered_again": again, "found": found,
                "kinds": kinds, "visits": visits}

    def check(self, op: Op, result: dict) -> list[str]:
        _, expect, queries = op.payload
        problems: list[str] = []
        _compare("round trip parse(render(doc)) == doc", result["reparsed"] == result["doc"],
                 True, problems)
        _compare("render twice gives the same bytes", result["rendered_again"] == result["text"],
                 True, problems)
        _compare("well-formedness diagnostics", [d.render_line() for d in result["wellformed"]],
                 [], problems)
        lint_counts = Counter(d.rule for d in result["lints"])
        _compare("lint counts", {r: lint_counts[r] for r in expect["lints"]},
                 expect["lints"], problems)
        try:
            tree = json.loads(result["json"])
        except ValueError as failure:
            problems.append(f"export_json is not JSON: {failure}")
        else:
            counts = _record_counts(tree)
            _compare("export_json records", {k: counts[k] for k in gen.KINDS},
                     expect["counts"], problems)
            _compare("export_json diagnostics", len(tree["diagnostics"]),
                     len(result["lints"]) + len(result["wellformed"]), problems)
        _compare("export_dot shape", _dot_counts(result["dot"]), expect["dot"], problems)
        _compare("mapped structure",
                 {pid: _mapped_shape(p) for pid, p in result["mapped"].items()},
                 expect["phases"], problems)
        _compare("iter_elements counts", result["kinds"], expect["counts"], problems)
        names = expect["names"]
        wrong = sum(1 for q, element in zip(queries, result["found"])
                    if (element.name if element is not None else None) != names.get(q))
        _compare("lookup mismatches", wrong, 0, problems)
        for record, visited in result["visits"]:
            _compare(f"visitation of {record['name']}", visited,
                     gen.expected_visitation(record, ORACLE_STEPS), problems)
        return problems


class Enact:
    """Generated methods enacted for log-uniform run lengths of 10 to 8000 steps."""

    name = "enact"
    COUNT = 100
    STEPS = (10, 8000)

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        e = self.ctx.esskit
        rng = random.Random(self.ctx.seed)
        documents = gen.method_documents(rng.randrange(2**32), self.COUNT)
        strata = gen.stratified_log_uniform(rng, self.COUNT, *self.STEPS)
        # Pair shapes with run lengths by a fixed scramble, the same for every seed.
        lengths = [strata[(i * 37) % self.COUNT] for i in range(self.COUNT)]
        path = self.ctx.work / "methods.ess"
        path.write_text("\n".join(text for text, _ in documents), encoding="utf-8")
        self.ops = []
        for index, ((text, record), length) in enumerate(zip(documents, lengths)):
            steps = round(length)
            document = e["dsl"].parse(text, f"method-{index}.ess")
            e["validator"].resolve(document)
            want = (gen.expected_visitation(record, steps),
                    tuple(gen.expected_trace(record, steps)))
            self.ops.append(Op(f"m{index:02d}", (document.methods()[0], want),
                               len(text.encode("utf-8")), steps))
        shortest = min(self.ops, key=lambda op: op.steps)
        problems = self.check(shortest, self.timed(shortest))
        if problems:
            raise RuntimeError("warm-up failed: " + "; ".join(problems))

    def round(self) -> list[Op]:
        return self.ops

    def _trace(self, method, steps: int):
        progress = self.ctx.esskit["progress"]
        state = progress.start_enactment(method)
        for _ in range(steps - 1):
            state = progress.next_phase(state)
        return state.trace

    def timed(self, op: Op):
        method, _ = op.payload
        visited = self.ctx.esskit["progress"].visitation(method, op.steps)
        trace = self.ctx.tracer.call("progress.trace", self._trace, method, op.steps,
                                     n=op.steps, opaque=True)
        self.ctx.tracer.counts["progress.steps"] += op.steps
        return visited, trace

    def check(self, op: Op, result) -> list[str]:
        _, (want_visits, want_trace) = op.payload
        visited, trace = result
        problems: list[str] = []
        _compare(f"{op.label} visitation", visited == want_visits, True, problems)
        _compare(f"{op.label} trace", tuple(trace) == want_trace, True, problems)
        return problems


WORKLOADS = {w.name: w for w in (CorpusCli, Projects, Enact)}
