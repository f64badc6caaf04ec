"""Command-line interface.

Subcommands: ``check`` (parse, resolve, well-formedness), ``lint``, ``map``
(phase specifications to canonical practice text), ``enact`` (visitation
trace of a method), ``export`` (machine-readable tree or DOT containment
graph), and ``corpus`` (materialize the bundled corpus).

Exit codes: 0 success, 1 error diagnostics (or any diagnostics under
``--strict``, or input nested too deeply to process), 2 usage error,
3 unreadable or undecodable input, or unwritable output (including a
standard output the reader closed early).
Identical inputs and flags produce byte-identical standard output;
diagnostics print in the order of :func:`esskit.diagnostics.ordered`.
"""

from __future__ import annotations

import argparse
import os
import sys
from enum import IntEnum
from itertools import islice
from pathlib import Path

# Each command imports the other stages it runs, so a cold ``check`` loads
# neither the linter, the mapper, the renderers nor the enactment engine.
from . import dsl, validator
from .diagnostics import Diagnostic, ParseError, ResolveError, ordered
from .model import PHASE_IDS, ModelDocument, dotted_id, merge


class ExitStatus(IntEnum):
    OK = 0
    DIAGNOSTICS = 1
    USAGE = 2
    IO = 3


def _int_at_least(minimum: int):
    """An argparse ``type`` accepting integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # argparse's own wording for ``type=int``.
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--strict", action="store_true",
                        help="treat warnings as failures (exit 1)")
    common.add_argument("--max-depth", type=_int_at_least(1), default=3, metavar="N",
                        help="maximum activity-space nesting depth (default 3)")

    parser = argparse.ArgumentParser(
        prog="esskit",
        description="Method-engineering toolkit for Essence kernels, "
                    "practices, and ADM phase mappings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="parse, resolve, and well-formedness-check")
    p_check.add_argument("files", nargs="+")

    p_lint = sub.add_parser("lint", parents=[common],
                            help="run the lint rule catalog")
    p_lint.add_argument("files", nargs="+")
    p_lint.add_argument("--enable", action="append", default=None,
                        metavar="IDS", help="comma-separated rule ids to run")
    p_lint.add_argument("--disable", action="append", default=None,
                        metavar="IDS", help="comma-separated rule ids to skip")

    p_map = sub.add_parser("map", parents=[common],
                           help="map phase specifications to practices")
    p_map.add_argument("files", nargs="+")
    p_map.add_argument("--phase", choices=PHASE_IDS, default=None,
                       help="map only this phase id")

    p_enact = sub.add_parser("enact", parents=[common],
                             help="print a method's visitation trace")
    p_enact.add_argument("files", nargs="+")
    p_enact.add_argument("--method", required=True,
                         help="method name or id to enact")
    p_enact.add_argument("--steps", type=_int_at_least(0), required=True, metavar="N",
                         help="number of visitation steps to print")
    p_enact.add_argument("--trace", action="store_true",
                         help="print completion records '(iteration, phase)' "
                              "instead of bare visitation labels")

    p_export = sub.add_parser("export", parents=[common],
                              help="machine-readable export")
    p_export.add_argument("files", nargs="+")
    p_export.add_argument("--format", choices=("tree", "dot"), default="tree")

    p_corpus = sub.add_parser("corpus", parents=[common],
                              help="materialize the bundled corpus")
    p_corpus.add_argument("dest", nargs="?", default="corpus",
                          help="destination directory (default ./corpus)")

    return parser


def _write(text: str) -> None:
    """Write ``text`` to standard output in full, so that a reader that closed
    early raises ``BrokenPipeError`` (exit 3) also under ``python -u``, where
    ``sys.stdout.buffer`` is the raw file and a short write drops the rest.
    """
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:  # a text-only stream, such as a redirect to io.StringIO
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data):]


def _print_diagnostics(diagnostics) -> None:
    for diagnostic in diagnostics:
        print(diagnostic.render_line())


def _summary(diagnostics) -> tuple[int, int]:
    errors = sum(1 for d in diagnostics if d.is_error)
    return errors, len(diagnostics) - errors


def _exit_for(diagnostics, strict: bool) -> int:
    errors, warnings = _summary(diagnostics)
    if errors or (strict and warnings):
        return int(ExitStatus.DIAGNOSTICS)
    return int(ExitStatus.OK)


def _load(args, *, resolve: bool = True):
    """The merged document of ``args.files``, resolved unless ``resolve`` is
    false.

    Raises :class:`ParseError` or :class:`ResolveError`, which :func:`run`
    prints as diagnostics (exit status 1). Unreadable or undecodable files
    abort the process with exit status 3.
    """
    documents = []
    diagnostics: list[Diagnostic] = []
    for raw in args.files:
        path = Path(raw)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as failure:
            reason = getattr(failure, "strerror", None) or failure
            print(f"cannot read {path}: {reason}", file=sys.stderr)
            raise SystemExit(int(ExitStatus.IO))
        try:
            documents.append(dsl.parse(text, str(path)))
        except ParseError as failure:
            diagnostics.extend(failure.diagnostics)
    if diagnostics:
        raise ParseError(ordered(diagnostics))
    document = merge(*documents)
    return validator.resolve(document) if resolve else document


def _cmd_check(args) -> int:
    try:
        _, diagnostics = validator.check(_load(args, resolve=False), max_depth=args.max_depth)
    except ParseError as failure:
        diagnostics = failure.diagnostics
    _print_diagnostics(diagnostics)
    errors, warnings = _summary(diagnostics)
    print(f"{errors} errors, {warnings} warnings")
    return _exit_for(diagnostics, args.strict)


def _selected_rules(args) -> set[str]:
    from . import lint

    def split(values):
        out = []
        for chunk in values or ():
            out.extend(part.strip() for part in chunk.split(",") if part.strip())
        return out

    enabled = set(split(args.enable)) if args.enable else set(lint.VALID_RULE_IDS)
    disabled = set(split(args.disable))
    unknown = (enabled | disabled) - set(lint.VALID_RULE_IDS)
    if unknown:
        raise lint.UnknownRuleError(unknown)
    return enabled - disabled


def _cmd_lint(args) -> int:
    from . import lint

    try:  # a usage error, before any input is read
        rules = _selected_rules(args)
    except lint.UnknownRuleError as failure:
        print(str(failure), file=sys.stderr)
        return int(ExitStatus.USAGE)
    diagnostics = lint.run_lints(_load(args), rules)
    _print_diagnostics(diagnostics)
    print(f"{len(diagnostics)} lint warnings")
    return _exit_for(diagnostics, args.strict)


def _cmd_map(args) -> int:
    from . import render, togaf

    model = _load(args)
    phases = model.document.phases()
    if args.phase is not None:
        phases = tuple(p for p in phases if p.phase == args.phase)
        if not phases:
            print(f"no phase {args.phase!r} in the input", file=sys.stderr)
            return int(ExitStatus.DIAGNOSTICS)
    elif not phases:
        print("no phase specifications in the input", file=sys.stderr)
        return int(ExitStatus.DIAGNOSTICS)
    try:
        practices = [togaf.map_phase(phase, model, max_depth=args.max_depth)
                     for phase in phases]
        text = render.render_canonical(ModelDocument(practices))
    except (togaf.MappingError, ValueError, TypeError) as failure:
        print(str(failure), file=sys.stderr)
        return int(ExitStatus.DIAGNOSTICS)
    _write(text)
    return int(ExitStatus.OK)


def _cmd_enact(args) -> int:
    from . import progress, togaf

    document = _load(args).document
    method = None
    for candidate in document.methods():
        if candidate.name == args.method or \
                dotted_id("method", candidate.name) == args.method:
            method = candidate
            break
    if method is None:
        print(f"no method {args.method!r} in the input", file=sys.stderr)
        return int(ExitStatus.DIAGNOSTICS)
    labels = togaf.phase_labels(document)

    def label(practice_id: str) -> str:
        if practice_id in labels:
            return labels[practice_id]
        element = document.lookup(practice_id)
        return element.name if element is not None else practice_id

    try:
        if args.trace:
            # start_enactment validates the method; the trace is closed-form.
            progress.start_enactment(method)
            state = progress.EnactmentState(method=method, step=max(args.steps - 1, 0))
            lines = (f"{iteration} {label(practice_id)}\n"
                     for iteration, practice_id in state.trace)
        else:
            lines = (f"{label(practice_id)}\n"
                     for practice_id in progress.visitation(method, args.steps))
    except progress.EnactmentError as failure:
        print(str(failure), file=sys.stderr)
        return int(ExitStatus.DIAGNOSTICS)
    # Batches bound only the output text: the ids, and with --trace the
    # records, are held in full, so memory still grows with --steps.
    while batch := "".join(islice(lines, 4096)):
        _write(batch)
    return int(ExitStatus.OK)


def _cmd_export(args) -> int:
    from . import render

    if args.format == "dot":
        _write(render.export_dot(_load(args, resolve=False)))
        return int(ExitStatus.OK)
    from . import lint
    model = _load(args)
    diagnostics = ordered([*validator.check_wellformedness(model, max_depth=args.max_depth),
                           *lint.run_lints(model)])
    _write(render.export_json(model, diagnostics=diagnostics))
    return _exit_for(diagnostics, args.strict)


def _cmd_corpus(args) -> int:
    from . import togaf

    dest = Path(args.dest)
    try:
        dest.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(togaf.corpus_files().items()):
            target = dest / name
            target.write_text(text, encoding="utf-8")
            print(str(target))
    except OSError as failure:
        print(f"cannot write {dest}: {failure.strerror or failure}",
              file=sys.stderr)
        return int(ExitStatus.IO)
    return int(ExitStatus.OK)


_COMMANDS = {
    "check": _cmd_check,
    "lint": _cmd_lint,
    "map": _cmd_map,
    "enact": _cmd_enact,
    "export": _cmd_export,
    "corpus": _cmd_corpus,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as leave:
        return int(leave.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ResolveError) as failure:
        _print_diagnostics(failure.diagnostics)
        return int(ExitStatus.DIAGNOSTICS)
    except RecursionError:
        print(f"esskit {args.command}: input nested too deeply to process",
              file=sys.stderr)
        return int(ExitStatus.DIAGNOSTICS)
    except SystemExit as leave:
        return int(leave.code or 0)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the interpreter's
        # final flush of what is still buffered fails silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = int(ExitStatus.IO)
    sys.exit(code)
