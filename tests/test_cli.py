from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esskit.cli import run

from conftest import EXPORT_TREE_KEYS, KERNEL_PRELUDE


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    from esskit import togaf

    dest = tmp_path_factory.mktemp("corpus")
    for name, text in togaf.corpus_files().items():
        (dest / name).write_text(text, encoding="utf-8")
    return dest


@pytest.fixture()
def cli(capsys):
    def invoke(*args):
        code = run(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def _corpus_args(corpus_dir):
    return sorted(str(p) for p in corpus_dir.glob("*.ess"))


def test_corpus_materializes_all_files(cli, tmp_path):
    dest = tmp_path / "out"
    code, out, err = cli("corpus", str(dest))
    assert code == 0 and err == ""
    names = sorted(p.name for p in dest.iterdir())
    assert names == ["kernel.ess", "manifest.json", "method.ess",
                     "phases.ess", "practices.ess", "roles.ess"]
    assert str(dest / "kernel.ess") in out


def test_check_corpus_is_clean(cli, corpus_dir):
    code, out, err = cli("check", *_corpus_args(corpus_dir))
    assert out == "0 errors, 0 warnings\n"
    assert code == 0


def test_check_reports_diagnostics_with_line_format(cli, tmp_path):
    bad = tmp_path / "bad.ess"
    bad.write_text(KERNEL_PRELUDE + (
        'practice "P" area Customer { goal "g" space "S" {\n'
        '  activity "a" requires Alchemy @ 3\n} }'))
    code, out, err = cli("check", str(bad))
    assert code == 1
    assert "V001 error" in out
    assert "practice.p/space.s/activity.a" in out
    assert f"({bad}:" in out
    assert out.rstrip().endswith("1 errors, 0 warnings")


def test_check_strict_fails_on_warnings(cli, tmp_path):
    warny = tmp_path / "warn.ess"
    warny.write_text(KERNEL_PRELUDE + (
        'practice "P" area Endeavor { goal "g" space "S" {\n'
        '  activity "a" requires Stakeholder_Representation @ 3\n'
        '  activity "b" requires Stakeholder_Representation @ 3\n'
        '  activity "c" requires Stakeholder_Representation @ 3\n} }'))
    code, out, _ = cli("check", str(warny))
    assert code == 0 and "V015 warning" in out
    strict_code = run(["check", "--strict", str(warny)])
    assert strict_code == 1


def test_check_max_depth_flag(cli, tmp_path):
    deep = tmp_path / "deep.ess"
    deep.write_text(KERNEL_PRELUDE + (
        'practice "P" area Customer { goal "g"\n'
        '  space "d1" { space "d2" { space "d3" { space "d4" { } } } } }'))
    code, out, _ = cli("check", str(deep))
    assert code == 1 and "V011" in out
    code, out, _ = cli("check", "--max-depth", "4", str(deep))
    assert code == 0 and "V011" not in out


def test_check_reports_a_long_flat_kernel_space_chain(cli, tmp_path):
    count = 2000
    chain = tmp_path / "chain.ess"
    chain.write_text('kernel "K" {\n' + "".join(
        f'  space "S{n}" area Customer in "S{n - 1}"\n' for n in range(count - 1, 0, -1)
    ) + '  space "S0" area Customer\n}\n')
    code, out, err = cli("check", str(chain))
    assert (code, err) == (1, "")
    assert out.count("V011 error space.s") == count - 3
    assert out.endswith(f"{count - 3} errors, 0 warnings\n")


def test_lint_corpus_matches_manifest(cli, corpus_dir, manifest):
    code, out, err = cli("lint", *_corpus_args(corpus_dir))
    assert code == 0
    total = sum(manifest["lints"].values())
    assert out.rstrip().splitlines()[-1] == f"{total} lint warnings"
    for rule, count in manifest["lints"].items():
        assert sum(1 for line in out.splitlines()
                   if line.startswith(f"{rule} ")) == count


def test_lint_enable_disable(cli, corpus_dir):
    args = _corpus_args(corpus_dir)
    code, out, _ = cli("lint", "--enable", "L003", *args)
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "6 lint warnings"
    code, out, _ = cli("lint", "--disable", "L001,L002,L003,L004", *args)
    assert out == "0 lint warnings\n"


def test_lint_unknown_rule_is_usage_error(cli, corpus_dir):
    code, out, err = cli("lint", "--enable", "L999", *_corpus_args(corpus_dir))
    assert code == 2
    assert "L999" in err and "L001" in err
    code, out, err = cli("lint", "--disable", "L01", *_corpus_args(corpus_dir))
    assert (code, out) == (2, "")
    assert err == ("unknown lint rule(s) L01; valid ids are "
                   "L001, L002, L003, L004\n")
    code, out, err = cli("lint", "--enable", "L9", "--disable", "L9",
                         *_corpus_args(corpus_dir))
    assert (code, out) == (2, "") and "unknown lint rule(s) L9;" in err


def test_lint_checks_rule_ids_before_reading_input(cli, tmp_path):
    missing = str(tmp_path / "missing.ess")
    code, out, err = cli("lint", "--disable", "L01", missing)
    assert (code, out) == (2, "")
    assert err == ("unknown lint rule(s) L01; valid ids are "
                   "L001, L002, L003, L004\n")
    broken = tmp_path / "broken.ess"
    broken.write_text('kernel "K" {\n', encoding="utf-8")
    code, out, err = cli("lint", "--enable", "L9", str(broken))
    assert (code, out) == (2, "")
    assert err.startswith("unknown lint rule(s) L9; ")
    code, out, err = cli("lint", "--enable", "L001", str(broken))
    assert code == 1 and "P001" in out


def test_map_phase_emits_canonical_practice(cli, corpus_dir):
    args = _corpus_args(corpus_dir)
    code, out, err = cli("map", "--phase", "B", *args)
    assert code == 0
    assert out.startswith('practice "Phase B" area Endeavor {')
    code2, out2, _ = cli("map", "--phase", "B", *args)
    assert out2 == out


def test_map_all_phases_round_trips(cli, corpus_dir):
    from esskit import dsl

    code, out, _ = cli("map", *_corpus_args(corpus_dir))
    assert code == 0
    mapped = dsl.parse(out, "mapped.ess")
    assert len(mapped.iter_elements("practice")) == 10


def test_map_missing_file_is_io_error(cli, tmp_path):
    code, out, err = cli("map", str(tmp_path / "missing.ess"))
    assert code == 3
    assert "missing.ess" in err


def test_map_without_phases(cli, tmp_path):
    plain = tmp_path / "plain.ess"
    plain.write_text(KERNEL_PRELUDE)
    code, _, err = cli("map", str(plain))
    assert code == 1 and "no phase specifications" in err


def _phase_b(corpus_dir, tmp_path, steps: str) -> list[str]:
    """The corpus kernel and roles, and a phase B with ``steps``."""
    phase = tmp_path / "phase.ess"
    phase.write_text(f'togaf_phase B "Business" {{ objective "o" {steps} }}\n')
    return [str(corpus_dir / "kernel.ess"), str(corpus_dir / "roles.ess"), str(phase)]


def _check_and_map(cli, args, *flags):
    """What ``check`` and ``map`` print of a mapping fault: the message of
    each V018 line, and map's stderr; both commands must exit 1."""
    code, out, err = cli("check", *flags, *args)
    assert (code, err) == (1, "")
    faults = [line.split(": ", 1)[1].rsplit(" (", 1)[0]
              for line in out.splitlines() if line.startswith("V018 error ")]
    assert len(faults) == len(out.splitlines()) - 1
    code, out, err = cli("map", *flags, *args)
    assert (code, out) == (1, "")
    return faults, err


def test_map_refuses_steps_that_share_an_id(cli, corpus_dir, tmp_path):
    # The mapped spaces would share an id, which check refuses as V018 before
    # the renderer could refuse the practice.
    args = _phase_b(corpus_dir, tmp_path, 'step "Same" { activity "a" tag builds } '
                    'step "Same" { activity "b" tag builds }')
    message = "phase B: step 'Same' would map to the same id as an earlier sibling"
    assert _check_and_map(cli, args) == ([message], message + "\n")


def test_map_unknown_phase(cli, corpus_dir, tmp_path):
    args = _phase_b(corpus_dir, tmp_path, 'step "S" { activity "a" tag builds }')
    assert cli("map", "--phase", "C", *args) == (1, "", "no phase 'C' in the input\n")


def test_map_refuses_a_tagged_activity_that_is_also_decomposed(cli, corpus_dir, tmp_path):
    args = _phase_b(corpus_dir, tmp_path,
                    'step "S" { activity "a" tag builds { activity "x" tag verifies } }')
    message = "phase B: activity 'S' > 'a' is decomposed and cannot also carry tags"
    assert _check_and_map(cli, args) == ([message], message + "\n")


_OUT = 'output "Out" category other '


@pytest.mark.parametrize("steps,faults", [
    (_OUT + 'step "S" { activity "a" tag builds feeds "Out: x" '
            'activity "b" tag verifies feeds "Out: x" }',
     ["output 'Out' has 2 feeders, so the contribution from 'S' > 'b' must not "
      "repeat part 'x'"]),
    (_OUT + 'step "S" { activity "a" tag builds feeds "Out" '
            'activity "b" tag verifies feeds "Out" }',
     [f"output 'Out' has 2 feeders, so the contribution from 'S' > '{name}' must "
      "name its part" for name in "ab"]),
    ('step "S" { activity "d1" { activity "d2" { activity "d3" { '
     'activity "d4" tag builds } } } }',
     ["decomposing 'S' > 'd1' > 'd2' > 'd3' would nest spaces at depth 4, beyond the "
      "maximum of 3"]),
    ('step "S" { activity "x" tag builds activity "x" tag verifies }',
     ["activity 'S' > 'x' would map to the same id as an earlier sibling"]),
    # The decomposed feed counts as no feeder, so "y" needs no part.
    (_OUT + 'step "S" { activity "D" feeds "Out" { activity "x" tag builds } '
            'activity "y" tag verifies feeds "Out" }',
     ["activity 'S' > 'D' is decomposed and cannot also feed an output"]),
    ('step "S" { activity "D" role "Enterprise Architect" { activity "x" tag builds } }',
     ["activity 'S' > 'D' is decomposed and cannot also name a role"]),
    # map prints the first fault by source position, as check does.
    ('step "S" {\n  activity "x" tag builds\n  activity "x" tag verifies\n'
     '  activity "D" tag builds { activity "y" tag builds }\n}',
     ["activity 'S' > 'x' would map to the same id as an earlier sibling",
      "activity 'S' > 'D' is decomposed and cannot also carry tags"]),
], ids=["repeated-part", "partless-feeders", "four-levels", "sibling-activities",
        "decomposed-feeds", "decomposed-role", "sibling-then-decomposed"])
def test_check_and_map_agree_on_unmappable_phases(cli, corpus_dir, tmp_path, steps, faults):
    args = _phase_b(corpus_dir, tmp_path, steps)
    messages = [f"phase B: {fault}" for fault in faults]
    assert _check_and_map(cli, args, "--max-depth", "3") == (messages, messages[0] + "\n")


def test_enact_trace_labels(cli, corpus_dir):
    code, out, err = cli("enact", "--method", "adm", "--steps", "10",
                         *_corpus_args(corpus_dir))
    assert code == 0
    assert out.splitlines() == ["P", "A", "B", "C", "D", "E", "F", "G", "H", "A"]


def test_enact_completion_records(cli, corpus_dir):
    # Pinned from the command that stepped the enactment with next_phase;
    # 20 steps wrap the eight-phase cycle twice.
    for steps, expected in [
            ("1", ""),
            ("10", "0 P|0 A|0 B|0 C|0 D|0 E|0 F|0 G|0 H|"),
            ("20", "0 P|0 A|0 B|0 C|0 D|0 E|0 F|0 G|0 H|1 A|1 B|1 C|1 D|1 E|1 F|1 G|1 H|"
                   "2 A|2 B|")]:
        code, out, _ = cli("enact", "--method", "adm", "--steps", steps, "--trace",
                           *_corpus_args(corpus_dir))
        assert code == 0
        assert out == expected.replace("|", "\n")


def test_enact_unknown_method(cli, corpus_dir):
    code, _, err = cli("enact", "--method", "nope", "--steps", "3",
                       *_corpus_args(corpus_dir))
    assert code == 1 and "nope" in err


def test_export_tree_carries_diagnostics(cli, corpus_dir, manifest):
    code, out, err = cli("export", *_corpus_args(corpus_dir))
    assert code == 0
    tree = json.loads(out)
    assert list(tree) == EXPORT_TREE_KEYS
    assert len(tree["competencies"]) == 7
    assert [c["id"] for c in tree["competencies"]][-1] == "competency.governance"
    assert len(tree["diagnostics"]) == sum(manifest["lints"].values())
    assert all(e["kind"] for arrays in ("areas", "practices")
               for e in tree[arrays])



def test_export_diagnostics_follow_the_one_order(cli, tmp_path):
    # The L004 space comes first in the file, the V015 practice after it.
    source = tmp_path / "mixed.ess"
    source.write_text(KERNEL_PRELUDE + (
        'practice "Early" area Customer { goal "g" space "Opaque" { } }\n'
        'practice "Late" area Endeavor { goal "g" space "S" {\n'
        '  activity "a" requires Stakeholder_Representation @ 3\n'
        '  activity "b" requires Stakeholder_Representation @ 3 } }\n'), encoding="utf-8")
    code, out, err = cli("export", str(source))
    assert (code, err) == (0, "")
    assert [(d["rule"], d["line"]) for d in json.loads(out)["diagnostics"]] == [
        ("L004", 14), ("V015", 15)]

def test_export_is_deterministic(cli, corpus_dir):
    args = _corpus_args(corpus_dir)
    first = cli("export", *args)[1]
    second = cli("export", *args)[1]
    assert first == second


def test_export_dot_contains_containment_edges(cli, corpus_dir):
    code, out, _ = cli("export", "--format", "dot", *_corpus_args(corpus_dir))
    assert code == 0
    assert out.startswith("digraph essence {")
    assert '"practice.phase_a" -> "practice.phase_a/space.define_scope"' in out
    assert ('"practice.phase_a/space.define_scope/activity.define_the_breadth_of_coverage" '
            '-> "practice.phase_a/workproduct.statement_of_architecture_work" '
            '[label="scope"];') in out


def test_usage_errors_exit_2(cli):
    assert cli("frobnicate")[0] == 2
    assert cli("map", "--phase", "Z", "x.ess")[0] == 2
    assert cli()[0] == 2


def test_parse_errors_exit_1(cli, tmp_path):
    bad = tmp_path / "syntax.ess"
    bad.write_text('kernel "K" { area Customer color blue }')
    code, out, _ = cli("check", str(bad))
    assert code == 1
    assert "P001 error" in out


@pytest.mark.parametrize("module", ["esskit", "esskit.cli"])
def test_python_m_runs_the_command(tmp_path, module):
    import subprocess
    import sys
    from pathlib import Path

    import esskit

    bad = tmp_path / "syntax.ess"
    bad.write_text('kernel "K" { area Customer color blue }')
    env = {**os.environ, "PYTHONPATH": str(Path(esskit.__file__).parent.parent)}
    child = subprocess.run([sys.executable, "-m", module, "check", str(bad)],
                           capture_output=True, text=True, env=env)
    assert (child.returncode, child.stderr) == (1, "")
    assert child.stdout == ("P001 error: area Customer must be green, not 'blue' "
                            f"({bad}:1:34)\n1 errors, 0 warnings\n")


def test_undecodable_input_is_io_error(cli, tmp_path):
    bad = tmp_path / "latin1.ess"
    bad.write_bytes(b'kernel "K\xff" { }')
    code, out, err = cli("check", str(bad))
    assert code == 3 and out == ""
    assert err.startswith(f"cannot read {bad}: ")
    assert "0xff" in err and "Traceback" not in err


@pytest.mark.parametrize("depth", [600, 3000])
@pytest.mark.parametrize("command", [("check",), ("lint",), ("export",),
                                     ("export", "--format", "dot")],
                         ids=" ".join)
def test_deep_nesting_exits_without_traceback(cli, tmp_path, depth, command):
    deep = tmp_path / "deep.ess"
    deep.write_text('practice "P" area Customer { goal "g" '
                    + 'space "S" { ' * depth + 'activity "A" ' + "} " * depth + "}")
    code, out, err = cli(*command, str(deep))
    if depth == 3000:
        assert code == 1 and err == ""
        assert "P001 error: blocks nested too deeply to parse" in out
    elif err:
        # Parsed, but a later stage ran out of stack: one line, no output.
        assert code == 1 and out == ""
        assert err == f"esskit {command[0]}: input nested too deeply to process\n"
    else:
        assert code in (0, 1)


@pytest.mark.parametrize("argv", [
    ("check", "--max-depth", "0"),
    ("export", "--max-depth", "-1"),
    ("enact", "--method", "adm", "--steps", "-3"),
])
def test_out_of_range_counts_are_usage_errors(cli, corpus_dir, argv):
    code, out, err = cli(*argv, *_corpus_args(corpus_dir))
    assert code == 2 and out == ""
    assert "must be at least" in err


def test_enact_zero_steps_prints_nothing(cli, corpus_dir):
    args = _corpus_args(corpus_dir)
    assert cli("enact", "--method", "adm", "--steps", "0", *args) == (0, "", "")
    assert cli("enact", "--method", "adm", "--steps", "0", "--trace",
               *args) == (0, "", "")


# sha256 of stdout on the bundled corpus, run from its directory with bare
# file names in sorted order; any change to these bytes is a format change.
_PINNED_STDOUT = [
    (("check",),
     "14010cd5eacf87dd3f8533757328cbe369f0d803991ab127a7fe95dd400ce94b"),
    (("lint",),
     "58f8031ccd64b8fac32684454f4976b5b1b46cd3900e381328c0950f377cb17e"),
    (("map",),
     "8b65f6ec9782e0273c433563294a25f340efc5933f4e9f5b9a81c864c8f0de76"),
    (("export", "--format", "tree"),
     "fc00e5a4c6cae9f20b179ce88ea93a7cc9bb86c6d597e141e8ab06ba5e4548e3"),
    (("export", "--format", "dot"),
     "27689581b76ca4750ac8f298b63cea95db0e2e3f8f861afce62389089b9939b0"),
    (("enact", "--method", "adm", "--steps", "10"),
     "e203abe397d298cf1c15c21e2483058799d064bdc997d9f436baa804a81e1f23"),
    (("enact", "--method", "adm", "--steps", "10", "--trace"),
     "fe1cdba672464e77ae6b9352071bf97688aa583ecaf5ff0d703ba6304a86fb39"),
]


@pytest.mark.parametrize("argv,digest", _PINNED_STDOUT,
                         ids=[" ".join(argv) for argv, _ in _PINNED_STDOUT])
def test_corpus_stdout_bytes_are_pinned(cli, corpus_dir, monkeypatch, argv, digest):
    monkeypatch.chdir(corpus_dir)
    names = sorted(p.name for p in corpus_dir.glob("*.ess"))
    code, out, err = cli(*argv, *names)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_diagnostic_order_does_not_depend_on_argv_order(cli, tmp_path):
    first = tmp_path / "a.ess"
    first.write_text(KERNEL_PRELUDE + 'role "Idle" { competency Analysis @ 3 }\n'
                     'practice "P" area Customer { goal "g" output "Unfed"\n'
                     '  space "S" { activity "x" requires Analysis @ 9 } }\n')
    second = tmp_path / "b.ess"
    second.write_text('practice "Q" area Customer { goal "g" output "Spare"\n'
                      '  space "Empty" { } space "T" { activity "y" requires Testing @ 0 } }\n')
    for command in ("check", "lint"):
        forward = cli(command, str(first), str(second))
        assert cli(command, str(second), str(first)) == forward
        assert forward[0] == (1 if command == "check" else 0)
    lines = cli("lint", str(second), str(first))[1].splitlines()[:-1]
    assert [line.split()[0] for line in lines] == ["L003", "L001", "L001", "L004"]


@pytest.mark.parametrize("method,message", [
    ('preamble "A" cycle "A"', "lists preamble 'A' inside the cycle"),
    ('cycle "A" cycle "B" concurrent "B"', "lists concurrent practice(s) B inside"),
    ('preamble "B" cycle "A" concurrent "B"', "lists preamble 'B' as concurrent"),
], ids=["preamble-in-cycle", "concurrent-in-cycle", "preamble-concurrent"])
def test_check_and_enact_agree_on_unenactable_methods(cli, tmp_path, method, message):
    source = tmp_path / "m.ess"
    source.write_text('practice "A" area Customer { goal "g" }\n'
                      'practice "B" area Customer { goal "g" }\n'
                      f'method "m" {{ {method} }}\n')
    code, out, _ = cli("check", str(source))
    assert code == 1 and f"V017 error method.m: method 'm' {message}" in out
    code, out, err = cli("enact", "--method", "m", "--steps", "3", str(source))
    assert (code, out) == (1, "") and message in err


def test_enact_steps_zero_refuses_an_unenactable_method(cli, tmp_path):
    source = tmp_path / "m.ess"
    source.write_text('practice "A" area Customer { goal "g" }\n'
                      'method "m" { preamble "A" cycle "A" }\n')
    argv = ("enact", "--method", "m", "--steps", "0", str(source))
    assert cli(*argv) == cli(*argv, "--trace") == (
        1, "", "method 'm' lists preamble 'A' inside the cycle\n")


def test_map_accepts_specs_nested_as_deep_as_check(cli, tmp_path):
    depth = 700
    deep = tmp_path / "deep.ess"
    deep.write_text(KERNEL_PRELUDE + 'togaf_phase A "V" { objective "o" step "S" { '
                    + 'activity "X" { ' * depth + 'activity "L" tag builds '
                    + "} " * depth + "} }")
    assert cli("check", "--max-depth", "5000", str(deep))[0] == 0
    code, out, err = cli("map", "--max-depth", "5000", str(deep))
    assert (code, err) == (0, "")
    assert out.count('space "X"') == depth


def test_export_accepts_spaces_nested_as_deep_as_check(tmp_path):
    # Cold processes, so that pytest's own stack does not count.
    import subprocess
    import sys
    from pathlib import Path

    import esskit

    depth = 984
    deep = tmp_path / "deep.ess"
    deep.write_text(KERNEL_PRELUDE + 'practice "P" area Customer { goal "g" '
                    + 'space "S" { ' * depth + 'activity "A" ' + "} " * depth + "}")
    env = {**os.environ, "PYTHONPATH": str(Path(esskit.__file__).parent.parent)}
    outputs = {}
    for command in ("check", "export"):
        child = subprocess.run(
            [sys.executable, "-c", "from esskit.cli import main; main()", command,
             "--max-depth", "5000", str(deep)], capture_output=True, text=True, env=env)
        assert (child.returncode, child.stderr) == (0, ""), command
        outputs[command] = child.stdout
    # json.loads in this process would itself recurse too deeply.
    assert outputs["export"].count('"kind": "space"') == depth
    assert outputs["export"].count('"kind": "activity"') == 1


def test_closed_stdout_exits_3_without_traceback(corpus_dir):
    import subprocess
    import sys
    from pathlib import Path

    import esskit

    env = {**os.environ, "PYTHONPATH": str(Path(esskit.__file__).parent.parent)}
    child = subprocess.Popen(
        [sys.executable, "-c", "from esskit.cli import main; main()", "enact",
         "--method", "adm", "--steps", "200000", *_corpus_args(corpus_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"P\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 3
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [
    ("export", "--format", "tree"),
    ("export", "--format", "dot"),
    ("enact", "--method", "adm", "--steps", "200000"),
], ids=["export-tree", "export-dot", "enact"])
def test_closed_stdout_exits_3_buffered_or_not(corpus_dir, tmp_path, command, unbuffered):
    # Under PYTHONUNBUFFERED, stdout's binary layer is the raw file, and a short
    # write of one large document once went unnoticed (exit 0).
    import subprocess
    import sys
    from pathlib import Path

    import esskit

    if command[0] == "export":
        big = tmp_path / "big.ess"
        big.write_text(KERNEL_PRELUDE + 'practice "P" area Customer { goal "g" space "S" { '
                       + " ".join(f'activity "A{i}"' for i in range(3000)) + " } }")
        files = [str(big)]  # exports of 350-800 KB, well past a 64 KB pipe
    else:
        files = _corpus_args(corpus_dir)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(esskit.__file__).parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-c", "from esskit.cli import main; main()", *command, *files],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 3
    assert "Traceback" not in err and "BrokenPipeError" not in err


_CORPUS_NAMES = ("kernel.ess", "roles.ess", "phases.ess", "practices.ess", "method.ess")
# Each subcommand's own options with good and bad values; every command also
# takes the common ones, and now and then a stray word.
_OPTIONS = {
    "check": (),
    "lint": (("--enable", "L001"), ("--enable", "L002,L9"), ("--disable", "L003,L004")),
    "map": (("--phase", "A"), ("--phase", "RM"), ("--phase", "Q")),
    "enact": (("--method", "adm"), ("--method", "Phase A"), ("--steps", "7"),
              ("--steps", "-1"), ("--trace",)),
    "export": (("--format", "dot"), ("--format", "tree"), ("--format", "xml")),
    "corpus": (),
}
_COMMON = (("--strict",), ("--max-depth", "1"), ("--max-depth", "5"), ("--max-depth", "0"))
_STRAY = (("--help",), ("--",), ("-x",), ("",), ("--phase", "A"), ("--max-depth", "x"),
          ("missing.ess",), (".",))


@st.composite
def _input_bytes(draw):
    """Arbitrary bytes, or a corpus file cut short with bytes appended."""
    from esskit import togaf

    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    text = togaf.corpus_files()[draw(st.sampled_from(_CORPUS_NAMES))].encode()
    return text[:draw(st.integers(0, len(text)))] + draw(st.binary(max_size=20))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    if command == "corpus":
        words = draw(st.lists(st.sampled_from(("out", "new/deeper", "input.ess", ".")),
                              max_size=1))
    else:
        words = draw(st.lists(st.sampled_from((*_CORPUS_NAMES, "input.ess")),
                              min_size=1, max_size=6))
    units = draw(st.lists(st.sampled_from(_OPTIONS[command] + _COMMON), max_size=4))
    if command == "enact" and draw(st.integers(0, 3)):
        units += [("--method", "adm"), ("--steps", "7")]
    if draw(st.integers(0, 9)) == 0:
        units.append(draw(st.sampled_from(_STRAY)))
    return [command, *words, *(word for unit in units for word in unit)]


@pytest.fixture(scope="module")
def total_dir(corpus_dir, tmp_path_factory):
    """A copy of the corpus directory that test_cli_is_total may write into."""
    dest = tmp_path_factory.mktemp("total")
    for path in corpus_dir.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=_input_bytes(), argv=_argv())
def test_cli_is_total(total_dir, data, argv):
    (total_dir / "input.ess").write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(total_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(home)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
