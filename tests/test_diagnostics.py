from __future__ import annotations

from esskit.diagnostics import Diagnostic, Severity, SourceSpan, ordered


def _diagnostic(rule, path, message, span=None):
    return Diagnostic(rule=rule, severity=Severity.ERROR, path=path,
                      message=message, span=span)


def test_one_order_spans_first_then_rule_path_message():
    def at(file, line, col):
        return SourceSpan(file, line, col, line, col)

    expected = [
        _diagnostic("V002", "x", "m", at("a.ess", 2, 9)),
        _diagnostic("V001", "z", "m", at("a.ess", 10, 1)),
        _diagnostic("V001", "z", "n", at("a.ess", 10, 1)),
        _diagnostic("V013", "y", "m", at("a.ess", 10, 1)),
        _diagnostic("L001", "a", "m", at("b.ess", 1, 1)),
        _diagnostic("V001", "a", "m"),
        _diagnostic("V001", "b", "m"),
        _diagnostic("V002", "a", "m"),
    ]
    assert ordered(reversed(expected)) == expected
