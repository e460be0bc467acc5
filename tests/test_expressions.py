"""Golden suite for the expression parser: 30 fixed cases.

Valid cases pin the exact AST dump (and spot-check evaluation); invalid
cases pin the error offset and message.  Any change to parsing behavior
shows up here as an explicit diff.
"""

import math

import pytest

from pqbernstein.expressions import EvalDomainError, ParseError, parse_expr

# (source, expected dump) -- 20 valid cases
VALID_CASES = [
    ("x", "Var(x)"),
    ("y", "Var(y)"),
    ("pi", "Num(3.141592653589793)"),
    ("1.5e-2", "Num(0.015)"),
    ("(x)", "Var(x)"),
    ("-x", "Neg(Var(x))"),
    ("--x", "Neg(Neg(Var(x)))"),
    ("x + y", "Add(Var(x), Var(y))"),
    ("x - y - 1", "Sub(Sub(Var(x), Var(y)), Num(1))"),
    ("x*y/2", "Div(Mul(Var(x), Var(y)), Num(2))"),
    ("2*-3", "Mul(Num(2), Neg(Num(3)))"),
    ("x^2 + y^2", "Add(Pow(Var(x), Num(2)), Pow(Var(y), Num(2)))"),
    ("2^3^2", "Pow(Num(2), Pow(Num(3), Num(2)))"),
    ("x^-1", "Pow(Var(x), Neg(Num(1)))"),
    ("x + y * 2", "Add(Var(x), Mul(Var(y), Num(2)))"),
    ("(x + y) * 2", "Mul(Add(Var(x), Var(y)), Num(2))"),
    ("sin(pi*x)*y", "Mul(Call(sin, Mul(Num(3.141592653589793), Var(x))), Var(y))"),
    ("abs(x-0.5)", "Call(abs, Sub(Var(x), Num(0.5)))"),
    ("sqrt(min(x, y))", "Call(sqrt, Call(min, Var(x), Var(y)))"),
    ("max(x,y)+cos(0)", "Add(Call(max, Var(x), Var(y)), Call(cos, Num(0)))"),
]

# (source, error offset, exact error text) -- 10 invalid cases
INVALID_CASES = [
    ("", 0, "empty expression at offset 0 (expected one of: number, identifier, '(', '-')"),
    ("x +", 3, "unexpected token '<end>' at offset 3 (expected one of: number, identifier, '(', '-')"),
    ("(x", 2, "unexpected token '<end>' at offset 2 (expected one of: ')')"),
    ("x)", 1, "unexpected token ')' at offset 1 (expected one of: operator, <end>)"),
    ("sin()", 4, "unexpected token ')' at offset 4 (expected one of: number, identifier, '(', '-')"),
    ("sin(x,y)", 0, "sin takes 1 argument(s), got 2 at offset 0"),
    ("min(x)", 0, "min takes 2 argument(s), got 1 at offset 0"),
    ("foo(x)", 0, "unknown identifier 'foo' at offset 0 (expected one of: x, y, pi, function)"),
    ("x @ y", 2, "unexpected character '@' at offset 2"),
    ("x y", 2, "unexpected token 'y' at offset 2 (expected one of: operator, <end>)"),
]


def test_golden_suite_has_thirty_cases():
    assert len(VALID_CASES) + len(INVALID_CASES) == 30


@pytest.mark.parametrize("source,dump", VALID_CASES, ids=[c[0] or "<empty>" for c in VALID_CASES])
def test_valid_ast_dump(source, dump):
    assert parse_expr(source).dump() == dump


@pytest.mark.parametrize(
    "source,offset,text", INVALID_CASES, ids=[c[0] or "<empty>" for c in INVALID_CASES]
)
def test_invalid_offset_and_message(source, offset, text):
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert exc.value.offset == offset
    assert str(exc.value) == text


def test_dump_of_a_literal_beyond_the_double_range():
    # the literal parses to inf, which has no int form to print
    assert parse_expr("1e999").dump() == "Num(inf)"
    assert parse_expr("-1e999*x").dump() == "Mul(Neg(Num(inf)), Var(x))"


class TestEvaluation:
    def test_spot_values(self):
        assert parse_expr("x^2 + y^2").eval(0.5, 0.5) == pytest.approx(0.5)
        assert parse_expr("sin(pi*x)*y").eval(0.5, 1.0) == pytest.approx(1.0)
        assert parse_expr("2^3^2").eval(0.0, 0.0) == 512.0
        assert parse_expr("max(x,y)+cos(0)").eval(0.2, 0.7) == pytest.approx(1.7)

    def test_vectorized_eval(self):
        import numpy as np

        xs = np.linspace(0, 1, 5)
        out = parse_expr("x*2 + 1").eval(xs, 0.0)
        assert np.allclose(out, xs * 2 + 1)

    def test_domain_errors(self):
        with pytest.raises(EvalDomainError):
            parse_expr("sqrt(x-1)").eval(0.5, 0.0)
        with pytest.raises(EvalDomainError):
            parse_expr("1/(x-0.5)").eval(0.5, 0.0)
        with pytest.raises(EvalDomainError):
            parse_expr("(x-1)^-1").eval(1.0, 0.0)

    def test_precedence_against_python(self):
        expr = parse_expr("1 + 2*3^2 - 4/8")
        assert expr.eval(0.0, 0.0) == pytest.approx(1 + 2 * 3**2 - 4 / 8)
