"""A small expression language for target functions of x and y.

Grammar (standard precedence; ^ is right-associative and binds tighter
than unary minus):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ['^' factor]
    atom    := NUMBER | 'x' | 'y' | 'pi' | NAME '(' expr {',' expr} ')'
             | '(' expr ')'

Functions: sin, cos, exp, abs, sqrt (unary), min, max (binary).
Evaluation is numpy-vectorized; domain violations (sqrt of a negative,
division by zero, 0 raised to a negative power) raise EvalDomainError
rather than producing NaN/Inf silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse_expr",
]


class ParseError(ValueError):
    """Syntax or semantic error, with byte offset and expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


class EvalDomainError(ArithmeticError):
    """Evaluation left the functions' real domain."""


_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}
_ARITY = {**{k: 1 for k in _UNARY_FUNCS}, "sqrt": 1, **{k: 2 for k in _BINARY_FUNCS}}


class Expr:
    def eval(self, x, y):
        raise NotImplementedError

    def dump(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, x, y):
        return self.value

    def dump(self) -> str:
        v = self.value
        if math.isfinite(v) and v == int(v):
            return f"Num({int(v)})"
        return f"Num({v!r})"


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, x, y):
        return np.asarray(x, dtype=float) if self.name == "x" else np.asarray(y, dtype=float)

    def dump(self) -> str:
        return f"Var({self.name})"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, x, y):
        return -self.arg.eval(x, y)

    def dump(self) -> str:
        return f"Neg({self.arg.dump()})"


_OP_NAME = {"+": "Add", "-": "Sub", "*": "Mul", "/": "Div", "^": "Pow"}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, x, y):
        a = self.left.eval(x, y)
        b = self.right.eval(x, y)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(np.asarray(b) == 0):
                raise EvalDomainError("division by zero")
            return a / b
        # power
        a_arr = np.asarray(a, dtype=float)
        b_arr = np.asarray(b, dtype=float)
        if np.any((a_arr == 0) & (b_arr < 0)):
            raise EvalDomainError("zero raised to a negative power")
        if np.any((a_arr < 0) & (b_arr != np.floor(b_arr))):
            raise EvalDomainError("negative base with non-integer exponent")
        return a_arr**b_arr

    def dump(self) -> str:
        return f"{_OP_NAME[self.op]}({self.left.dump()}, {self.right.dump()})"


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]

    def eval(self, x, y):
        vals = [a.eval(x, y) for a in self.args]
        if self.name == "sqrt":
            v = np.asarray(vals[0], dtype=float)
            if np.any(v < 0):
                raise EvalDomainError("sqrt of a negative value")
            return np.sqrt(v)
        if self.name in _UNARY_FUNCS:
            return _UNARY_FUNCS[self.name](vals[0])
        return _BINARY_FUNCS[self.name](vals[0], vals[1])

    def dump(self) -> str:
        inner = ", ".join(a.dump() for a in self.args)
        return f"Call({self.name}, {inner})"


# --- lexer -----------------------------------------------------------------

_SYMBOLS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'name', one of _SYMBOLS, or 'end'
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            toks.append(_Token(c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            # exponent part
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            if lit == ".":
                raise ParseError("invalid number", i, ("number",))
            toks.append(_Token("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, ())
    toks.append(_Token("end", "", n))
    return toks


# --- parser ----------------------------------------------------------------

_ATOM_EXPECTED = ("number", "identifier", "'('", "'-'")


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.cur
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"unexpected token {self.cur.text or '<end>'!r}",
                self.cur.offset,
                (f"'{kind}'",),
            )
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.cur.kind != "end":
            raise ParseError(
                f"unexpected token {self.cur.text!r}",
                self.cur.offset,
                ("operator", "<end>"),
            )
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance().kind
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.cur.kind == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.cur.kind == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        t = self.cur
        if t.kind == "num":
            self.advance()
            return Num(float(t.text))
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "name":
            self.advance()
            name = t.text
            if name in ("x", "y"):
                return Var(name)
            if name == "pi":
                return Num(float(np.pi))
            if name in _ARITY:
                self.expect("(")
                args = [self.expr()]
                while self.cur.kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != _ARITY[name]:
                    raise ParseError(
                        f"{name} takes {_ARITY[name]} argument(s), got {len(args)}",
                        t.offset,
                    )
                return Call(name, tuple(args))
            raise ParseError(f"unknown identifier {name!r}", t.offset, ("x", "y", "pi", "function"))
        raise ParseError(
            f"unexpected token {t.text or '<end>'!r}", t.offset, _ATOM_EXPECTED
        )


def parse_expr(text: str) -> Expr:
    """Parse an expression over x and y; deterministic, standard precedence."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0, _ATOM_EXPECTED)
    return _Parser(_tokenize(text)).parse()
