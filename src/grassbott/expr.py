"""Bundle expression trees and the prefix-functional text grammar.

Grammar (all prefix, ASCII, whitespace tolerated)::

    expr := "Q" | "S" | "Theta"
          | "O(" int ")"
          | "irr[" int ("," int)* ("|" int ("," int)*)? "]"
          | "wedge(" int "," expr ")"
          | "sym(" int "," expr ")"
          | "dual(" expr ")"
          | "twist(" expr "," int ")"
          | "tensor(" expr "," expr ")"
          | "sum(" expr "," expr ")"

``irr`` lists the k-block entries; the second block is zero unless a
``|`` separator appears.  One operator table drives both ``parse_expr``
and ``to_text``, and ``parse_expr`` followed by ``to_text`` is the
identity on canonical forms.  ``parse_expr_list`` reads a list
``expr ("," expr)*`` with the same parser, so its error offsets count
from the start of the whole list.

Nodes are immutable, hashable slotted values with class-sensitive
equality: ``Wedge(2, Q) != Sym(2, Q)``, and ``hash`` is the hash of the
field tuple.  Each atom (``Q``, ``S``, ``Theta``) has a single instance.
"""

from __future__ import annotations

import re

from .errors import ParseError, StructureError
from .record import Record
from .weights import BlockWeight, GrassContext

_set = object.__setattr__


class Expr(Record, frozen=True):
    """Base class for bundle-expression nodes."""

    __slots__ = ()


class _Atom(Expr):
    """A node without fields; each atom class has a single instance."""

    __slots__ = ()

    def __new__(cls):
        if "_instance" not in cls.__dict__:
            cls._instance = super().__new__(cls)
        return cls._instance


class Quotient(_Atom):
    """The universal quotient bundle (rank k)."""

    __slots__ = ()


class Sub(_Atom):
    """The universal sub-bundle (rank n-k)."""

    __slots__ = ()


class Tangent(_Atom):
    """The tangent bundle of the Grassmannian."""

    __slots__ = ()


class Irr(Expr):
    """Irreducible bundle with the given highest weight."""

    __slots__ = ("weight",)

    def __init__(self, weight: BlockWeight):
        _set(self, "weight", weight)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.weight == other.weight
        return NotImplemented

    def __hash__(self):
        return hash((self.weight,))


class Line(Expr):
    """The r-th power of the Pluecker line bundle."""

    __slots__ = ("r",)

    def __init__(self, r: int):
        _set(self, "r", r)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.r == other.r
        return NotImplemented

    def __hash__(self):
        return hash((self.r,))


class _Power(Expr):
    """A power of one child: ``Wedge`` or ``Sym``."""

    __slots__ = ("p", "child")

    def __init__(self, p: int, child: Expr):
        _set(self, "p", p)
        _set(self, "child", child)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.p, self.child) == (other.p, other.child)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.child))


class Wedge(_Power):
    __slots__ = ()


class Sym(_Power):
    __slots__ = ()


class Dual(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        _set(self, "child", child)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.child == other.child
        return NotImplemented

    def __hash__(self):
        return hash((self.child,))


class Twist(Expr):
    __slots__ = ("child", "r")

    def __init__(self, child: Expr, r: int):
        _set(self, "child", child)
        _set(self, "r", r)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.child, self.r) == (other.child, other.r)
        return NotImplemented

    def __hash__(self):
        return hash((self.child, self.r))


class _Pair(Expr):
    """A binary node: ``Tensor`` or ``DirectSum``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


class Tensor(_Pair):
    __slots__ = ()


class DirectSum(_Pair):
    __slots__ = ()


Q = Quotient()
S = Sub()
THETA = Tangent()

# operator name -> (node class, argument kinds in text order); a node's
# fields are its arguments in the same order.  An operator without
# arguments is written without parentheses.  ``irr[...]`` has its own
# syntax and is not listed.
_OPERATORS = {
    "Q": (Quotient, ()),
    "S": (Sub, ()),
    "Theta": (Tangent, ()),
    "O": (Line, ("int",)),
    "wedge": (Wedge, ("int", "expr")),
    "sym": (Sym, ("int", "expr")),
    "dual": (Dual, ("expr",)),
    "twist": (Twist, ("expr", "int")),
    "tensor": (Tensor, ("expr", "expr")),
    "sum": (DirectSum, ("expr", "expr")),
}
_NAMES = {cls: name for name, (cls, _) in _OPERATORS.items()}


def to_text(e: Expr) -> str:
    """Canonical text form of an expression (inverse of parse_expr)."""
    if isinstance(e, Irr):
        first = ",".join(str(x) for x in e.weight.first)
        if any(e.weight.second):
            second = ",".join(str(x) for x in e.weight.second)
            return f"irr[{first}|{second}]"
        return f"irr[{first}]"
    name = _NAMES.get(e.__class__)
    if name is None:
        raise StructureError(f"unknown expression node {e!r}")
    kinds = _OPERATORS[name][1]
    if not kinds:
        return name
    args = ",".join(
        to_text(value) if kind == "expr" else str(value)
        for kind, value in zip(kinds, e._values())
    )
    return f"{name}({args})"


_TOKEN = re.compile(r"\s*(?:(-?\d+)|([A-Za-z]+)|([()\[\],|]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].isspace():
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("punct", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: GrassContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind, value=None):
        tok = self.tokens[self.i]
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            found = "end of input" if tok[0] == "eof" else repr(tok[1])
            raise ParseError(f"expected {want!r}, found {found}", tok[2])
        self.i += 1
        return tok

    def finish(self, result):
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return result

    def int_arg(self) -> int:
        return self.take("int")[1]

    def expr(self) -> Expr:
        tok = self.peek()
        if tok[0] != "name":
            found = "end of input" if tok[0] == "eof" else repr(tok[1])
            raise ParseError(f"expected an expression, found {found}", tok[2])
        name = tok[1]
        self.i += 1
        if name == "irr":
            return self.irr(tok[2])
        if name not in _OPERATORS:
            raise ParseError(f"unknown operator {name!r}", tok[2])
        cls, kinds = _OPERATORS[name]
        if not kinds:
            return cls()
        self.take("punct", "(")
        args = []
        for kind in kinds:
            if args:
                self.take("punct", ",")
            args.append(self.expr() if kind == "expr" else self.int_arg())
        self.take("punct", ")")
        return cls(*args)

    def irr(self, at: int) -> Expr:
        self.take("punct", "[")
        first = [self.int_arg()]
        while self.peek()[:2] == ("punct", ","):
            self.i += 1
            first.append(self.int_arg())
        second = None
        if self.peek()[:2] == ("punct", "|"):
            self.i += 1
            second = [self.int_arg()]
            while self.peek()[:2] == ("punct", ","):
                self.i += 1
                second.append(self.int_arg())
        self.take("punct", "]")
        k, n = self.ctx.k, self.ctx.n
        if len(first) != k:
            raise ParseError(f"irr lists {len(first)} entries, expected k={k}", at)
        if second is None:
            second = [0] * (n - k)
        if len(second) != n - k:
            raise ParseError(
                f"irr second block lists {len(second)} entries, expected n-k={n - k}", at
            )
        return Irr(BlockWeight(self.ctx, tuple(first), tuple(second)))


def parse_expr(text: str, ctx: GrassContext) -> Expr:
    """Parse the prefix grammar; errors carry the byte offset."""
    parser = _Parser(text, ctx)
    return parser.finish(parser.expr())


def parse_expr_list(text: str, ctx: GrassContext) -> list[Expr]:
    """Parse ``expr ("," expr)*`` as one text: error offsets count from
    its start, and an empty item is a :class:`ParseError`."""
    parser = _Parser(text, ctx)
    exprs = [parser.expr()]
    while parser.peek()[:2] == ("punct", ","):
        parser.i += 1
        exprs.append(parser.expr())
    return parser.finish(exprs)
