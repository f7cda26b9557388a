import copy
import pickle

import pytest

from grassbott import expr as ex
from grassbott.errors import ParseError
from grassbott.expr import parse_expr, parse_expr_list, to_text
from grassbott.weights import BlockWeight, GrassContext

CTX = GrassContext(2, 5)


def test_parse_atoms():
    assert parse_expr("Q", CTX) is ex.Q
    assert parse_expr("S", CTX) is ex.S
    assert parse_expr("Theta", CTX) is ex.THETA
    assert parse_expr("O(3)", CTX) == ex.Line(3)
    assert parse_expr("O(-2)", CTX) == ex.Line(-2)


def test_parse_irr():
    e = parse_expr("irr[1,1]", CTX)
    assert e == ex.Irr(BlockWeight(CTX, (1, 1), (0, 0, 0)))
    e = parse_expr("irr[1,0|0,0,-1]", CTX)
    assert e == ex.Irr(BlockWeight(CTX, (1, 0), (0, 0, -1)))


def test_parse_nested():
    e = parse_expr("twist(dual(wedge(3,sym(3,Q))),2)", CTX)
    assert e == ex.Twist(ex.Dual(ex.Wedge(3, ex.Sym(3, ex.Q))), 2)
    e = parse_expr("tensor(sum(Q,O(1)),S)", CTX)
    assert e == ex.Tensor(ex.DirectSum(ex.Q, ex.Line(1)), ex.S)


def test_parse_tolerates_whitespace():
    assert parse_expr(" wedge( 2 , Q ) ", CTX) == ex.Wedge(2, ex.Q)


def test_roundtrip_is_identity():
    samples = [
        "Q",
        "S",
        "Theta",
        "O(-3)",
        "irr[2,1]",
        "irr[1,0|0,0,-1]",
        "wedge(3,sym(3,Q))",
        "twist(dual(wedge(3,sym(3,Q))),2)",
        "tensor(sum(Q,O(1)),dual(S))",
    ]
    for text in samples:
        assert to_text(parse_expr(text, CTX)) == text


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_expr("wedge(", CTX)
    assert info.value.position == 6
    with pytest.raises(ParseError) as info:
        parse_expr("Q extra", CTX)
    assert info.value.position == 2
    with pytest.raises(ParseError):
        parse_expr("frob(Q)", CTX)
    with pytest.raises(ParseError):
        parse_expr("twist(Q Q)", CTX)
    with pytest.raises(ParseError) as info:
        parse_expr("irr[1,2,3]", CTX)  # wrong length for k=2
    assert "k=2" in str(info.value)
    with pytest.raises(ParseError):
        parse_expr("irr[1,1|0,0]", CTX)  # wrong second-block length
    with pytest.raises(ParseError):
        parse_expr("wedge(Q,2)", CTX)  # arity/type mixup


def test_parse_expr_list():
    for text, items in (
        ("sym(2,Q),O(1)", ["sym(2,Q)", "O(1)"]),
        ("irr[1,1],tensor(Q,S)", ["irr[1,1]", "tensor(Q,S)"]),
        (" Q ", ["Q"]),
    ):
        assert parse_expr_list(text, CTX) == [parse_expr(t, CTX) for t in items]


@pytest.mark.parametrize("text, position", [
    ("Q,,O(1)", 2),
    ("Q,", 2),
    ("", 0),
    ("Q, wedge(2,Q", 12),  # the offset counts from the start of the list
])
def test_parse_expr_list_errors_carry_list_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_expr_list(text, CTX)
    assert info.value.position == position


def _one_of_each_node():
    w = BlockWeight.from_first(CTX, (3, 0))
    return [
        ex.Irr(w),
        ex.Quotient(),
        ex.Sub(),
        ex.Tangent(),
        ex.Line(2),
        ex.Wedge(2, ex.Q),
        ex.Sym(2, ex.Q),
        ex.Dual(ex.S),
        ex.Twist(ex.Q, 1),
        ex.Tensor(ex.Q, ex.S),
        ex.DirectSum(ex.Q, ex.S),
    ]


def test_node_equality_is_class_sensitive():
    assert ex.Wedge(2, ex.Q) != ex.Sym(2, ex.Q)
    assert ex.Tensor(ex.Q, ex.S) != ex.DirectSum(ex.Q, ex.S)
    assert ex.Q != ex.S
    assert ex.Quotient() == ex.Q
    assert hash(ex.Quotient()) == hash(ex.Q)
    nodes = _one_of_each_node()
    assert len(set(nodes)) == len(nodes) == 11
    for a, b in zip(nodes, _one_of_each_node()):
        assert a == b and hash(a) == hash(b)


def test_node_hash_is_field_tuple_hash():
    w = BlockWeight.from_first(CTX, (3, 0))
    assert hash(ex.Irr(w)) == hash((w,))
    assert hash(ex.Wedge(2, ex.Q)) == hash((2, ex.Q))
    assert hash(ex.Twist(ex.Q, 1)) == hash((ex.Q, 1))


def test_nodes_refuse_assignment_and_deletion():
    for node in _one_of_each_node():
        assert copy.deepcopy(node) == node == pickle.loads(pickle.dumps(node))
        # a node without fields refuses any name
        for name in node._fields or ("child",):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)


def test_repr_pinned():
    e = parse_expr("twist(dual(wedge(3,sym(3,Q))),2)", CTX)
    assert repr(e) == (
        "Twist(child=Dual(child=Wedge(p=3, child=Sym(p=3, child=Quotient()))), r=2)"
    )
    assert repr(ex.Irr(BlockWeight.from_first(CTX, (3, 0)))) == (
        "Irr(weight=BlockWeight(ctx=GrassContext(k=2, n=5), first=(3, 0), "
        "second=(0, 0, 0)))"
    )
