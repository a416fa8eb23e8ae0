import numpy as np
import pytest

from chebdde._expr import (
    BinOp,
    Call,
    Neg,
    Num,
    Param,
    State,
    compile_rhs,
    evaluate,
    parse_expr,
    to_text,
)
from chebdde.errors import EvalDomainError, ExprSyntaxError, UnknownSymbolError


def test_parse_blowflies_rhs():
    tree = parse_expr("-mu*x0@0 + beta*x0@1*exp(-x0@1)")
    assert tree == BinOp(
        "+",
        BinOp("*", Neg(Param("mu")), State(0, 0)),
        BinOp(
            "*",
            BinOp("*", Param("beta"), State(0, 1)),
            Call("exp", Neg(State(0, 1))),
        ),
    )


def test_parse_fluidflow_rhs():
    tree = parse_expr("1 - k*x0@0*x0@1*x1@1/2")
    val = evaluate(
        tree,
        {(0, 0): 2.0, (0, 1): 3.0, (1, 1): 0.5},
        {"k": 1.5},
    )
    assert abs(val - (1.0 - 1.5 * 2.0 * 3.0 * 0.5 / 2.0)) < 1e-15


def test_parse_precedence():
    assert parse_expr("a+b*c") == BinOp(
        "+", Param("a"), BinOp("*", Param("b"), Param("c"))
    )


def test_parse_power_right_assoc():
    assert parse_expr("a^b^c") == BinOp(
        "^", Param("a"), BinOp("^", Param("b"), Param("c"))
    )
    # unary minus binds looser than ^
    assert parse_expr("-a^2") == Neg(BinOp("^", Param("a"), Num(2.0)))
    assert parse_expr("2^-3") == BinOp("^", Num(2.0), Neg(Num(3.0)))


def test_parse_double_star_alias():
    assert parse_expr("a**2") == parse_expr("a^2")


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a + * b")
    assert err.value.offset == 4


def test_unknown_function_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a + tan(b)")
    assert err.value.offset == 4


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse_expr("(a + b")


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse_expr("a + b )")


def test_printer_round_trip_corpus():
    corpus = [
        "-mu*x0@0 + beta*x0@1*exp(-x0@1)",
        "1 - k*x0@0*x0@1*x1@0/2",
        "x0@0 - c",
        "a - (b - c)",
        "a - b - c",
        "a/(b*c)",
        "a/b/c",
        "(a + b)^(c + 1)",
        "(a^b)^c",
        "-(a + b)*c",
        "2^-x0@0",
        "log(2 + sin(x0@1))",
        "a + (b + c)",
    ]
    for text in corpus:
        tree = parse_expr(text)
        assert parse_expr(to_text(tree)) == tree


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                Num(float(np.round(rng.uniform(0.5, 3.0), 3))),
                Param("a"),
                State(0, 0),
                State(0, 1),
            ]
        )
    kind = rng.integers(0, 7)
    if kind < 4:
        op = "+-*/^"[rng.integers(0, 5)]
        return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 4:
        return Neg(_random_tree(rng, depth - 1))
    fn = ("exp", "log", "sin", "cos")[rng.integers(0, 4)]
    return Call(fn, _random_tree(rng, depth - 1))


def test_printer_round_trip_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        assert parse_expr(to_text(tree)) == tree


def test_evaluate_unknown_parameter():
    with pytest.raises(UnknownSymbolError):
        evaluate(parse_expr("a + b"), {}, {"a": 1.0})


def test_evaluate_unbound_state():
    with pytest.raises(UnknownSymbolError):
        evaluate(parse_expr("x0@0"), {}, {})


def test_domain_error_reports_subexpression():
    tree = parse_expr("1 + log(a - 2)")
    with pytest.raises(EvalDomainError) as err:
        evaluate(tree, {}, {"a": 1.0})
    assert "log(a - 2)" in str(err.value)


def test_division_by_zero_reported():
    tree = parse_expr("1/(a - 1)")
    with pytest.raises(EvalDomainError) as err:
        evaluate(tree, {}, {"a": 1.0})
    assert "a - 1" in str(err.value)


def test_overflow_reported_as_domain_error():
    with pytest.raises(EvalDomainError) as err:
        evaluate(parse_expr("exp(x0@0)"), {(0, 0): 1000.0}, {})
    assert "exp(x0@0)" in str(err.value)
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("x0@0^400"), {(0, 0): 10.0}, {})


def test_compile_rhs_matches_tree_eval():
    exprs = [
        parse_expr("-mu*x0@0 + beta*x0@1*exp(-x0@1)"),
        parse_expr("x0@0 - 2*x1@1^2"),
    ]
    params = {"mu": 3.0, "beta": 29.0}
    fn = compile_rhs(exprs, params, n_lags=2)
    vals = np.array([[0.7, -0.2], [1.3, 0.4]])
    env = {(i, k): vals[k, i] for k in range(2) for i in range(2)}
    got = fn(vals)
    for r, tree in enumerate(exprs):
        assert abs(got[r] - evaluate(tree, env, params)) < 1e-14
