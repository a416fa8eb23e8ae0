import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebdde._expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Neg,
    Num,
    Param,
    State,
    compile_rhs,
    evaluate,
    param_names,
    parse_expr,
    state_symbols,
    to_text,
)
from chebdde.discretize import make_system, replicate, rhs
from chebdde.errors import (
    EvalDomainError,
    ExprSyntaxError,
    IntegrationError,
    UnknownSymbolError,
)
from chebdde.model import make_model
from chebdde.simulate import integrate


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
        parse_expr("x0@1 - 2*x1@1^2"),
    ]
    params = {"mu": 3.0, "beta": 29.0}
    write = compile_rhs(exprs, params, n_lags=2)
    vals = np.array([[0.7, -0.2], [1.3, 0.4]])
    env = {(i, k): vals[k, i] for k in range(2) for i in range(2)}
    want = [evaluate(tree, env, params) for tree in exprs]
    out = np.empty(2)
    assert write(vals, out) is None
    assert out.tolist() == want
    # into the last lag row, which both components read
    write(vals, vals[1])
    assert vals.tolist() == [[0.7, -0.2], want]


@st.composite
def _writer_cases(draw):
    """d expression trees over K lags (d, K in 1..3), with lag values."""
    d, lags = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    leaves = st.one_of(
        st.builds(Num, st.sampled_from([0.5, 1.0, 2.0, 3.7])),
        st.builds(Param, st.sampled_from(["a", "b"])),
        st.builds(State, st.integers(0, d - 1), st.integers(0, lags - 1)),
    )

    def extend(sub):
        # integer exponents only: a negative base keeps a real power
        return st.one_of(
            st.builds(Neg, sub),
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            st.builds(BinOp, st.just("^"), sub, st.builds(Num, st.sampled_from([2.0, 3.0]))),
            st.builds(Call, st.sampled_from(["exp", "log", "sin", "cos"]), sub),
        )

    exprs = draw(st.lists(st.recursive(leaves, extend, max_leaves=8), min_size=d, max_size=d))
    vals = draw(st.lists(st.floats(-3.0, 3.0), min_size=lags * d, max_size=lags * d))
    return exprs, np.array(vals).reshape(lags, d)


@settings(max_examples=300)
@given(_writer_cases())
@example(([BinOp("^", Param("b"), Num(2.0))], np.array([[0.0]])))
def test_compiled_writer_equals_evaluate_into_a_fresh_or_aliased_row(case):
    # the writer's out may be the last lag row of v, as in integrate's
    # stages: every component is read before any is written. The example:
    # a negative parameter baked in as a bare literal read b^2 as -(0.25^2)
    exprs, vals = case
    params = {"a": 1.5, "b": -0.25}
    write = compile_rhs(exprs, params, n_lags=len(vals))
    env = {(comp, lag): vals[lag, comp] for lag, comp in np.ndindex(vals.shape)}
    fresh, aliased = np.empty(len(exprs)), vals.copy()
    with np.errstate(all="ignore"):
        try:
            want = [evaluate(tree, env, params) for tree in exprs]
        except EvalDomainError:
            with pytest.raises(EvalDomainError, match="in 'model rhs at node 0'"):
                write(vals, fresh)
            return
        write(vals, fresh)
        write(aliased, aliased[-1])
    assert np.array_equal(fresh, want, equal_nan=True)
    assert np.array_equal(aliased[-1], want, equal_nan=True)
    assert np.array_equal(aliased[:-1], vals[:-1])


def _leaves(node, kind) -> list:
    """The leaves of one kind, collected by recursion."""
    if isinstance(node, kind):
        return [node]
    if isinstance(node, BinOp):
        return _leaves(node.left, kind) + _leaves(node.right, kind)
    if isinstance(node, (Neg, Call)):
        return _leaves(node.arg, kind)
    return []


@given(_writer_cases())
def test_symbol_sets_equal_a_recursive_collection(case):
    for tree in case[0]:
        assert state_symbols(tree) == {(s.comp, s.lag) for s in _leaves(tree, State)}
        assert param_names(tree) == {p.name for p in _leaves(tree, Param)}


@pytest.mark.parametrize("text", [
    # a left-leaning chain of sums, and nested negations: one level per
    # operator, and the leaf
    lambda levels: "x0@0" + " + x0@0" * (levels - 1),
    lambda levels: "-" * (levels - 1) + "a",
], ids=["sums", "negations"])
def test_parse_takes_max_depth_levels_and_refuses_one_more(text):
    parse_expr(text(MAX_DEPTH))
    with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_expr(text(MAX_DEPTH + 1))


def test_compiled_rhs_errors_reach_the_integrator():
    # the writer reads numpy scalars, so x' = x^2 overflows to inf rather
    # than raising OverflowError, and the blow-up ends in IntegrationError
    # with the partial trajectory
    write = compile_rhs([parse_expr("x0@0^2")], {}, n_lags=1)
    out = np.empty(1)
    with np.errstate(over="ignore"):
        write(np.array([[1e200]]), out)
    assert out[0] == np.inf
    m = make_model(1, (0.0, 1.0), ("x0@0^2",), {}, equilibrium_hint=[0.0])
    ps = make_system(m, 4, equilibrium=[0.0])
    with pytest.raises(IntegrationError) as err:
        integrate(ps, replicate(np.array([2.0]), 4), 10.0)
    assert err.value.trajectory is not None
    # log of a negative lag value: the writer raises the domain error that
    # rhs and every stage of integrate pass on
    m = make_model(1, (0.0, 1.0), ("-x0@0 + log(x0@1)",), {}, equilibrium_hint=[1.0])
    ps = make_system(m, 4, equilibrium=[1.0])
    for call in (lambda y: rhs(ps, y), lambda y: integrate(ps, y, 1.0)):
        with pytest.raises(EvalDomainError) as err:
            call(np.full(5, -1.0))
        assert str(err.value) == "math domain error in 'model rhs at node 0'"
