"""The shared C-expression compiler against a reference evaluator, and its
cache."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpm.cexpr
from cpm.cexpr import compile_expr, compile_stmt
from cpm.interp import AbiInterpreter, InterpError
from cpm.runtime import ContextRegistry, Runtime
from oracles import c_eval

PREC = {"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
        "+": 9, "-": 9, "*": 10, "/": 10, "%": 10}
UNARY, PRIMARY = 11, 12

ints = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70), st.sampled_from([2**53 + 1, -(2**53) - 1, 0]))


def tree_strategy(ints, max_leaves):
    leaves = st.one_of(
        st.tuples(st.just("int"), ints, st.sampled_from(["dec", "hex", "oct"])),
        st.just(("var", "s")),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.just("unary"), st.sampled_from("-~!"), sub),
            st.tuples(st.just("binary"), st.sampled_from(sorted(PREC)), sub, sub),
            st.tuples(st.just("cond"), sub, sub, sub),
        ),
        max_leaves=max_leaves,
    )


trees = st.one_of(tree_strategy(ints, 10), tree_strategy(st.integers(-4, 4), 3))


def render(node, need=0):
    """C text for ``node``, parenthesized only where C precedence needs it
    (``need`` is the least precedence its position takes unparenthesized)."""
    kind = node[0]
    if kind == "var":
        text, prec = node[1], PRIMARY
    elif kind == "int":
        v, fmt = node[1], node[2]
        digits = {"dec": str(abs(v)), "hex": hex(abs(v)), "oct": "0" + format(abs(v), "o")}[fmt]
        text, prec = (f"(-{digits})" if v < 0 else digits), PRIMARY
    elif kind == "unary":
        text, prec = f"{node[1]} {render(node[2], UNARY)}", UNARY
    elif kind == "binary":
        p = PREC[node[1]]
        text, prec = f"{render(node[2], p)} {node[1]} {render(node[3], p + 1)}", p
    else:
        text, prec = f"{render(node[1], 1)} ? {render(node[2])} : {render(node[3])}", 0
    return f"({text})" if prec < need else text


def reference(tree, s, **env):
    try:
        return c_eval(tree, dict(env, s=s))
    except ZeroDivisionError:
        return None


def test_every_pair_of_binary_operators_parses_at_c_precedence():
    x, y, z = ("var", "x"), ("var", "y"), ("var", "z")
    it = AbiInterpreter(Runtime())
    for op1, op2 in itertools.product(PREC, repeat=2):
        for tree in (("binary", op1, ("binary", op2, x, y), z), ("binary", op1, x, ("binary", op2, y, z))):
            text = render(tree)
            for values in itertools.product((-3, 0, 1, 2), repeat=3):
                it.env.update(zip("xyz", values))
                expected = reference(tree, None, **it.env)
                if expected is None:
                    with pytest.raises(InterpError):
                        it.eval_expr(text)
                else:
                    assert it.eval_expr(text) == expected, (text, values)


@settings(max_examples=300, deadline=None)
@given(trees, ints)
def test_hypothesis_eval_expr_matches_c_reference(tree, s):
    text = render(tree)
    it = AbiInterpreter(Runtime(), env={"s": s})
    expected = reference(tree, s)
    if expected is None:
        with pytest.raises(InterpError):
            it.eval_expr(text)
    else:
        result = it.eval_expr(text)
        assert result == expected and type(result) is int, text


@settings(max_examples=200, deadline=None)
@given(trees, ints, ints)
def test_hypothesis_one_sensor_guard_fires_like_c_reference(tree, s0, s1):
    text = f"({render(tree)}) || s != s"  # reads the sensor even where the tree does not
    reg = ContextRegistry()
    reg.register("s", "sensor", initial=s0)
    guard = reg.register_guard(None, text, name="g")
    before, after = reference(tree, s0), reference(tree, s1)
    fired = reg.sensor_update("s", s1)
    assert fired == (["g"] if after and not before else []), text
    assert guard.last_value == bool(after)
    errors = [e for e in reg.events.of("warn") if str(e.value).startswith("guard-eval-error")]
    assert len(errors) == (before is None) + (after is None)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**80), 2**80), st.one_of(st.integers(-50, 50), st.integers(-(2**60), 2**60)))
def test_hypothesis_division_is_exact_past_2_53(a, b):
    it = AbiInterpreter(Runtime(), env={"a": a, "b": b})
    for op in "/%":
        if b == 0:
            with pytest.raises(InterpError):
                it.eval_expr(f"a {op} b")
        else:
            assert it.eval_expr(f"a {op} b") == c_eval(("binary", op, ("var", "a"), ("var", "b")), {"a": a, "b": b})


def test_compiled_once_per_text():
    calls = []
    line = cpm.cexpr.SourceLine
    cpm.cexpr.SourceLine = lambda raw: calls.append(raw) or line(raw)
    try:
        it = AbiInterpreter(Runtime(), env={"a": 3})
        text = "a * 1234567 + 7654321"  # no other test compiles this text
        assert it.eval_expr(text) == it.eval_expr(text) == 3 * 1234567 + 7654321
        it.run_text(f"b = {text};\nb = {text};\n")
    finally:
        cpm.cexpr.SourceLine = line
    assert calls == [text, f"b = {text}"]


def test_failed_compiles_are_not_cached():
    text = "s > > 7654321"
    for compiler in (compile_expr, compile_stmt):
        size = compiler.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError):
                compiler(text)
        assert compiler.cache_info().currsize == size


def test_names_are_the_identifiers_read():
    _, names = compile_expr('cpm_arr_get(arr, (k + cpm_red_read(x)), prop) == t && u != "v w"')
    assert names == {"cpm_arr_get", "k", "cpm_red_read", "t", "u"}
