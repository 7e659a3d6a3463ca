"""The shared C-expression compiler against a reference evaluator, the
reference evaluator against a C compiler, and the compiler's cache."""

import itertools
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import cpm.cexpr
from cpm.cexpr import compile_expr
from cpm.interp import AbiInterpreter, InterpError
from cpm.runtime import ContextRegistry, Runtime
from oracles import c_eval

PREC = {"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
        "+": 9, "-": 9, "*": 10, "/": 10, "%": 10}
SHIFT, UNARY, PRIMARY = 8, 11, 12  # SHIFT: the precedence of << and >>

# escaped character constants -> the int C gives them, char being signed
CHARS = {
    "'\\?'": 63, "'\\101'": 65, "'\\x41'": 65, "'\\n'": 10, "'\\\\'": 92, "'\\''": 39,
    "'\\xff'": -1, "'\\200'": -128, "'\\x80'": -128,
}
ints = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70), st.sampled_from([2**53 + 1, -(2**53) - 1, 0]))


def tree_strategy(ints, max_leaves, shifts=False):
    """Expression trees over ``ints``, the character constants of ``CHARS``
    and the variable ``s``; with ``shifts``, also ``<<`` and ``>>`` by a
    literal count of 0 to 8."""
    leaves = st.one_of(
        st.tuples(st.just("int"), ints, st.sampled_from(["dec", "hex", "oct"])),
        st.sampled_from([("int", code, text) for text, code in CHARS.items()]),
        st.just(("var", "s")),
    )

    def branches(sub):
        nodes = [
            st.tuples(st.just("unary"), st.sampled_from("-~!"), sub),
            st.tuples(st.just("binary"), st.sampled_from(sorted(PREC)), sub, sub),
            st.tuples(st.just("cond"), sub, sub, sub),
        ]
        if shifts:
            count = st.tuples(st.just("int"), st.integers(0, 8), st.just("dec"))
            nodes.append(st.tuples(st.just("binary"), st.sampled_from(["<<", ">>"]), sub, count))
        return st.one_of(nodes)

    return st.recursive(leaves, branches, max_leaves=max_leaves)


trees = st.one_of(tree_strategy(ints, 10), tree_strategy(st.integers(-4, 4), 3))


def render(node, need=0):
    """C text for ``node``, parenthesized only where C precedence needs it
    (``need`` is the least precedence its position takes unparenthesized)."""
    kind = node[0]
    if kind == "var":
        text, prec = node[1], PRIMARY
    elif kind == "int":
        v, fmt = node[1], node[2]
        digits = fmt if fmt in CHARS else {"dec": str(abs(v)), "hex": hex(abs(v)), "oct": "0" + format(abs(v), "o")}[fmt]
        # a character constant carries its own sign
        text, prec = (f"(-{digits})" if v < 0 and fmt not in CHARS else digits), PRIMARY
    elif kind == "unary":
        text, prec = f"{node[1]} {render(node[2], UNARY)}", UNARY
    elif kind == "binary":
        p = PREC.get(node[1], SHIFT)
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
    size = compile_expr.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            compile_expr("s > > 7654321")
    assert compile_expr.cache_info().currsize == size


def test_names_are_the_identifiers_read():
    _, names = compile_expr('cpm_arr_get(arr, (k + cpm_red_read(x)), prop) == t && u != "v w"')
    assert names == {"cpm_arr_get", "k", "cpm_red_read", "t", "u"}


INT_MIN, INT_MAX = -(2**31), 2**31 - 1
int32s = st.integers(INT_MIN + 1, INT_MAX)  # -INT_MIN is no int literal in C
c_trees = tree_strategy(st.one_of(st.integers(-9, 9), int32s), 10, shifts=True)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler: cc is not on PATH")
# no shrinking: each step would compile a program, and a failure already
# names the expression that differs
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(st.tuples(c_trees, int32s), min_size=40, max_size=80))
@example([(("binary", "+", ("int", code, text), ("var", "s")), 1) for text, code in CHARS.items()])
def test_hypothesis_c_reference_and_eval_expr_match_a_c_compiler(batch):
    """Every tree that ``c_eval`` evaluates without dividing by zero, and
    whose every intermediate value fits in an int, evaluates to the same
    value in one C program per batch, compiled with wrapping signed
    arithmetic and a signed ``char``, as under ``c_eval`` and ``eval_expr``.
    As a guard over a sensor ``s`` that starts at 0, each such tree that
    reads ``s`` holds exactly when C's value is nonzero, and fires on
    ``sensor_update("s", s)`` exactly when it holds and did not at ``s = 0``
    (judged by ``c_eval``; a division by zero there reads as false, as the
    registry's ``guard-eval-error`` does)."""
    kept = []
    for tree, s in batch:
        seen = []
        try:
            value = c_eval(tree, {"s": s}, seen)
        except ZeroDivisionError:
            continue
        if all(INT_MIN <= v <= INT_MAX for v in seen):
            kept.append((tree, render(tree), s, value))
    if not kept:
        return
    body = "".join(f'    {{ int s = {s}; printf("%lld\\n", (long long)({text})); }}\n' for _, text, s, _ in kept)
    with tempfile.TemporaryDirectory() as tmp:
        src, exe = Path(tmp) / "exprs.c", Path(tmp) / "exprs"
        src.write_text(f"#include <stdio.h>\nint main(void) {{\n{body}    return 0;\n}}\n")
        subprocess.run(["cc", "-fwrapv", "-fsigned-char", "-w", "-o", str(exe), str(src)], check=True, capture_output=True)
        printed = subprocess.run([str(exe)], check=True, capture_output=True, text=True).stdout.split()
    assert len(printed) == len(kept)
    for (tree, text, s, value), c_value in zip(kept, printed):
        it = AbiInterpreter(Runtime(), env={"s": s})
        assert int(c_value) == value == it.eval_expr(text), (text, s)
        if "s" not in compile_expr(text)[1]:
            continue
        reg = ContextRegistry()
        reg.register("s", "sensor")
        guard = reg.register_guard(None, text, name="g")
        held = reference(tree, 0) not in (None, 0)
        assert guard.last_value == held, text
        holds = int(c_value) != 0
        assert reg.sensor_update("s", s) == (["g"] if holds and not held else []), (text, s)
        assert guard.last_value == holds, (text, s)
