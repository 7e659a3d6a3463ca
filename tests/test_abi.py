"""The runtime-call table ``cexpr.ABI`` is the one description of the calls
the passes emit: every call statement they emit over the golden inputs
compiles against it, and every head names a ``Runtime`` method that takes
the table's non-type arguments."""

import inspect

import pytest
from test_golden import ORDERS, config, inputs

from cpm import compose, load_unit, run
from cpm.cexpr import ABI, compile_stmt
from cpm.runtime import Runtime
from cpm.srcmodel import split_segments


@pytest.mark.parametrize("head", ABI)
def test_every_head_names_a_runtime_method_taking_its_non_type_arguments(head):
    method = getattr(Runtime(), head.removeprefix("cpm_"))
    inspect.signature(method).bind(*[None] * sum(kind != "type" for kind in ABI[head]))


def test_every_emitted_call_statement_compiles():
    heads = set()
    for text in inputs().values():
        for order in ORDERS[:3]:  # the four-pass orders
            for ini in (False, True):
                unit, _ = run(compose(order, config=config(ini)), load_unit(text))
                for line in unit.lines:
                    finished, rest = split_segments(line.sig)
                    for toks in (*finished, rest) if rest else finished:
                        if toks[0].lexeme in ABI:
                            assert toks[-1].lexeme == ";", line.raw
                            compile_stmt(line.raw[toks[0].column : toks[-1].column])
                            heads.add(toks[0].lexeme)
    # every registration, and every write the access forms allow, is emitted
    assert heads == set(ABI) - {"cpm_red_read", "cpm_ctx_read", "cpm_arr_get", "anext", "cpm_cycle_get"}
