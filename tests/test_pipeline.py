import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpm.pipeline import (
    ExtensionId,
    PassConfig,
    UnknownExtensionError,
    VersionMismatchError,
    builtin_registry,
    compose,
    preamble_line,
    publish_ids,
    run,
)
from cpm import srcmodel
from cpm.srcmodel import load_unit, render, unit_from_raws
from test_decl_rule import lines

from c_corpus import CORPUS
from oracles import reference_lower_in_turn


def test_extension_id_canonical_and_parse():
    eid = ExtensionId("redundancy", "1.1")
    assert eid.canonical() == "cpm://redundancy/1.1"
    assert ExtensionId.parse("cpm://redundancy/1.1") == eid
    with pytest.raises(ValueError):
        ExtensionId("Bad Name", "1.0")
    with pytest.raises(ValueError):
        ExtensionId.parse("http://redundancy/1.1")


def test_builtin_registry_contents():
    reg = builtin_registry()
    assert list(reg) == ["redundancy", "refractive", "array", "cyclic"]
    assert reg["redundancy"].id.version == "1.1"
    assert reg["refractive"].id.version == "0.5"
    assert reg["array"].id.version == "0.5"
    assert reg["cyclic"].id.version == "1.0"


def test_compose_order_preserved():
    p = compose(["redundancy", "refractive", "array"])
    assert [x.id.name for x in p.passes] == ["redundancy", "refractive", "array"]


def test_compose_empty_is_identity_plus_preamble():
    p = compose([])
    unit = load_unit("int x;\n")
    out, report = run(p, unit)
    assert render(out) == preamble_line("") + "\nint x;\n"
    assert report.extensions_pipeline == ""


def test_compose_unknown_extension():
    with pytest.raises(UnknownExtensionError, match="nosuch"):
        compose(["nosuch"])


def test_compose_version_mismatch():
    with pytest.raises(VersionMismatchError):
        compose(["redundancy@9.9"])
    # the right version is accepted
    compose(["redundancy@1.1"])


def test_duplicate_pass_warned_but_allowed():
    p = compose(["cyclic", "cyclic"])
    assert publish_ids(p) == "cpm://cyclic/1.0;cpm://cyclic/1.0"
    assert any("more than once" in d.message for d in p.compose_diagnostics)


def test_publish_ids_joins_with_semicolons():
    p = compose(["redundancy@1.1", "refractive@0.5", "array@0.5"])
    joined = publish_ids(p)
    assert joined == "cpm://redundancy/1.1;cpm://refractive/0.5;cpm://array/0.5"
    # splitting on ';' recovers exactly the canonical ids (string-join oracle)
    assert joined.split(";") == [x.id.canonical() for x in p.passes]
    assert publish_ids(compose([])) == ""


def test_report_extensions_pipeline_matches_publish():
    p = compose(["redundancy", "refractive", "array"])
    out, report = run(p, load_unit("int q;\n"))
    assert report.extensions_pipeline == publish_ids(p)
    assert out.lines[0].raw == preamble_line(report.extensions_pipeline)
    assert report.applied_ids == [x.id for x in p.passes]


def test_unknown_config_keys_are_warned():
    cfg = PassConfig({"redundancy.bogus": "1", "nonext.k": "2", "redundancy.replicas": "3"})
    p = compose(["redundancy"], config=cfg)
    messages = [d.message for d in p.compose_diagnostics]
    assert any("redundancy.bogus" in m for m in messages)
    assert any("nonext.k" in m for m in messages)
    assert not any("redundancy.replicas" in m for m in messages)
    # a property list for an array that array.arrays does not list
    cfg = PassConfig({"array.arrays": "lb", "array.lb": "rate:int", "array.lbb": "rate:int"})
    messages = [d.message for d in compose(["array"], config=cfg).compose_diagnostics]
    assert messages == ["config key 'array.lbb' is not recognized by pass 'array'"]


def test_pass_through_full_pipeline_on_corpus():
    names = ["redundancy", "refractive", "array", "cyclic"]
    for text in CORPUS:
        out, report = run(compose(names), load_unit(text))
        rendered = render(out)
        prefix = preamble_line(report.extensions_pipeline) + "\n"
        assert rendered == prefix + text
        assert not report.diagnostics


def test_pass_through_each_single_pass_on_corpus():
    for name in ("redundancy", "refractive", "array", "cyclic"):
        for text in CORPUS:
            out, report = run(compose([name]), load_unit(text))
            assert render(out) == preamble_line(report.extensions_pipeline) + "\n" + text


ORTHOGONAL_FIXTURE = """redundant_t int counter;
cyclic_t int Tick(TOM*);
counter = 0;
Tick.Cycle = 100;
counter += 1;
Tick.Cycle = 0;
"""


def _body(text):
    return text.split("\n", 1)[1]


def test_order_confluence_on_disjoint_lines():
    a, _ = run(compose(["redundancy", "cyclic"]), load_unit(ORTHOGONAL_FIXTURE))
    b, _ = run(compose(["cyclic", "redundancy"]), load_unit(ORTHOGONAL_FIXTURE))
    assert _body(render(a)) == _body(render(b))


# ROADMAP 4(b): the four passes are orthogonal, so every order renders the
# same text, tagged lines included, since a tagged line goes to its own pass
# alone; diagnostics may differ by order
ORDERS = list(itertools.permutations(builtin_registry()))
TAGS = ["", "", "", "@ext:other "] + [f"@ext:{name} " for name in builtin_registry()]
tagged_lines = st.tuples(st.sampled_from(TAGS), lines).map("".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(tagged_lines, min_size=1, max_size=6).map(lambda ls: "\n".join(ls) + "\n"))
@example("@ext:cyclic redundant_t int r1;\n")
# a name or type argument of a runtime call another pass emitted is no access
@example("reflective_array_t lb { rate:int }; redundant_t int rate; y = lb[k].rate;\n")
@example("sensor_t int x; redundant_t int sensor;\n")
@example("redundant_t T x; sensor_t int T;\n")
# a name after a pass keyword is the type of its declaration, not an access
@example("redundant_t T *x; sensor_t int T;\n")
@example("redundant_t const T *x; sensor_t int T;\n")
# a guard is checked as written, before any pass lowers the names it reads
@example("redundant_t int r1; sensor_t int s1; guard_t (r1 < s1) g2;\n")
@example("cyclic_t int tick(void); sensor_t int s1; guard_t (tick.Cycle > s1) g3;\n")
@example("reflective_array_t lb { beacons:int }; sensor_t int s1; guard_t (lb[m].beacons > s1) g4;\n")
# one declaration inside another: each scan reads what earlier scans spliced
@example("cyclic_t int f(int a; sensor_t int s;);\n")
def test_every_pass_order_renders_the_same_text(src):
    texts = {_body(render(run(compose(order), load_unit(src))[0])) for order in ORDERS}
    assert len(texts) == 1, texts


# lines that open or close a block comment, and lines naming what two passes
# declare, so that one line is lowered by several passes in turn
SHARED = [
    "/* open", "*/ z = r1;", "z = s1; /* r1", "/*/ s1 */ z = r1;",
    "redundant_t int s1;", "sensor_t int r1;", "context_t int lb;", "reflective_array_t r1 { b:int };",
    "r1 = s1 + lb[m].beacons + tick.Cycle;", "s1 = r1;", "c1 += r1[k].b;", "tick.Cycle = r1 + c1;", "lb = r1++;",
]
shared_lines = st.lists(st.sampled_from(SHARED), min_size=1, max_size=3).map(" ".join)
claimed_lines = st.tuples(st.sampled_from(TAGS), st.one_of(lines, shared_lines)).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(claimed_lines, min_size=1, max_size=8).map(lambda ls: "\n".join(ls) + "\n"),
    st.permutations(list(builtin_registry())),
    st.integers(1, 4),
)
# a trigger named like a runtime call head another pass writes
@example("redundant_t int r1;\nsensor_t int cpm_red_read;\nz = r1;\n", ["redundancy", "refractive"], 2)
def test_one_lowering_walk_equals_each_pass_lowering_the_unit_in_turn(src, order, n):
    pipeline = compose(order[:n])
    out, report = run(pipeline, load_unit(src), strict=True)
    expected, expected_report = reference_lower_in_turn(pipeline, load_unit(src), strict=True)
    assert out == expected  # text and every line's tokens and comment state
    assert report.diagnostics == expected_report.diagnostics


# a few lines drawn many times, so the walk meets texts it already lowered:
# one with and without a tag, one inside and outside a block comment, and
# repeats that warn, for one pass and for two
REPEATED = [
    "r1 = s1 + 1;", "@ext:redundancy r1 = s1 + 1;", "lb = r1++;", "/* open", "r1 = 1; */ r1 = 2;", "s1 = r1; */",
]
REPEATED_DECLS = "redundant_t int r1; sensor_t int s1; context_t int lb;\n"


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(REPEATED), min_size=1, max_size=12).map(lambda ls: REPEATED_DECLS + "\n".join(ls) + "\n"),
    st.permutations(list(builtin_registry())),
    st.integers(1, 4),
)
@example(REPEATED_DECLS + "r1 = s1 + 1;\n@ext:redundancy r1 = s1 + 1;\n", ["refractive", "redundancy"], 2)
@example(REPEATED_DECLS + "r1 = 1; */ r1 = 2;\n/* open\nr1 = 1; */ r1 = 2;\n", ["redundancy"], 1)
@example(REPEATED_DECLS + "lb = r1++;\ns1 = r1; */\nlb = r1++;\ns1 = r1; */\n", ["redundancy", "refractive"], 2)
def test_a_walk_lowering_repeated_lines_once_equals_each_pass_lowering_the_unit_in_turn(src, order, n):
    pipeline = compose(order[:n])
    out, report = run(pipeline, load_unit(src), strict=True)
    expected, expected_report = reference_lower_in_turn(pipeline, load_unit(src), strict=True)
    assert out == expected  # text and every line's tokens and comment state
    assert report.diagnostics == expected_report.diagnostics


def test_order_confluence_refractive_array():
    src = (
        "sensor_t int cpu_load;\n"
        "reflective_array_t linkrates { rate:int };\n"
        "a = cpu_load;\n"
        "b = linkrates[mac].rate;\n"
    )
    a, _ = run(compose(["refractive", "array"]), load_unit(src))
    b, _ = run(compose(["array", "refractive"]), load_unit(src))
    assert _body(render(a)) == _body(render(b))


def test_ext_tags_route_lines_to_passes():
    src = "@ext:redundancy redundant_t int x;\n@ext:cyclic x = 1;\n"
    out, report = run(compose(["redundancy"]), load_unit(src))
    body = _body(render(out))
    # the redundancy line was processed (tag consumed), the cyclic-tagged
    # line was left for its own pass, x = 1 not rewritten
    assert body == "cpm_red_storage(x, int, 3);\n@ext:cyclic x = 1;\n"


def test_strict_tags_reports_leftovers():
    src = "@ext:cyclic Tick.Cycle = 5;\nredundant_t int x;\n"
    out, report = run(compose(["refractive"]), load_unit(src), strict=True)
    messages = [d.message for d in report.diagnostics]
    assert any("tagged for pass 'cyclic'" in m for m in messages)
    assert any("redundant_t" in m and "redundancy" in m for m in messages)
    assert all(d.severity == "warning" for d in report.diagnostics)


def test_strict_tags_silent_when_everything_consumed():
    src = "redundant_t int x;\nx = 1;\n"
    out, report = run(compose(["redundancy"]), load_unit(src), strict=True)
    assert not [d for d in report.diagnostics if d.severity == "warning"]


def test_unknown_pipeline_config_key_is_warned():
    # strictness is an argument of run, not a config key
    cfg = PassConfig({"pipeline.strict_tags": "1"})
    messages = [d.message for d in compose(["redundancy"], config=cfg).compose_diagnostics]
    assert messages == ["config key 'pipeline.strict_tags' names no registered extension"]


def test_preamble_on_empty_unit():
    out, report = run(compose([]), load_unit(""))
    assert render(out) == preamble_line("") + "\n"


def test_config_from_ini(tmp_path):
    ini = tmp_path / "ext.ini"
    ini.write_text("[redundancy]\nreplicas = 5\n\n[refractive]\nsensors = watchdog\n")
    cfg = PassConfig.from_ini(ini)
    assert cfg.get("redundancy", "replicas") == "5"
    assert cfg.get("refractive", "sensors") == "watchdog"


def test_strict_tags_lowers_code_after_block_comment_close():
    src = "redundant_t int y;\n/* c\n */ y = 1;\n"
    out, report = run(compose(["redundancy"]), load_unit(src), strict=True)
    assert _body(render(out)) == "cpm_red_storage(y, int, 3);\n/* c\n */ cpm_red_write(y, (1));\n"
    assert not [d for d in report.diagnostics if d.severity == "warning"]


def test_strict_tags_reports_keyword_after_block_comment_close():
    src = "/* c\n */ cyclic_t int f(void);\n"
    out, report = run(compose(["redundancy"]), load_unit(src), strict=True)
    assert [d.line_no for d in report.diagnostics if "cyclic_t" in d.message] == [2]


def test_strict_sweep_and_pass_diagnostics_share_input_line_numbers():
    _, report = run(compose(["cyclic"]), load_unit("cyclic_t int f(void);\nf.Cycle += 1;\n"), strict=True)
    warnings = [d for d in report.diagnostics if d.severity == "warning"]
    assert [d.emitted_by for d in warnings] == ["cpm://cyclic/1.0", "pipeline"]
    assert [d.line_no for d in warnings] == [2, 2]


def test_ext_tag_inside_block_comment_is_comment_text():
    src = "/* c\n@ext:cyclic */ x = 1;\n@ext:redundancy y = 1; /*\n@ext:redundancy */\n"
    out, report = run(compose(["redundancy"]), load_unit(src), strict=True)
    assert _body(render(out)) == "/* c\n@ext:cyclic */ x = 1;\ny = 1; /*\n@ext:redundancy */\n"
    assert not [d for d in report.diagnostics if d.severity == "warning"]


def test_run_tokenizes_only_the_preamble_on_plain_c(monkeypatch):
    real = srcmodel._tokenize
    calls = []

    def counting(raw, in_block):
        calls.append(raw)
        return real(raw, in_block)

    pipeline = compose(["redundancy", "refractive", "array", "cyclic"])
    for text in CORPUS:
        unit = load_unit(text)
        calls.clear()
        monkeypatch.setattr(srcmodel, "_tokenize", counting)
        out, report = run(pipeline, unit)
        monkeypatch.setattr(srcmodel, "_tokenize", real)
        assert calls == [preamble_line(report.extensions_pipeline)]
        assert out.lines[1:] == unit.lines
        assert all(new is old for new, old in zip(out.lines[1:], unit.lines))


# ROADMAP 4(c): no pass raises on arbitrary latin-1 input, whatever extension
# syntax is mixed into it
LATIN1 = st.characters(max_codepoint=0xFF, blacklist_characters="\n")
EXT_FRAGMENTS = ["redundant_t int x;", "x = 1;", "a[k].b", "f.Cycle = 2;", "guard_t (s > 1) g;", "@ext:cyclic "]
latin1_lines = st.lists(st.one_of(st.text(LATIN1, max_size=12), st.sampled_from(EXT_FRAGMENTS)), max_size=6).map("".join)
PASS_CHOICES = [[name] for name in builtin_registry()] + [list(builtin_registry())]


@settings(max_examples=300, deadline=None)
@given(st.lists(latin1_lines, max_size=6).map("\n".join), st.sampled_from(PASS_CHOICES))
def test_no_pass_raises_on_latin1_input(text, names):
    out, report = run(compose(names), load_unit(text), strict=len(names) > 1)
    rendered = render(out)
    assert render(load_unit(rendered)) == rendered
    assert unit_from_raws([line.raw for line in out.lines]).lines == out.lines
