import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpm import cli
from cpm.cli import main
from cpm.pipeline import preamble_line

WDT_SOURCE = """extern redundant_t int watchdog;
cyclic_t int manage(TOM*);
manage.Cycle = 100;
watchdog = 1;
"""


def write_input(tmp_path, text=WDT_SOURCE, name="in.cpm"):
    path = tmp_path / name
    path.write_text(text, encoding="latin-1")
    return path


# imports cpm.cli, prints what it loaded of the run-time side, then checks
# that naming that side still loads it
_IMPORT_PROBE = """
import sys
import cpm.cli
print(sorted(m for m in sys.modules if m == "cpm.interp" or m.startswith(("cpm.runtime", "cpm.scenarios"))))
from cpm import runtime, interp, scenarios
star = {}
exec("from cpm import *", star)
assert (star["runtime"], star["interp"], star["scenarios"]) == (runtime, interp, scenarios)
"""


def test_the_cpm_command_loads_no_runtime_interpreter_or_scenario():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def test_list_extensions(capsys):
    assert main(["--list-extensions"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "cpm://redundancy/1.1",
        "cpm://refractive/0.5",
        "cpm://array/0.5",
        "cpm://cyclic/1.0",
    ]


def test_transform_with_ordered_extensions(tmp_path):
    src = write_input(tmp_path)
    out = tmp_path / "out.c"
    report = tmp_path / "report.txt"
    rc = main([
        "--ext", "redundancy", "--ext", "refractive", "--ext", "array",
        str(src), "-o", str(out), "--emit-report", str(report),
    ])
    assert rc == 0
    text = out.read_text(encoding="latin-1")
    assert text.splitlines()[0] == preamble_line(
        "cpm://redundancy/1.1;cpm://refractive/0.5;cpm://array/0.5"
    )
    assert "cpm_red_extern(watchdog, int);" in text
    report_lines = report.read_text().splitlines()
    assert report_lines[0] == (
        "extensions_pipeline=cpm://redundancy/1.1;cpm://refractive/0.5;cpm://array/0.5"
    )
    assert report_lines[1:4] == [
        "applied=cpm://redundancy/1.1",
        "applied=cpm://refractive/0.5",
        "applied=cpm://array/0.5",
    ]


def test_versioned_extension_requests(tmp_path):
    src = write_input(tmp_path)
    out = tmp_path / "out.c"
    assert main(["--ext", "redundancy@1.1", str(src), "-o", str(out)]) == 0
    assert main(["--ext", "redundancy@2.0", str(src), "-o", str(out)]) == 1


def test_unknown_extension_exits_one_and_names_registered(tmp_path, capsys):
    src = write_input(tmp_path)
    rc = main(["--ext", "nosuch", str(src), "-o", str(tmp_path / "x.c")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "nosuch" in err and "redundancy" in err and "cyclic" in err


def test_missing_input_exits_one_without_output(tmp_path):
    out = tmp_path / "never.c"
    rc = main(["--ext", "redundancy", str(tmp_path / "missing.cpm"), "-o", str(out)])
    assert rc == 1
    assert not out.exists()


def test_default_output_path_swaps_suffix(tmp_path):
    src = write_input(tmp_path, name="prog.cpm")
    assert main(["--ext", "cyclic", str(src)]) == 0
    assert (tmp_path / "prog.c").exists()


def test_refuses_to_overwrite_input(tmp_path):
    src = write_input(tmp_path, name="prog.c")
    assert main(["--ext", "cyclic", str(src)]) == 1


@pytest.mark.parametrize("spelling", ["same", "absolute", "parent"])
def test_refuses_to_overwrite_input_however_o_spells_it(tmp_path, monkeypatch, capsys, spelling):
    src = write_input(tmp_path)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    output = {"same": "../in.cpm", "absolute": str(src.resolve()), "parent": f"../../{tmp_path.name}/in.cpm"}[spelling]
    assert main(["--ext", "cyclic", "../in.cpm", "-o", output]) == 1
    assert src.read_text(encoding="latin-1") == WDT_SOURCE
    assert capsys.readouterr().err == f"cpm: error: output path {output} would overwrite the input\n"


def test_a_refused_overwrite_transforms_nothing(tmp_path, monkeypatch):
    src = write_input(tmp_path, name="prog.c")
    runs = []
    real = cli.run
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
    assert main(["--ext", "cyclic", str(src)]) == 1
    assert runs == []
    assert main(["--ext", "cyclic", str(src), "-o", str(tmp_path / "out.c")]) == 0
    assert len(runs) == 1


@pytest.mark.parametrize("spell", [lambda name: f"./{name}", lambda name: str(Path.cwd() / name)], ids=["relative", "absolute"])
@pytest.mark.parametrize(
    "flag, target",
    [("-o", "in.cpm"), ("-o", "ext.ini"), ("--emit-report", "in.cpm"), ("--emit-report", "ext.ini"), ("--emit-report", "out.c")],
)
def test_no_output_overwrites_an_input_or_the_other_output(tmp_path, monkeypatch, capsys, spell, flag, target):
    monkeypatch.chdir(tmp_path)
    write_input(tmp_path)
    (tmp_path / "ext.ini").write_text("[redundancy]\nreplicas = 5\n")
    path = spell(target)
    outputs = {"-o": "out.c", "--emit-report": "report.txt", flag: path}
    argv = ["in.cpm", "--ext", "array", "--config", "ext.ini", "-o", outputs["-o"], "--emit-report", outputs["--emit-report"]]
    assert main(argv) == 1
    kind = "output" if flag == "-o" else "report"
    what = {"in.cpm": "the input", "ext.ini": "the config", "out.c": "the output"}[target]
    assert capsys.readouterr().err == f"cpm: error: {kind} path {path} would overwrite {what}\n"
    assert (tmp_path / "in.cpm").read_text(encoding="latin-1") == WDT_SOURCE
    assert (tmp_path / "ext.ini").read_text() == "[redundancy]\nreplicas = 5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ext.ini", "in.cpm"]


def test_runs_are_byte_identical(tmp_path):
    src = write_input(tmp_path)
    a, b = tmp_path / "a.c", tmp_path / "b.c"
    flags = ["--ext", "redundancy", "--ext", "cyclic", str(src)]
    assert main(flags + ["-o", str(a)]) == 0
    assert main(flags + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_extension_output_is_input_plus_preamble(tmp_path):
    body = "int plain = 1;\n"
    src = write_input(tmp_path, text=body)
    out = tmp_path / "out.c"
    assert main([str(src), "-o", str(out)]) == 0
    assert out.read_text(encoding="latin-1") == preamble_line("") + "\n" + body


def test_config_file_feeds_passes(tmp_path):
    src = write_input(tmp_path, text="redundant_t int x;\n")
    ini = tmp_path / "ext.ini"
    ini.write_text("[redundancy]\nreplicas = 5\n")
    out = tmp_path / "out.c"
    assert main(["--ext", "redundancy", "--config", str(ini), str(src), "-o", str(out)]) == 0
    assert "cpm_red_storage(x, int, 5);" in out.read_text(encoding="latin-1")


def readme_config():
    """The example INI file of README's configuration section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Configuration") :]
    start = section.index("```ini\n") + len("```ini\n")
    return section[start : section.index("```", start)]


def transform_with_config(tmp_path, ini_text, source, *args):
    src = write_input(tmp_path, text=source)
    ini = tmp_path / "ext.ini"
    ini.write_text(ini_text)
    out = tmp_path / "out.c"
    rc = main([*args, "--config", str(ini), str(src), "-o", str(out)])
    return rc, out.read_text(encoding="latin-1") if out.exists() else None


def test_readme_config_example_feeds_passes(tmp_path):
    assert "replicas = 3          ; odd, >= 3" in readme_config()
    rc, text = transform_with_config(tmp_path, readme_config(), "redundant_t int x;\n", "--ext", "redundancy")
    assert rc == 0
    assert "cpm_red_storage(x, int, 3);" in text


def test_non_integer_replicas_warns_and_uses_the_default(tmp_path, capsys):
    rc, text = transform_with_config(tmp_path, "[redundancy]\nreplicas = three\n", "redundant_t int x;\n", "--ext", "redundancy")
    assert rc == 0
    assert "redundancy.replicas='three' is not an integer; using 3" in capsys.readouterr().err
    assert "cpm_red_storage(x, int, 3);" in text


def test_inline_comment_after_a_config_value_is_not_part_of_it(tmp_path):
    ini = "[array]\narrays = beacons, rates   ; two arrays\nbeacons = beacons:int\nrates = rate:int\n"
    rc, text = transform_with_config(tmp_path, ini, "x = rates[m].rate;\n", "--ext", "array", "--strict-tags")
    assert rc == 0
    assert text.endswith("\nx = cpm_arr_get(rates, (m), rate);\n")


def test_warnings_do_not_change_exit_status(tmp_path, capsys):
    src = write_input(tmp_path, text="redundant_t int x;\np = &x;\n")
    out = tmp_path / "out.c"
    rc = main(["--ext", "redundancy", str(src), "-o", str(out), "--emit-report", str(tmp_path / "r.txt")])
    assert rc == 0
    assert "address" in capsys.readouterr().err
    report = (tmp_path / "r.txt").read_text()
    assert "diagnostic=warning" in report


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_strict_tags_flag(tmp_path, capsys, strict):
    src = write_input(tmp_path, text="cyclic_t int f(void);\n")
    out = tmp_path / "out.c"
    rc = main(["--ext", "redundancy", *["--strict-tags"] * strict, str(src), "-o", str(out)])
    assert rc == 0
    assert ("cyclic_t" in capsys.readouterr().err) == strict


def test_latin1_bytes_survive(tmp_path):
    body = "/* caf\xe9 */\nint x;\n"
    src = write_input(tmp_path, text=body)
    out = tmp_path / "out.c"
    assert main([str(src), "-o", str(out)]) == 0
    assert out.read_text(encoding="latin-1").endswith(body)
