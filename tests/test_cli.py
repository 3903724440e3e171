"""End-to-end command-line behavior: output shapes and exit codes."""

from __future__ import annotations

import json

import pytest

from ctlab import cfg, ir
from ctlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_analyze_clean_exits_zero(capsys):
    code, out, err = run(capsys, "analyze", "fig1c_ctselect",
                         "--preset", "baseline-off")
    assert code == 0
    assert "constant-time: no divergence found" in out
    assert err == ""


def test_a_global_that_does_not_fit_exits_one(capsys, monkeypatch):
    # Only a program built in Python can hold one: the parser wraps
    # initializers to the element width.
    from ctlab import cli
    from ctlab.ir import GlobalArray, parse_ir
    prog = parse_ir("func f(secret s: u8) {\nbb0:\n  v = load g, 0\n"
                    "  ret v\n}\nglobal g: arr<u8,1> = zeros")
    prog.globals["g"] = GlobalArray("g", 8, 1, (256,))
    monkeypatch.setattr(cli, "load_program", lambda name: prog)
    code, out, err = run(capsys, "analyze", "built", "--preset",
                         "baseline-off")
    assert code == 1 and out == ""
    assert "global g: element 0 is 256, which does not fit u8" in err
    assert "Traceback" not in err


def test_analyze_leak_exits_two(capsys):
    code, out, _ = run(capsys, "analyze", "fig1a_branch",
                       "--preset", "baseline-off")
    assert code == 2
    assert "NOT constant-time" in out
    assert "fig1a.c:3" in out


def test_analyze_json_schema(capsys):
    code, out, _ = run(capsys, "analyze", "fig1b_load",
                       "--preset", "baseline-off", "--json",
                       "--inputs", "8", "--seed", "3")
    assert code == 2
    doc = json.loads(out)
    assert set(doc) == {"program", "preset", "seed", "inputs", "findings",
                        "counts"}
    assert doc["program"] == "fig1b_load"
    assert doc["preset"] == "baseline-off"
    assert doc["seed"] == 3 and doc["inputs"] == 8
    assert set(doc["counts"]) == {"instructions", "lines"}
    for f in doc["findings"]:
        assert set(f) == {"instr", "kind", "file", "line"}
    assert doc["counts"]["instructions"] == len(
        {f["instr"] for f in doc["findings"]})


def test_analyze_accepts_ir_paths(tmp_path, capsys):
    from ctlab.corpus import get
    p = tmp_path / "x.ir"
    p.write_text(get("fig1c_ctselect").source, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(p), "--preset", "baseline-off")
    assert code == 0


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "fig1a_branch", "--preset",
                       "baseline-off", "--json", "--out", str(target))
    assert code == 2
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["program"] == "fig1a_branch"


def test_matrix_canonical_rows(capsys):
    code, out, _ = run(capsys, "matrix", "ecdsa_bearssl_lookup", "--json",
                       "--preset", "llvm18-O3")
    assert code == 2
    doc = json.loads(out)
    assert doc["vary"] == ["loop_unswitch", "loop_unroll", "loop_vectorize",
                           "cmov_conversion"]
    assert len(doc["rows"]) == 7
    assert [r["clean"] for r in doc["rows"]] == [
        False, True, False, False, True, True, True]
    first = doc["rows"][0]["toggles"]
    assert all(first.values())               # row 1 is everything-on


def test_matrix_custom_vary_uses_product(capsys):
    code, out, _ = run(capsys, "matrix", "fig1c_ctselect", "--json",
                       "--preset", "llvm18-O3", "--vary",
                       "instcombine,loop_unswitch")
    doc = json.loads(out)
    assert doc["vary"] == ["instcombine", "loop_unswitch"]
    assert len(doc["rows"]) == 4
    combos = {(r["toggles"]["instcombine"], r["toggles"]["loop_unswitch"])
              for r in doc["rows"]}
    assert len(combos) == 4


def test_matrix_rejects_a_repeated_vary_name(capsys):
    for vary in ("loop_unroll,loop_unroll",
                 "instcombine,loop_unswitch,loop_unroll,loop_vectorize,"
                 "loop_unroll"):
        code, out, err = run(capsys, "matrix", "fig1a_branch", "--vary", vary)
        assert code == 1, vary
        assert out == ""
        assert "'loop_unroll' more than once" in err


def test_matrix_text_table(capsys):
    code, out, _ = run(capsys, "matrix", "fig1a_branch",
                       "--preset", "baseline-off", "--vary", "instcombine")
    assert code == 2
    lines = out.rstrip("\n").split("\n")
    assert lines[0].split() == ["instcombine", "ct", "instrs", "lines"]
    assert len(lines) == 3                    # header + on + off
    assert all("NO" in l for l in lines[1:])


def test_diff_reports_change(capsys):
    code, out, _ = run(capsys, "diff", "loop_unswitch_toy",
                       "baseline-off", "gcc13-O3")
    assert code == 2
    assert "▲" in out
    code2, out2, _ = run(capsys, "diff", "loop_unswitch_toy",
                         "baseline-off", "gcc13-O3-mitig")
    assert code2 == 0
    assert "no change" in out2


def test_diff_json(capsys):
    code, out, _ = run(capsys, "diff", "loop_unswitch_toy",
                       "baseline-off", "gcc13-O3", "--json")
    doc = json.loads(out)
    assert set(doc) == {"program", "from", "to", "added_lines",
                        "removed_lines", "unchanged_lines"}
    assert doc["added_lines"] == ["unsw.c:6"]
    assert doc["removed_lines"] == []


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 10
    assert lines[0].startswith("fig1a_branch")
    assert "not-ct" in lines[0]
    assert any("rsa_bearssl_lookup" in l for l in lines)


def test_flags_output(capsys):
    code, out, _ = run(capsys, "flags", "--compiler", "gcc")
    assert code == 0
    assert out.strip() == "-fno-unswitch-loops -fno-thread-jumps -fno-split-paths"
    code, out, _ = run(capsys, "flags", "--compiler", "llvm", "--json",
                       "--keep-vectorize")
    assert json.loads(out) == [
        "-mllvm", "--x86-cmov-converter=false",
        "-mllvm", "--disable-cgp-select2branch=true",
        "-mllvm", "--unswitch-threshold=1",
    ]
    code, out, _ = run(capsys, "flags", "--compiler", "llvm", "--no-mitig")
    assert code == 0 and out.strip() == ""


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "analyze")[0] == 1              # missing program
    assert run(capsys, "frobnicate")[0] == 1           # unknown subcommand
    assert run(capsys, "flags")[0] == 1                # missing --compiler
    code, _, err = run(capsys, "analyze", "missing_entry")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "analyze", "fig1a_branch",
                       "--preset", "nope")
    assert code == 1 and "unknown preset" in err
    code, _, err = run(capsys, "matrix", "fig1a_branch", "--vary", " , ")
    assert (code, err) == (1, "error: --vary needs at least one toggle name\n")


def test_too_few_inputs_is_a_usage_error_naming_the_flag(capsys):
    for cmd in (["analyze", "fig1a_branch"], ["matrix", "fig1a_branch"],
                ["diff", "fig1a_branch", "baseline-off", "gcc13-O3"]):
        for n in ("1", "0", "-3", "x"):
            code, out, err = run(capsys, *cmd, "--inputs", n)
            assert code == 1, (cmd, n)
            assert out == ""
            assert "--inputs" in err, (cmd, n)
    assert run(capsys, "analyze", "fig1a_branch", "--inputs", "2")[0] == 2


def test_malformed_ir_is_blamed_on_the_input(tmp_path, capsys):
    from ctlab.corpus import get
    from ctlab.mitigations import PRESETS
    src = get("fig1a_branch").source
    second = src.index("br bbJ", src.index("br bbJ") + 1)
    p = tmp_path / "bad.ir"
    p.write_text(src[:second] + "br bbX" + src[second + len("br bbJ"):],
                 encoding="utf-8")
    for name in PRESETS:
        code, _, err = run(capsys, "analyze", str(p), "--preset", name)
        assert code == 1, name
        assert "bbX" in err, name
        assert "broke the program" not in err, name


def test_an_empty_operand_exits_one(tmp_path, capsys):
    p = tmp_path / "empty.ir"
    p.write_text("func f(secret k: u8) {\nbb0:\n  a = add k, , 1\n"
                 "  ret a\n}\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(p))
    assert (code, out, err) == (1, "", "error: line 3: empty operand\n")


@pytest.mark.parametrize("params, table, message", [
    ("secret k: u8", "[1, , 2, 3]", "line 5: empty initializer element"),
    ("secret k: u8", "[1, 2, 3,]", "line 5: empty initializer element"),
    ("secret k: arr<u0,4>", "[1, 2, 3]", "line 1: bad element width u0"),
    ("public k: u8 = 1", "[1, 2, 3]", "f has no secret parameters"),
])
def test_a_malformed_declaration_exits_one(tmp_path, capsys, params, table,
                                           message):
    # Read as written, the table would silently be another one, and the
    # array parameter would end in an unlocated error from the tracer.
    p = tmp_path / "bad.ir"
    p.write_text(f"func f({params}) {{\nbb0:\n  ret 0\n}}\n"
                 f"global g: arr<u32,3> = {table}\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(p))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_second_function_is_a_located_error(tmp_path, capsys,
                                              monkeypatch):
    from ctlab import analysis
    from ctlab.corpus import get
    src = get("fig1a_branch").source
    monkeypatch.setattr(analysis, "run_pipeline", None)   # no pass may run
    p = tmp_path / "two.ir"
    p.write_text(src + "func g(secret s: u8) {\nbb0:\n  ret s\n}\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(p))
    line = src.count("\n") + 1
    assert (code, out) == (1, "")
    assert err == f"error: line {line}: second func 'g': a program is " \
        "one function\n"


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "analyze", "--help")[0] == 0


def _phi_chain(n=1200):
    """p_i = phi [b_{i-1}: p_{i-1}], blocks written last first."""
    lines = ["func phis(secret s: u32) {", "bb0:", "  br b1"]
    for i in range(n, 0, -1):
        arm = "[bb0: s]" if i == 1 else f"[b{i - 1}: p{i - 1}]"
        lines += [f"b{i}:", f"  p{i} = phi {arm}",
                  f"  ret p{i}" if i == n else f"  br b{i + 1}"]
    return "\n".join(lines + ["}"])


def _and_chain(n=1500):
    """x_i = and x_{i-1}, 65535, then an identity `and` over the last."""
    lines = ["func ands(secret s: u32) {", "bb0:", "  x0 = and s, 65535"]
    lines += [f"  x{i} = and x{i - 1}, 65535" for i in range(1, n)]
    lines += [f"  y = and x{n - 1}, 4294967295", "  ret y", "}"]
    return "\n".join(lines)


def _bound_chain(n=1500):
    """A counted loop whose bound is the end of a chain of adds."""
    lines = ["func bound(secret s: u1, public a: u32 = 5) {", "bb0:",
             "  b0 = const 2"]
    lines += [f"  b{i} = add b{i - 1}, 1" for i in range(1, n)]
    lines += ["  br h", "h:", "  i = phi [bb0: 0], [body: inext]",
              f"  c = icmp.lt i, b{n - 1}", "  condbr c, body, done",
              "body:", "  v = select s, a, 0", "  store g, 0, v",
              "  inext = add i, 1", "  br h", "done:", "  ret 0", "}", "",
              "global g: arr<u32,1> = zeros"]
    return "\n".join(lines)


@pytest.mark.parametrize("build", [_phi_chain, _and_chain, _bound_chain])
def test_long_def_chains_end_without_a_traceback(build, tmp_path, capsys):
    # Phi types in validate, value_bits through `and`, and loop bounds
    # each settle a chain of definitions with ir.settle's worklist, which
    # needs no Python frame per link; recursion would exceed the
    # interpreter's limit on these.
    from ctlab.mitigations import PRESETS
    p = tmp_path / "chain.ir"
    p.write_text(build() + "\n", encoding="utf-8")
    for name in PRESETS:
        code, _, err = run(capsys, "analyze", str(p), "--preset", name)
        assert code in (0, 2), (name, err)
        assert "Traceback" not in err, name


def _validate(prog, n):
    assert ir.validate(prog) == []      # a parsed program is always walked


def _widest(prog, n):
    f = prog.function()
    assert ir.value_bits(f, "y", f.defs()) == 16


def _loop_bound(prog, n):
    f = prog.function()
    info = cfg.counted_loop_info(f, cfg.natural_loops(f)[0], f.defs())
    assert info.bound == 2 + (n - 1)


@pytest.mark.parametrize("n", [300, 1200])
@pytest.mark.parametrize("build, measure", [
    (_phi_chain, _validate), (_and_chain, _widest),
    (_bound_chain, _loop_bound)], ids=["phi", "and", "bound"])
def test_def_chains_settle_in_linear_work(build, measure, n, monkeypatch):
    # Counting rule calls, not time: each analysis of a chain of n links
    # may evaluate each link's rule a bounded number of times.
    prog = ir.parse_ir(build(n))
    calls = 0
    real = ir.settle

    def counting(roots, inputs, rule, bottom):
        def counted(v, value):
            nonlocal calls
            calls += 1
            return rule(v, value)
        return real(roots, inputs, counted, bottom)

    monkeypatch.setattr(ir, "settle", counting)
    monkeypatch.setattr(cfg, "settle", counting)  # imported by name there
    measure(prog, n)
    assert n <= calls <= 3 * n
