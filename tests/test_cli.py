import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtrace import cli, recon, signature, trace
from memtrace.cli import main
from memtrace.guest import ModelOp, ModelParseError, parse_model, serialize_model
from memtrace.signature import write_signature
from memtrace.trace import AddressPattern, parse_trace

from helpers import (counting_columns, make_model, pathological_pair,
                     reference_parse_trace)

DATA = Path(__file__).parent / "data"


def write_model(tmp_path, ops, name="model.jsonl", **kwargs):
    path = tmp_path / name
    path.write_bytes(serialize_model(make_model(ops, **kwargs)))
    return str(path)


def basic_ops():
    return [
        ModelOp("alloc", callee="malloc", size=0x40),
        ModelOp("mov-write", addr=0x9000, size=4, value=7),
        ModelOp("mov-write", addr=0x9008, size=8, value=0x9000),
        ModelOp("call", callee="VirtualAlloc", args=[0x100, 0, 0, 0]),
    ]


def write_sig(tmp_path, offsets, name):
    path = tmp_path / name
    path.write_bytes(write_signature(AddressPattern(offsets=tuple(offsets),
                                                    base=0)))
    return str(path)


class TestSimulate:
    def test_writes_parsable_trace(self, tmp_path, capsys):
        model = write_model(tmp_path, basic_ops())
        out = str(tmp_path / "trace.jsonl")
        assert main(["simulate", model, "--out", out]) == 0
        log = parse_trace(open(out, "rb").read())
        assert len(log.events) > 0
        assert "events" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path, capsys):
        model = write_model(tmp_path, basic_ops())
        out1 = str(tmp_path / "a.jsonl")
        out2 = str(tmp_path / "b.jsonl")
        main(["simulate", model, "--out", out1])
        main(["simulate", model, "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_missing_model_is_exit_2(self, tmp_path, capsys):
        assert main(["simulate", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_model_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"garbage\n")
        assert main(["simulate", str(path)]) == 2

    @pytest.mark.parametrize("size", ["true", "2.9"])
    def test_non_integer_operand_size_is_exit_2(self, tmp_path, capsys, size):
        data = ('{"entry_page": 1025, "sp_init": "0x7ff000"}\n'
                '{"op": "mov-read", "addr": "0x3000", "size": %s}\n' % size)
        with pytest.raises(ModelParseError, match="line 2"):
            parse_model(data)
        path = tmp_path / "model.jsonl"
        path.write_text(data)
        assert main(["simulate", str(path)]) == 2

    def test_noncanonical_address_is_exit_2(self, capsys):
        """A write to a mapped page past 2**48, or one whose last bytes
        lie past it, is refused by the interpreter, after demand paging
        and before it is logged."""
        for name, address in (("noncanonical.model", "0x1000000000008"),
                              ("straddling.model", "0xfffffffffffc")):
            err = assert_exit_2(capsys, ["simulate", str(DATA / name)])
            assert err == (f"error: op 1: address {address} (size 8) "
                           "outside 48-bit canonical range\n")


class TestReconstruct:
    def _trace(self, tmp_path):
        model = write_model(tmp_path, basic_ops())
        out = str(tmp_path / "trace.jsonl")
        main(["simulate", model, "--out", out])
        return out

    def test_report_fields(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path)
        out = str(tmp_path / "report.json")
        code = main(["reconstruct", trace_path, "--base", "0x9000",
                     "--size", "16", "--out", out])
        assert code == 0
        report = json.loads(open(out).read())
        assert report["base"] == "0x9000"
        assert report["total_size"] == 16
        shapes = [(f["offset"], f["size"]) for f in report["fields"]]
        assert shapes == [(0, 4), (4, 4), (8, 8)]
        assert report["c_decl"].startswith("struct")

    def test_base_must_be_hex(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path)
        assert main(["reconstruct", trace_path, "--base", "9000"]) == 2

    def test_base_prefix_is_lower_case_0x(self, tmp_path, capsys):
        """--base is read as every address in a trace is: "0X" is refused."""
        trace_path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["reconstruct", trace_path, "--base", "0X9000"]) == 2
        assert capsys.readouterr().err == (
            "error: address '0X9000' is not a 0x-prefixed hex string\n")

    def test_base_required(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path)
        assert main(["reconstruct", trace_path]) == 2

    def test_negative_size_is_exit_2(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path)
        assert main(["reconstruct", trace_path, "--base", "0x9000",
                     "--size", "-8"]) == 2
        assert "negative" in capsys.readouterr().err

    def test_empty_window_warns(self, tmp_path, capsys):
        trace_path = self._trace(tmp_path)
        out = str(tmp_path / "r.json")
        code = main(["reconstruct", trace_path, "--base", "0xdead0000",
                     "--out", out])
        assert code == 0
        assert "no accesses" in capsys.readouterr().err


class TestMatchAndDiff:
    def test_self_match_exit_0(self, tmp_path, capsys):
        sig = write_sig(tmp_path, [0, 8, 16, 24], "a.json")
        assert main(["match", sig, sig]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == "match"
        assert record["ratio"] == 1.0
        assert record["L"] == 4

    def test_disjoint_tau_zero_exit_1(self, tmp_path, capsys):
        a = write_sig(tmp_path, [0, 8, 16], "a.json")
        b = write_sig(tmp_path, [5000, 6000, 7000], "b.json")
        assert main(["match", a, b, "--tau", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "no-match"

    def test_tau_flag_changes_verdict(self, tmp_path, capsys):
        a = write_sig(tmp_path, [0, 8, 16], "a.json")
        b = write_sig(tmp_path, [50, 58, 66], "b.json")
        assert main(["match", a, b, "--tau", "0"]) == 1
        capsys.readouterr()
        assert main(["match", a, b, "--tau", "100"]) == 0

    @pytest.mark.parametrize("command", ["match", "diff"])
    def test_first_file_tau_applies_without_flag_or_env(
            self, tmp_path, capsys, command):
        """--tau > the first file's tau_default > 100."""
        paths = []
        for name, offsets in (("a.sig", [0, 8, 16]), ("b.sig", [50, 58, 66])):
            path = tmp_path / name
            path.write_bytes(write_signature(AddressPattern(offsets), tau=0))
            paths.append(str(path))
        assert main([command, *paths]) == 1
        capsys.readouterr()
        assert main([command, *paths, "--tau", "100"]) == 0

    def test_environment_sets_no_tau(self, tmp_path, capsysbinary,
                                     monkeypatch):
        """MEMTRACE_TAU changes no exit code and no byte of
        stdout of match, diff or sign, whatever it holds."""
        a = write_sig(tmp_path, [0, 8, 16], "a.json")
        b = write_sig(tmp_path, [50, 58, 66], "b.json")
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["simulate", write_model(tmp_path, basic_ops()),
                     "--out", trace_path]) == 0
        commands = [["match", a, b], ["diff", a, b], ["sign", trace_path]]

        def outcomes():
            capsysbinary.readouterr()
            return [(main(argv), capsysbinary.readouterr().out)
                    for argv in commands]

        monkeypatch.delenv("MEMTRACE_TAU", raising=False)
        unset = outcomes()
        assert [code for code, _ in unset] == [0, 0, 0]
        for value in ("0", "abc"):
            monkeypatch.setenv("MEMTRACE_TAU", value)
            assert outcomes() == unset

    def test_sign_tau_is_written(self, tmp_path, capsys):
        model = write_model(tmp_path, basic_ops())
        trace, sig = str(tmp_path / "t.jsonl"), str(tmp_path / "t.sig")
        assert main(["simulate", model, "--out", trace]) == 0
        assert main(["sign", trace, "--tau", "7", "--out", sig]) == 0
        with open(sig, "rb") as handle:
            assert signature.read_signature(handle.read())[1] == 7

    def test_sign_without_out_writes_the_signature_to_stdout(
            self, tmp_path, monkeypatch, capsys):
        """stdout holds the signature alone, so that it reads back, with
        no --out and with --out -; the count goes to stderr."""
        model = write_model(tmp_path, basic_ops())
        trace_path, sig = str(tmp_path / "t.jsonl"), str(tmp_path / "t.sig")
        assert main(["simulate", model, "--out", trace_path]) == 0
        assert main(["sign", trace_path, "--out", sig]) == 0
        with open(sig, "rb") as handle:
            written = handle.read()
        count = len(signature.read_signature(written)[0].offsets)
        capsys.readouterr()
        for out in ([], ["--out", "-"]):
            raw = io.BytesIO()
            stdout = io.TextIOWrapper(raw, encoding="utf-8")
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["sign", trace_path, *out]) == 0
            stdout.flush()
            assert raw.getvalue() == written
            assert capsys.readouterr().err == f"{count} offsets\n"

    def test_sign_drops_accesses_from_outside_the_module_range(
            self, tmp_path, capsys):
        # Ops run at 0x401000, 0x401004 and 0x401008; the model's module
        # range ends before the third.
        ops = [ModelOp("mov-write", addr=0x3000 + 8 * k, size=8, value=k)
               for k in range(3)]
        model = write_model(tmp_path, ops, module_range=(0x401000, 0x401008))
        trace_path, sig = str(tmp_path / "t.jsonl"), str(tmp_path / "t.sig")
        assert main(["simulate", model, "--out", trace_path]) == 0
        with open(trace_path, "rb") as handle:
            log = parse_trace(handle.read())
        assert log.module_range == (0x401000, 0x401008)
        assert [e.rip for e in log.events if e.kind == "write"] == [
            0x401000, 0x401004, 0x401008]
        assert main(["sign", trace_path, "--out", sig]) == 0
        with open(sig, "rb") as handle:
            pattern, _ = signature.read_signature(handle.read())
        assert pattern.offsets == (0, 8)

    def test_negative_tau_is_exit_2(self, tmp_path, capsys):
        sig = write_sig(tmp_path, [0, 8, 16, 24], "a.json")
        assert main(["match", sig, sig, "--tau", "-1"]) == 2
        assert capsys.readouterr().out == ""

    def test_one_full_size_dp_per_verdict(self, tmp_path, capsys,
                                          monkeypatch):
        sizes = []
        kernel = signature._sweep

        def counting_sweep(first, second, tau, collect=False):
            sizes.append((len(first), len(second)))
            return kernel(first, second, tau, collect)

        monkeypatch.setattr(signature, "_sweep", counting_sweep)
        a = write_sig(tmp_path, [0, 8, 16, 24, 32], "a.json")
        b = write_sig(tmp_path, [0, 8, 16, 24, 32, 40], "b.json")
        assert main(["match", a, b]) == 0
        assert sizes == [(5, 6)]
        p, q = pathological_pair(30)
        a = write_sig(tmp_path, p, "p.json")
        b = write_sig(tmp_path, q, "q.json")
        sizes.clear()
        assert main(["diff", a, b, "--threshold", "0"]) == 0
        assert sizes.count((30, 30)) == 1
        assert len(sizes) > 1

    def test_diff_localizes_insertion(self, tmp_path, capsys):
        a = write_sig(tmp_path, [0, 8, 16, 24, 32, 40], "a.json")
        b = write_sig(tmp_path, [0, 8, 16, 9000, 24, 32, 40], "b.json")
        assert main(["diff", a, b, "--tau", "0", "--threshold", "0.5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["unmatched"] == [[[3, 3], [3, 4]]]

    def test_diff_declines_dissimilar(self, tmp_path, capsys):
        a = write_sig(tmp_path, [0, 8, 16], "a.json")
        b = write_sig(tmp_path, [9000, 9500, 9900], "b.json")
        assert main(["diff", a, b, "--tau", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["declined"] is True


class TestBasesAndFlags:
    def test_bases_lists_allocation(self, tmp_path, capsys):
        model = write_model(tmp_path, basic_ops())
        trace_path = str(tmp_path / "t.jsonl")
        main(["simulate", model, "--out", trace_path])
        capsys.readouterr()
        assert main(["bases", trace_path]) == 0
        out = capsys.readouterr().out
        assert "0x9000" in out
        assert "heap-hook" in out

    def test_flags_detects_builtin_rule(self, tmp_path, capsys):
        ops = [
            ModelOp("call", callee="ConvertThreadToFiber", args=[0]),
            ModelOp("call", callee="VirtualAlloc", args=[0x1000]),
            ModelOp("call", callee="CreateFiber", args=[0]),
        ]
        model = write_model(tmp_path, ops)
        trace_path = str(tmp_path / "t.jsonl")
        main(["simulate", model, "--out", trace_path])
        capsys.readouterr()
        assert main(["flags", trace_path]) == 0
        assert "Fibers" in capsys.readouterr().out

    def test_flags_custom_rules_file(self, tmp_path, capsys):
        ops = [ModelOp("call", callee="Alpha", args=[1]),
               ModelOp("call", callee="Beta", args=[2])]
        model = write_model(tmp_path, ops)
        trace_path = str(tmp_path / "t.jsonl")
        main(["simulate", model, "--out", trace_path])
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(
            [{"name": "pair", "steps": ["Alpha", "Beta"]}]))
        capsys.readouterr()
        assert main(["flags", trace_path, "--rules", str(rules)]) == 0
        assert "pair" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_corrupt_trace_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"not a trace\n")
        assert main(["bases", str(path)]) == 2
        # A trace of one object per event, the format before columns.
        path.write_text(
            '{"module_range": {"lo": "0x401000", "hi": "0x402000"}}\n'
            '{"seq": 0, "tid": 0, "cpl": "u", "kind": "w", "addr": "0x9000",'
            ' "size": 8, "rip": "0x401000",'
            ' "instr": {"cat": "int-move", "sign": "n/a", "val": "0x1"}}\n')
        capsys.readouterr()
        for argv in (["bases"], ["sign"], ["flags"],
                     ["reconstruct", "--base", "0x9000"]):
            err = assert_exit_2(capsys, argv + [str(path)])
            assert err.count("\n") == 1
            assert err.startswith("error: line 1: ")
            assert "columns" in err

    def test_nine_column_trace_exit_2(self, tmp_path, capsys):
        """A trace whose call shapes hold their args, the format before
        the args column, fails at its header."""
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"module_range": {"lo": "0x401000", "hi": "0x402000"}, "columns":'
            ' ["seq", "tid", "cpl", "kind", "addr", "size", "rip", "instr",'
            ' "val"]}\n'
            '[0, 0, "u", "x", "0x401000", 1, "0x401000", {"cat": "api-call",'
            ' "sign": "n/a", "callee": "malloc", "args": [64, 0, 0, 0]},'
            ' "0x9000"]\n')
        for argv in (["bases"], ["sign"], ["flags"],
                     ["reconstruct", "--base", "0x9000"]):
            err = assert_exit_2(capsys, argv + [str(path)])
            assert err.count("\n") == 1
            assert err.startswith("error: line 1: columns must be ")

    @pytest.mark.parametrize("command, second", [
        ("match", "golden.sig"),
        ("diff", "golden-edit.sig"),
    ])
    def test_nan_threshold_exit_2(self, capsys, command, second):
        """Every ratio compares false with NaN, so match would say
        no-match (exit 1) and diff would never decline: a usage error."""
        argv = [command, str(DATA / "golden.sig"), str(DATA / second),
                "--threshold", "nan"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"memtrace {command}: error: argument --threshold: "
            "'nan' is not a number\n")

    @pytest.mark.parametrize("argv, code", [
        (["match", "golden.sig", "golden.sig", "--threshold", "inf"], 1),
        (["diff", "golden.sig", "golden.sig", "--threshold", "inf"], 1),
        (["match", "golden.sig", "golden-edit.sig", "--threshold", "-1"], 0),
        (["diff", "golden.sig", "golden-edit.sig", "--threshold", "-1"], 0),
    ])
    def test_infinite_and_negative_thresholds_are_numbers(self, capsys, argv,
                                                          code):
        """No ratio reaches inf, and every ratio reaches a negative one."""
        command, first, second, *rest = argv
        assert main([command, str(DATA / first), str(DATA / second),
                     *rest]) == code
        assert capsys.readouterr().err == ""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def assert_exit_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


class TestMalformedSignatureFiles:
    @pytest.mark.parametrize("command", ["match", "diff"])
    def test_list_valued_file_is_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "list.sig"
        path.write_text("[1, 2]")
        assert_exit_2(capsys, [command, str(path), str(path)])

    @pytest.mark.parametrize("record", [
        '{"base": "0x0", "offsets": [true, 2.9, 8]}',
        '{"base": "0x0", "offsets": [[1], 2, 8]}',
        '{"base": "0x0", "offsets": [0, 8], "tau_default": 1e400}',
        '{"base": "0x0", "offsets": [0, 8], "sizes": [4]}',
        '{"base": "0x0", "offsets": [0, 8], "tau_default": -1}',
        '{"base": "0x0"}',
        '{"offsets": [0, 8]}',
    ], ids=["bool-and-float-offsets", "nested-offset", "infinite-tau",
            "short-sizes", "negative-tau", "no-offsets", "no-base"])
    def test_bad_field_is_exit_2(self, tmp_path, capsys, record):
        path = tmp_path / "bad.sig"
        path.write_text(record)
        good = write_sig(tmp_path, [0, 8, 16], "good.sig")
        assert_exit_2(capsys, ["match", str(path), good])

    def test_offsets_object_is_exit_2(self, tmp_path, capsys):
        """An object is no list of offsets, though its keys would read as
        offsets."""
        path = tmp_path / "object.sig"
        path.write_text('{"base": "0x0", "offsets": {"0x0": 1, "0x8": 2}}')
        good = write_sig(tmp_path, [0, 8, 16], "good.sig")
        err = assert_exit_2(capsys, ["match", str(path), good])
        assert err == "error: offsets must be a list\n"

    def test_reader_returns_exact_integers(self):
        pattern, tau = signature.read_signature(
            b'{"base": "0x10", "offsets": [0, "0x8"], "sizes": [4, 8],'
            b' "tau_default": 7}')
        assert (pattern.offsets, pattern.sizes, pattern.base, tau) == (
            (0, 8), (4, 8), 0x10, 7)


class TestSimulationAndRulesErrors:
    def test_unmapped_model_access_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "model.jsonl"
        path.write_text('{"entry_page": 1025, "sp_init": "0x7ff000"}\n'
                        '{"op": "mov-read", "addr": "0x91e40000", "size": 4}\n')
        assert_exit_2(capsys, ["simulate", str(path)])

    @pytest.mark.parametrize("rules, message", [
        ({"a": 1}, "a rules file holds a JSON list of rules"),
        ([{"name": "r", "steps": 5}], "rule 'r': steps must be"),
        ([{"name": "r", "steps": []}], "rule 'r': steps must be"),
        ([{"steps": ["a"]}], "every rule is an object with a string name"),
        ([{"name": 5, "steps": ["a"]}],
         "every rule is an object with a string name"),
        (["a"], "every rule is an object with a string name"),
        ([{"name": "dead", "steps": [[]]}], "rule 'dead': steps must be"),
    ], ids=["object", "scalar-steps", "empty-steps", "no-name",
            "number-name", "string-entry", "empty-alternatives"])
    def test_malformed_rules_file_is_exit_2(self, tmp_path, capsys, rules,
                                            message):
        model = write_model(tmp_path, basic_ops())
        trace_path = str(tmp_path / "t.jsonl")
        main(["simulate", model, "--out", trace_path])
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules))
        capsys.readouterr()
        err = assert_exit_2(capsys, ["flags", trace_path, "--rules", str(path)])
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
    def test_rules_file_not_in_plain_utf8_is_exit_2(self, tmp_path, capsys,
                                                    encoding):
        """A rules file is UTF-8 with no BOM, though json.loads would take
        UTF-16, UTF-32 or a BOM from bytes."""
        path = tmp_path / "rules.json"
        path.write_text('[{"name": "r", "steps": ["a"]}]', encoding=encoding)
        assert_exit_2(capsys, ["flags", str(DATA / "golden.trace"),
                               "--rules", str(path)])


    @pytest.mark.parametrize("line", ["null", "5", "[]"])
    def test_non_object_op_line_is_exit_2(self, tmp_path, capsys, line):
        path = tmp_path / "model.jsonl"
        path.write_text('{"entry_page": 1025, "sp_init": "0x7ff000"}\n'
                        f"{line}\n")
        assert "line 2" in assert_exit_2(capsys, ["simulate", str(path)])

    @pytest.mark.parametrize("args", ['{"0x10": 0, "0x20": 1}', '"0x1"'],
                             ids=["object", "string"])
    def test_non_list_args_is_exit_2(self, tmp_path, capsys, args):
        path = tmp_path / "model.jsonl"
        path.write_text('{"entry_page": 1025, "sp_init": "0x7ff000"}\n'
                        '{"op": "call", "callee": "f", "args": ' + args + '}\n')
        err = assert_exit_2(capsys, ["simulate", str(path)])
        assert err == "error: line 2: args must be a list\n"

    @pytest.mark.parametrize("cat", ["sub-sp", "call"])
    def test_access_op_with_a_non_data_category_is_exit_2(
            self, tmp_path, capsys, cat):
        """Once simulated, the sub-sp write made `bases` report a 0x3e0-byte
        stack-pattern buffer, and the call write a call with no callee."""
        path = tmp_path / "model.jsonl"
        path.write_text('{"entry_page": 1025, "sp_init": "0x7ff000",'
                        ' "mapped": [["0x3000", "0x8000"]]}\n'
                        '{"op": "mov-write", "addr": "0x3000", "value": "0x400",'
                        f' "cat": "{cat}"}}\n')
        err = assert_exit_2(capsys, ["simulate", str(path)])
        assert err == (f"error: line 2: model op 'mov-write' cannot log "
                       f"category '{cat}'\n")

    def test_entry_present_string_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "model.jsonl"
        path.write_text('{"entry_page": 1025, "sp_init": "0x7ff000",'
                        ' "entry_present": "false"}\n{"op": "nop"}\n')
        err = assert_exit_2(capsys, ["simulate", str(path)])
        assert err == ("error: line 1: bad header: entry_present must be true"
                       " or false, not 'false'\n")


class TestLongValuesInErrors:
    """An error message repeats at most a short prefix of the value."""

    @pytest.mark.parametrize("field", [
        '"addr": "' + "z" * 100_000 + '"',
        '"args": ' + "[" * 980 + "]" * 980,
    ], ids=["long-addr", "nested-args"])
    def test_model_op_error_is_short(self, tmp_path, capsys, field):
        path = tmp_path / "model.jsonl"
        path.write_text('{"entry_page": 1025, "sp_init": "0x7ff000"}\n'
                        '{"op": "call", "callee": "f", ' + field + '}\n')
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)  # so the JSON reader takes it
        try:
            err = assert_exit_2(capsys, ["simulate", str(path)])
        finally:
            sys.setrecursionlimit(limit)
        assert err.count("\n") == 1
        assert len(err.encode()) < 300


DEEP = "[" * 100_000 + "]" * 100_000


class TestDeepNesting:
    """JSON nested far past the recursion limit is a parse error of the
    reader that hit it, never a RecursionError traceback."""

    def test_model(self, tmp_path, capsys):
        path = tmp_path / "deep.model"
        path.write_text('{"entry_page": 1025, "sp_init": "0x7ff000"}\n'
                        + DEEP + "\n")
        assert "line 2" in assert_exit_2(capsys, ["simulate", str(path)])

    def test_trace(self, tmp_path, capsys):
        path = tmp_path / "deep.trace"
        path.write_text(json.dumps({"module_range": {"lo": "0x0", "hi": "0x1000"},
                                    "columns": list(trace.COLUMNS)})
                        + "\n" + DEEP + "\n")
        assert "line 2" in assert_exit_2(capsys, ["bases", str(path)])

    def test_signature(self, tmp_path, capsys):
        path = tmp_path / "deep.sig"
        path.write_text(DEEP)
        assert_exit_2(capsys, ["match", str(path), str(path)])

    def test_rules(self, tmp_path, capsys):
        model = write_model(tmp_path, basic_ops())
        trace_path = str(tmp_path / "t.jsonl")
        main(["simulate", model, "--out", trace_path])
        path = tmp_path / "rules.json"
        path.write_text(DEEP)
        capsys.readouterr()
        assert_exit_2(capsys, ["flags", trace_path, "--rules", str(path)])


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    sig = write_sig(tmp_path, [0, 8, 16], "a.json")
    for argv in (["match", sig, sig], ["match", sig, sig, "--tau", "0"],
                 ["frobnicate"]):
        main(argv)
    assert len(built) == 1


def test_end_to_end_diff_localizes_one_change(tmp_path, capsys):
    common = [
        ModelOp("alloc", callee="malloc", size=0x100),
        ModelOp("mov-write", addr=0x9000, size=4, value=1),
        ModelOp("mov-write", addr=0x9008, size=8, value=2),
        ModelOp("mov-write", addr=0x9010, size=4, value=3),
        ModelOp("mov-write", addr=0x9018, size=8, value=4),
    ]
    changed = list(common)
    changed.insert(3, ModelOp("mov-write", addr=0x9080, size=4, value=9))
    a_model = write_model(tmp_path, common, name="a.jsonl")
    b_model = write_model(tmp_path, changed, name="b.jsonl")
    a_trace = str(tmp_path / "a_trace.jsonl")
    b_trace = str(tmp_path / "b_trace.jsonl")
    main(["simulate", a_model, "--out", a_trace])
    main(["simulate", b_model, "--out", b_trace])
    a_sig = str(tmp_path / "a_sig.json")
    b_sig = str(tmp_path / "b_sig.json")
    main(["sign", a_trace, "--out", a_sig])
    main(["sign", b_trace, "--out", b_sig])
    capsys.readouterr()
    assert main(["diff", a_sig, b_sig, "--tau", "0", "--threshold", "0.5"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(record["unmatched"]) == 1
    (lo_a, hi_a), (lo_b, hi_b) = record["unmatched"][0]
    assert (hi_a - lo_a, hi_b - lo_b) == (0, 1)


# -- flags against recover_calls ------------------------------------------

RULE_STEPS = sorted({name for _, steps in recon.EVASIVE_SEQUENCES
                     for step in steps
                     for name in ([step] if isinstance(step, str) else step)})
FLAG_CALLEES = RULE_STEPS + ["memcpy", "Sleep"]
# (kind, category) of the events a flags trace holds besides its calls.
NOISE_EVENTS = [("write", "int-move"), ("read", "int-move"),
                ("write", "push"), ("write", "syscall")]
FLAG_EVENTS = st.tuples(
    st.sampled_from(["call", "api-call", "noise"]),
    st.integers(0, 2),  # thread
    st.integers(0, len(FLAG_CALLEES) - 1),
    st.integers(0, len(NOISE_EVENTS) - 1),
)
RULES_FILES = st.lists(
    st.tuples(st.sampled_from(["one", "two", "three"]),
              st.lists(st.one_of(st.sampled_from(FLAG_CALLEES),
                                 st.lists(st.sampled_from(FLAG_CALLEES),
                                          min_size=1, max_size=3)),
                       min_size=1, max_size=4)),
    max_size=3)


def _flags_trace(specs, planted) -> bytes:
    """A trace of up to three interleaved threads: calls, api-calls and
    other events, with each planted (rule, thread, picks) rule's steps
    called in order in that thread, among the other events."""
    events = [(kind, tid, FLAG_CALLEES[callee], NOISE_EVENTS[noise])
              for kind, tid, callee, noise in specs]
    for rule, tid, picks in planted:
        _, steps = recon.EVASIVE_SEQUENCES[rule]
        at = 0
        for step, pick in zip(steps, picks):
            callee = step if isinstance(step, str) else step[pick % len(step)]
            at = min(len(events), at + pick)
            events.insert(at, ("call" if pick % 2 else "api-call", tid,
                               callee, None))
            at += 1
    log = []
    for seq, (kind, tid, callee, noise) in enumerate(events):
        if kind == "noise":
            access, category = noise
            instr = trace.InstrDescriptor(
                category=category,
                callee_id=callee if category == "syscall" else None)
            log.append(trace.AccessEvent(seq, tid, "user", access, 0x7FEF00,
                                         8, instr, 0x401000, seq))
        else:
            instr = trace.InstrDescriptor(category=kind, callee_id=callee)
            call = kind == "call"
            log.append(trace.AccessEvent(
                seq, tid, "user", "write" if call else "execute",
                0x7FEFF8 if call else 0x401000, 8 if call else 1, instr,
                0x401000, 0x401004, (seq, 0x9000, 0, 0)))
    return trace.serialize_trace(trace.TraceLog(
        events=tuple(log), module_range=(0x401000, 0x402000)))


def _expected_flags(data: bytes, rules) -> str:
    hits = recon.flag_call_sequences(recon.recover_calls(parse_trace(data)),
                                     rules)
    return "".join(f"{hit.rule} tid={hit.thread_id} first={hit.first_seq} "
                   f"last={hit.last_seq}\n" for hit in hits)


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(FLAG_EVENTS, max_size=40),
       planted=st.lists(st.tuples(
           st.integers(0, len(recon.EVASIVE_SEQUENCES) - 1), st.integers(0, 2),
           st.lists(st.integers(0, 5), min_size=4, max_size=4)), max_size=3),
       rules=RULES_FILES)
def test_flags_prints_the_hits_of_recover_calls(tmp_path_factory, specs,
                                                planted, rules):
    """flags reads only the names of the calls, and prints what
    flag_call_sequences makes of recover_calls' records, under the
    built-in rules and under a rules file."""
    root = tmp_path_factory.mktemp("flags")
    data = _flags_trace(specs, planted)
    trace_path = root / "t.trace"
    trace_path.write_bytes(data)
    rules_path = root / "rules.json"
    rules_path.write_text(json.dumps([{"name": name, "steps": steps}
                                      for name, steps in rules]))
    for argv, want in (
            ([], _expected_flags(data, recon.EVASIVE_SEQUENCES)),
            (["--rules", str(rules_path)],
             _expected_flags(data, cli._load_rules(str(rules_path))))):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["flags", str(trace_path)] + argv) == 0
        assert out.getvalue() == want
        assert err.getvalue() == ""


def test_planted_sequences_are_flagged(tmp_path, capsys):
    """The generator plants hits: one per planted rule here."""
    data = _flags_trace([("noise", 0, 0, 0)] * 5,
                        [(1, 2, [0, 1, 2, 3]), (6, 0, [1, 0, 1, 0])])
    path = tmp_path / "t.trace"
    path.write_bytes(data)
    assert main(["flags", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == _expected_flags(data, recon.EVASIVE_SEQUENCES)
    assert [line.split(" tid=")[0] for line in out.splitlines()] == [
        "Process Injection", "Map View of Section"]


def test_flags_reads_the_trace_once(tmp_path, capsys, monkeypatch):
    """flags reads the seq, thread and instr columns once and no other
    column: no frames, pages or pointer flags, only the names of the
    calls."""
    ops = [ModelOp("call", callee="ConvertThreadToFiber", args=[0]),
           ModelOp("alloc", callee="VirtualAlloc", size=0x1000),
           ModelOp("push", value=1), ModelOp("call", callee="CreateFiber")]
    trace_path = str(tmp_path / "t.trace")
    main(["simulate", write_model(tmp_path, ops * 10), "--out", trace_path])
    capsys.readouterr()
    logs = []
    parse = trace.parse_trace

    def counting_parse(data):
        logs.append(counting_columns(parse(data)))
        return logs[-1]

    monkeypatch.setattr(trace, "parse_trace", counting_parse)
    assert main(["flags", trace_path]) == 0
    assert capsys.readouterr().out.count("Fibers") == 10
    assert [[column.iterations for column in log.columns]
            for log in logs] == [[1, 1, 0, 0, 0, 0, 1, 0, 0, 0]]


GOLDEN_TRACE = str(DATA / "golden.trace")


def test_golden_signature_and_layout(tmp_path):
    """sign and reconstruct --base 0x9000 write the committed bytes for
    the golden trace."""
    for argv, name in ((["sign", GOLDEN_TRACE], "golden.sig"),
                       (["reconstruct", GOLDEN_TRACE, "--base", "0x9000"],
                        "golden.layout")):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["sign", GOLDEN_TRACE, "--out", "{tmp}/golden.sig"],
    ["flags", GOLDEN_TRACE],
    ["bases", GOLDEN_TRACE],
    ["reconstruct", GOLDEN_TRACE, "--base", "0x9000", "--out",
     "{tmp}/golden.layout"],
], ids=["sign", "flags", "bases", "reconstruct"])
def test_commands_build_only_the_events_they_type(argv, tmp_path,
                                                   monkeypatch):
    """A command reads a trace's columns and builds no event from them,
    but reconstruct, which builds the program's own accesses inside its
    window and no other event: a count, not a clock, so that no change
    falls back to a tuple per event unseen.  The length of a log's
    events, which the benchmark's traced runs read, builds none."""
    log = reference_parse_trace((DATA / "golden.trace").read_bytes())
    lo, hi = log.module_range
    window = [e for e in log.events
              if e.kind in ("read", "write")
              and e.instr.category != "page-fault" and lo <= e.rip < hi
              and 0x9000 <= e.address < 0x9000 + recon.DEFAULT_WINDOW]
    assert len(window) == 5 < len(log) // 5
    built = []
    events = trace._events

    def counting(rows):
        for event in events(rows):
            built.append(event)
            yield event

    monkeypatch.setattr(trace, "_events", counting)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv) == 0
    assert built == (window if argv[0] == "reconstruct" else [])
    built.clear()
    log = trace.parse_trace((DATA / "golden.trace").read_bytes())
    assert len(log.events) == len(log) == 30 and log.events
    assert built == []


def test_writers_reproduce_the_golden_files():
    """Each writer gives back, byte for byte, the golden file its reader
    read."""
    model = (DATA / "golden.model").read_bytes()
    log = (DATA / "golden.trace").read_bytes()
    sig = (DATA / "golden.sig").read_bytes()
    assert serialize_model(parse_model(model)) == model
    assert trace.serialize_trace(parse_trace(log)) == log
    assert write_signature(*signature.read_signature(sig)) == sig
