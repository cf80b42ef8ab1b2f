import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulegen
from rulegen import autodiff as ad
from rulegen.cli import main
from rulegen.config import RunConfig
from rulegen.grammar import grammar_to_json
from rulegen.model import Model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """synth-data + extract-grammar + a short training run, shared."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(["synth-data", "--grammar-size", "2", "--depth", "1",
                 "--count", "8", "--test-count", "3", "--seed", "0",
                 "--out", str(data)])
    assert code == 0
    cfg = RunConfig(dim=32, layers=3, mlp_hidden=32, epochs=120, dropout=0.0,
                    accumulation_window=2, seed=0, eval_interval=1000,
                    stop_at_train_acc=1.0, max_decode_steps=60)
    (root / "config.json").write_text(cfg.to_json())
    out_dir = root / "run"
    code = main(["train", "--data", str(data / "train.jsonl"),
                 "--grammar", str(data / "grammar.json"),
                 "--config", str(root / "config.json"),
                 "--out-dir", str(out_dir)])
    assert code == 0
    return root


def test_synth_data_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run(capsys, "synth-data", "--count", "5",
                         "--seed", "7", "--out", str(tmp_path / sub))
        assert code == 0
    for name in ("train.jsonl", "grammar.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_synth_data_count_zero(tmp_path, capsys):
    code, _, _ = run(capsys, "synth-data", "--count", "0",
                     "--out", str(tmp_path / "z"))
    assert code == 0
    assert (tmp_path / "z" / "train.jsonl").exists()


def test_extract_grammar_output(workdir, tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run(capsys, "extract-grammar",
                          "--data", str(workdir / "data" / "train.jsonl"),
                          "--out", str(out))
    assert code == 0
    assert "rules " in stdout and "symbols " in stdout
    # byte-identical to the synth-data grammar and to a rerun
    assert out.read_bytes() == (workdir / "data" / "grammar.json").read_bytes()


def test_extract_grammar_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "extract-grammar",
                       "--data", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "g.json"))
    assert code == 3


def test_extract_grammar_data_that_is_a_directory(tmp_path, capsys):
    code, _, err = run(capsys, "extract-grammar", "--data", str(tmp_path),
                       "--out", str(tmp_path / "g.json"))
    assert code == 3
    assert f"cannot read {tmp_path}" in err


def test_generate_checkpoint_that_is_a_directory(workdir, tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--checkpoint", str(tmp_path),
                       "--grammar", str(workdir / "data" / "grammar.json"),
                       "--input", "whatever")
    assert code == 3
    assert f"cannot read {tmp_path}" in err


def test_extract_grammar_empty_file(tmp_path, capsys):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    code, _, err = run(capsys, "extract-grammar", "--data", str(p),
                       "--out", str(tmp_path / "g.json"))
    assert code == 2
    assert "empty" in err


MALFORMED_RECORDS = {
    "bare_number": "5",
    "not_an_object": '["id", "description", "ast"]',
    "slots_not_a_list": {"slots": {"name": "n", "value": "v"}},
    "slot_not_an_object": {"slots": ["n=v"]},
    "slot_without_name": {"slots": [{"value": "v"}]},
    "slot_without_value": {"slots": [{"name": "n"}]},
    "id_a_list": {"id": [1]},
    "id_an_object": {"id": {"n": 1}},
    "terminal_a_list": {"ast": {"symbol": "S", "children": [
        {"symbol": "tok", "terminal": [1]}]}},
    "terminal_a_number": {"ast": {"symbol": "S", "children": [
        {"symbol": "tok", "terminal": 5}]}},
    "symbol_a_list": {"ast": {"symbol": ["S"], "children": [
        {"symbol": "tok", "terminal": "v"}]}},
    "scope_a_list": {"ast": {"symbol": "S", "scope": ["x"], "children": [
        {"symbol": "tok", "terminal": "v"}]}},
    "nested_900_deep": ('{"id": "a", "description": "x", "ast": '
                        + '{"symbol": "S", "children": [' * 900
                        + '{"symbol": "tok", "terminal": "v"}'
                        + "]}" * 900 + "}"),
}


@pytest.mark.parametrize("record", MALFORMED_RECORDS.values(),
                         ids=MALFORMED_RECORDS.keys())
def test_extract_grammar_malformed_record(tmp_path, record):
    if isinstance(record, dict):
        record = json.dumps(dict({
            "id": "a", "description": "x",
            "ast": {"symbol": "S", "children": [
                {"symbol": "tok", "terminal": "v"}]}}, **record))
    data = tmp_path / "bad.jsonl"
    data.write_text(record + "\n")
    stderr = cli_rejects("extract-grammar", "--data", data,
                         "--out", tmp_path / "g.json")
    assert f"{data}:1:" in stderr


def cli_rejects(*argv, code=2):
    """Run the CLI in a fresh interpreter; it must exit with ``code``
    without a traceback. Returns its stderr."""
    src = os.path.dirname(os.path.dirname(rulegen.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "rulegen.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


MALFORMED_GRAMMARS = {
    "without_symbols": '{"version": 1, "rules": []}',
    "not_an_object": '[{"version": 1}]',
    # the shared run's grammar with these entries set
    "null_start": {"start": None},
    "rule_terminal_a_list": {"rules": [
        {"id": 0, "lhs": "S", "rhs": ["tok"], "terminal": [1]}]},
}


@pytest.mark.parametrize("command", ["train", "generate"])
@pytest.mark.parametrize("text", MALFORMED_GRAMMARS.values(),
                         ids=MALFORMED_GRAMMARS.keys())
def test_malformed_grammar_exits_2(workdir, tmp_path, command, text):
    if isinstance(text, dict):
        doc = json.loads((workdir / "data" / "grammar.json").read_text())
        text = json.dumps(dict(doc, **text))
    grammar = tmp_path / "grammar.json"
    grammar.write_text(text)
    if command == "train":
        argv = ["--data", workdir / "data" / "train.jsonl",
                "--config", workdir / "config.json",
                "--out-dir", tmp_path / "out"]
    else:
        argv = ["--checkpoint", workdir / "run" / "checkpoint.bin",
                "--input", "whatever"]
    stderr = cli_rejects(command, "--grammar", grammar, *argv)
    assert str(grammar) in stderr


# JSON that the parser rejects only past its limits: an integer over
# Python's 4300-digit conversion limit, and lists nested past the recursion
# limit
LONG_INTEGER = "1" + "0" * 5000
DEEP_LISTS = "[" * 100000 + "]" * 100000


def with_key(doc: bytes, value: str) -> bytes:
    """A JSON object's text with one more key, "x", holding ``value``."""
    assert doc.endswith(b"}")
    return doc[:-1] + b', "x": ' + value.encode() + b"}"


@pytest.mark.parametrize("value", [LONG_INTEGER, DEEP_LISTS],
                         ids=["long_integer", "deep_lists"])
def test_grammar_json_past_the_parser_limits_exits_2(workdir, tmp_path, value):
    grammar = tmp_path / "grammar.json"
    grammar.write_bytes(with_key(
        (workdir / "data" / "grammar.json").read_bytes().rstrip(), value))
    stderr = cli_rejects("train", "--grammar", grammar,
                         "--data", workdir / "data" / "train.jsonl",
                         "--config", workdir / "config.json",
                         "--out-dir", tmp_path / "out")
    assert f"invalid grammar {grammar}" in stderr


def test_checkpoint_header_with_a_long_integer_exits_2(workdir, tmp_path):
    raw = (workdir / "run" / "checkpoint.bin").read_bytes()
    nl = raw.index(b"\n")
    bad = tmp_path / "checkpoint.bin"
    bad.write_bytes(with_key(raw[:nl], LONG_INTEGER) + raw[nl:])
    stderr = cli_rejects("generate", "--checkpoint", bad,
                         "--grammar", workdir / "data" / "grammar.json",
                         "--input", "whatever")
    assert f"invalid checkpoint {bad}" in stderr


def test_checkpoint_entry_without_shape_exits_2(workdir, tmp_path):
    raw = (workdir / "run" / "checkpoint.bin").read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    del header["params"][0]["shape"]
    bad = tmp_path / "checkpoint.bin"
    bad.write_bytes(json.dumps(header).encode() + raw[nl:])
    stderr = cli_rejects("generate", "--checkpoint", bad,
                         "--grammar", workdir / "data" / "grammar.json",
                         "--input", "whatever")
    assert str(bad) in stderr
    assert "shape" in stderr


def rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header changed by ``edit``."""
    raw = src.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    dst.write_bytes(json.dumps(header).encode() + raw[nl:])


def rename_first(header):
    assert header["params"][0]["name"] == "emb/token"
    header["params"][0]["name"] = "emb/unknown"


def reshape_flag(header):
    # same number of values, so the payload still parses
    entry = next(e for e in header["params"] if e["name"] == "emb/flag")
    rows, cols = entry["shape"]
    entry["shape"] = [rows * 2, cols // 2]


@pytest.mark.parametrize("edit, named", [(rename_first, "emb/token"),
                                         (reshape_flag, "emb/flag")],
                         ids=["renamed_entry", "wrong_shape"])
def test_checkpoint_layout_mismatch_exits_2(workdir, tmp_path, edit, named):
    bad = tmp_path / "checkpoint.bin"
    rewrite_header(workdir / "run" / "checkpoint.bin", bad, edit)
    stderr = cli_rejects("generate", "--checkpoint", bad,
                         "--grammar", workdir / "data" / "grammar.json",
                         "--input", "whatever")
    assert str(bad) in stderr
    assert named in stderr


def flip_byte(raw, pos, mask):
    out = bytearray(raw)
    out[pos] ^= mask
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_checkpoint_exits_2(workdir, data):
    """Any one payload byte flipped, or the file cut at any length: the
    CLI reports the file and exits 2, raising nothing."""
    raw = (workdir / "run" / "checkpoint.bin").read_bytes()
    payload = raw.index(b"\n") + 1
    corrupt = data.draw(st.one_of(
        st.builds(flip_byte, st.just(raw),
                  st.integers(payload, len(raw) - 1), st.integers(1, 255)),
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n])))
    bad = workdir / "corrupt.bin"
    bad.write_bytes(corrupt)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["generate", "--checkpoint", str(bad),
                     "--grammar", str(workdir / "data" / "grammar.json"),
                     "--input", "whatever"])
    assert code == 2
    assert f"invalid checkpoint {bad}" in err.getvalue()


@pytest.mark.parametrize("copy, value, command", [
    (0, np.inf, "generate"), (2, np.nan, "evaluate")],
    ids=["inf_weight", "nan_second_moment"])
def test_checkpoint_with_a_non_finite_value_exits_2(workdir, tmp_path, copy,
                                                    value, command):
    """A NaN or Inf under a matching CRC-32, in the weights or the Adam
    moments: refused at load, naming the file and the parameter."""
    def edit(header, payload):
        assert header["optimizer"]
        sizes = [math.prod(e["shape"]) for e in header["params"]]
        names = [e["name"] for e in header["params"]]
        at = copy * sum(sizes) + sum(sizes[:names.index("emb/flag")]) + 3
        payload[at] = value

    bad = edited_checkpoint(workdir, tmp_path, edit)
    stderr = cli_rejects(command, "--checkpoint", bad,
                         *decode_args(workdir, command))
    assert f"invalid checkpoint {bad}" in stderr
    assert "'emb/flag'" in stderr


def edited_checkpoint(workdir, tmp_path, edit):
    """The shared run's checkpoint, its header and float32 payload passed
    through ``edit`` in place and its CRC-32 recomputed, written under
    ``tmp_path``."""
    raw = (workdir / "run" / "checkpoint.bin").read_bytes()
    nl = raw.index(b"\n") + 1
    header = json.loads(raw[:nl])
    payload = np.frombuffer(raw[nl:], dtype="<f4").copy()
    edit(header, payload)
    header["payload_crc32"] = zlib.crc32(payload.tobytes())
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload.tobytes())
    return path


def decode_args(workdir, command):
    """The arguments after ``--checkpoint`` of a valid ``generate`` or
    ``evaluate`` call on the shared run."""
    return ["--grammar", workdir / "data" / "grammar.json",
            *(["--input", "whatever"] if command == "generate"
              else ["--data", workdir / "data" / "train.jsonl"])]


@pytest.mark.parametrize("command", ["generate", "evaluate"])
def test_weights_too_large_to_decode_with_exit_6(workdir, tmp_path, command):
    """Weights that are finite but huge load; the decoding forward that
    overflows ends in one line that names the checkpoint and the op."""
    def edit(header, payload):
        payload[:sum(math.prod(e["shape"]) for e in header["params"])] = 1e30

    bad = edited_checkpoint(workdir, tmp_path, edit)
    stderr = cli_rejects(command, "--checkpoint", bad,
                         *decode_args(workdir, command), code=6)
    errors = [line for line in stderr.splitlines()
              if line.startswith("error: ")]
    assert errors == [f"error: {bad}: decoding failed at non-finite values "
                      "produced by conv_stack layer 1"]


def default_args(workdir, tmp_path, command):
    """flag -> value of a valid call of ``command`` on the shared run."""
    data, run_dir = workdir / "data", workdir / "run"
    return {
        "extract-grammar": {"--data": data / "train.jsonl",
                            "--out": tmp_path / "g.json"},
        "train": {"--data": data / "train.jsonl",
                  "--grammar": data / "grammar.json",
                  "--config": workdir / "config.json",
                  "--out-dir": tmp_path / "out"},
        "generate": {"--checkpoint": run_dir / "checkpoint.bin",
                     "--grammar": data / "grammar.json",
                     "--input": "whatever"},
    }[command]


@pytest.mark.parametrize("command, flag, source", [
    ("extract-grammar", "--data", "data/train.jsonl"),
    ("train", "--data", "data/train.jsonl"),
    ("train", "--config", "config.json"),
    ("generate", "--grammar", "data/grammar.json"),
    ("generate", "--input", "data/train.jsonl"),
], ids=["dataset_extract", "dataset_train", "config", "grammar", "input"])
def test_input_file_that_is_not_utf8_exits_2(workdir, tmp_path, command, flag,
                                             source):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff" + (workdir / source).read_bytes())
    args = dict(default_args(workdir, tmp_path, command), **{flag: bad})
    stderr = cli_rejects(command, *[x for pair in args.items() for x in pair])
    assert f"{bad}:1: not UTF-8" in stderr


@pytest.mark.parametrize("beam", ["0", "-2"])
def test_generate_rejects_a_beam_below_1(workdir, beam):
    stderr = cli_rejects("generate",
                         "--checkpoint", workdir / "run" / "checkpoint.bin",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--input", "whatever", "--beam", beam)
    assert "--beam" in stderr


@pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
def test_generate_input_file_without_a_record_exits_2(workdir, tmp_path,
                                                      text):
    empty = tmp_path / "empty.txt"
    empty.write_text(text)
    stderr = cli_rejects("generate",
                         "--checkpoint", workdir / "run" / "checkpoint.bin",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--input", empty)
    assert f"{empty} is empty" in stderr


@pytest.mark.parametrize("flag, value", [
    ("--layers", "0"), ("--layers", "-1"), ("--dims", "0"),
    ("--samples", "-1"), ("--seed", "-1")])
def test_gradcheck_rejects_a_size_out_of_range(flag, value):
    stderr = cli_rejects("gradcheck", flag, value)
    assert flag in stderr


@pytest.mark.parametrize("flag, value", [
    ("--grammar-size", "0"), ("--depth", "-1"), ("--count", "-1"),
    ("--test-count", "-1"), ("--seed", "-1")])
def test_synth_data_rejects_a_size_out_of_range(tmp_path, flag, value):
    stderr = cli_rejects("synth-data", flag, value, "--out", tmp_path / "d")
    assert f"argument {flag}" in stderr
    assert not (tmp_path / "d").exists()


def test_checkpoint_config_of_the_wrong_type_exits_2(workdir, tmp_path):
    bad = tmp_path / "checkpoint.bin"

    def edit(header):
        header["extras"]["config"]["mlp_hidden"] = "32"

    rewrite_header(workdir / "run" / "checkpoint.bin", bad, edit)
    stderr = cli_rejects("generate", "--checkpoint", bad,
                         "--grammar", workdir / "data" / "grammar.json",
                         "--input", "whatever")
    assert str(bad) in stderr
    assert "mlp_hidden" in stderr


def test_checkpoint_vocabulary_that_is_not_a_list_exits_2(workdir, tmp_path):
    bad = tmp_path / "checkpoint.bin"

    def edit(header):
        header["extras"]["token_vocab"] = 5

    rewrite_header(workdir / "run" / "checkpoint.bin", bad, edit)
    stderr = cli_rejects("generate", "--checkpoint", bad,
                         "--grammar", workdir / "data" / "grammar.json",
                         "--input", "whatever")
    assert str(bad) in stderr
    assert "token_vocab" in stderr


def test_train_config_with_a_negative_seed_exits_2(workdir, tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text('{"seed": -1}')
    stderr = cli_rejects("train", "--data", workdir / "data" / "train.jsonl",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--config", bad, "--out-dir", tmp_path / "out")
    assert f"{bad}: seed must be non-negative" in stderr


@pytest.mark.parametrize("key, value", [("max_updates", -1),
                                        ("stop_at_train_acc", -0.5),
                                        ("stop_at_train_acc", 1.5)])
def test_train_config_out_of_range_exits_2(workdir, tmp_path, key, value):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({key: value}))
    stderr = cli_rejects("train", "--data", workdir / "data" / "train.jsonl",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--config", bad, "--out-dir", tmp_path / "out")
    assert f"{bad}: {key} must" in stderr


def test_train_that_diverges_exits_6(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lr": 1e30, "accumulation_window": 1,
                                  "dim": 8, "layers": 2, "mlp_hidden": 8,
                                  "epochs": 3}))
    stderr = cli_rejects("train", "--data", workdir / "data" / "train.jsonl",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--config", config, "--out-dir", tmp_path / "out",
                         code=6)
    errors = [line for line in stderr.splitlines()
              if line.startswith("error: ")]
    assert errors == [f"error: {config}: training diverged at epoch 1: "
                      "non-finite values produced by conv_stack layer 1"]


def test_generate_past_the_recursion_limit_is_a_decode_failure(
        chain_grammar, tmp_path):
    """A model that always picks ``A -> A`` grows a chain as deep as its
    step budget of 3000, three times Python's default recursion limit,
    and ``generate`` reports the spent budget as a decode failure."""
    config = RunConfig(dim=8, layers=1, mlp_hidden=8, max_decode_steps=3000)
    model = Model(chain_grammar, config, ["<pad>", "<unk>"], ["x"], [],
                  seed=0)
    model.store["structural/mlp_b2"].data[0] = 100.0
    checkpoint = tmp_path / "checkpoint.bin"
    grammar = tmp_path / "grammar.json"
    model.save(checkpoint)
    grammar.write_text(grammar_to_json(chain_grammar))
    stderr = cli_rejects("generate", "--checkpoint", checkpoint,
                         "--grammar", grammar, "--input", "x", "--beam", "1",
                         code=4)
    assert "decode failure" in stderr


def test_train_config_of_the_wrong_type_exits_2(workdir, tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text('{"dim": "x"}')
    stderr = cli_rejects("train", "--data", workdir / "data" / "train.jsonl",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--config", bad, "--out-dir", tmp_path / "out")
    assert "dim" in stderr


def test_train_config_with_a_float_that_is_not_finite_exits_2(workdir,
                                                               tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text('{"lr": NaN}')
    stderr = cli_rejects("train", "--data", workdir / "data" / "train.jsonl",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--config", bad, "--out-dir", tmp_path / "out")
    assert "lr must be finite" in stderr
    assert not (tmp_path / "out").exists()


def test_train_config_too_large_to_allocate_exits_2(workdir, tmp_path):
    """The parameter buffer of this config would hold over 10^16 floats,
    so its allocation is refused at once."""
    big = tmp_path / "config.json"
    big.write_text('{"dim": 100000000, "layers": 1}')
    stderr = cli_rejects("train", "--data", workdir / "data" / "train.jsonl",
                         "--grammar", workdir / "data" / "grammar.json",
                         "--config", big, "--out-dir", tmp_path / "out")
    assert len(stderr.splitlines()) == 1
    assert f"{big}: the config's " in stderr
    assert "parameters do not fit in memory" in stderr
    assert not (tmp_path / "out").exists()


def test_train_out_dir_under_a_file_exits_3(workdir, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("")
    args = default_args(workdir, tmp_path, "train")
    args["--out-dir"] = afile / "x"
    stderr = cli_rejects("train", *[v for kv in args.items() for v in kv],
                         code=3)
    assert f"cannot write to {afile / 'x'}" in stderr


def test_train_with_no_derivable_example_exits_2(workdir, tmp_path):
    data = workdir / "data"
    grammar = tmp_path / "grammar.json"
    doc = json.loads((data / "grammar.json").read_text())
    doc["rules"] = doc["rules"][:1]
    grammar.write_text(json.dumps(doc))
    args = default_args(workdir, tmp_path, "train")
    args["--grammar"] = grammar
    stderr = cli_rejects("train", *[v for kv in args.items() for v in kv])
    assert f"{data / 'train.jsonl'}: no derivable training examples" in stderr
    assert str(grammar) in stderr


def test_train_rejects_bad_config(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 16, "mystery": true}')
    code, _, err = run(capsys, "train",
                       "--data", str(workdir / "data" / "train.jsonl"),
                       "--grammar", str(workdir / "data" / "grammar.json"),
                       "--config", str(bad),
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert "mystery" in err


def test_generate_from_text(workdir, capsys):
    train_lines = (workdir / "data" / "train.jsonl").read_text().splitlines()
    rec = json.loads(train_lines[0])
    slot = rec["slots"][0]
    code, stdout, _ = run(capsys, "generate",
                          "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                          "--grammar", str(workdir / "data" / "grammar.json"),
                          "--input", rec["description"],
                          "--slot", f"{slot['name']}={slot['value']}")
    assert code == 0
    gold_yield = " ".join(collect_yield(rec["ast"]))
    assert stdout.strip().splitlines()[0] == gold_yield


def collect_yield(node):
    if "terminal" in node:
        return [node["terminal"]]
    out = []
    for c in node.get("children", []):
        out.extend(collect_yield(c))
    return out


def test_generate_from_record_with_ast_dump(workdir, tmp_path, capsys):
    line = (workdir / "data" / "train.jsonl").read_text().splitlines()[1]
    rec_path = tmp_path / "one.jsonl"
    rec_path.write_text(line + "\n")
    code, stdout, _ = run(capsys, "generate",
                          "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                          "--grammar", str(workdir / "data" / "grammar.json"),
                          "--input", str(rec_path), "--show-ast", "--beam", "5")
    assert code == 0
    body = stdout.split("\n", 1)[1]
    doc = json.loads(body)
    assert "ast" in doc and "rule_trace" in doc
    assert len(doc["step_log_probs"]) == len(doc["rule_trace"])
    assert doc["log_prob"] == pytest.approx(sum(doc["step_log_probs"]))


def test_generate_beam1_matches_greedy_yield(workdir, capsys):
    line = (workdir / "data" / "train.jsonl").read_text().splitlines()[2]
    rec = json.loads(line)
    args = ["generate",
            "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
            "--grammar", str(workdir / "data" / "grammar.json"),
            "--input", rec["description"]]
    code1, out1, _ = run(capsys, *args, "--beam", "1")
    assert code1 == 0
    # independent stepwise-greedy decode
    from rulegen.decode import beam_search
    from rulegen.grammar import grammar_from_json
    from rulegen.model import Model
    from rulegen.ast_tree import token_yield

    g = grammar_from_json((workdir / "data" / "grammar.json").read_text())
    model = Model.load(str(workdir / "run" / "checkpoint.bin"), g)
    result = beam_search(model, rec["description"], [], beam_size=1)
    assert out1.strip() == " ".join(token_yield(result.hypotheses[0].ast))


def test_generate_wrong_grammar_fails(workdir, tmp_path, capsys):
    other = tmp_path / "other"
    main(["synth-data", "--grammar-size", "3", "--depth", "2", "--count", "5",
          "--seed", "9", "--out", str(other)])
    code, _, err = run(capsys, "generate",
                       "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                       "--grammar", str(other / "grammar.json"),
                       "--input", "whatever")
    assert code == 2
    assert "grammar" in err


def test_evaluate_report_and_bypass(workdir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "evaluate",
                          "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                          "--grammar", str(workdir / "data" / "grammar.json"),
                          "--data", str(workdir / "data" / "train.jsonl"),
                          "--report", str(report_path), "--bypass-gold")
    assert code == 0
    assert "str_acc 1.0000" in stdout
    assert "bleu 1.0000" in stdout
    doc = json.loads(report_path.read_text())
    assert doc["str_acc"] == 1.0
    assert len(doc["examples"]) == 8


def test_evaluate_trained_model_scores(workdir, tmp_path, capsys):
    code, stdout, _ = run(capsys, "evaluate",
                          "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
                          "--grammar", str(workdir / "data" / "grammar.json"),
                          "--data", str(workdir / "data" / "train.jsonl"))
    assert code == 0
    acc = float(stdout.split("str_acc ")[1].split()[0])
    assert acc == 1.0  # trained to memorization by the fixture


def relu_with_wrong_backward(x):
    """``ad.relu`` whose backward passes the gradient through unmasked
    and doubled."""
    out = np.maximum(x.data, 0)
    return ad.Tensor(out, parents=(x,), backward_fn=lambda g: (2.0 * g,))


def test_gradcheck_ok_and_corrupt(capsys, monkeypatch):
    code, stdout, _ = run(capsys, "gradcheck", "--dims", "3", "--layers", "3",
                          "--samples", "2")
    assert code == 0
    assert "ok" in stdout
    monkeypatch.setattr(ad, "relu", relu_with_wrong_backward)
    code, stdout, _ = run(capsys, "gradcheck", "--dims", "3", "--layers", "3",
                          "--samples", "2")
    assert code == 5
    assert "FAIL" in stdout
