import argparse
import ast
import json
import math
import os
import struct
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radnmt
from radnmt import decoding, evaluation, radicals
from radnmt.cli import (
    _MODEL_KEYS,
    _TRAIN_KEYS,
    CONFIG_SCHEMA,
    _load_model_and_vocabs,
    dispatch,
    load_config,
    resolve_config,
    write_run_manifest,
)
from radnmt.corpus import Vocab
from radnmt.errors import UsageError, atomic_write
from radnmt.model import ModelConfig, ModelParams, load_checkpoint, save_checkpoint
from radnmt.training import TrainConfig


def run(args):
    return dispatch(args)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "radnmt" in capsys.readouterr().out


def test_python_m_radnmt_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(radnmt.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "radnmt", "--version"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout.strip() == f"radnmt {radnmt.__version__}"


def test_no_command_prints_help(capsys):
    assert run([]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert run(["annotate", "--nope"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_non_utf8_argument_is_usage_error(trained_dir, tmp_path, capsys):
    # the byte 0xff on a Linux command line arrives as "\udcff" (surrogateescape)
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_text("鉄の実験。\n", encoding="utf-8")
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    code = run(["translate", "--model", str(model), "--input", str(inp), "--output", str(out),
                "--unk-token", "\udcff"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and "not valid UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_required_flags(capsys):
    assert run(["train"]) == 1
    err = capsys.readouterr().err
    assert "train-src" in err or "required" in err


def test_annotate_end_to_end(tmp_path, capsys):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    src.write_text("鉄7Q\n", encoding="utf-8")
    assert run(["annotate", "--input", str(src), "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "鉄|167 7|1 Q|140\n"


def test_annotate_missing_input_is_data_error(tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = run(["annotate", "--input", str(tmp_path / "absent.txt"), "--output", str(out)])
    assert code == 2


def test_build_vocab_end_to_end(tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "vocab.tsv"
    src.write_text("aab\nb\n", encoding="utf-8")
    assert run(["build-vocab", "--input", str(src), "--output", str(out)]) == 0
    vocab = radnmt.Vocab.load(out)
    assert len(vocab) == 6


@pytest.mark.parametrize("max_size", ["0", "-2", "3"])
def test_build_vocab_max_size_follows_train_rule(max_size, tmp_path, capsys):
    # 0 is unlimited; a negative size, or one with no room past the 4 reserved entries, is a usage error
    src, out = tmp_path / "in.txt", tmp_path / "vocab.tsv"
    src.write_text("aab\nb\n", encoding="utf-8")
    code = run(["build-vocab", "--input", str(src), "--output", str(out), "--max-size", max_size])
    err = capsys.readouterr().err
    if max_size == "0":
        assert code == 0 and len(radnmt.Vocab.load(out)) == 6
    else:
        assert code == 1 and "max_size must be" in err and not out.exists()
    assert "Traceback" not in err


def test_load_config_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nhidden=64\ndropout=0.3\n\n", encoding="utf-8")
    values = load_config(cfg)
    assert values == {"hidden": 64, "dropout": 0.3}


def test_load_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    for key in ("hiden", "feat_vocab"):
        cfg.write_text(f"{key}=64\n", encoding="utf-8")
        with pytest.raises(UsageError, match=f"unknown config key '{key}'"):
            load_config(cfg)


def test_load_config_type_mismatch(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hidden=abc\n", encoding="utf-8")
    with pytest.raises(UsageError, match="int"):
        load_config(cfg)


def test_empty_config_gives_full_scale_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    merged = resolve_config(load_config(cfg), {}, None)
    assert merged["hidden"] == 512
    assert merged["char_embed"] + merged["feat_embed"] == 512
    assert merged["batch"] == 10
    assert merged["lr"] == 1.0
    assert merged["clip"] == 1.0
    assert merged["dropout"] == 0.8


def test_empty_config_maps_onto_the_dataclass_defaults(tmp_path):
    # the schema's defaults and types are ModelConfig's and TrainConfig's own
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("", encoding="utf-8")
    merged = resolve_config(load_config(cfg), {}, None)
    assert TrainConfig(**{name: merged[key] for key, name in _TRAIN_KEYS.items()}) == TrainConfig()
    model_values = {name: merged[key] for key, name in _MODEL_KEYS.items()}
    assert ModelConfig(5, 5, dropout=merged["dropout"], **model_values) == ModelConfig(5, 5)
    for key in (*_MODEL_KEYS, *_TRAIN_KEYS):
        assert CONFIG_SCHEMA[key][0] is type(merged[key])
    assert set(CONFIG_SCHEMA) - {*_MODEL_KEYS, *_TRAIN_KEYS} == {"min_count", "max_size", "max_src_len"}


def test_config_file_overrides_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dropout=0.3\n", encoding="utf-8")
    merged = resolve_config(load_config(cfg), {}, None)
    assert merged["dropout"] == 0.3


def test_flags_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dropout=0.3\nhidden=128\n", encoding="utf-8")
    merged = resolve_config(load_config(cfg), {"dropout": 0.1}, None)
    assert merged["dropout"] == 0.1
    assert merged["hidden"] == 128


def test_profile_between_defaults_and_file():
    merged = resolve_config(None, {}, "toy")
    assert merged["hidden"] == 64
    assert merged["char_embed"] + merged["feat_embed"] == 64
    merged = resolve_config({"hidden": 96}, {}, "toy")
    assert merged["hidden"] == 96
    with pytest.raises(UsageError):
        resolve_config(None, {}, "huge")


_KEYS = ["hidden", "dropout", "lr", "batch", "epochs"]


@settings(max_examples=40, deadline=None)
@given(
    file_present=st.booleans(),
    file_keys=st.sets(st.sampled_from(_KEYS)),
    flag_keys=st.sets(st.sampled_from(_KEYS)),
)
def test_precedence_is_total(file_present, file_keys, flag_keys):
    file_values = {k: 7 if CONFIG_SCHEMA[k][0] is int else 0.07 for k in file_keys}
    flag_values = {k: 9 if CONFIG_SCHEMA[k][0] is int else 0.09 for k in flag_keys}
    merged = resolve_config(file_values if file_present else None, flag_values, None)
    for key in _KEYS:
        if key in flag_keys:
            assert merged[key] == flag_values[key]
        elif file_present and key in file_keys:
            assert merged[key] == file_values[key]
        else:
            assert merged[key] == CONFIG_SCHEMA[key][1]


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """A tiny end-to-end training run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("run")
    src, tgt = radnmt.toy_corpus_paths()
    code = dispatch([
        "train",
        "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt),
        "--out", str(out),
        "--hidden", "16", "--char-embed", "12", "--feat-embed", "4",
        "--epochs", "2", "--dropout", "0.0", "--seed", "1",
    ])
    assert code == 0
    return out


def test_train_outputs(trained_dir):
    assert (trained_dir / "run_manifest.json").exists()
    assert (trained_dir / "train_report.tsv").exists()
    assert (trained_dir / "src_vocab.tsv").exists()
    checkpoints = sorted((trained_dir / "checkpoints").glob("*.rnmt"))
    assert len(checkpoints) == 2
    manifest = json.loads((trained_dir / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert manifest["seed"] == 1
    assert all(len(d) == 64 for d in manifest["inputs"].values())


def test_translate_cli(trained_dir, tmp_path):
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    inp.write_text("鉄の実験。\n", encoding="utf-8")
    code = dispatch([
        "translate", "--model", str(model),
        "--input", str(inp), "--output", str(out), "--beam", "2", "--max-len", "8",
    ])
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1


@pytest.mark.parametrize(
    "flags, source",
    [
        (["translate", "--beam", "0"], "鉄の実験。\n"),
        (["translate", "--beam", "0"], ""),
        (["translate", "--max-len", "0"], "鉄の実験。\n"),
        (["translate", "--max-len", "-2"], "鉄の実験。\n"),
        (["eval", "--beam", "0"], "鉄の実験。\n"),
        (["translate", "--length-norm", "-1"], "鉄の実験。\n"),
        (["translate", "--length-norm", "nan"], "鉄の実験。\n"),
        (["translate", "--length-norm", "inf"], "鉄の実験。\n"),
    ],
    ids=["beam-0", "beam-0-empty-input", "max-len-0", "max-len-neg", "eval-beam-0",
         "length-norm-neg", "length-norm-nan", "length-norm-inf"],
)
def test_count_flags_below_one_are_usage_errors(flags, source, trained_dir, tmp_path, capsys):
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    src, ref, out = tmp_path / "in.txt", tmp_path / "ref.txt", tmp_path / "out.txt"
    src.write_text(source, encoding="utf-8")
    ref.write_text("铁的实验。\n", encoding="utf-8")
    files = {
        "translate": ["--input", str(src), "--output", str(out)],
        "eval": ["--src", str(src), "--ref", str(ref), "--out", str(tmp_path / "report")],
    }[flags[0]]
    assert dispatch(flags + ["--model", str(model)] + files) == 1
    err = capsys.readouterr().err
    expected = "a finite number >= 0" if flags[1] == "--length-norm" else "an integer >= 1"
    assert "usage error" in err and f"{flags[1]}: expected {expected}" in err
    assert not out.exists()


def test_eval_cli(trained_dir, tmp_path, capsys):
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    src, tgt = radnmt.toy_corpus_paths()
    out = tmp_path / "report"
    code = dispatch([
        "eval", "--model", str(model), "--src", str(src), "--ref", str(tgt),
        "--beam", "1", "--out", str(out),
    ])
    assert code == 0
    assert "ppl=" in capsys.readouterr().out
    assert (out / "metrics.tsv").exists()


def _run_twice(command, flag, model, tmp_path) -> list[dict]:
    """The manifests, timestamp aside, of command run without and with flag."""
    src, tgt = radnmt.toy_corpus_paths()
    manifests = []
    for extra in ([], flag):
        out = tmp_path / f"run{len(manifests)}"
        argv, manifest = {
            "train": (
                ["--train-src", str(src), "--train-tgt", str(tgt), "--dev-src", str(src),
                 "--dev-tgt", str(tgt), "--out", str(out), "--hidden", "8", "--char-embed", "6",
                 "--feat-embed", "2", "--epochs", "1", "--dropout", "0.0", "--seed", "1"],
                out / "run_manifest.json",
            ),
            "translate": (
                ["--model", str(model), "--input", str(src), "--output", str(out)],
                out.with_suffix(".manifest.json"),
            ),
            "eval": (
                ["--model", str(model), "--src", str(src), "--ref", str(tgt), "--beam", "1",
                 "--out", str(out)],
                out / "run_manifest.json",
            ),
        }[command]
        assert dispatch([command] + argv + extra) == 0
        manifests.append(json.loads(manifest.read_text(encoding="utf-8")))
        del manifests[-1]["timestamp"]
    return manifests


@pytest.mark.parametrize(
    "command, flag",
    [
        ("train", ["--no-features"]),
        ("translate", ["--max-len", "2"]),
        ("translate", ["--unk-token", "?"]),
        ("eval", ["--smoothing"]),
    ],
    ids=["train-no-features", "translate-max-len", "translate-unk-token", "eval-smoothing"],
)
def test_manifest_records_every_output_setting(command, flag, trained_dir, tmp_path):
    # identical manifests promise identical outputs, so each of these flags must show
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    without, with_flag = _run_twice(command, flag, model, tmp_path)
    assert without != with_flag


def test_gradcheck_cli(capsys):
    assert dispatch(["gradcheck", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "max relative error" in out


def test_gradcheck_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("RADNMT_SEED", "3")
    assert dispatch(["gradcheck"]) == 0


def test_gradcheck_bad_env_seed_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("RADNMT_SEED", "abc")
    assert dispatch(["gradcheck"]) == 1
    assert "RADNMT_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("end", [10, 40, -100])  # cut in the header, manifest, payload
def test_truncated_checkpoint_is_data_error(end, trained_dir, tmp_path, capsys):
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    cut = tmp_path / "cut.rnmt"
    cut.write_bytes(model.read_bytes()[:end])
    inp = tmp_path / "in.txt"
    inp.write_text("鉄の実験。\n", encoding="utf-8")
    code = dispatch([
        "translate", "--model", str(cut), "--input", str(inp), "--output", str(tmp_path / "out.txt"),
    ])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, message",
    [
        (struct.pack("<Q", 2**40) + b"{}", "truncated checkpoint header"),
        (struct.pack("<Q", 200000) + b"[" * 200000, "invalid checkpoint manifest"),
    ],
    ids=["manifest-length-past-end", "deeply-nested-manifest"],
)
def test_corrupt_checkpoint_header_is_data_error(header, message, trained_dir, tmp_path, capsys):
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    bad = tmp_path / "bad.rnmt"
    bad.write_bytes(model.read_bytes()[:8] + header)
    inp = tmp_path / "in.txt"
    inp.write_text("鉄の実験。\n", encoding="utf-8")
    code = dispatch([
        "translate", "--model", str(bad), "--input", str(inp), "--output", str(tmp_path / "out.txt"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["translate", "eval"])
@pytest.mark.parametrize("mismatch", ["src_vocab", "tgt_vocab", "feat_vocab"])
def test_vocabulary_that_does_not_fit_the_checkpoint_is_data_error(
    mismatch, command, trained_dir, tmp_path, capsys
):
    params = load_checkpoint(sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1])
    if mismatch == "feat_vocab":
        params = ModelParams.initialize(replace(params.config, feat_vocab_size=8), seed=0)
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    save_checkpoint(params, model_dir / "model.rnmt")
    for name in ("src_vocab", "tgt_vocab"):
        lines = (trained_dir / f"{name}.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        kept = lines[:-2] if name == mismatch else lines
        (model_dir / f"{name}.tsv").write_text("".join(kept), encoding="utf-8")
    inp, out = tmp_path / "in.txt", tmp_path / "out"
    inp.write_text("鉄の実験。\n", encoding="utf-8")
    src, tgt = radnmt.toy_corpus_paths()
    files = (["--input", str(inp), "--output", str(out)] if command == "translate"
             else ["--src", str(src), "--ref", str(tgt), "--out", str(out)])
    code = dispatch([command, "--model", str(model_dir / "model.rnmt"), *files])
    err = capsys.readouterr().err
    size = getattr(params.config, f"{mismatch}_size")
    rows = 215 if mismatch == "feat_vocab" else size - 2
    assert code == 2
    assert f"has {rows} entries" in err and f"{mismatch}_size {size}" in err
    assert "Traceback" not in err
    assert not out.exists()


def _first_tensor(manifest, **changes):
    return dict(manifest, tensors=[dict(manifest["tensors"][0], **changes)] + manifest["tensors"][1:])


def _first_two_swapped(manifest):
    # offsets laid out afresh, so only the tensor order is wrong
    first, second, *rest = manifest["tensors"]
    size = 8 * math.prod(second["shape"])
    return dict(manifest, tensors=[dict(second, offset=0), dict(first, offset=size)] + rest)


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: {},
        lambda m: [],
        lambda m: dict(m, config=dict(m["config"], layers_per_side=2)),
        lambda m: dict(m, config=[1, 2]),
        lambda m: {k: v for k, v in m.items() if k != "tensors"},
        lambda m: _first_tensor(m, shape="16"),
        lambda m: _first_tensor(m, offset=-8),
        lambda m: dict(m, tensors=m["tensors"][:1] + [dict(m["tensors"][1], offset=0)] + m["tensors"][2:]),
        _first_two_swapped,
    ],
    ids=["empty-object", "list", "unknown-config-key", "config-not-object", "no-tensors",
         "string-shape", "negative-offset", "overlapping-offset", "reordered-tensors"],
)
def test_bad_checkpoint_manifest_is_data_error(edit, trained_dir, tmp_path, capsys):
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    raw = model.read_bytes()
    (manifest_len,) = struct.unpack("<Q", raw[8:16])
    manifest = json.dumps(edit(json.loads(raw[16 : 16 + manifest_len]))).encode("utf-8")
    bad = tmp_path / "bad.rnmt"
    bad.write_bytes(raw[:8] + struct.pack("<Q", len(manifest)) + manifest + raw[16 + manifest_len :])
    inp = tmp_path / "in.txt"
    inp.write_text("鉄の実験。\n", encoding="utf-8")
    code = dispatch([
        "translate", "--model", str(bad), "--input", str(inp), "--output", str(tmp_path / "out.txt"),
    ])
    assert code == 2
    assert "invalid checkpoint manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    ["build-vocab", "translate", "annotate", "train-config", "translate-src-vocab",
     "translate-han-table", "vocab-id"],
)
def test_non_utf8_input_is_data_error(command, trained_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00a\n")
    good = tmp_path / "in.txt"
    good.write_text("鉄の実験。\n", encoding="utf-8")
    out = str(tmp_path / "out.txt")
    # a model directory whose src_vocab.tsv the case may replace
    model_dir = tmp_path / "model"
    model_dir.mkdir()
    model = model_dir / "model.rnmt"
    model.write_bytes(sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1].read_bytes())
    for name in ("src_vocab.tsv", "tgt_vocab.tsv"):
        (model_dir / name).write_bytes((trained_dir / name).read_bytes())
    if command == "translate-src-vocab":
        (model_dir / "src_vocab.tsv").write_bytes(bad.read_bytes())
    if command == "vocab-id":
        (model_dir / "src_vocab.tsv").write_text("x\ta\n", encoding="utf-8")
    translate = ["translate", "--model", str(model), "--output", out, "--input"]
    args = {
        "build-vocab": ["build-vocab", "--input", str(bad), "--output", out],
        "translate": translate + [str(bad)],
        "annotate": ["annotate", "--input", str(bad), "--output", out],
        "train-config": ["train", "--config", str(bad), "--train-src", str(good), "--train-tgt", str(good),
                         "--dev-src", str(good), "--dev-tgt", str(good), "--out", str(tmp_path / "run")],
        "translate-src-vocab": translate + [str(good)],
        "translate-han-table": translate + [str(good), "--han-table", str(bad)],
        "vocab-id": translate + [str(good)],
    }[command]
    assert dispatch(args) == 2
    assert ("is not an integer" if command == "vocab-id" else "invalid UTF-8") in capsys.readouterr().err


def test_eval_source_with_lone_cr(trained_dir, tmp_path):
    # a lone "\r" stays inside the one source line (errors.read_lines)
    src, ref = tmp_path / "src.txt", tmp_path / "ref.txt"
    src.write_bytes("鉄の\r実験\n".encode("utf-8"))
    ref.write_text("铁的实验\n", encoding="utf-8")
    model = sorted((trained_dir / "checkpoints").glob("*.rnmt"))[-1]
    out = tmp_path / "report"
    code = dispatch([
        "eval", "--model", str(model), "--src", str(src), "--ref", str(ref), "--beam", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "hypotheses.txt").read_text(encoding="utf-8").count("\n") == 1


@pytest.mark.parametrize("setting", ["clip=-1", "clip=0", "clip=nan", "lr=nan", "lr=inf",
                                     "max_src_len=0", "max_src_len=-3", "eval_every=31",
                                     "max_size=-3", "min_count=1000"])
def test_non_finite_or_non_positive_rate_or_clip_is_usage_error(setting, tmp_path, capsys):
    src, tgt = radnmt.toy_corpus_paths()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setting + "\n", encoding="utf-8")
    code = dispatch([
        "train", "--config", str(cfg),
        "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt),
        "--out", str(tmp_path / "o"),
        "--hidden", "8", "--char-embed", "6", "--feat-embed", "2", "--epochs", "3",
    ])
    err = capsys.readouterr().err
    key = setting.partition("=")[0]
    # min_count=1000 admits no character: ModelConfig rejects the empty vocabularies
    expected = {"clip": "max_norm must be", "min_count": "vocabularies must contain"}
    assert code == 1
    assert expected.get(key, f"{key} must be") in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_model_too_large_for_memory_is_data_error(tmp_path, capsys):
    # enc_fwd_Wx alone would take 512 x 4e10 floats (149 TiB), more than a
    # 47-bit address space holds, so the request fails at once under any overcommit setting
    src, tgt = radnmt.toy_corpus_paths()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hidden=10000000000\n", encoding="utf-8")
    code = dispatch([
        "train", "--config", str(cfg),
        "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt),
        "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "out of memory" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_every_line_reader_splits_lines_alike(tmp_path):
    # CRLF ends a line as LF does; a lone "\r" and U+2028 stay inside their line
    src, tgt = tmp_path / "train.ja", tmp_path / "train.zh"
    src.write_bytes("鉄の実験\r\n金属\u2028水\n".encode("utf-8"))
    tgt.write_text("铁的实验\n金属水\n", encoding="utf-8")
    run_dir, vocab = tmp_path / "run", tmp_path / "vocab.tsv"
    assert dispatch([
        "train", "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt), "--out", str(run_dir),
        "--hidden", "8", "--char-embed", "6", "--feat-embed", "2", "--epochs", "1",
    ]) == 0
    assert dispatch(["build-vocab", "--input", str(src), "--output", str(vocab)]) == 0
    assert vocab.read_bytes() == (run_dir / "src_vocab.tsv").read_bytes()
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    inp.write_bytes("鉄の\r実験\n".encode("utf-8"))
    model = run_dir / "checkpoints" / "epoch_0001.rnmt"
    assert dispatch([
        "translate", "--model", str(model), "--input", str(inp), "--output", str(out),
        "--beam", "1", "--max-len", "4",
    ]) == 0
    assert out.read_bytes().count(b"\n") == 1


def test_train_seed_env_fallback(tmp_path, monkeypatch):
    src, tgt = radnmt.toy_corpus_paths()
    monkeypatch.setenv("RADNMT_SEED", "5")
    out = tmp_path / "envrun"
    code = dispatch([
        "train",
        "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt),
        "--out", str(out),
        "--hidden", "8", "--char-embed", "6", "--feat-embed", "2",
        "--epochs", "1", "--dropout", "0.0",
    ])
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 5


@pytest.mark.parametrize("start, rates", [("2", [1.0, 1.0, 0.5]), (None, [1.0, 1.0, 1.0]), ("0", None)])
def test_train_decay_start(start, rates, tmp_path, capsys):
    # epoch mode halves the rate after each epoch from decay_start on (default 10); below 1 is a usage error
    src, tgt = radnmt.toy_corpus_paths()
    cfg = tmp_path / "run.cfg"
    start_line = f"decay_start={start}\n" if start else ""
    cfg.write_text("decay_mode=epoch\nlr=1.0\nlr_decay=0.5\n" + start_line, encoding="utf-8")
    out = tmp_path / "run"
    code = dispatch([
        "train", "--config", str(cfg),
        "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt),
        "--out", str(out),
        "--hidden", "8", "--char-embed", "6", "--feat-embed", "2", "--epochs", "3", "--dropout", "0.0",
    ])
    if rates is None:
        assert code == 1
        assert "decay_start_epoch must be >= 1, got 0" in capsys.readouterr().err
        return
    assert code == 0
    rows = (out / "train_report.tsv").read_text(encoding="utf-8").splitlines()
    lr = rows[0].split("\t").index("lr")
    assert [float(row.split("\t")[lr]) for row in rows[1:]] == rates


@pytest.mark.parametrize("seed", [-1, 2**32])
@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_seed_outside_32_bits_is_usage_error(source, seed, tmp_path, monkeypatch, capsys):
    # derive_rng keeps the low 32 bits, so a wider seed would alias another
    src, tgt = radnmt.toy_corpus_paths()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed={seed}\n" if source == "config" else "", encoding="utf-8")
    if source == "env":
        monkeypatch.setenv("RADNMT_SEED", str(seed))
    else:
        monkeypatch.delenv("RADNMT_SEED", raising=False)
    code = dispatch([
        "train", "--config", str(cfg),
        "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt),
        "--out", str(tmp_path / "o"),
        "--hidden", "8", "--char-embed", "6", "--feat-embed", "2", "--epochs", "1",
        *(["--seed", str(seed)] if source == "flag" else []),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert f"must be in 0..4294967295, got {seed}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_gradcheck_seed_range_ends_at_32_bits(monkeypatch, capsys):
    # the largest seed runs the check and passes it; one more is rejected
    monkeypatch.delenv("RADNMT_SEED", raising=False)
    assert dispatch(["gradcheck", "--seed", str(2**32 - 1)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert dispatch(["gradcheck", "--seed", str(2**32)]) == 1
    assert "--seed must be in 0..4294967295" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["line-count-mismatch", "max-src-len-keeps-none"])
def test_train_data_errors_make_no_out_dir(case, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if case == "line-count-mismatch":
        src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
        src.write_text("a\nb\n", encoding="utf-8")
        tgt.write_text("x\n", encoding="utf-8")
        cfg.write_text("", encoding="utf-8")
    else:
        src, tgt = radnmt.toy_corpus_paths()  # no toy sentence is one character long
        cfg.write_text("max_src_len=1\n", encoding="utf-8")
    code = dispatch([
        "train", "--config", str(cfg), "--train-src", str(src), "--train-tgt", str(tgt),
        "--dev-src", str(src), "--dev-tgt", str(tgt), "--out", str(tmp_path / "o"),
    ])
    expected = {"line-count-mismatch": "2 vs 1", "max-src-len-keeps-none": "of 50 pairs, none fits max_src_len 1"}
    assert code == 2
    assert expected[case] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _fail_part_way(path, *_):
    with atomic_write(path) as f:
        f.write("epoch\ttrain_nll\n")
        raise OSError("No space left on device")


def _half_written(monkeypatch, module):
    """module's atomic_write sends out half of its first write, then fails as a full disk does."""

    class HalfThenFail:
        def __init__(self, f):
            self.f = f

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError("No space left on device")

    @contextmanager
    def failing_write(path, mode="w"):
        with atomic_write(path, mode) as f:
            yield HalfThenFail(f)

    monkeypatch.setattr(module, "atomic_write", failing_write)


def _model_and_vocabs(run_dir):
    return _load_model_and_vocabs(sorted((run_dir / "checkpoints").glob("*.rnmt"))[-1])


def _translate(path, monkeypatch, run_dir):
    _half_written(monkeypatch, decoding)
    params, src_vocab, tgt_vocab = _model_and_vocabs(run_dir)
    src, _ = radnmt.toy_corpus_paths()
    decoding.translate_file(params, radnmt.load_bundled_table(), src_vocab, tgt_vocab, src, path, beam_size=1)


def _annotate(path, monkeypatch, _):
    _half_written(monkeypatch, radicals)
    radicals.annotate_file(radnmt.load_bundled_table(), radnmt.toy_corpus_paths()[0], path)


def _evaluate(path, monkeypatch, run_dir):
    _half_written(monkeypatch, evaluation)
    params, src_vocab, tgt_vocab = _model_and_vocabs(run_dir)
    src, ref = radnmt.toy_corpus_paths()
    evaluation.evaluate(params, radnmt.load_bundled_table(), src_vocab, tgt_vocab, src, ref, path.parent, beam_size=1)


# a lone surrogate reaches a vocabulary from Python callers, and a manifest
# from a command-line argument that is not UTF-8 (decoded with surrogateescape)
@pytest.mark.parametrize(
    "name, write",
    [
        ("out.tsv", lambda path, *_: Vocab(["a", "b", "\ud800", "c"]).save(path)),
        ("out.tsv", lambda path, *_: write_run_manifest(
            path, argparse.Namespace(command="annotate"), (), {"input": "\udcff"})),
        ("out.tsv", _fail_part_way),
        ("out.txt", _translate),
        ("out.txt", _annotate),
        ("hypotheses.txt", _evaluate),  # the first of evaluate's three files
    ],
    ids=["vocab", "manifest", "report", "translate", "annotate", "evaluate"],
)
def test_failed_write_keeps_the_previous_file(name, write, tmp_path, monkeypatch, trained_dir):
    path = tmp_path / name
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises((UnicodeEncodeError, OSError)):
        write(path, monkeypatch, trained_dir)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _write_calls(tree, exempt):
    """Calls that open a file to write or append, or call write_text/write_bytes, outside exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in exempt:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            yield node
        elif name == "open":
            # the mode: open(file, mode) or Path.open(mode); a mode that is not a literal may write
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            mode = modes[0] if modes else ast.Constant("r")
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield node


def test_only_atomic_write_opens_files_for_writing():
    # every output file is replaced atomically, through errors.atomic_write alone
    package = Path(radnmt.__file__).parent
    hits = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        writer = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "atomic_write"]
        exempt = set(ast.walk(writer[0])) if source.name == "errors.py" else set()
        hits += [f"{source.name}:{node.lineno}" for node in _write_calls(tree, exempt)]
    assert hits == []
    # the check sees each kind of writer it forbids
    sample = ast.parse('open(p, "a"); p.open("w"); p.open(mode="rb+"); open(p, m); p.write_text(s); open(p, "rb")')
    assert len(list(_write_calls(sample, set()))) == 5


def test_train_logs_skipped_pairs_and_epochs_on_stderr(tmp_path, capsys):
    src, tgt, config = tmp_path / "s.txt", tmp_path / "t.txt", tmp_path / "c.cfg"
    src.write_text("ab\nabcd\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    config.write_text("max_src_len=3\n", encoding="utf-8")
    args = ["train", "--config", str(config), "--train-src", str(src), "--train-tgt", str(tgt),
            "--dev-src", str(src), "--dev-tgt", str(tgt), "--out", str(tmp_path / "run"),
            "--hidden", "4", "--char-embed", "4", "--feat-embed", "2", "--epochs", "1", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(radnmt.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "radnmt", *args], capture_output=True, text=True, env=env)
    # logging's last-resort handler shows the warning even unconfigured, but not the epoch lines
    assert "WARNING radnmt.corpus: skipped 1 pairs longer than 3 characters" in done.stderr
    assert "INFO radnmt.training: epoch 1: train_nll=" in done.stderr
    assert "Traceback" not in done.stderr
    # the same run in process, where no logging is set up, has the same exit code and stdout
    assert done.returncode == dispatch(args) == 0
    assert done.stdout == capsys.readouterr().out
