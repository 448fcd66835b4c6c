"""Unified command line: annotate, build-vocab, train, translate, eval, gradcheck.

Configuration precedence: built-in defaults < --profile preset < config
file < explicit flags. Every run writes a JSON manifest next to its
primary output recording the resolved configuration, seeds and input
digests.

Exit codes: 0 success, 1 usage error, 2 data error (or too little
memory for the request), 3 numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .corpus import FEATURE_VOCAB_SIZE, Batch, Vocab, build_vocab, encode_corpus, read_parallel
from .errors import DataError, NumericError, RadnmtError, UsageError, atomic_write, read_lines
from .evaluation import TOKENIZATIONS, evaluate
from .decoding import DEFAULT_UNK_TOKEN, translate_file
from .model import ModelConfig, ModelParams, forward_loss, load_checkpoint
from .radicals import annotate_file, bundled_table_paths, load_radical_table
from .seeding import derive_rng
from .training import TrainConfig, train

# CLI key -> the ModelConfig/TrainConfig field that holds its default, type and range check
_MODEL_KEYS = {"hidden": "hidden_size", "char_embed": "char_embed_dim", "feat_embed": "feat_embed_dim"}
_TRAIN_KEYS = {"dropout": "dropout", "lr": "lr", "lr_decay": "lr_decay", "decay_mode": "decay_mode",
               "decay_start": "decay_start_epoch", "clip": "max_norm", "batch": "batch_size", "epochs": "epochs",
               "eval_every": "eval_every", "seed": "seed"}
# key -> (type, default); min_count, max_size (0 = unlimited) and max_src_len set no dataclass field
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {
    key: (type(getattr(cls, name)), getattr(cls, name))
    for keys, cls in ((_MODEL_KEYS, ModelConfig), (_TRAIN_KEYS, TrainConfig)) for key, name in keys.items()
} | {"min_count": (int, 1), "max_size": (int, 0), "max_src_len": (int, 400)}

PROFILES = {
    "paper": {},
    "toy": {"hidden": 64, "char_embed": 48, "feat_embed": 16, "epochs": 60, "dropout": 0.1},
}


def load_config(path) -> dict:
    """Parse a flat key=value file against the schema."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = CONFIG_SCHEMA[key][0]
        try:
            values[key] = kind(value)
        except ValueError:
            raise UsageError(
                f"{path}:{lineno}: value {value!r} for {key!r} is not a valid {kind.__name__}"
            )
    return values


def resolve_config(file_values: dict | None, flag_values: dict, profile: str | None) -> dict:
    """defaults < profile < file < flags; unknown keys were rejected earlier."""
    merged = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if profile is not None:
        if profile not in PROFILES:
            raise UsageError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
        merged.update(PROFILES[profile])
    if file_values:
        merged.update(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged


def _resolve_seed(args, cfg: dict) -> int:
    """--seed, else RADNMT_SEED, else the config's seed; derive_rng reads only its low 32 bits."""
    if getattr(args, "seed", None) is not None:
        seed, source = args.seed, "--seed"
    elif (env := os.environ.get("RADNMT_SEED")) is not None:
        try:
            seed, source = int(env), "RADNMT_SEED"
        except ValueError:
            raise UsageError(f"RADNMT_SEED must be an integer, got {env!r}")
    else:
        seed, source = int(cfg.get("seed", 0)), "seed"
    if not 0 <= seed < 2**32:
        raise UsageError(f"{source} must be in 0..{2**32 - 1}, got {seed}")
    return seed


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_run_manifest(
    target, args, inputs: tuple[str, ...], config: dict | None = None, seed: int = 0
) -> Path:
    """One manifest per run; identical manifests imply identical outputs.

    inputs names the file arguments recorded by digest. config defaults
    to every other parsed argument but the command and the output
    (--output, --out), so no flag that changes the output is left out.
    """
    if config is None:
        skip = {"command", "output", "out", *inputs}
        config = {k: v for k, v in vars(args).items() if k not in skip}
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": seed,
        "inputs": {name: _digest(getattr(args, name)) for name in sorted(inputs)},
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with atomic_write(target) as f:
        f.write(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n")
    return target


def positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid positive_int
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def non_negative_float(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid non_negative_float
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        raise UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="radnmt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"radnmt {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    han_default, kana_default = bundled_table_paths()

    def add_tables(p):
        p.add_argument("--han-table", default=str(han_default), help="Han->radical TSV")
        p.add_argument("--kana-table", default=str(kana_default), help="kana->kanji TSV")

    p = sub.add_parser("annotate", help="emit char|radical pairs per input line")
    add_tables(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("build-vocab", help="build a character vocabulary file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=None)

    p = sub.add_parser("train", help="train a model")
    add_tables(p)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--profile", choices=sorted(PROFILES), default=None)
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--dev-src", required=True)
    p.add_argument("--dev-tgt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    for key in ("seed", "epochs", "batch", "dropout", "lr", "hidden", "char_embed", "feat_embed"):
        p.add_argument("--" + key.replace("_", "-"), type=CONFIG_SCHEMA[key][0], default=None)
    p.add_argument("--no-features", action="store_true", help="train the no-feature baseline")

    p = sub.add_parser("translate", help="beam-translate a file")
    add_tables(p)
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--beam", type=positive_int, default=5)
    p.add_argument("--max-len", type=positive_int, default=None)
    p.add_argument("--length-norm", type=non_negative_float, default=0.0)
    p.add_argument("--unk-token", default=DEFAULT_UNK_TOKEN)

    p = sub.add_parser("eval", help="perplexity + BLEU against references")
    add_tables(p)
    p.add_argument("--model", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--tokenization", choices=TOKENIZATIONS, default="char")
    p.add_argument("--beam", type=positive_int, default=5)
    p.add_argument("--smoothing", action="store_true")
    p.add_argument("--out", default=None, help="directory for metrics/examples files")

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-4)
    return parser


def _manifest_path(output) -> Path:
    return Path(output).with_suffix(Path(output).suffix + ".manifest.json")


def _vocab_dir_paths(out_dir: Path):
    return out_dir / "src_vocab.tsv", out_dir / "tgt_vocab.tsv"


def _cmd_annotate(args) -> int:
    table = load_radical_table(args.han_table, args.kana_table)
    count = annotate_file(table, args.input, args.output)
    write_run_manifest(_manifest_path(args.output), args, ("input", "han_table", "kana_table"))
    print(f"annotated {count} lines -> {args.output}")
    return 0


def _cmd_build_vocab(args) -> int:
    vocab = build_vocab(read_lines(args.input), min_count=args.min_count, max_size=args.max_size)
    vocab.save(args.output)
    write_run_manifest(_manifest_path(args.output), args, ("input",))
    print(f"vocabulary of {len(vocab)} entries -> {args.output}")
    return 0


def _cmd_train(args) -> int:
    file_values = load_config(args.config) if args.config else None
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_SCHEMA}
    cfg = resolve_config(file_values, flags, args.profile)
    seed = _resolve_seed(args, cfg)
    if cfg["max_src_len"] < 1:
        raise UsageError(f"max_src_len must be >= 1, got {cfg['max_src_len']}")
    out_dir = Path(args.out)
    tconfig = TrainConfig(**{name: cfg[key] for key, name in _TRAIN_KEYS.items()}
                          | {"seed": seed, "checkpoint_dir": str(out_dir / "checkpoints")})
    table = load_radical_table(args.han_table, args.kana_table)
    train_pairs = read_parallel(args.train_src, args.train_tgt)
    dev_pairs = read_parallel(args.dev_src, args.dev_tgt)
    src_vocab, tgt_vocab = (
        build_vocab([pair[side] for pair in train_pairs], min_count=cfg["min_count"],
                    max_size=cfg["max_size"])
        for side in (0, 1)
    )
    model_values = {name: cfg[key] for key, name in _MODEL_KEYS.items()}
    if args.no_features:
        model_values["feat_embed_dim"] = 0
    mconfig = ModelConfig(src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
                          dropout=cfg["dropout"], **model_values)
    params = ModelParams.initialize(mconfig, seed, feature_path=not args.no_features)
    # --out is made only once every input and setting has been accepted and the model fits in memory
    out_dir.mkdir(parents=True, exist_ok=True)
    src_vocab_path, tgt_vocab_path = _vocab_dir_paths(out_dir)
    src_vocab.save(src_vocab_path)
    tgt_vocab.save(tgt_vocab_path)
    train_set = encode_corpus(train_pairs, src_vocab, tgt_vocab, table, cfg["max_src_len"])
    dev_set = encode_corpus(dev_pairs, src_vocab, tgt_vocab, table, max_chars=None)
    write_run_manifest(
        out_dir / "run_manifest.json", args,
        ("train_src", "train_tgt", "dev_src", "dev_tgt", "han_table", "kana_table"),
        {**cfg, "no_features": args.no_features}, seed,
    )
    report = train(params, train_set, dev_set, tconfig)
    with atomic_write(out_dir / "train_report.tsv") as f:
        f.write(report.to_tsv())
    last = report.epochs[-1]
    print(f"done: {len(report.epochs)} epochs, train_nll={last.train_nll:.4f}, "
          f"dev_ppl={last.dev_ppl:.4f}, checkpoints in {out_dir / 'checkpoints'}")
    return 0


def _load_model_and_vocabs(model_path):
    params = load_checkpoint(model_path)
    model_dir = Path(model_path).parent
    candidates = [model_dir, model_dir.parent]
    for base in candidates:
        src_path, tgt_path = _vocab_dir_paths(base)
        if src_path.exists() and tgt_path.exists():
            break
    else:
        raise DataError(
            f"could not find src_vocab.tsv/tgt_vocab.tsv next to {model_path} "
            f"(looked in {', '.join(str(c) for c in candidates)})"
        )
    src_vocab, tgt_vocab = Vocab.load(src_path), Vocab.load(tgt_path)
    sizes = [(src_path, len(src_vocab), "src_vocab_size"), (tgt_path, len(tgt_vocab), "tgt_vocab_size")]
    if params.feature_path:
        sizes.append(("the radical feature table", FEATURE_VOCAB_SIZE, "feat_vocab_size"))
    for what, rows, name in sizes:
        if rows != (expected := getattr(params.config, name)):
            raise DataError(f"{what} has {rows} entries, but {model_path} has {name} {expected}")
    return params, src_vocab, tgt_vocab


def _cmd_translate(args) -> int:
    table = load_radical_table(args.han_table, args.kana_table)
    params, src_vocab, tgt_vocab = _load_model_and_vocabs(args.model)
    count = translate_file(
        params, table, src_vocab, tgt_vocab, args.input, args.output,
        beam_size=args.beam, max_len=args.max_len, length_alpha=args.length_norm,
        unk_token=args.unk_token,
    )
    write_run_manifest(
        _manifest_path(args.output), args, ("model", "input", "han_table", "kana_table")
    )
    print(f"translated {count} lines -> {args.output}")
    return 0


def _cmd_eval(args) -> int:
    table = load_radical_table(args.han_table, args.kana_table)
    params, src_vocab, tgt_vocab = _load_model_and_vocabs(args.model)
    result = evaluate(
        params, table, src_vocab, tgt_vocab, args.src, args.ref,
        out_dir=args.out, tokenization=args.tokenization,
        beam_size=args.beam, smoothing=args.smoothing,
    )
    if args.out:
        write_run_manifest(
            Path(args.out) / "run_manifest.json", args,
            ("model", "src", "ref", "han_table", "kana_table"),
        )
    print(f"ppl={result['ppl']:.4f} bleu={result['bleu']:.2f} "
          f"(bp={result['brevity_penalty']:.4f}, {result['sentences']} sentences)")
    return 0


def _cmd_gradcheck(args) -> int:
    seed = _resolve_seed(args, {})
    config = ModelConfig(
        src_vocab_size=8, tgt_vocab_size=8, char_embed_dim=4, feat_embed_dim=2,
        hidden_size=4, feat_vocab_size=8,
    )
    params = ModelParams.initialize(config, seed)
    rng = derive_rng(seed, "gradcheck-data")
    src = rng.integers(4, 8, size=(1, 3))
    feats = rng.integers(1, 8, size=(1, 3))
    tgt = np.array([[1, int(rng.integers(4, 8)), 2]], dtype=np.int64)
    batch = Batch(src, feats, np.ones_like(src, dtype=bool), tgt, np.ones_like(tgt, dtype=bool))

    def loss():
        # mean per-token loss keeps the fd oracle's absolute noise small
        total, count = forward_loss(batch, params, train=False)
        return ad.mul(total, ad.Tensor(np.asarray(1.0 / count)))

    err = ad.grad_check(loss, params.all(), eps=2e-3, tolerance=args.tolerance)
    ok = err <= args.tolerance
    print(f"max relative error: {err:.3e} ({'PASS' if ok else 'FAIL'} at {args.tolerance:g})")
    return 0 if ok else 3


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 0
        handler = {
            "annotate": _cmd_annotate,
            "build-vocab": _cmd_build_vocab,
            "train": _cmd_train,
            "translate": _cmd_translate,
            "eval": _cmd_eval,
            "gradcheck": _cmd_gradcheck,
        }[args.command]
        return handler(args)
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (OSError, RadnmtError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 2


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")  # to stderr
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
