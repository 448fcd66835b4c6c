"""Attentional encoder-decoder over characters with radical input features.

Architecture:

* Source embedding: per position, the character embedding (p1 dims) is
  concatenated with a separately trained radical embedding (p2 dims);
  the concatenated length p1+p2 is the total embedding size. With p2=0
  the model degenerates exactly to a plain character embedding.
* Encoder: single-layer bidirectional LSTM; the annotation vector at
  position j is the concatenation of forward and backward states (2q).
  encode also returns the decoder's start state, an affine+tanh map of
  the final backward state (h and c each). Embedding lookup, both
  recurrences and the start-state maps are one ad.encoder record.
* Decoder: single-layer LSTM with input feeding: its input is the
  previous target character's embedding concatenated with the previous
  attentional output h~. Attention is Luong-style "general", score
  s^T W h over annotations, masked softmax, weighted-sum context;
  h~ = tanh(W_c [s; c]). The step is written once, as ad.decoder_step:
  training records the target embedding lookup and every step as one
  ad.decoder op, and decode_step runs it untaped for beam search.
* Output: linear projection of h~ to target vocabulary logits; training
  scores every step's logits as one ad.output_nll record, and
  decode_step takes them from the same ad.project.

Training-mode dropout is applied to the embedded encoder/decoder inputs
and to h~ (the dropped h~ is both projected and fed forward).

ModelParams holds one float64 parameter array, the checkpoint payload,
and one gradient array; each named tensor's values and gradient are views.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import FEATURE_VOCAB_SIZE, Batch
from .errors import ConfigError, DataError, atomic_write
from .seeding import derive_rng

CHECKPOINT_MAGIC = b"RNMT"
CHECKPOINT_VERSION = 1

# the encoder and decoder weights, in the order ad.encoder and ad.decoder(_step) take them
_ENCODER_WEIGHTS = ("enc_fwd_Wx", "enc_fwd_Wh", "enc_fwd_b", "enc_bwd_Wx", "enc_bwd_Wh", "enc_bwd_b",
                    "dec_init_h_W", "dec_init_h_b", "dec_init_c_W", "dec_init_c_b")
_DECODER_WEIGHTS = ("dec_Wx", "dec_Wh", "dec_b", "attn_W", "attn_out_W")


@dataclass(frozen=True)
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    char_embed_dim: int = 448  # p1
    feat_embed_dim: int = 64  # p2; 0 disables the radical path
    hidden_size: int = 512  # q
    feat_vocab_size: int = FEATURE_VOCAB_SIZE
    dropout: float = 0.8  # recorded in checkpoints only; training passes TrainConfig.dropout to forward_loss

    def __post_init__(self):
        if self.char_embed_dim < 1:
            raise ConfigError("char_embed_dim must be >= 1")
        if self.feat_embed_dim < 0:
            raise ConfigError("feat_embed_dim must be >= 0")
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be >= 1")
        if self.src_vocab_size < 5 or self.tgt_vocab_size < 5:
            raise ConfigError("vocabularies must contain at least one character")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


def _param_shapes(config: ModelConfig, feature_path: bool) -> dict[str, tuple[int, ...]]:
    p1, p2, q = config.char_embed_dim, config.feat_embed_dim, config.hidden_size
    p = p1 + p2 if feature_path else p1
    shapes: dict[str, tuple[int, ...]] = {"src_char_emb": (config.src_vocab_size, p1)}
    if feature_path:
        shapes["src_feat_emb"] = (config.feat_vocab_size, p2)
    shapes.update(
        {
            "tgt_char_emb": (config.tgt_vocab_size, p1),
            "enc_fwd_Wx": (p, 4 * q),
            "enc_fwd_Wh": (q, 4 * q),
            "enc_fwd_b": (4 * q,),
            "enc_bwd_Wx": (p, 4 * q),
            "enc_bwd_Wh": (q, 4 * q),
            "enc_bwd_b": (4 * q,),
            "dec_Wx": (p1 + q, 4 * q),
            "dec_Wh": (q, 4 * q),
            "dec_b": (4 * q,),
            "dec_init_h_W": (q, q),
            "dec_init_h_b": (q,),
            "dec_init_c_W": (q, q),
            "dec_init_c_b": (q,),
            "attn_W": (q, 2 * q),
            "attn_out_W": (3 * q, q),
            "out_W": (q, config.tgt_vocab_size),
            "out_b": (config.tgt_vocab_size,),
        }
    )
    return shapes


class ModelParams:
    """Trainable tensors by name: views, in _param_shapes order, of flat self.data (data, uncopied) and self.grad."""

    def __init__(self, config: ModelConfig, feature_path: bool, data: np.ndarray | None = None):
        self.config = config
        self.feature_path = feature_path
        shapes = _param_shapes(config, feature_path)
        ends = list(itertools.accumulate(map(math.prod, shapes.values()), initial=0))
        self._spans = list(map(slice, ends, ends[1:]))  # each tensor's elements of data and grad
        try:
            self.data = np.empty(ends[-1]) if data is None else data
        except ValueError as exc:  # numpy's limit on one dimension, past any memory
            raise MemoryError(f"{ends[-1]} parameters do not fit in one array") from exc
        self._tensors = {name: Tensor(self.data[span].reshape(shape), requires_grad=True, name=name)
                         for (name, shape), span in zip(shapes.items(), self._spans)}
        self.zero_grads()

    @classmethod
    def initialize(
        cls,
        config: ModelConfig,
        seed: int,
        feature_path: bool = True,
        init_low: float = -0.1,
        init_high: float = 0.1,
    ) -> "ModelParams":
        """Uniform init in [init_low, init_high); forget-gate biases start at 1.

        Each tensor draws from its own named stream, so models sharing a
        parameter name get bit-identical values for it regardless of
        which other parameters exist.
        """
        if feature_path is False and config.feat_embed_dim != 0:
            raise ConfigError("the no-feature baseline requires feat_embed_dim == 0")
        if not init_low < init_high:
            raise ConfigError(f"init_low {init_low} must be < init_high {init_high}")
        params = cls(config, feature_path)
        for name, t in params.named():  # uniform's low + (high - low) * u, drawn into the view
            derive_rng(seed, "init", name).random(out=t.data)
            t.data *= init_high - init_low
            t.data += init_low
        q = config.hidden_size
        for name in ("enc_fwd_b", "enc_bwd_b", "dec_b"):
            params[name].data[q : 2 * q] = 1.0
        return params

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def named(self):
        return self._tensors.items()

    def all(self) -> list[Tensor]:
        return list(self._tensors.values())

    def zero_grads(self) -> None:
        """Views of a fresh np.zeros array, whose calloc'd pages add to RSS only once written."""
        self.grad = np.zeros(self.data.size)
        for t, span in zip(self._tensors.values(), self._spans):
            t.grad = self.grad[span].reshape(t.shape)

    def grads(self) -> list[np.ndarray]:
        """Each tensor's gradient array, in parameter order."""
        return [t.grad for t in self._tensors.values()]


def encode(
    src: np.ndarray,
    feats: np.ndarray | None,
    src_mask: np.ndarray,
    params: ModelParams,
    drop_p: float = 0.0,
    rng=None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Bidirectional encoding as one ad.encoder op; returns (annotations (B, L, 2q), h0, c0).

    Masked positions carry state unchanged. The decoder's start state
    h0, c0 (B, q) is an affine+tanh map of the backward state after
    reading position 0.
    """
    if src.ndim != 2 or src.shape[1] == 0:
        raise DataError(f"encode needs a (B, L>=1) id grid, got {src.shape}")
    # time-major rows: row j*B + b is position j of sentence b
    tables, ids = [params["src_char_emb"]], [src.T.reshape(-1)]
    if params.feature_path:
        if feats is None:
            raise DataError("feature ids required when the feature path is enabled")
        tables.append(params["src_feat_emb"])
        ids.append(feats.T.reshape(-1))
    width = sum(t.shape[1] for t in tables)
    keep = ad.make_dropout_mask((src.size, width), drop_p, rng) if drop_p > 0.0 else None
    return ad.encoder(tables, ids, src_mask, keep, *(params[name] for name in _ENCODER_WEIGHTS))


def decode_step(
    y_prev: np.ndarray,
    h_tilde_prev: np.ndarray,
    state: tuple[np.ndarray, np.ndarray],
    vectors: np.ndarray,
    bias: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """One untaped decoder step, as decoding runs it; returns (logits, (h, c), h~).

    y_prev, h_tilde_prev and state hold one row per hypothesis; the
    annotation arrays (S, L, 2q) and the attention bias (S, L), made once
    from their mask by ad._attention_bias, hold S sentences, each read by
    its own consecutive group of len(y_prev) // S rows.
    """
    (h, c, h_tilde), _ = ad.decoder_step(
        params["tgt_char_emb"].data[y_prev], h_tilde_prev, *state, vectors, bias,
        *(params[name].data for name in _DECODER_WEIGHTS),
    )
    return ad.project(h_tilde, params["out_W"].data, params["out_b"].data), (h, c), h_tilde


def forward_loss(
    batch: Batch,
    params: ModelParams,
    train: bool = False,
    dropout: float = 0.0,
    rng=None,
) -> tuple[Tensor, int]:
    """Teacher-forced NLL summed over real target positions.

    BOS is never predicted; EOS is. The encoder, the decoder over every
    step and the output loss over every step's h~ are one record each.
    With train and dropout > 0, rng draws the encoder's mask first, then
    per step t the (B, p1) mask of its embeddings and the (B, q) mask of
    its h~.
    Returns (total NLL, token count).
    """
    drop_p = dropout if train else 0.0
    ann, h0, c0 = encode(batch.src, batch.feats, batch.src_mask, params, drop_p, rng)
    keep = None
    if drop_p > 0.0:
        widths = (params.config.char_embed_dim, params.config.hidden_size)
        keep = np.stack([
            np.concatenate([ad.make_dropout_mask((batch.size, n), drop_p, rng) for n in widths], axis=1)
            for _ in range(batch.tgt.shape[1] - 1)
        ])
    # time-major rows: row t*B + b is step t of sentence b, which reads tgt[b, t] and predicts tgt[b, t + 1]
    h_tildes = ad.decoder(params["tgt_char_emb"], batch.tgt[:, :-1].T.reshape(-1), keep, h0, c0, ann,
                          batch.src_mask, *(params[name] for name in _DECODER_WEIGHTS))
    total = ad.output_nll(h_tildes, params["out_W"], params["out_b"],
                          batch.tgt[:, 1:].T.reshape(-1), batch.tgt_mask[:, 1:].T.reshape(-1))
    return total, int(batch.tgt_mask[:, 1:].sum())


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, path) -> None:
    """Bit-exact binary checkpoint: magic, version, JSON manifest, and params.data as the f64 payload.

    The file is written through errors.atomic_write, so a write cut off
    part way leaves path as it was and no temporary file behind.
    """
    directory = [{"name": name, "shape": list(t.shape), "offset": 8 * span.start}
                 for (name, t), span in zip(params.named(), params._spans)]
    manifest = json.dumps(
        {
            "config": asdict(params.config),
            "feature_path": params.feature_path,
            "tensors": directory,
        },
        ensure_ascii=False,
    ).encode("utf-8")
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(manifest)))
        f.write(manifest)
        f.write(np.ascontiguousarray(params.data, dtype="<f8"))  # no copy on a little-endian host


def load_checkpoint(path) -> ModelParams:
    """The parameters save_checkpoint wrote to path, as views of one float64 buffer read in one call."""
    with Path(path).open("rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint (bad magic {magic!r})")
        try:
            (version,) = struct.unpack("<I", f.read(4))
            if version != CHECKPOINT_VERSION:
                raise DataError(f"{path}: unsupported checkpoint version {version}")
            (manifest_len,) = struct.unpack("<Q", f.read(8))
            if manifest_len > os.fstat(f.fileno()).st_size - f.tell():
                raise ValueError(f"manifest of {manifest_len} bytes runs past the end of the file")
            manifest = json.loads(f.read(manifest_len).decode("utf-8"))
        except (struct.error, ValueError) as exc:  # short read, cut-off JSON
            raise DataError(f"{path}: truncated checkpoint header ({exc})") from exc
        except RecursionError as exc:
            raise DataError(f"{path}: invalid checkpoint manifest (nested too deeply)") from exc
        config, feature_path, size = _check_manifest(manifest, path, os.fstat(f.fileno()).st_size - f.tell())
        payload = np.empty(size // 8, dtype="<f8")
        if f.readinto(payload) != size:  # the file shrank since fstat
            raise DataError(f"{path}: truncated checkpoint (payload ends early)")
    return ModelParams(config, feature_path, payload)


def _check_manifest(manifest, path, payload_bytes: int) -> tuple[ModelConfig, bool, int]:
    """The config, feature flag and payload size of a checkpoint manifest.

    Anything but the layout save_checkpoint writes raises DataError: each
    tensor starts where the one before it ends, so none overlap, the
    payload_bytes left in the file must hold them all, and their names,
    shapes and order are _param_shapes' for the config and feature flag.
    """

    def bad(what: str) -> DataError:
        return DataError(f"{path}: invalid checkpoint manifest ({what})")

    def count(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    if not isinstance(manifest, dict) or set(manifest) != {"config", "feature_path", "tensors"}:
        raise bad("expected an object with exactly config, feature_path and tensors")
    raw, entries = manifest["config"], manifest["tensors"]
    if not isinstance(raw, dict):
        raise bad("config is not an object")
    # single-valued fields that older manifests still carry
    raw = {key: value for key, value in raw.items() if key not in ("layers", "attention")}
    kinds = {field.name: field.type for field in fields(ModelConfig)}
    for key, value in raw.items():
        if key not in kinds:
            raise bad(f"unknown config key {key!r}")
        if not (count(value) or (kinds[key] == "float" and isinstance(value, float))):
            raise bad(f"config {key} is {value!r}")
    try:
        config = ModelConfig(**raw)
    except (TypeError, ConfigError) as exc:
        raise bad(str(exc)) from exc
    if not isinstance(manifest["feature_path"], bool):
        raise bad("feature_path is not true or false")
    if not isinstance(entries, list):
        raise bad("tensors is not a list")
    end = 0
    for entry in entries:
        # a name of any other kind fails the comparison with _param_shapes below
        if not (isinstance(entry, dict) and set(entry) == {"name", "shape", "offset"}
                and count(entry["offset"]) and isinstance(entry["shape"], list)
                and all(count(n) for n in entry["shape"])):
            raise bad(f"bad tensor entry {entry!r}")
        if entry["offset"] != end:
            raise bad(f"{entry['name']} at offset {entry['offset']}, not {end} where the one before ends")
        end += 8 * math.prod(entry["shape"])  # Python ints: a huge shape cannot wrap round to a small size
        if end > payload_bytes:
            raise DataError(f"{path}: truncated checkpoint (payload ends inside {entry['name']})")
    layout = [(entry["name"], tuple(entry["shape"])) for entry in entries]
    expected = list(_param_shapes(config, manifest["feature_path"]).items())
    for i, (got, want) in enumerate(itertools.zip_longest(layout, expected)):
        if got != want:
            raise bad(f"tensor {i} is {got or 'missing'}, where the config has {want or 'none'}")
    return config, manifest["feature_path"], end
