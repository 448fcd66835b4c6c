"""Plain-SGD training with gradient clipping and perplexity reporting.

Per batch: forward (train mode) -> backward -> clip the global gradient
norm to max_norm -> p <- p - lr * g. No momentum, no weight decay.
The learning rate only ever decays; dev perplexity is always computed
with dropout disabled.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .corpus import ExamplePair, make_batches
from .errors import ConfigError, DataError, NumericError
from .model import ModelParams, forward_loss, save_checkpoint
from .seeding import derive_rng

log = logging.getLogger(__name__)

DECAY_MODES = ("plateau", "epoch", "none")
PLATEAU_THRESHOLD = 1e-3  # relative dev-ppl improvement that counts


@dataclass
class TrainConfig:
    lr: float = 1.0
    lr_decay: float = 0.5
    decay_mode: str = "plateau"
    decay_start_epoch: int = 10  # first decaying epoch in "epoch" mode
    max_norm: float = 1.0
    batch_size: int = 10
    dropout: float = 0.8
    epochs: int = 30
    seed: int = 0
    checkpoint_dir: str | None = None
    eval_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.max_norm) and self.max_norm > 0):
            raise ConfigError(f"max_norm must be finite and positive, got {self.max_norm}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must be in (0, 1]")
        if self.decay_mode not in DECAY_MODES:
            raise ConfigError(f"decay_mode must be one of {DECAY_MODES}")
        if self.decay_start_epoch < 1:
            raise ConfigError(f"decay_start_epoch must be >= 1, got {self.decay_start_epoch}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 1 <= self.eval_every <= self.epochs:
            raise ConfigError(f"eval_every must be in 1..epochs ({self.epochs}), got {self.eval_every}")


@dataclass
class EpochStats:
    epoch: int
    train_nll: float  # mean per-token training NLL
    dev_ppl: float
    lr: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)
    batch_nll: list[float] = field(default_factory=list)
    pre_clip_norms: list[float] = field(default_factory=list)
    post_clip_norms: list[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.post_clip_norms)

    def to_tsv(self, include_timing: bool = True) -> str:
        """One row per epoch. The seconds column is wall time and is the
        only non-deterministic field; exclude it when comparing runs."""
        cols = ["epoch", "train_nll", "dev_ppl", "lr"] + (["seconds"] if include_timing else [])
        lines = ["\t".join(cols)]
        for e in self.epochs:
            row = [str(e.epoch), repr(e.train_nll), repr(e.dev_ppl), repr(e.lr)]
            if include_timing:
                row.append(f"{e.seconds:.3f}")
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def sgd_step(params: ModelParams, lr: float) -> None:
    """p <- p - lr * grad, one tensor at a time: one flat update would make a model-sized temporary."""
    for name, t in params.named():
        t.data -= lr * t.grad
        if not bool(np.isfinite(t.data).all()):
            raise NumericError(f"non-finite update for parameter {name}")


def perplexity(params: ModelParams, examples: list[ExamplePair], batch_size: int = 10) -> float:
    """exp(total NLL / total target tokens), dropout disabled."""
    if not examples:
        raise DataError("perplexity of an empty dataset")
    total_nll = 0.0
    total_tokens = 0
    for batch in make_batches(examples, batch_size, seed=0):
        loss, count = forward_loss(batch, params, train=False)
        total_nll += loss.item()
        total_tokens += count
    return math.exp(total_nll / total_tokens)


def train(
    params: ModelParams,
    train_set: list[ExamplePair],
    dev_set: list[ExamplePair],
    config: TrainConfig,
) -> TrainReport:
    """Run the full loop; deterministic for a given config and seed.

    On numeric divergence, raises NumericError; checkpoints written for
    completed epochs stay on disk.
    """
    if not train_set:
        raise DataError("training set is empty")
    report = TrainReport()
    lr = config.lr
    best_dev = math.inf
    ckpt_dir = Path(config.checkpoint_dir) if config.checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    last_ckpt = None
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        batches = make_batches(
            train_set, config.batch_size, seed=derive_rng(config.seed, "shuffle", epoch).integers(2**31)
        )
        epoch_nll = 0.0
        epoch_tokens = 0
        for bi, batch in enumerate(batches):
            rng = derive_rng(config.seed, "dropout", epoch, bi) if config.dropout > 0 else None
            params.zero_grads()
            try:
                with ad.Tape() as tape:
                    loss, count = forward_loss(
                        batch, params, train=True, dropout=config.dropout, rng=rng
                    )
                ad.backward(loss, tape)
            except NumericError as exc:
                raise NumericError(
                    f"training diverged at epoch {epoch} batch {bi}: {exc}; "
                    f"last good checkpoint: {last_ckpt}"
                ) from exc
            grads = params.grads()
            _, pre = ad.clip_by_global_norm(grads, config.max_norm)
            report.pre_clip_norms.append(pre)
            report.post_clip_norms.append(ad.global_norm(grads))
            sgd_step(params, lr)
            report.batch_nll.append(loss.item())
            epoch_nll += loss.item()
            epoch_tokens += count
        train_nll = epoch_nll / max(epoch_tokens, 1)
        dev_ppl = math.nan
        if dev_set and epoch % config.eval_every == 0:
            dev_ppl = perplexity(params, dev_set, config.batch_size)
        if ckpt_dir:
            last_ckpt = str(ckpt_dir / f"epoch_{epoch:04d}.rnmt")
            save_checkpoint(params, last_ckpt)
            report.checkpoints.append(last_ckpt)
        report.epochs.append(
            EpochStats(epoch, train_nll, dev_ppl, lr, time.perf_counter() - start)
        )
        log.info("epoch %d: train_nll=%.4f dev_ppl=%s lr=%g", epoch, train_nll, dev_ppl, lr)
        # schedule: the rate never increases
        if config.decay_mode == "plateau" and not math.isnan(dev_ppl):
            if best_dev < math.inf and (best_dev - dev_ppl) <= PLATEAU_THRESHOLD * best_dev:
                lr *= config.lr_decay
            best_dev = min(best_dev, dev_ppl)
        elif config.decay_mode == "epoch" and epoch >= config.decay_start_epoch:
            lr *= config.lr_decay
    return report
