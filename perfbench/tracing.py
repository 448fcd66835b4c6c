"""Spans and counts around radnmt's layers, recorded from outside the program.

Each traced function is replaced, while tracing is on, in the namespace
its callers look it up in: ``training.forward_loss`` for the training
loop, ``decoding.decode_step`` for beam search, ``autodiff.backward``
for ``ad.backward(...)``, and so on. Spans (name, phase, start, end,
parent) are kept in memory and written out once, when the run ends.
Functions a later version of radnmt no longer has are skipped; their
metrics then read 0.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, owner within the module or None, attribute, span name)
SPANS = [
    ("radicals", None, "load_bundled_table", "radicals.load_table"),
    ("radicals", "RadicalTable", "annotate", "radicals.annotate"),
    ("corpus", None, "read_parallel", "corpus.read"),
    ("corpus", None, "build_vocab", "corpus.build_vocab"),
    ("corpus", None, "encode_corpus", "corpus.encode"),
    ("model", "ModelParams", "initialize", "model.initialize"),
    ("model", None, "load_checkpoint", "model.load_checkpoint"),
    ("training", None, "train", "training.train"),
    ("training", None, "make_batches", "corpus.make_batches"),
    ("training", None, "forward_loss", "model.forward_loss"),
    ("autodiff", None, "backward", "autodiff.backward"),
    ("autodiff", None, "clip_by_global_norm", "autodiff.clip"),
    ("training", None, "sgd_step", "training.sgd_step"),
    ("training", None, "perplexity", "training.perplexity"),
    ("model", None, "encode", "model.encode"),
    ("model", None, "init_decoder_state", "model.init_decoder_state"),
    ("model", None, "decode_step", "model.decode_step"),
    ("model", None, "attention", "model.attention"),
    ("model", None, "lstm_cell", "model.lstm_cell"),
    ("decoding", None, "translate_file", "decoding.translate_file"),
    ("decoding", None, "beam_search", "decoding.beam_search"),
    ("decoding", None, "encode", "model.encode"),
    ("decoding", None, "init_decoder_state", "model.init_decoder_state"),
    ("decoding", None, "decode_step", "model.decode_step"),
]

# model functions whose spans are split by whether a tape is recording
TAPE_SPLIT = ("model.encode", "model.decode_step", "model.attention", "model.lstm_cell")

# public autodiff ops, counted (not timed) per training step
OPS = (
    "matmul", "add", "mul", "tanh", "sigmoid", "softmax", "concat", "slice_axis",
    "embedding_lookup", "dropout_apply", "masked_nll", "bmm_scores", "bmm_context",
    "stack_steps",
)

# per-layer metric -> (span name, phase it is summed over, "total" or "self")
TIMES = {
    "radicals.load_table_s": ("radicals.load_table", "setup", "total"),
    "radicals.annotate_s": ("radicals.annotate", "setup", "total"),
    "corpus.read_s": ("corpus.read", "setup", "total"),
    "corpus.build_vocab_s": ("corpus.build_vocab", "setup", "total"),
    "corpus.encode_s": ("corpus.encode", "setup", "total"),
    "model.initialize_s": ("model.initialize", "setup", "total"),
    "model.load_checkpoint_s": ("model.load_checkpoint", "checkpoint", "total"),
    "training.train_s": ("training.train", "train", "total"),
    "corpus.make_batches_s": ("corpus.make_batches", "train", "total"),
    "model.forward_loss_s": ("model.forward_loss", "train", "total"),
    "autodiff.backward_s": ("autodiff.backward", "train", "total"),
    "autodiff.clip_s": ("autodiff.clip", "train", "total"),
    "training.sgd_step_s": ("training.sgd_step", "train", "total"),
    "training.perplexity_s": ("training.perplexity", "score", "total"),
    "decoding.translate_file_s": ("decoding.translate_file", "translate", "total"),
    "decoding.beam_search_s": ("decoding.beam_search", "translate", "total"),
    "decoding.bookkeeping_s": ("decoding.beam_search", "translate", "self"),
}
TIMES.update(
    {
        f"{name}_s.{tape}": (f"{name}.{tape}", None, "total")
        for name in TAPE_SPLIT
        for tape in ("taped", "untaped")
    }
)

PHASES = ("train", "score", "translate")


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {name: "s" for name in TIMES}
    units.update(
        {
            "corpus.pad_fraction": "ratio",
            "autodiff.tape_records_per_step": "count",
            "decoding.steps": "count",
            "decoding.candidates_per_step": "count",
            "decoding.unfinished": "count",
        }
    )
    units.update({f"autodiff.op_calls.{op}": "count" for op in OPS})
    units.update({f"trace.overhead.{phase}": "ratio" for phase in PHASES})
    return units


class Tracer:
    """Installs the wrappers while on, and keeps what they record."""

    def __init__(self, radnmt):
        self.modules = {
            name: getattr(radnmt, name)
            for name in ("radicals", "corpus", "model", "training", "autodiff", "decoding")
        }
        self.tape_active = getattr(self.modules["autodiff"], "active_tape", None)
        self.phase = "setup"
        self.spans: list[list] = []  # [name, phase, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.units: dict[tuple[str, bool], list[tuple[float, float]]] = defaultdict(list)
        self.saved: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def on(self, phase: str) -> None:
        self.phase = phase
        for module, owner, attr, name in SPANS:
            self._install(module, owner, attr, self._span_wrapper(name))
        for op in OPS:
            self._install("autodiff", None, op, self._count_wrapper(op))

    def off(self) -> None:
        while self.saved:
            target, attr, raw = self.saved.pop()
            setattr(target, attr, raw)

    def _install(self, module, owner, attr, make) -> None:
        target = self.modules[module]
        if owner is not None:
            target = getattr(target, owner, None)
        raw = vars(target).get(attr) if target is not None else None
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self.saved.append((target, attr, raw))
        setattr(target, attr, wrapped)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name):
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)
        split = name in TAPE_SPLIT

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = name
                if split:
                    label += ".taped" if self._taped() else ".untaped"
                index = len(self.spans)
                parent = self.stack[-1] if self.stack else -1
                self.spans.append([label, self.phase, 0.0, 0.0, parent])
                self.stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self.stack.pop()
                    self.spans[index][2:4] = [start, end]
                if observe is not None:
                    observe(args, result, parent)
                return result

            return wrapper

        return make

    def _count_wrapper(self, op):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[f"{self.phase}.op.{op}"] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _taped(self) -> bool:
        if self.tape_active is None:
            return self.phase == "train"
        return self.tape_active() is not None

    def _after_corpus_make_batches(self, args, batches, parent) -> None:
        for batch in batches:
            for mask in (batch.src_mask, batch.tgt_mask):
                self.counts[f"{self.phase}.cells"] += mask.size
                self.counts[f"{self.phase}.pad_cells"] += mask.size - int(mask.sum())

    def _after_autodiff_backward(self, args, result, parent) -> None:  # backward(loss, tape)
        self.counts[f"{self.phase}.steps"] += 1
        self.counts[f"{self.phase}.tape_records"] += len(args[1])

    def _after_decoding_beam_search(self, args, hyps, parent) -> None:
        self.counts["beam.unfinished"] += not hyps[0].finished  # the one translate_line keeps

    def _after_model_decode_step(self, args, result, parent) -> None:
        if parent >= 0 and self.spans[parent][0] == "decoding.beam_search":
            rows, vocab = result[0].shape
            self.counts["beam.steps"] += 1
            self.counts["beam.candidates"] += rows * (vocab - 2)  # PAD, BOS never emitted

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures over the traced units of the run."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, phase, start, end, parent in self.spans:
            total[name, phase] += end - start
            if parent >= 0:
                pname, pphase = self.spans[parent][:2]
                child[pname, pphase] += end - start
        out = {}
        for metric, (name, phase, kind) in TIMES.items():
            keys = [k for k in total if k[0] == name and (phase is None or k[1] == phase)]
            out[metric] = sum(total[k] - (child[k] if kind == "self" else 0.0) for k in keys)
        c = self.counts
        steps = c["train.steps"]
        out["corpus.pad_fraction"] = c["train.pad_cells"] / max(c["train.cells"], 1)
        out["autodiff.tape_records_per_step"] = c["train.tape_records"] / max(steps, 1)
        for op in OPS:
            out[f"autodiff.op_calls.{op}"] = c[f"train.op.{op}"] / max(steps, 1)
        out["decoding.steps"] = c["beam.steps"]
        out["decoding.candidates_per_step"] = c["beam.candidates"] / max(c["beam.steps"], 1)
        out["decoding.unfinished"] = c["beam.unfinished"]
        for phase in PHASES:
            traced, untraced = self.units[phase, True], self.units[phase, False]
            overhead = 0.0
            if traced and untraced:
                overhead = _seconds_per_work(traced) / _seconds_per_work(untraced) - 1.0
            out[f"trace.overhead.{phase}"] = overhead
        return out

    def record_unit(self, phase: str, traced: bool, seconds: float, work: float) -> None:
        """One timed unit of a phase, for the tracing overhead."""
        self.units[phase, traced].append((seconds, work))

    def write(self, path, header: dict, metrics: dict) -> None:
        record = dict(header, spans=self.spans, counts=dict(self.counts), metrics=metrics)
        path.write_text(json.dumps(record), encoding="utf-8")


def _seconds_per_work(units) -> float:
    return sum(t for t, _ in units) / sum(w for _, w in units)
