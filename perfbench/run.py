"""Benchmark of radnmt's train -> score -> translate cycle.

    python3 perfbench/run.py --workload toy-memorize --seed 1 --seconds 40 --trace 0

Run from the root of a radnmt source tree; the package is imported from
its ``src`` directory. One process sets up, trains, scores and
translates through radnmt's public API, checks the outputs, and prints
one JSON object as its last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer split from ``tracing.py``
and writes the spans to ``perfbench/traces/``. See ``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the host has two cores and shares them with other
# work, and with two threads paper-shape steps ran several times slower
# whenever the second core was busy. Must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

BEAM = 5


@dataclass(frozen=True)
class Workload:
    model: dict  # ModelConfig fields besides the vocabulary sizes
    train: dict  # TrainConfig fields besides epochs and seed
    make_inputs: object  # (tmp dir, seed) -> inputs.Inputs
    vocab_cap: int | None
    train_unit: int | None  # examples per train() call; None = the whole corpus
    model_seed: int | None  # seed of the initial parameters and shuffles; None = --seed
    translate_after: int | None  # translate the trained model from this train unit on;
    # None = translate the initial parameters throughout
    min_units: dict  # phase -> units a run makes at least
    n_score: int | None  # examples scored; None = the whole corpus
    n_beam_checks: int  # translated lines checked against beam_search and teacher forcing
    shares: dict  # phase -> share of the measured time
    trace_units: dict  # phase -> units a traced run makes


WORKLOADS = {
    # Acceptance criterion 3: tiny matrices, so per-op Python cost dominates.
    # The 50 pairs are memorized by epoch 130, so translation starts at
    # epoch 140 and every output is checked against its reference. The
    # corpus is bundled and the model seed fixed: how long beam search goes
    # on after the best hypothesis ends depends on the trained model, and
    # with a seeded model it varied by 15% from seed to seed.
    "toy-memorize": Workload(
        model=dict(char_embed_dim=24, feat_embed_dim=8, hidden_size=32, dropout=0.0),
        train=dict(lr=2.0, decay_mode="none", dropout=0.0, batch_size=5),
        make_inputs=lambda tmp, seed: inputs.toy_inputs(tmp),
        vocab_cap=None,
        train_unit=None,
        model_seed=0,
        translate_after=140,
        min_units={"train": 160, "score": 1, "translate": 4},
        n_score=None,
        n_beam_checks=10,
        shares={"train": 0.3, "score": 0.05, "translate": 0.65},
        trace_units={"train": 161, "score": 21, "translate": 5},
    ),
    # Paper shape: GEMMs, dense per-step gradient sums and beam bookkeeping
    # over a 4,000-character vocabulary dominate. Translation reads the
    # initial parameters, so every beam step keeps 5 live hypotheses and
    # runs to max_len: the same work in every run.
    "paper-synthetic": Workload(
        model=dict(char_embed_dim=448, feat_embed_dim=64, hidden_size=512, dropout=0.8),
        train=dict(lr=1.0, decay_mode="none", dropout=0.8, batch_size=10),
        make_inputs=inputs.synthetic_inputs,
        vocab_cap=inputs.VOCAB_CAP,
        train_unit=10,
        model_seed=None,
        translate_after=None,
        min_units={"train": 1, "score": 1, "translate": 1},
        n_score=inputs.N_SCORE,
        n_beam_checks=1,
        shares={"train": 0.4, "score": 0.15, "translate": 0.45},
        trace_units={"train": 5, "score": 3, "translate": 3},
    ),
}


@dataclass
class Phase:
    unit: object  # (index) -> work done: target tokens or sentences
    check: object  # () -> failure messages about the unit just run
    ready: object = lambda: True
    min_units: int = 1
    done: int = 0
    progress: float = 0.0  # seconds spent, for scheduling only
    started: bool = False


def target_tokens(examples) -> int:
    """Target positions forward_loss predicts: EOS included, BOS not."""
    return sum(len(e.tgt_ids) - 1 for e in examples)


class Run:
    def __init__(self, args, tmp: Path):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.tmp = tmp
        self.tracer = None
        self.errors: list[str] = []
        self.attempted = 0
        self.metrics: dict[str, tuple[float, str]] = {}

    def measure(self, phases: dict) -> dict:
        """Interleave timed units of the phases; returns each phase's rate.

        The next unit belongs to the ready phase furthest behind its share
        of the time, so every phase samples the machine across the run, not
        in one stretch of it. Untraced runs go on for --seconds and until
        every phase has made its minimum of units. Traced runs make a fixed
        number of units per phase, alternately without and with tracing.
        A phase's rate is its total work over its total time, untraced
        units only.
        """
        shares = self.workload.shares
        totals = {name: [0.0, 0.0] for name in phases}  # work, seconds
        start = time.perf_counter()
        while True:
            ready = [n for n in phases if phases[n].ready()]
            for n in ready:  # a phase that just became ready joins level with the rest
                if not phases[n].started:
                    behind = [phases[m].progress / shares[m] for m in ready if phases[m].started]
                    phases[n].progress = shares[n] * min(behind, default=0.0)
                    phases[n].started = True
            if self.tracer:
                todo = [n for n in ready if phases[n].done < self.workload.trace_units[n]]
            elif time.perf_counter() - start < self.args.seconds:
                todo = ready
            else:  # a phase below its minimum that is not ready waits on the others
                below = [n for n in phases if phases[n].done < phases[n].min_units]
                todo = [n for n in below if n in ready] or (ready if below else [])
            if not todo:
                return {name: work / seconds for name, (work, seconds) in totals.items()}
            name = min(todo, key=lambda n: phases[n].progress / shares[n])
            phase = phases[name]
            traced = self.tracer is not None and phase.done % 2 == 1
            if traced:
                self.tracer.on(name)
            t0 = time.perf_counter()
            work = phase.unit(phase.done)
            seconds = time.perf_counter() - t0
            if traced:
                self.tracer.off()
            if self.tracer and phase.done > 0:  # a phase's first unit warms it up
                self.tracer.record_unit(name, traced, seconds, work)
            if not traced:
                totals[name][0] += work
                totals[name][1] += seconds
            self.errors += phase.check()
            phase.done += 1
            phase.progress += seconds
            self.attempted += 1

    def execute(self) -> None:
        wl, args = self.workload, self.args
        gen_start = time.perf_counter()
        data = wl.make_inputs(self.tmp, args.seed)
        gen_seconds = time.perf_counter() - gen_start

        import radnmt
        from radnmt import corpus, decoding, model, radicals, training

        if Path(radnmt.__file__).resolve().parent != ROOT / "src" / "radnmt":
            raise SystemExit(f"imported radnmt from {radnmt.__file__}, not from this tree")
        if args.trace:
            import tracing

            self.tracer = tracing.Tracer(radnmt)
            self.tracer.on("setup")
        table = radicals.load_bundled_table()
        pairs = corpus.read_parallel(data.src_path, data.tgt_path)
        src_vocab = corpus.build_vocab([s for s, _ in pairs], max_size=wl.vocab_cap)
        tgt_vocab = corpus.build_vocab([t for _, t in pairs], max_size=wl.vocab_cap)
        examples = corpus.encode_corpus(pairs, src_vocab, tgt_vocab, table)
        config = model.ModelConfig(len(src_vocab), len(tgt_vocab), **wl.model)
        seed = args.seed if wl.model_seed is None else wl.model_seed
        params = model.ModelParams.initialize(config, seed=seed)
        if self.tracer:
            self.tracer.off()
        setup_seconds = time.perf_counter() - PROCESS_START - gen_seconds

        import numpy as np

        import checks

        load_seconds = []

        def checkpoint():
            """Save the model translation reads (untimed), then load it (timed)."""
            path = self.tmp / "model.rnmt"
            model.save_checkpoint(params, path)
            if self.tracer:
                self.tracer.on("checkpoint")
            start = time.perf_counter()
            loaded = model.load_checkpoint(path)
            load_seconds.append(time.perf_counter() - start)
            if self.tracer:
                self.tracer.off()
            self.errors += checks.same_params(params, loaded)
            return loaded

        translate_params = None if wl.translate_after else checkpoint()

        check_set = [
            corpus.encode_pair(s, t, src_vocab, tgt_vocab, table) for s, t in data.check_pairs
        ]
        # at the initial parameters, where the gradient is far from 0
        fd_batch = corpus.make_batches(check_set[:2], 2)[0]
        self.errors += checks.finite_difference(params, fd_batch, np.random.default_rng(args.seed))

        def train_config(i):
            return training.TrainConfig(**wl.train, epochs=1, seed=seed * 1_000_003 + i)

        training.train(params, check_set[: wl.train["batch_size"]], [], train_config(-1))  # warm-up

        size = wl.train_unit or len(examples)
        train_units = [examples[i : i + size] for i in range(0, len(examples) - size + 1, size)]

        def train_unit(i):
            chunk = train_units[i % len(train_units)]
            training.train(params, chunk, [], train_config(i))
            return target_tokens(chunk)

        score_set = examples[: wl.n_score] if wl.n_score else examples

        def score_unit(i):
            training.perplexity(params, score_set, wl.train["batch_size"])
            return target_tokens(score_set)

        sources = data.translate_path.read_text(encoding="utf-8").splitlines()
        out_path = self.tmp / "translations.txt"
        outputs = []

        def translate_ready():
            nonlocal translate_params
            if translate_params is None and phases["train"].done >= wl.translate_after:
                translate_params = checkpoint()
            return translate_params is not None

        def translate_unit(i):
            return decoding.translate_file(
                translate_params, table, src_vocab, tgt_vocab, data.translate_path, out_path,
                beam_size=BEAM,
            )

        def translate_check():
            outputs.append(out_path.read_text(encoding="utf-8").splitlines())
            return checks.translations(outputs[-1], len(sources), data.reference_lines)

        least = wl.min_units
        phases = {
            "train": Phase(train_unit, lambda: checks.clipped(params, train_config(0).max_norm),
                           min_units=least["train"]),
            "score": Phase(score_unit, lambda: [], min_units=least["score"]),
            "translate": Phase(translate_unit, translate_check, translate_ready,
                               least["translate"]),
        }
        rates = self.measure(phases)

        memorized = wl.translate_after is not None
        self.errors += checks.perplexity(params, check_set, score_set, memorized)
        k = wl.n_beam_checks
        self.errors += checks.beam(
            translate_params, table, src_vocab, tgt_vocab, sources[:k], outputs[-1][:k], BEAM
        )
        self.metrics = {
            "train_tokens_per_s": (rates["train"], "tokens/s"),
            "score_tokens_per_s": (rates["score"], "tokens/s"),
            "translate_sentences_per_s": (rates["translate"], "sentences/s"),
            "setup_s": (setup_seconds + load_seconds[0], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def result(self) -> dict:
        if self.tracer:
            import tracing

            values = self.tracer.metrics()
            units = tracing.metric_units()
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
            out = HERE / "traces" / f"{self.args.workload}-seed{self.args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            header = {"workload": self.args.workload, "seed": self.args.seed,
                      "blas_threads": BLAS_THREADS}
            self.tracer.write(out, header, values)
        else:
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()}
        for message in self.errors:
            print("CHECK FAILED:", message, file=sys.stderr)
        return {"correct": not self.errors, "attempted": self.attempted, "failed": 0,
                "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "radnmt" / "__init__.py").is_file():
        print(f"no radnmt source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(f"blas_threads={BLAS_THREADS} workload={args.workload} seed={args.seed}", file=sys.stderr)
    # a terminated run still removes its temporary files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = HERE / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    run = Run(args, tmp)
    try:
        run.execute()
    finally:
        shutil.rmtree(tmp)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
