import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radnmt
from radnmt import decoding
from radnmt.corpus import BOS, EOS, PAD, encode_pair
from radnmt.decoding import (
    beam_search,
    beam_search_many,
    default_max_len,
    translate_file,
    translate_line,
    translate_lines,
)
from radnmt.errors import DataError, NumericError
from radnmt.model import ModelParams
from radnmt.seeding import derive_rng
from radnmt.training import TrainConfig, train

from conftest import brute_force_best, greedy_decode, reference_beam_search, replay_score


def _rand_model(seed, src_vocab=5, tgt_vocab=5, spread=0.5):
    config = radnmt.ModelConfig(
        src_vocab_size=src_vocab, tgt_vocab_size=tgt_vocab,
        char_embed_dim=3, feat_embed_dim=2, hidden_size=3,
        feat_vocab_size=6, dropout=0.0,
    )
    return ModelParams.initialize(config, seed, init_low=-spread, init_high=spread)


def _zero_model(src_vocab=5, tgt_vocab=5):
    # every output distribution is uniform, so all candidates of a step
    # tie and only the tie-break decides which survive
    params = _rand_model(0, src_vocab, tgt_vocab)
    for t in params.all():
        t.data[...] = 0.0
    return params


# seeded random models, plus the all-zero one
TINY_MODELS = pytest.mark.parametrize(
    "seed, zero",
    [(seed, False) for seed in range(20)] + [(0, True)],
    ids=[str(seed) for seed in range(20)] + ["zero-params"],
)


def _shaped_model(seed, shape):
    # the two tiny-model shapes of the brute-force and greedy oracles, and the all-tie model
    if shape == "zero-params":
        return _zero_model(src_vocab=8, tgt_vocab=8)
    vocab = int(shape)
    return _rand_model(seed, vocab, vocab, spread=0.5 if vocab == 5 else 0.4)


def _source(params, chars):
    """(src_ids, feat_ids) of (character index, feature id) pairs, EOS-terminated."""
    n = params.config.src_vocab_size - 4  # ids 4.. are characters
    return np.array([4 + ch % n for ch, _ in chars] + [EOS]), np.array([f for _, f in chars] + [0])


SHAPES = st.sampled_from(["5", "8", "zero-params"])
BEAMS = st.one_of(st.integers(1, 6), st.just(50))  # 50 > every step's width * V
MAX_LENS = st.one_of(st.none(), st.integers(1, 4))
SOURCE = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)), max_size=5)


def _assert_best_is_reference(params, src, feats, beam, max_len, alpha):
    """beam_search's pool[0] is the best of a search to max_len without early retirement."""
    limit = default_max_len(len(src)) if max_len is None else max_len
    (tokens, logprob, finished), _ = reference_beam_search(params, src, feats, beam, limit, alpha)
    best = beam_search(params, src, feats, beam, max_len, alpha)[0]
    assert (best.tokens, best.finished) == (tokens, finished)
    assert best.logprob == pytest.approx(logprob, rel=1e-12, abs=0.0)


def _rand_input(seed, src_vocab=5, max_chars=3):
    rng = derive_rng(seed, "beam-input")
    n = int(rng.integers(0, max_chars))
    src = np.append(rng.integers(4, src_vocab, size=n) if n else [], EOS).astype(np.int64)
    feats = np.append(rng.integers(1, 6, size=n) if n else [], 0).astype(np.int64)
    return src, feats


def test_empty_source_raises():
    params = _rand_model(0)
    with pytest.raises(DataError, match="empty"):
        beam_search(params, np.array([], dtype=np.int64), None)


@pytest.mark.parametrize("beam_size, max_len", [(0, None), (5, 0), (5, -2)])
def test_beam_size_and_max_len_below_one_raise(beam_size, max_len):
    with pytest.raises(DataError, match=">= 1"):
        beam_search(_rand_model(0), np.array([4, EOS]), np.array([1, 0]), beam_size, max_len)


@pytest.mark.parametrize("alpha", [-0.5, float("nan"), float("inf")])
def test_negative_or_non_finite_length_alpha_raises(alpha, toy_models, table, toy_data):
    with pytest.raises(DataError, match="length_alpha must be a finite number >= 0"):
        beam_search(_rand_model(0), np.array([4, EOS]), np.array([1, 0]), 5, None, alpha)
    sv, tv, _ = toy_data
    with pytest.raises(DataError, match="<lines>:1: length_alpha must be"):
        translate_lines(toy_models[3], table, sv, tv, ["鉄の実験。"], 5, length_alpha=alpha)


def test_pad_and_bos_never_emitted():
    for seed in range(10):
        params = _rand_model(seed)
        src, feats = _rand_input(seed)
        best = beam_search(params, src, feats, beam_size=5, max_len=6)[0]
        assert PAD not in best.tokens and BOS not in best.tokens


def test_finished_iff_ends_with_eos():
    for seed in range(10):
        params = _rand_model(seed)
        src, feats = _rand_input(seed)
        for hyp in beam_search(params, src, feats, beam_size=4, max_len=5):
            assert hyp.finished == (hyp.tokens[-1] == EOS)


def test_logprob_non_increasing_with_length():
    params = _rand_model(1)
    src, feats = _rand_input(1)
    best = beam_search(params, src, feats, beam_size=3, max_len=5)[0]
    assert best.logprob <= 0.0


def test_hypothesis_logprob_matches_independent_replay():
    for seed in range(8):
        params = _rand_model(seed, src_vocab=7, tgt_vocab=7)
        rng = derive_rng(seed, "replay-input")
        src = np.append(rng.integers(4, 7, size=3), EOS).astype(np.int64)
        feats = np.append(rng.integers(1, 6, size=3), 0).astype(np.int64)
        best = beam_search(params, src, feats, beam_size=4)[0]
        assert best.logprob == pytest.approx(
            replay_score(params, src, feats, best.tokens), abs=1e-10
        )


@TINY_MODELS
def test_beam5_equals_brute_force_on_tiny_models(seed, zero):
    params = _zero_model() if zero else _rand_model(seed)
    src, feats = _rand_input(seed)
    score, tokens = brute_force_best(params, src, feats, max_len=3)
    best = beam_search(params, src, feats, beam_size=5, max_len=3)[0]
    assert best.tokens == tokens
    assert best.logprob == pytest.approx(score, abs=1e-10)


def test_huge_beam_is_structurally_exhaustive():
    # with beam >= every candidate count, no pruning can occur at all
    for seed in (3, 4, 5):
        params = _rand_model(seed)
        src, feats = _rand_input(seed)
        score, tokens = brute_force_best(params, src, feats, max_len=3)
        best = beam_search(params, src, feats, beam_size=50, max_len=3)[0]
        assert best.tokens == tokens


@TINY_MODELS
def test_beam1_equals_independent_greedy(seed, zero):
    if zero:
        params = _zero_model(src_vocab=8, tgt_vocab=8)
    else:
        params = _rand_model(seed, src_vocab=8, tgt_vocab=8, spread=0.4)
    rng = derive_rng(seed, "greedy-input")
    n = int(rng.integers(1, 4))
    src = np.append(rng.integers(4, 8, size=n), EOS).astype(np.int64)
    feats = np.append(rng.integers(1, 6, size=n), 0).astype(np.int64)
    max_len = 2 * len(src) + 10
    tokens, score = greedy_decode(params, src, feats, max_len)
    best = beam_search(params, src, feats, beam_size=1, max_len=max_len)[0]
    assert best.tokens == tokens
    assert best.logprob == pytest.approx(score, abs=1e-10)


def test_beam_monotonicity():
    # under pure logprob scoring a wider beam never ends with a worse completion
    for seed in range(10):
        params = _rand_model(seed, src_vocab=6, tgt_vocab=6)
        rng = derive_rng(seed, "mono-input")
        src = np.append(rng.integers(4, 6, size=2), EOS).astype(np.int64)
        feats = np.append(rng.integers(1, 6, size=2), 0).astype(np.int64)
        narrow = beam_search(params, src, feats, beam_size=1, max_len=6)[0]
        wide = beam_search(params, src, feats, beam_size=5, max_len=6)[0]
        if narrow.finished and wide.finished:
            assert wide.logprob >= narrow.logprob - 1e-12


def test_unfinished_fallback_is_flagged():
    # beam 1, one step, EOS not the argmax: nothing completes
    params = _rand_model(0)
    best = beam_search(params, np.array([4, EOS]), np.array([1, 0]), beam_size=1, max_len=1)[0]
    assert not best.finished
    assert best.tokens and best.tokens[-1] != EOS


def test_pool_is_sorted_and_distinct():
    params = _rand_model(2)
    src, feats = _rand_input(2)
    hyps = beam_search(params, src, feats, beam_size=5, max_len=4)
    scores = [h.logprob for h in hyps]
    assert scores == sorted(scores, reverse=True)
    assert len({tuple(h.tokens) for h in hyps}) == len(hyps)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 19), shape=SHAPES, beam=BEAMS, max_len=MAX_LENS,
    sources=st.lists(SOURCE, min_size=1, max_size=6),
)
# greedy decoding of both sources runs to their own, different default max_len
@example(seed=3, shape="5", beam=1, max_len=None, sources=[[(0, 1)], [(0, 1)] * 5])
def test_many_sentences_decode_as_one_at_a_time(seed, shape, beam, max_len, sources):
    params = _shaped_model(seed, shape)
    arrays = [_source(params, src) for src in sources]
    together = beam_search_many(params, arrays, beam, max_len)
    assert len(together) == len(arrays)
    for hyps, (src, feats) in zip(together, arrays):
        alone = beam_search(params, src, feats, beam, max_len)
        assert [(h.tokens, h.finished) for h in hyps] == [(h.tokens, h.finished) for h in alone]
        for got, want in zip(hyps, alone):
            assert got.logprob == pytest.approx(want.logprob, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 19), shape=SHAPES, beam=BEAMS, max_len=MAX_LENS,
    alpha=st.sampled_from([0.0, 0.5, 1.0]), chars=SOURCE,
)
def test_best_hypothesis_equals_reference_search_on_tiny_models(seed, shape, beam, max_len, alpha,
                                                                 chars):
    params = _shaped_model(seed, shape)
    _assert_best_is_reference(params, *_source(params, chars), beam, max_len, alpha)


@pytest.fixture(scope="module")
def toy_models(toy_data):
    """Toy-shape models after 3 epochs, whose next-character distributions are
    still nearly flat (near-ties), and after 40, whose translations differ
    from line to line."""
    sv, tv, examples = toy_data
    config = radnmt.ModelConfig(
        src_vocab_size=len(sv), tgt_vocab_size=len(tv),
        char_embed_dim=24, feat_embed_dim=8, hidden_size=32, dropout=0.0,
    )
    params = ModelParams.initialize(config, seed=0)
    models, done = {}, 0
    for epochs in (3, 40):
        train(params, examples, [], TrainConfig(lr=2.0, decay_mode="none", dropout=0.0,
                                                batch_size=5, epochs=epochs - done, seed=0))
        models[epochs], done = copy.deepcopy(params), epochs
    return models


@pytest.mark.parametrize("epochs", [3, 40])
@pytest.mark.parametrize("beam, alpha", [(1, 0.0), (5, 0.0), (5, 1.0), (10, 1.0)])
def test_best_hypothesis_equals_reference_search_on_toy_models(epochs, beam, alpha, toy_models,
                                                                table, toy_data, toy_pairs):
    sv, tv, _ = toy_data
    params = toy_models[epochs]
    for line, _ in toy_pairs[::5]:
        pair = encode_pair(line, "", sv, tv, table)
        _assert_best_is_reference(params, pair.src_ids, pair.src_feats, beam, None, alpha)


def test_sentences_retire_while_rows_are_live(toy_models, table, toy_data, toy_pairs, monkeypatch):
    # after 40 epochs a line's best translation often completes long before its beam empties:
    # beam search then decodes fewer rows than a search to max_len, and finds the same best
    sv, tv, _ = toy_data
    params, rows, decode_step = toy_models[40], [], decoding.decode_step

    def counting_step(y_prev, *args):
        rows.append(len(y_prev))
        return decode_step(y_prev, *args)

    monkeypatch.setattr(decoding, "decode_step", counting_step)
    fewer = 0
    for line, _ in toy_pairs:
        pair = encode_pair(line, "", sv, tv, table)
        (tokens, _, _), reference_rows = reference_beam_search(
            params, pair.src_ids, pair.src_feats, 5, default_max_len(len(pair.src_ids)))
        rows.clear()
        assert beam_search(params, pair.src_ids, pair.src_feats, 5)[0].tokens == tokens
        assert sum(rows) <= reference_rows
        fewer += sum(rows) < reference_rows
    assert fewer  # at least one sentence retired with rows still live


@pytest.mark.parametrize("epochs", [3, 40])
@pytest.mark.parametrize("beam", [1, 5, 10])
def test_translate_file_equals_per_line_beam_search(beam, epochs, toy_models, table, toy_data,
                                                     toy_pairs, tmp_path):
    # 70 lines: more than one chunk holds even at beam 1, in no order of length
    sv, tv, _ = toy_data
    params = toy_models[epochs]
    sources = [s for s, _ in toy_pairs]
    rng = derive_rng(beam, "translate-order")
    lines = [sources[i] for i in rng.permutation(len(sources))] + sources[:20]
    assert len(lines) > decoding.CHUNK_ROWS // beam
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert translate_file(params, table, sv, tv, src, out, beam_size=beam) == len(lines)
    expected = []
    for line in lines:
        pair = encode_pair(line, "", sv, tv, table)
        best = beam_search(params, pair.src_ids, pair.src_feats, beam)[0]
        expected.append(tv.decode(best.tokens, unk_token=decoding.DEFAULT_UNK_TOKEN) + "\n")
    assert out.read_text(encoding="utf-8") == "".join(expected)


@pytest.mark.parametrize("beam, named", [(5, "1,2,3"), (40, "2")])
def test_translate_file_error_keeps_class_and_names_lines(beam, named, toy_models, table,
                                                           toy_data, tmp_path, monkeypatch):
    # beam 5 decodes the three lines as one chunk; beam 40 one line a chunk, shortest first.
    # The failed run leaves the output file as it was.
    sv, tv, _ = toy_data

    def failing_step(*args):
        raise NumericError("decoder produced non-finite values")

    monkeypatch.setattr(decoding, "decode_step", failing_step)
    src = tmp_path / "in.txt"
    src.write_text("鉄の実験。\n水\n金属を測定した。\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    out.write_text("previous contents\n", encoding="utf-8")
    with pytest.raises(NumericError, match=rf"in\.txt:{named}: decoder produced non-finite"):
        translate_file(toy_models[3], table, sv, tv, src, out, beam_size=beam)
    assert out.read_text(encoding="utf-8") == "previous contents\n"


def test_length_normalization_ranks_pools(toy_models, table, toy_data, toy_pairs):
    # after 40 epochs alpha = 1 prefers a longer translation of this line than alpha = 0
    sv, tv, _ = toy_data
    params, line = toy_models[40], toy_pairs[3][0]
    pair = encode_pair(line, "", sv, tv, table)
    best = {}
    for alpha in (0.0, 1.0):
        pool = beam_search(params, pair.src_ids, pair.src_feats, 5, length_alpha=alpha)
        keys = [(-h.logprob / len(h.tokens) ** alpha, h.tokens) for h in pool]
        assert len(pool) > 1 and keys == sorted(keys)
        best[alpha] = tv.decode(pool[0].tokens, unk_token=decoding.DEFAULT_UNK_TOKEN)
        (translated,) = translate_lines(params, table, sv, tv, [line], 5, length_alpha=alpha)
        assert translated == best[alpha]
    assert len(best[1.0]) > len(best[0.0])


def test_translate_file_order_and_determinism(table, toy_data, tmp_path):
    sv, tv, examples = toy_data
    config = radnmt.ModelConfig(
        src_vocab_size=len(sv), tgt_vocab_size=len(tv),
        char_embed_dim=8, feat_embed_dim=4, hidden_size=8, dropout=0.0,
    )
    params = ModelParams.initialize(config, seed=0)
    src = tmp_path / "in.txt"
    src.write_text("鉄の実験。\n水を測定した。\n", encoding="utf-8")
    out1, out2 = tmp_path / "out1.txt", tmp_path / "out2.txt"
    assert translate_file(params, table, sv, tv, src, out1, beam_size=3) == 2
    translate_file(params, table, sv, tv, src, out2, beam_size=3)
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text(encoding="utf-8").splitlines()) == 2


def test_translate_empty_file(table, toy_data, tmp_path):
    sv, tv, _ = toy_data
    params = ModelParams.initialize(
        radnmt.ModelConfig(
            src_vocab_size=len(sv), tgt_vocab_size=len(tv),
            char_embed_dim=8, feat_embed_dim=4, hidden_size=8, dropout=0.0,
        ),
        seed=1,
    )
    src, out = tmp_path / "empty.txt", tmp_path / "out.txt"
    src.write_text("", encoding="utf-8")
    assert translate_file(params, table, sv, tv, src, out) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_translate_line_renders_unk_placeholder(table, toy_data):
    sv, tv, _ = toy_data
    params = ModelParams.initialize(
        radnmt.ModelConfig(
            src_vocab_size=len(sv), tgt_vocab_size=5,  # tiny target: mostly UNK
            char_embed_dim=8, feat_embed_dim=4, hidden_size=8, dropout=0.0,
        ),
        seed=2,
    )
    small_tv = radnmt.build_vocab(["x"])
    out = translate_line(params, table, sv, small_tv, "鉄の実験。", beam_size=2, unk_token="?")
    assert set(out) <= {"x", "?"}
