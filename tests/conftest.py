"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import radnmt
from radnmt import autodiff as ad
from radnmt.autodiff import log_softmax
from radnmt.corpus import BOS, EOS, PAD, Batch
from radnmt.model import decode_step, encode
from radnmt.radicals import _HAN_RANGES
from radnmt.seeding import derive_rng


@pytest.fixture(scope="session")
def table():
    return radnmt.load_bundled_table()


@pytest.fixture(scope="session")
def toy_pairs():
    src, tgt = radnmt.toy_corpus_paths()
    return radnmt.read_parallel(src, tgt)


@pytest.fixture(scope="session")
def toy_data(table, toy_pairs):
    """(src_vocab, tgt_vocab, encoded examples) for the bundled toy corpus."""
    sv = radnmt.build_vocab([s for s, _ in toy_pairs])
    tv = radnmt.build_vocab([t for _, t in toy_pairs])
    return sv, tv, radnmt.encode_corpus(toy_pairs, sv, tv, table)


def tiny_config(**overrides) -> radnmt.ModelConfig:
    base = dict(
        src_vocab_size=8,
        tgt_vocab_size=8,
        char_embed_dim=4,
        feat_embed_dim=2,
        hidden_size=4,
        feat_vocab_size=8,
        dropout=0.0,
    )
    base.update(overrides)
    return radnmt.ModelConfig(**base)


def tiny_batch(seed: int, batch: int = 2, src_len: int = 3, tgt_chars: int = 2,
               src_vocab: int = 8, tgt_vocab: int = 8, feat_vocab: int = 8) -> Batch:
    """Random fully-unmasked batch with EOS-terminated rows."""
    rng = derive_rng(seed, "tiny-batch")
    src = np.concatenate(
        [rng.integers(4, src_vocab, size=(batch, src_len - 1)),
         np.full((batch, 1), EOS, dtype=np.int64)], axis=1,
    )
    feats = np.concatenate(
        [rng.integers(1, feat_vocab, size=(batch, src_len - 1)),
         np.zeros((batch, 1), dtype=np.int64)], axis=1,
    )
    tgt = np.concatenate(
        [np.full((batch, 1), BOS, dtype=np.int64),
         rng.integers(4, tgt_vocab, size=(batch, tgt_chars)),
         np.full((batch, 1), EOS, dtype=np.int64)], axis=1,
    )
    return Batch(src, feats, np.ones_like(src, dtype=bool), tgt, np.ones_like(tgt, dtype=bool))


# ---------------------------------------------------------------------------
# independent radical oracle


def reference_radical(table, ch):
    """The documented rules, tried in order: the Kangxi block, then 1..5."""
    cp = ord(ch)
    if 0x2F00 <= cp <= 0x2FD5:
        return cp - 0x2F00 + 1
    if any(cp in r for r in _HAN_RANGES):
        return table.han_map.get(cp, table.symbol_radical)
    if cp in table.kana_map:
        return table.kana_map[cp][1]
    if 0xFF01 <= cp <= 0xFF5E:  # fullwidth ASCII folds to ASCII
        ch = chr(cp - 0xFEE0)
    if ch in table.numeral_map:
        return table.numeral_map[ch]
    if "A" <= ch <= "Z" or "a" <= ch <= "z":
        return table.latin_radical
    return table.symbol_radical


# ---------------------------------------------------------------------------
# independent decoding oracles (deliberately not using radnmt.decoding search)


def replay_score(params, src, feats, tokens) -> float:
    """Sum of per-step log-softmax picks for a fixed token sequence."""
    mask = np.ones((1, len(src)), dtype=bool)
    batch_feats = None if feats is None else feats[None, :]
    vectors, *state = (t.data for t in encode(src[None, :], batch_feats, mask, params))
    ht, bias = np.zeros((1, params.config.hidden_size)), ad._attention_bias(mask)
    prev, total = BOS, 0.0
    for tok in tokens:
        logits, state, ht = decode_step(np.array([prev]), ht, state, vectors, bias, params)
        total += float(log_softmax(logits)[0][tok])
        prev = tok
    return total


def replay_train_loss(params, batch, drop_p: float, rng) -> float:
    """Training-mode NLL of batch, one decoder step at a time, from rng's masks.

    The masks are drawn in forward_loss's documented order: the encoder's
    (L*B, p) mask over time-major positions, then per step t the (B, p1)
    mask of its input embeddings and the (B, q) mask of its h~.
    """

    def draw(shape):
        return np.where(rng.random(shape) < 1.0 - drop_p, 1.0 / (1.0 - drop_p), 0.0)

    tables, ids = [params["src_char_emb"]], [batch.src.T.reshape(-1)]
    if params.feature_path:
        tables.append(params["src_feat_emb"])
        ids.append(batch.feats.T.reshape(-1))
    enc_keep = draw((batch.src.size, sum(t.shape[1] for t in tables)))
    enc_weights = [params[n] for n in ("enc_fwd_Wx", "enc_fwd_Wh", "enc_fwd_b", "enc_bwd_Wx", "enc_bwd_Wh",
                                       "enc_bwd_b", "dec_init_h_W", "dec_init_h_b", "dec_init_c_W", "dec_init_c_b")]
    vectors, h, c = (t.data for t in ad.encoder(tables, ids, batch.src_mask, enc_keep, *enc_weights))
    dec_weights = [params[n].data for n in ("dec_Wx", "dec_Wh", "dec_b", "attn_W", "attn_out_W")]
    p1, q = params.config.char_embed_dim, params.config.hidden_size
    bias = ad._attention_bias(batch.src_mask)
    ht, total, rows = np.zeros((batch.size, q)), 0.0, np.arange(batch.size)
    for t in range(batch.tgt.shape[1] - 1):
        emb = params["tgt_char_emb"].data[batch.tgt[:, t]] * draw((batch.size, p1))
        (h, c, ht), _ = ad.decoder_step(emb, ht, h, c, vectors, bias, *dec_weights)
        ht = ht * draw((batch.size, q))
        logp = log_softmax(ht @ params["out_W"].data + params["out_b"].data)
        total -= float((logp[rows, batch.tgt[:, t + 1]] * batch.tgt_mask[:, t + 1]).sum())
    return total


def brute_force_best(params, src, feats, max_len: int):
    """Argmax over every emittable token sequence of length <= max_len.

    EOS terminates a sequence; sequences without EOS only count when
    nothing completed (mirroring the documented fallback). Ties break
    toward the lexicographically smaller sequence.
    """
    vocab = params.config.tgt_vocab_size
    non_eos = [v for v in range(vocab) if v not in (PAD, BOS, EOS)]
    completed = []
    for length in range(1, max_len + 1):
        for prefix in itertools.product(non_eos, repeat=length - 1):
            completed.append(list(prefix) + [EOS])
    candidates = completed or [list(p) for p in itertools.product(non_eos, repeat=max_len)]
    scored = [(replay_score(params, src, feats, c), c) for c in candidates]
    scored.sort(key=lambda x: (-x[0], tuple(x[1])))
    return scored[0]


def greedy_decode(params, src, feats, max_len: int):
    """Step-wise argmax decoder (lowest id wins ties); stops at EOS."""
    mask = np.ones((1, len(src)), dtype=bool)
    batch_feats = None if feats is None else feats[None, :]
    vectors, *state = (t.data for t in encode(src[None, :], batch_feats, mask, params))
    ht, bias = np.zeros((1, params.config.hidden_size)), ad._attention_bias(mask)
    prev, tokens, total = BOS, [], 0.0
    for _ in range(max_len):
        logits, state, ht = decode_step(np.array([prev]), ht, state, vectors, bias, params)
        lp = log_softmax(logits)[0]
        lp[PAD] = lp[BOS] = -np.inf
        best = lp.max()
        tok = int(np.flatnonzero(lp == best)[0])
        tokens.append(tok)
        total += float(lp[tok])
        prev = tok
        if tok == EOS:
            break
    return tokens, total


def reference_beam_search(params, src, feats, beam_size: int, max_len: int,
                          length_alpha: float = 0.0):
    """Best hypothesis of a plain one-sentence beam search, and the decoder rows it ran.

    Each step extends every live hypothesis by every token but PAD and
    BOS and keeps the beam_size best by (-logprob, tokens), which is the
    lexicographic tie-break; EOS-ended ones complete. Only a hypothesis's
    own beam_size best extensions can be kept, so only those are listed.
    It stops only when nothing is live or after max_len steps. Returns
    ((tokens, logprob, finished), rows): the best of the completed
    hypotheses (else of the live ones, unfinished) by
    (-logprob / len^alpha, tokens), and the sum over steps of the live
    hypotheses decoded.
    """
    mask = np.ones((1, len(src)), dtype=bool)
    batch_feats = None if feats is None else feats[None, :]
    vectors, h, c = (t.data for t in encode(src[None, :], batch_feats, mask, params))
    bias = ad._attention_bias(mask)
    # live hypotheses: (tokens, logprob, h, c, h~)
    live = [([], 0.0, h[0], c[0], np.zeros(params.config.hidden_size))]
    completed, rows = [], 0
    for _ in range(max_len):
        rows += len(live)
        candidates = []
        for tokens, logprob, h, c, ht in live:
            prev = np.array([tokens[-1] if tokens else BOS])
            logits, (h2, c2), ht2 = decode_step(prev, ht[None], (h[None], c[None]),
                                                vectors, bias, params)
            total = logprob + log_softmax(logits)[0]
            order = np.lexsort((np.arange(len(total)), -total))  # by (-total, id)
            for tok in [int(tok) for tok in order if tok not in (PAD, BOS)][:beam_size]:
                candidates.append((tokens + [tok], float(total[tok]), h2[0], c2[0], ht2[0]))
        candidates.sort(key=lambda cand: (-cand[1], cand[0]))
        kept = candidates[:beam_size]
        completed += [(cand[0], cand[1], True) for cand in kept if cand[0][-1] == EOS]
        live = [cand for cand in kept if cand[0][-1] != EOS]
        if not live:
            break
    pool = completed or [(cand[0], cand[1], False) for cand in live]
    best = min(pool, key=lambda hyp: (-hyp[1] / len(hyp[0]) ** length_alpha, hyp[0]))
    return best, rows


# ---------------------------------------------------------------------------
# synthetic corpus where the target is a pure function of the source radical

RADICAL_CLASSES = [
    ("海河湖池液泳洗浅", "深汽温", "水"),
    ("林森板橋村果東校", "機械析", "木"),
    ("語話読計証説課記", "議試詞", "言"),
    ("金鉄銀銅鋼針鏡鉛", "鈴銭録", "金"),
    ("思想意感情忘急悪", "念恵態", "心"),
    ("明時暗春星暖早昨", "昼晴曜", "日"),
]


def radical_probe_corpus(seed: int, n_train: int = 160, n_test: int = 48):
    """Train pairs use one character pool, test pairs a disjoint pool with
    the same radicals, so only the radical feature generalizes."""
    rng = derive_rng(seed, "radical-probe")

    def gen(n, column):
        pairs = []
        for _ in range(n):
            length = int(rng.integers(4, 8))
            src = tgt = ""
            for _ in range(length):
                ci = int(rng.integers(len(RADICAL_CLASSES)))
                pool = RADICAL_CLASSES[ci][column]
                src += pool[int(rng.integers(len(pool)))]
                tgt += RADICAL_CLASSES[ci][2]
            pairs.append((src, tgt))
        return pairs

    return gen(n_train, 0), gen(n_test, 1)
