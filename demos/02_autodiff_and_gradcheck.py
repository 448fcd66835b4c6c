"""The reverse-mode tape that powers training.

Ops recorded under an active Tape know how to push gradients backward;
central finite differences verify every gradient independently. Run it:

    python demos/02_autodiff_and_gradcheck.py
"""

import numpy as np

import radnmt
from radnmt import autodiff as ad
from radnmt.autodiff import Tape, Tensor
from radnmt.corpus import Batch
from radnmt.seeding import derive_rng

rng = derive_rng(0, "demo-autodiff")

print("=== a small recorded computation ===")
W = Tensor(rng.normal(size=(3, 3)), requires_grad=True, name="W")
x = Tensor(rng.normal(size=(3, 1)))
ones = Tensor(np.ones((1, 3)))

def squared_sum():
    """sum((W x)^2) as a (1, 1) tensor, from the engine's matmul and mul ops."""
    y = ad.matmul(W, x)
    return ad.matmul(ones, ad.mul(y, y))


with Tape() as tape:
    loss = squared_sum()
print(f"  loss = {loss.item():+.6f}, tape recorded {len(tape)} ops")
ad.backward(loss, tape)
print(f"  dloss/dW has shape {W.grad.shape}, largest entry {np.abs(W.grad).max():.4f}")

print()
print("=== the same gradient, verified by central differences ===")
err = ad.grad_check(squared_sum, [W])
print(f"  max relative error vs finite differences: {err:.2e}")

print()
print("=== gradient clipping keeps the global norm at 1 ===")
grads = [rng.normal(size=(4, 4)) * 3, rng.normal(size=(7,)) * 3]
_, pre = ad.clip_by_global_norm(grads, max_norm=1.0)
print(f"  pre-clip norm {pre:.3f} -> post-clip norm {ad.global_norm(grads):.12f}")

print()
print("=== the full translation model passes the same check ===")
config = radnmt.ModelConfig(
    src_vocab_size=8, tgt_vocab_size=8, char_embed_dim=4, feat_embed_dim=2,
    hidden_size=4, feat_vocab_size=8, dropout=0.0,
)
params = radnmt.ModelParams.initialize(config, seed=1)
data = derive_rng(1, "demo-batch")
src = data.integers(4, 8, size=(1, 3))
feats = data.integers(1, 8, size=(1, 3))
tgt = np.array([[1, 5, 2]], dtype=np.int64)
batch = Batch(src, feats, np.ones_like(src, dtype=bool), tgt, np.ones_like(tgt, dtype=bool))


def mean_loss():
    total, count = radnmt.forward_loss(batch, params, train=False)
    return ad.mul(total, Tensor(np.asarray(1.0 / count)))


n_params = sum(t.size for t in params.all())
err = ad.grad_check(mean_loss, params.all(), eps=2e-3)
print(f"  {n_params} parameters, max relative error {err:.2e}")
