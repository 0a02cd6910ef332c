import hashlib

import numpy as np
import pytest

from sympwalk import _engine
from sympwalk.field import build_field
from sympwalk.linalg import MatFq, all_transvections, standard_J


def _trajectory(n, p, trials, steps, seed):
    """Seeded initial_grams followed by `steps` mc_steps: every batch."""
    rng = np.random.default_rng(seed)
    jmat = np.array(standard_J(n, build_field(p, 1)).to_lists(), dtype=np.uint8)
    grams = _engine.initial_grams(jmat, p, trials, rng)
    out = [grams]
    for _ in range(steps):
        grams = _engine.mc_step(grams, p, rng)
        out.append(grams)
    return out


@pytest.mark.parametrize("n, p, max_inputs", [(2, 2, 10), (2, 3, 10), (3, 2, 8)])
def test_mc_step_moves_to_a_transvection_image(n, p, max_inputs):
    """Every lane lands on some t^T w t != w, with t^T w t formed by MatFq."""
    field = build_field(p, 1)
    mats = [t.matrix() for t in all_transvections(2 * n, field)]
    batches = _trajectory(n, p, trials=300, steps=3, seed=11)
    outputs = {}  # input row bytes -> set of output row bytes
    for before, after in zip(batches, batches[1:]):
        for w, img in zip(before, after):
            outputs.setdefault(w.tobytes(), set()).add(img.tobytes())
    for w_key in sorted(outputs)[:max_inputs]:
        w = MatFq(field, np.frombuffer(w_key, dtype=np.uint8).reshape(2 * n, 2 * n).tolist())
        images = {(t.transpose() * w * t).key() for t in mats} - {w.key()}
        assert outputs[w_key] <= images


@pytest.mark.parametrize("n, p", [(2, 251), (4, 5)])
def test_mc_step_keeps_invertible_alternating_forms(n, p):
    N = 2 * n
    batches = _trajectory(n, p, trials=400, steps=3, seed=3)
    for before, after in zip(batches, batches[1:]):
        g = after.astype(np.int64)
        assert not g[:, np.arange(N), np.arange(N)].any()
        assert not ((g + g.transpose(0, 2, 1)) % p).any()
        assert (_engine.batched_rank(g, p) == N).all()
        assert (after != before).any(axis=(1, 2)).all()


# SHA-256 of the bytes of every batch of _trajectory(n, p, 400, 5, seed=7),
# computed with the dense float64 step that preceded the rank-2 update.
TRAJECTORY_DIGESTS = {
    (2, 2): "acc94e62871cba05ddf2d8bcffe72b949cb287423e09a2177a39d923e27cbbd3",
    (2, 3): "cd1c8b7d231087f3c03e864b1cbb1e4cd86fe8af2a742f992ec322969d6f0c37",
    (3, 5): "46cc1b5016a44e67aad45ba6ff73811fcb4a7e8c9d90811f6bf42f76d6f923f2",
    (4, 2): "ced915a4cd00beaf7f607017167a3be5c98928e7a8a313d2e49eac0fd26bd6bd",
    (2, 251): "476bc32bf7646bd36471a80241d4c3b60b0a261f055f29d11e781a6002c6587f",
}


@pytest.mark.parametrize("nq", sorted(TRAJECTORY_DIGESTS), ids="{0[0]}-{0[1]}".format)
def test_mc_step_trajectory_is_pinned(nq):
    h = hashlib.sha256()
    for grams in _trajectory(*nq, trials=400, steps=5, seed=7):
        h.update(grams.tobytes())
    assert h.hexdigest() == TRAJECTORY_DIGESTS[nq]
