"""What a training step keeps alive: the tape dies as backward walks it.

A Neighbor-SAGE step's tape holds, per layer, the concat-mean buffer,
the layer output and one dropout mask; backward releases each node's
VJPs as it passes, so nothing of the forward survives ``loss.backward()``
but what the caller holds.  The epoch-level guard bounds the
``tracemalloc`` peak of one epoch on the ledger's training graph.
"""

from __future__ import annotations

import tracemalloc
import weakref

from repro.autograd.functional import cross_entropy
from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor
from repro.core.engine import MultiProcessEngine
from repro.gnn.models import make_task
from repro.graph.datasets import load_dataset
from repro.utils.rng import derive_rng


def inner_nodes(root):
    """Every taped node below ``root`` (``root`` and leaves excluded)."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        for parent, _ in stack.pop()._parents:
            if id(parent) not in seen and parent._parents:
                seen.add(id(parent))
                stack.append(parent)
                found.append(parent)
    return found


def test_sage_step_activations_die_with_backward(tiny_dataset):
    ds = tiny_dataset
    sampler, model = make_task("neighbor-sage", ds.layer_dims(3), seed=0)
    batch = sampler.sample(ds.graph, ds.train_idx[:64], rng=derive_rng(0, "tape"))
    logits = model(batch.blocks, gather_rows(Tensor(ds.features), batch.input_ids))
    loss = cross_entropy(logits, ds.labels[batch.seeds])
    inner = [weakref.ref(node.data) for node in inner_nodes(logits)]
    # layer 1's dense node (its concat-mean reads constant features and
    # is off the tape), layer 2's concat-mean and dense node, layer 3's
    # concat-mean
    assert len(inner) == 4
    loss.backward()
    assert [ref() for ref in inner] == [None] * len(inner)
    assert all(p.grad is not None for p in model.parameters())
    assert logits.data.shape == (64, ds.spec.num_classes) and loss.item() > 0


def test_one_neighbor_sage_epoch_peaks_under_16_mb():
    """One epoch at the ledger's scale (products, 2^14 nodes, batch 256):
    13.2 MB traced peak with the tape released as backward walks it and
    one chunk-drawn mask per layer; 28.6 MB when every activation, both
    masks and a float64 draw per layer lived until backward returned."""
    ds = load_dataset("ogbn-products", seed=0, scale_override=14)
    sampler, model = make_task("neighbor-sage", ds.layer_dims(3), seed=0)
    engine = MultiProcessEngine(
        ds, sampler, model, num_processes=1, global_batch_size=256, backend="inline", seed=0
    )
    try:
        engine.train_epoch()  # the first epoch pays the one-off touches
        tracemalloc.start()
        try:
            engine.train_epoch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        engine.shutdown()
    assert peak <= 16e6, f"epoch peak {peak / 1e6:.1f} MB"
