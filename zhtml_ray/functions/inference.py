"""Model-inference stage pattern — the actor-pool model-scoring shape
every 100-TB curation pipeline needs (r4 VERDICT #5, generalizing
``q_quality_classifier``'s injectable-weights form into a documented,
reusable stage).

The contract, stated once so every model stage in this repo (and any
user-plugged real model) follows it:

  * **Load once per actor, never per batch.** ``ModelScoreStage`` is a
    callable CLASS for ``map_batches(..., concurrency=N)``; its
    ``__init__`` resolves the model exactly once per actor from one of
    three sources — an in-memory layer list (tests), a
    ``ray.ObjectRef`` (driver does ``ray.put(model)`` ONCE and every
    actor reads shared-memory, zero per-task reshipping — the
    broadcast pattern), or an ``.npz`` path on shared storage (the
    real-cluster form: checkpoints don't travel through the driver).
    This is the only actor-pool stage in the repo: every other map
    stage holds no per-process state and runs as Ray tasks
    (``stages/util``). A model load is real work per process — an
    ``.npz`` read from shared storage, and on a GPU the upload of the
    weights to device memory — that a task would repeat per batch; an
    actor pays it once.
  * **Chunked vectorized forward.** Batches decode zero-copy via
    ``similarity._emb_matrix`` and run a float64 matmul in
    ``chunk_rows`` slices, so peak memory is ``chunk_rows × width``
    per actor regardless of block size. A GPU stage swaps the matmul
    for a device call and sets ``num_gpus`` at the map_batches site —
    nothing else changes.
  * **Pin, then derive.** Every layer output is pinned to ``pin_dp``
    decimals (the X86 house rule), so scores are bit-identical across
    engines/layouts and SQL-oracle-able; thresholding the pinned
    logit IS thresholding the probability (sigmoid is monotone — no
    transcendental crosses the gate).

Model format: ``layers = [(W0, b0), (W1, b1), …]`` — float64 matrices
``(d_in, d_out)`` + bias vectors, ReLU between layers, linear last.
A single-layer list IS the linear classifier; two layers make the
small MLP a fastText/CCNet-style quality filter distills to.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def save_model_npz(path: str, layers) -> None:
    """Persist ``[(W, b), …]`` as an .npz checkpoint (keys W0/b0/…) —
    the shared-storage form a real cluster loads per actor."""
    arrs = {}
    for i, (w, b) in enumerate(layers):
        arrs[f"W{i}"] = np.asarray(w, np.float64)
        arrs[f"b{i}"] = np.asarray(b, np.float64)
    np.savez(path, **arrs)


def load_model(source):
    """Resolve a model source → ``[(W, b), …]`` float64 layer list.
    Accepts a layer list (returned as-is, validated), a
    ``ray.ObjectRef`` from ``ray.put`` (fetched from shared memory),
    or a str/PathLike ``.npz`` path."""
    import ray

    if isinstance(source, ray.ObjectRef):
        source = ray.get(source)
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with np.load(source) as z:
            n = sum(1 for k in z.files if k.startswith("W"))
            source = [(z[f"W{i}"], z[f"b{i}"]) for i in range(n)]
    layers = [(np.asarray(w, np.float64), np.asarray(b, np.float64))
              for w, b in source]
    for i, (w, b) in enumerate(layers):
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValueError(
                f"layer {i}: W must be (d_in, d_out) with b (d_out,); "
                f"got W{w.shape} b{b.shape}")
        if i and w.shape[0] != layers[i - 1][0].shape[1]:
            raise ValueError(
                f"layer {i}: d_in {w.shape[0]} != previous d_out "
                f"{layers[i - 1][0].shape[1]}")
    return layers


def _pin(x: np.ndarray, dp: int) -> np.ndarray:
    return np.floor(x * 10.0 ** dp + 0.5) / 10.0 ** dp


class ModelScoreStage:
    """Actor-pool model scorer: ``map_batches(ModelScoreStage,
    fn_constructor_kwargs={"model": ref_or_path, …}, concurrency=N)``.

    Emits the ``id_cols`` plus ``out_col`` (pinned final-layer score;
    multi-output models emit ``{out_col}_0 … _k``) and, when
    ``threshold`` is set, a boolean ``keep``."""

    def __init__(self, model, in_col: str = "embedding",
                 id_cols=("vec_id",), out_col: str = "score",
                 chunk_rows: int = 8192, pin_dp: int = 6,
                 threshold: float | None = None):
        self.layers = load_model(model)     # once per actor
        self.in_col = in_col
        self.id_cols = tuple(id_cols)
        self.out_col = out_col
        self.chunk_rows = max(1, int(chunk_rows))
        self.pin_dp = pin_dp
        self.threshold = threshold

    def _forward(self, m: np.ndarray) -> np.ndarray:
        x = m.astype(np.float64, copy=False)
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            x = x @ w + b
            if i < last:
                x = np.maximum(x, 0.0)      # ReLU
            x = _pin(x, self.pin_dp)        # pin, then derive
        return x

    def __call__(self, batch: pa.Table) -> pa.Table:
        from zhtml_ray.functions.similarity import _emb_matrix

        m = _emb_matrix(batch[self.in_col])
        outs = [self._forward(m[i:i + self.chunk_rows])
                for i in range(0, len(m), self.chunk_rows)]
        y = np.concatenate(outs) if outs else \
            np.zeros((0, self.layers[-1][0].shape[1]))
        cols = {c: batch[c] for c in self.id_cols}
        if y.shape[1] == 1:
            cols[self.out_col] = pa.array(y[:, 0], pa.float64())
        else:
            for j in range(y.shape[1]):
                cols[f"{self.out_col}_{j}"] = pa.array(y[:, j],
                                                       pa.float64())
        if self.threshold is not None:
            cols["keep"] = pa.array(y[:, 0] > self.threshold)
        return pa.table(cols)


def score_embeddings(ds, model, in_col: str = "embedding",
                     id_cols=("vec_id",), out_col: str = "score",
                     threshold: float | None = None,
                     chunk_rows: int = 8192, pin_dp: int = 6,
                     concurrency=None, num_cpus: float = 1.0,
                     num_gpus: float = 0.0):
    """Wire ``ModelScoreStage`` onto a Dataset. ``model`` may be a
    layer list, a ``ray.put`` ObjectRef (preferred for in-memory
    weights — broadcast once), or an ``.npz`` path. ``num_gpus > 0``
    reserves GPUs per actor — the only change a real GPU model
    needs at the orchestration layer. ``concurrency`` defaults to an
    autoscaling pool of 1 to half the cluster's CPUs (at least 2), so
    the model stage leaves CPUs to the stages around it."""
    from zhtml_ray.stages.util import cluster_cpus

    kwargs = dict(batch_format="pyarrow", num_cpus=num_cpus,
                  concurrency=concurrency
                  or (1, max(2, cluster_cpus() // 2)))
    if num_gpus:
        kwargs["num_gpus"] = num_gpus
    return ds.map_batches(
        ModelScoreStage,
        fn_constructor_kwargs=dict(model=model, in_col=in_col,
                                   id_cols=id_cols, out_col=out_col,
                                   chunk_rows=chunk_rows, pin_dp=pin_dp,
                                   threshold=threshold),
        **kwargs)
