# A tour of the synthetic source/target benchmark: what gets generated and
# which structural properties it is calibrated to exhibit.
#
# The generator builds clustered class prototypes on a low-dimensional
# manifold, trains a real linear multi-label classifier on frequency-skewed
# samples of a warped + rotated copy of the feature space (the "source"
# domain), and emits target-task splits with a seen/novel class split.

import numpy as np

from wtx.bench import BenchConfig, generate_benchmark
from wtx.matrix import row_l2_norms

config = BenchConfig()
bench = generate_benchmark(config, seed=0)
src = bench.source

print(f"classes: {config.num_classes} total, {config.num_shared} shared, "
      f"{len(src.novel_index)} novel, {config.num_other} target-only")
print(f"feature dim {config.dim}, prototype manifold dim {config.manifold_dim}, "
      f"{config.clusters} clusters")

# The headline phenomenon: learned per-class weight norms spread widely
# because per-class sample counts are skewed. The most frequent class ends
# up with a weight vector norm tens of times that of the rarest.
norms = row_l2_norms(src.weights).ravel()
print()
print("source weight norms (learned, frequency-skewed):")
print(f"  min {norms.min():.4f}  median {np.median(norms):.4f}  max {norms.max():.4f}")
print(f"  max/min ratio: {bench.measured['norm_ratio']:.1f} "
      f"(config target {config.norm_imbalance})")

# Per-channel statistics of the weights are far from standardized, which is
# what the transfer network's frozen input standardization deals with.
mu, sigma = src.weights.mean(axis=0), src.weights.std(axis=0)
print()
print("per-channel stats of the source weights:")
print(f"  |mean| up to {np.abs(mu).max():.3f}, channel std range "
      f"[{sigma.min():.4f}, {sigma.max():.4f}]")

# Semantic structure: a class's nearest neighbor in weight space is usually
# a same-cluster class.
print()
print(f"nearest neighbor in weight space is same-cluster for "
      f"{100 * bench.measured['nn_same_cluster_fraction']:.0f}% of classes")
print(f"co-occurrence radius {bench.cooccur_radius:.3f} gives "
      f"{100 * bench.measured['train_multilabel_fraction']:.1f}% multi-label examples")

for name in ("train", "eval_seen", "eval_novel"):
    sp = bench.split(name)
    print(f"split {name:<10} {sp.features.shape[0]:>5} examples over "
          f"{len(np.unique(sp.primary))} classes")

# Novel classes never appear in the training labels.
train = bench.split("train")
labeled = set(np.flatnonzero(train.class_labels.any(axis=0)).tolist())
assert labeled.isdisjoint(set(src.novel_index.tolist()))
print()
print("leakage check: no novel class id appears in any training label")
