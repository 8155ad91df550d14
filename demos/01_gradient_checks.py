# Walks through the finite-difference verification of every hand-written
# gradient in the package: each layer, both losses, and the full joint
# objective on a miniature model.
#
# Every backward pass in this library is derived and coded by hand, so the
# only trustworthy referee is central finite differences at h=1e-6 in
# float64. Relative errors land around 1e-7, far below each check's
# tolerance, which is printed next to it. The script exits 1 if any check
# fails.

import sys

from wtx.gradcheck import (max_relative_error, miniature_setup,
                           numeric_gradient, run_gradient_suite)
from wtx.models import joint_losses

print("Full gradient suite over 10 seeds")
print("-" * 60)
results = run_gradient_suite(seeds=range(10))
by_name = {}
for r in results:
    by_name.setdefault(r.name, []).append(r)
failed = False
for name, rs in by_name.items():
    worst = max(rs, key=lambda r: r.error)
    status = "PASS" if all(r.passed for r in rs) else "FAIL"
    failed |= status == "FAIL"
    print(f"{status} {name:<18} worst rel err {worst.error:.2e}  (tol {worst.tol:.0e})")

# A closer look at the end-to-end check: the miniature instance has 6
# classes (3 shared), 8 input dims, hidden width 8, 2 groups, batch 4.
model, head, source, feats, labels = miniature_setup(seed=0)
f = lambda: joint_losses(model, head, source, feats, labels, alpha=20.0)[2]
joint_losses(model, head, source, feats, labels, alpha=20.0, backprop=True)

print()
print("Per-parameter errors on the miniature joint objective (seed 0)")
print("-" * 60)
for p in model.parameters() + [head.other_weights]:
    err = max_relative_error(p.grad, numeric_gradient(f, p.data))
    print(f"{p.name:<22} {str(p.data.shape):<10} rel err {err:.2e}")

sys.exit(1 if failed else 0)
