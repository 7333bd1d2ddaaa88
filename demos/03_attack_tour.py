#!/usr/bin/env python3
"""Run all six attacks against one trained classifier and compare them.

Shows the L-infinity budget being respected, the relative perturbation
sizes, and the RoI-guided attack's per-step momentum bookkeeping.
"""

import numpy as np

from advlab.attacks import AttackConfig, run_attack
from advlab.bench import generate_images
from advlab.gradnet import TrainConfig, build, train
from advlab.bench import network_specs

images, labels, _ = generate_images(1300, size=32, seed=11)
specs, shape = network_specs("blob_cnn", 32)
net = build(specs, shape, seed=1)
train(net, (images[:1200], labels[:1200]), TrainConfig(epochs=20, batch_size=16, learning_rate=0.1, seed=1, stop_accuracy=0.995))

eps = 0.04
base = dict(epsilon=eps, initial_decay=0.5, seed=9)
configs = {
    "fgsm": AttackConfig(**base),
    "ifgsm": AttackConfig(**base, iterations=16),
    "pgd": AttackConfig(**base, iterations=20, alpha=2.5 * eps / 20),
    "mifgsm": AttackConfig(**base, iterations=12),
    "deepfool": AttackConfig(epsilon=eps, iterations=50, overshoot=0.06),
    "kryptonite": AttackConfig(**base, iterations=16, decay_weight=0.006),
    "kryptonite_masked": AttackConfig(**base, iterations=16, decay_weight=0.006),
}

# The RoI-guided attacks extract each clean image's RoI themselves
# (roi_mask with its default 5x5 dilation), so their ms/sample includes it.
print(f"{'attack':18s} {'flips':>5s} {'mean linf':>9s} {'mean L2%':>8s} {'ms/sample':>9s}")
for name, cfg in configs.items():
    flips, linfs, perts, times = 0, [], [], []
    for i in range(1200, 1260):
        x, y = images[i], int(labels[i])
        res = run_attack(name, net, x, y, cfg)
        flips += int(net.predict(res.adversarial[None])[0] != y)
        linfs.append(res.linf)
        perts.append(res.l2_percent)
        times.append(res.elapsed)
    print(
        f"{name:18s} {flips:5d} {np.mean(linfs):9.4f} {np.mean(perts):8.2f} {np.mean(times)*1e3:9.2f}"
    )

# Peek at the adaptive momentum factors for one sample.
x, y = images[1200], int(labels[1200])
res = run_attack("kryptonite", net, x, y, configs["kryptonite"])
print("\nRoI-guided momentum per iteration (progress -> decay factor):")
for t, (progress, mu) in enumerate(zip(res.progress, res.mu)):
    print(f"  t={t:2d} progress={progress:.5f} mu={mu:.3f}")
