#!/usr/bin/env python3
"""Exercise the three defences and show their directional effects."""

import numpy as np

from advlab.attacks import AttackConfig, run_attack
from advlab.bench import generate_images, network_specs
from advlab.bench.runner import Deflected
from advlab.defences import DefenceConfig, adversarial_train, distill
from advlab.gradnet import TrainConfig, build, evaluate, softmax_with_temperature, train

images, labels, _ = generate_images(900, size=32, seed=21)
train_set = (images[:700], labels[:700])
test_x, test_y = images[700:], labels[700:]
specs, shape = network_specs("blob_cnn", 32)
tcfg = TrainConfig(epochs=20, batch_size=16, learning_rate=0.1, seed=2, stop_accuracy=0.995)
net = build(specs, shape, seed=2)
train(net, train_set, tcfg)

attack_cfg = AttackConfig(epsilon=0.04)


def fgsm_accuracy(source, target):
    """Accuracy of `target` on FGSM adversarials read off `source`'s gradients."""
    hits = 0
    for x, y in zip(test_x, test_y):
        adv = run_attack("fgsm", source, x, int(y), attack_cfg).adversarial
        hits += int(target.predict_and_score(adv[None])[0][0] == int(y))
    return hits / len(test_x)


print(f"clean accuracy: {evaluate(net, test_x, test_y)[1]:.3f}")
print(f"undefended accuracy under attack: {fgsm_accuracy(net, net):.3f}")

# 1. adversarial training: 65% adversarial / 35% clean mix
adv_cfg = DefenceConfig(kind="adv_train", adversarial_fraction=0.65, attack_name="fgsm",
                        attack=attack_cfg, train=tcfg)
hardened, _ = adversarial_train(net, train_set, adv_cfg)
print(f"adv-trained: clean={evaluate(hardened, test_x, test_y)[1]:.3f} "
      f"under attack={fgsm_accuracy(hardened, hardened):.3f}")

# 2. pixel deflection at test time: the attack reads the undefended net (transfer)
pd_cfg = DefenceConfig(kind="pixel_deflect", deflections=100, window=3, seed=5)
print(f"pixel deflection: under attack={fgsm_accuracy(net, Deflected(net, pd_cfg)):.3f}")

# 3. defensive distillation at temperature 20
dd_cfg = DefenceConfig(kind="distill", temperature=20.0, train=tcfg)
student, teacher = distill(specs, shape, train_set, dd_cfg)
print(f"distilled student: clean={evaluate(student, test_x, test_y)[1]:.3f} "
      f"under attack={fgsm_accuracy(student, student):.3f}")

logits = np.asarray(teacher.logits(test_x[:5]))
print("\nteacher soft labels flatten as temperature rises:")
for T in (1.0, 5.0, 20.0):
    p = softmax_with_temperature(logits, T)
    print(f"  T={T:4.0f} first sample -> {np.round(p[0], 3)}")
