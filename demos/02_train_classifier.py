#!/usr/bin/env python3
"""Train the small blob classifier from scratch and save it.

Also prints the stock wide-architecture parameter count to show the
descriptor matches its reference total without training it.
"""

from pathlib import Path

from advlab.bench import generate_images, network_specs
from advlab.gradnet import (
    TrainConfig,
    build,
    evaluate,
    propagate_shapes,
    reference_cnn_specs,
    save_network,
    train,
)
from advlab.gradnet.layers import KERNEL

# The wide reference stack: count parameters by shape propagation alone.
specs, shape = reference_cnn_specs(input_hw=126, scale=1.0)
shapes = propagate_shapes(specs, shape)
total = 0
for spec, in_shape in zip(specs, shapes[:-1]):
    if spec.kind == "conv":
        total += KERNEL**2 * in_shape[2] * spec.out_channels + spec.out_channels
    elif spec.kind == "dense":
        total += in_shape[0] * spec.width + spec.width
print(f"reference descriptor on 126x126x1: {total:,} parameters")

# Desk-scale training run.
images, labels, _ = generate_images(1200, size=32, seed=3)
specs, shape = network_specs("blob_cnn", 32)
net = build(specs, shape, seed=0)
print(f"blob_cnn: {net.parameter_count:,} parameters")

net, history = train(
    net,
    (images[:1000], labels[:1000]),
    TrainConfig(epochs=20, batch_size=16, learning_rate=0.1, seed=0, stop_accuracy=0.995),
)
# train_acc is the running accuracy: each row as its own SGD pass labelled
# it during that epoch. The stop rule instead evaluates the whole training
# set after each epoch, with that epoch's final parameters.
for epoch, (loss, acc) in enumerate(zip(history["loss"], history["accuracy"])):
    print(f"epoch {epoch}: loss={loss:.4f} train_acc={acc:.3f}")

test_loss, test_acc = evaluate(net, images[1000:], labels[1000:])
print(f"held-out: loss={test_loss:.4f} acc={test_acc:.3f}")

out = Path("demo_out")
out.mkdir(exist_ok=True)
save_network(net, out / "blob_cnn.net")
print(f"saved to {out / 'blob_cnn.net'} (+ JSON sidecar)")
