#!/usr/bin/env python
"""Using ``repro.nn`` as a standalone deep-learning framework.

The reproduction ships its own NumPy autograd engine (the PyTorch
substitute). This example trains a LeNet-5 and a small
ResNet directly with the low-level API: Tensors, modules, losses,
optimizers, checkpoints.

Run:  python examples/train_cnn.py
"""

import numpy as np

from repro.data import DataLoader, synthetic_fmnist
from repro.nn import Adam, SGD, Tensor, losses, no_grad, save_model, load_model
from repro.nn.models import LeNet5, resnet


def train_model(model, train_set, test_set, epochs, lr, rng, optimizer=None):
    optimizer = optimizer or SGD(model.parameters(), lr=lr, momentum=0.9)
    loader = DataLoader(train_set, batch_size=50, shuffle=True, rng=rng)
    for epoch in range(epochs):
        model.train()
        total, batches = 0.0, 0
        for images, labels in loader:
            optimizer.zero_grad()
            loss = losses.cross_entropy(model(Tensor(images)), labels)
            loss.backward()
            optimizer.step()
            total += loss.item()
            batches += 1
        model.eval()
        with no_grad():
            predictions = model(Tensor(test_set.images)).data.argmax(axis=1)
        accuracy = (predictions == test_set.labels).mean()
        print(f"  epoch {epoch}: loss {total / batches:.3f}  test acc {accuracy:.3f}")
    return accuracy


def main() -> None:
    rng = np.random.default_rng(0)
    train_set, test_set = synthetic_fmnist(train_size=1200, test_size=400, seed=1)

    print("LeNet-5 on synthetic Fashion-MNIST:")
    lenet = LeNet5(num_classes=10, rng=rng)
    print(f"  {lenet.num_parameters()} parameters")
    train_model(lenet, train_set, test_set, epochs=4, lr=0.02,
                rng=np.random.default_rng(2))

    # Checkpoint roundtrip.
    save_model(lenet, "/tmp/lenet_fmnist")
    restored = LeNet5(num_classes=10, rng=np.random.default_rng(99))
    load_model(restored, "/tmp/lenet_fmnist")
    with no_grad():
        same = np.allclose(
            restored(Tensor(test_set.images[:8])).data,
            lenet(Tensor(test_set.images[:8])).data,
        )
    print(f"  checkpoint roundtrip exact: {same}")

    print("ResNet-8 (narrow) on the same data, with Adam:")
    net = resnet(depth=8, num_classes=10, rng=np.random.default_rng(3),
                 in_channels=1, base_width=4)
    print(f"  {net.num_parameters()} parameters "
          "(narrow residual nets converge more slowly than LeNet here)")
    train_model(net, train_set, test_set, epochs=6, lr=0.01,
                rng=np.random.default_rng(4),
                optimizer=Adam(net.parameters(), lr=0.01))


if __name__ == "__main__":
    main()
