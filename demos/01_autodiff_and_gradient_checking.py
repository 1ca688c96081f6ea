"""Tour of the float64 autodiff core: tensors, the tape, backward, and
finite-difference verification.

Run:  python demos/01_autodiff_and_gradient_checking.py
"""

import numpy as np

from switchtext import Tape, Tensor, finite_difference_check
from switchtext import tensor as T

# A tensor is a plain float64 numpy array plus a requires_grad flag.
# Recording happens only inside a Tape context.
x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
w = Tensor([[0.5, -1.0], [2.0, 0.0]], requires_grad=True)

with Tape() as tape:
    y = T.sum_(T.softmax(x @ w, axis=1) * x)
tape.backward(y)

print("forward value:", y.item())
print("dL/dx =\n", x.grad)
print("dL/dw =\n", w.grad)

# Fan-out accumulates: the same tensor feeding two ops gets the sum of both
# contributions, so shared subexpressions need no special handling.
z = Tensor([3.0], requires_grad=True)
with Tape() as tape:
    s = T.add(z, z)          # 2z
    out = T.sum_(T.mul(s, z))  # 2z^2  ->  d/dz = 4z = 12
tape.backward(out)
print("\nshared-subexpression gradient (expect 12):", z.grad)

# Softmax is fused with max-subtraction, so huge logits are fine.
big = Tensor([1000.0, 1000.0, 999.0])
print("\nsoftmax of huge logits:", T.softmax(big, axis=0).data)

# Every differentiable op can be checked against central differences.
# The returned number is the max relative error over input elements.
rng = np.random.default_rng(0)
probe = Tensor(rng.standard_normal((2, 3)))

def loss(t):
    return T.sum_(T.mul(T.softmax(t, axis=1), Tensor([[1.0, -2.0, 0.5]] * 2)))

err = finite_difference_check(loss, probe, h=1e-6)
print(f"\nfinite-difference check on a softmax composite: {err:.2e} (want < 1e-4)")
