"""Tour of the exact probability kernel.

Builds the adder MAC Z = X + Y, computes its information quantities exactly,
and checks the memoryless transmitter against the exact target law.
"""

import numpy as np

from macresolve import (
    Dist,
    entropy,
    make_rng,
    mutual_information,
    target_output_dist,
    transmit,
)
from macresolve.probcore import Alphabet, MacChannel

# Z = X + Y over {0, 1, 2}
transition = np.zeros((2, 2, 3))
for x in range(2):
    for y in range(2):
        transition[x, y, x + y] = 1.0
adder = MacChannel((Alphabet(2), Alphabet(2)), Alphabet(3), transition)

p_x = Dist.bernoulli(0.5)
p_y = Dist.bernoulli(0.5)

q_z = target_output_dist(adder, [p_x, p_y])
print("target output law q_Z:", q_z.pmf)           # (1/4, 1/2, 1/4)
print("H(q_Z) =", entropy(q_z), "bits")

joint = adder.joint_with_output([p_x, p_y])        # axes (X, Y, Z)
print("I(XY;Z) =", mutual_information(joint, [0, 1], [2]))
print("I(X;Z)  =", mutual_information(joint, [0], [2]))
print("I(X;Z|Y)=", mutual_information(joint, [0], [2], [1]))

# the sum-rate bound strictly exceeds the individual bounds: case 1 territory
gap = (mutual_information(joint, [0, 1], [2])
       - mutual_information(joint, [0], [2])
       - mutual_information(joint, [1], [2]))
print("dichotomy gap I(XY;Z) - I(X;Z) - I(Y;Z) =", gap)

# drive the channel with one million true samples and compare frequencies
rng = make_rng(1)
n = 1_000_000
z = transmit(adder, [rng.choice(2, size=n, p=d.pmf) for d in (p_x, p_y)], rng)
emp = np.bincount(z, minlength=3) / n
print("empirical output law:", emp)
print("unnormalized L1 gap :", np.abs(emp - q_z.pmf).sum())
