"""Three transmitters: region geometry and corner-seeking chains.

The exact region of the 3-user adder MAC, its six corner points (one per
user ordering), and a code run targeting one of them.
"""

import numpy as np

from macresolve import Dist, build_mac_code, make_rng, region_multi, \
    run_trials
from macresolve.encoder import achieved_rates
from macresolve.probcore import Alphabet, MacChannel

transition = np.zeros((2, 2, 2, 4))
for a in range(2):
    for b in range(2):
        for c in range(2):
            transition[a, b, c, a + b + c] = 1.0
adder3 = MacChannel((Alphabet(2),) * 3, Alphabet(4), transition)
inputs = [Dist.bernoulli(0.5)] * 3

spec = region_multi(adder3, inputs)
print("subset constraints (bits):")
for key, val in sorted(spec.to_dict()["constraints"].items()):
    print(f"  I(X_{{{key}}};Z) = {val:.4f}")
print("corner points (rate per user):")
for sigma, rates in sorted(spec.to_dict()["corner_points"].items()):
    print(f"  order {sigma}: {[round(r, 4) for r in rates]}")

# run the chain targeting the order (2, 3, 1) corner
code = build_mac_code(adder3, inputs, mode="multi", order=(1, 2, 0),
                      block_len=8, k=3, xi=0.0, delta=0.0, rng=make_rng(5))
bt = run_trials(code, 20_000, make_rng(6))
rates = achieved_rates(code.plan)
print("\nfinite-k rates per stream:",
      {k: f"{float(v['rate']):.4f}" for k, v in rates["per_stream"].items()})
print("k->inf limits           :",
      {k: f"{v['limit']:.4f}" for k, v in rates["per_stream"].items()})
emp = np.bincount(bt.channel_out.reshape(-1), minlength=4) / bt.channel_out.size
print("empirical output law    :", np.round(emp, 4),
      " target (1,3,3,1)/8     :", [0.125, 0.375, 0.375, 0.125])
