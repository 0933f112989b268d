"""
A black-box loss: one-hidden-layer network
==========================================

Nothing in the estimator looks inside the loss function; it only needs
evaluations and a scaling exponent rho.  Here the loss is a small ReLU
network (8 inputs, 12 hidden units, nonnegative output weights so the loss
is monotone in the tail direction), the kind of surrogate a desk might fit
to an expensive pricing model.

The same weights travel through the JSON weights-file format the command
line uses, so this script doubles as a round-trip check of that format.
"""

import json
import tempfile
from pathlib import Path

from tailshift import (
    CorrelationMatrix, DistributionSpec, ExperimentConfig, FixedH, LossModel,
    load_relu_params, relative_rmse, run_replications, save_relu_params,
    synthetic_relu_params,
)

net = synthetic_relu_params(dim=8, hidden=12, seed=2025)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "weights.json"
    save_relu_params(net, path)
    reloaded = load_relu_params(path)
    doc = json.loads(path.read_text())
    print(f"weights file: dims={doc['dims']}, "
          f"{len(doc['W1'])} first-layer entries, round-trip exact: "
          f"{(reloaded.W1 == net.W1).all()}")

dist = DistributionSpec.from_alphas(
    [0.6] * 8, CorrelationMatrix.tridiagonal(8, 0.1))
config = ExperimentConfig(
    dist=dist, loss=LossModel.relu_net(net), betas=(1e-3,), n=517,
    h_rule=FixedH(4.6), reps=50, base_seed=808,
)

table = run_replications(config, "is")
vals = table.values("cvar_hat", 1e-3)
print()
print(f"beta=1e-3, n=517, 50 replications: "
      f"{len(vals)} succeeded, mean cvar {vals.mean():.2f}, "
      f"relative rmse {relative_rmse(vals):.4f}")

# Arbitrary callables work the same way; register them with an explicit
# rho (the growth degree of the loss).  A max-of-coordinates loss:
import numpy as np

worst_position = LossModel.external(lambda x: float(np.max(x)), rho=1.0)
config2 = ExperimentConfig(
    dist=dist, loss=worst_position, betas=(1e-3,), n=517,
    h_rule=FixedH(4.6), reps=20, base_seed=909,
)
vals2 = run_replications(config2, "is").values("cvar_hat", 1e-3)
print(f"external max loss:  mean cvar {vals2.mean():.2f}, "
      f"relative rmse {relative_rmse(vals2):.4f}")
