"""Desk-scale check of the chain-to-diffusion duality.

Start a 128-leaf chain at a fixed tree and estimate, from the time-t states
of 200 replicates, the probability that four uniform leaf samples span each
labeled quartet.  The dual computation never simulates the big chain: it
exponentiates the 4-leaf backward generator tilted by the cherry potential
and applies it to the exact quartet probabilities of the initial tree.  The
chain side agrees with the exact dual within its Monte Carlo error.

Every tree has the same quartet probabilities, (N)_4 / (3 N^4) each, so at
m = 4 this exercises the estimator and the dual propagator; from m = 6 on the
shape vector depends on the tree, and the same check sees the chain's moves.
"""

from alphaford.chain import verify_chain_diffusion_duality

for alpha in ("0", "1/2"):
    print(f"alpha = {alpha}, N = 128, t = 0.05, 200 replicates")
    checks = verify_chain_diffusion_duality(alpha, 4, 128, 0.05, replicates=200, seed=42)
    for c in checks:
        print(
            f"  target {c.target_key[1]}: chain {c.lhs:.5f} +- {c.lhs_se:.5f}"
            f" | exact dual {c.rhs:.5f} | z = {c.z_score:+.2f}"
        )
