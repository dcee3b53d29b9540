"""How measurement back-action sculpts the parameter wavefunction.

A 16-element search circuit runs with its oracle phase drawn from a
quantum register in a flat superposition.  Watch what single projective
outcomes do to |chi|^2: a passed verification concentrates weight near
the good phase values, a failed one digs a dip exactly there, and the
one-shot inversion about the mean turns that first dip into a peak.
The wavefunction is a batch of one run, stepped by the training loop's
own kernels.
"""

import numpy as np

from gatelearn import GroverInstance, grid_points
from gatelearn.backaction import distribution_batch, filter_batch, outcome_table, sample_batch
from gatelearn.grover import _amplitudes_for_phases
from gatelearn.parameter import invert_about_mean_batch

CELLS = 64
BARS = " .:-=+*#%@"


def sparkline(weights):
    scaled = weights / weights.max()
    return "".join(BARS[int(v * (len(BARS) - 1))] for v in scaled)


def probabilities(chi):
    """|chi|^2 of the one run in a batch."""
    return np.abs(chi[0]) ** 2


def main():
    instance = GroverInstance.standard(16)
    t, u = _amplitudes_for_phases(instance, grid_points(CELLS))
    pmap = np.abs(t) ** 2  # the success probability at each grid point
    table, columns = outcome_table([t, u])  # outcome 0 passes, 1 fails

    def measure(chi, rng):
        """One projective readout and its back-action on the run."""
        dist = distribution_batch(np.abs(chi) ** 2, table)
        outcome = sample_batch(dist, [rng])
        return outcome[0], filter_batch(chi, columns[outcome], dist[0, outcome])

    chi = np.full((1, CELLS), 1 / np.sqrt(CELLS), dtype=complex)  # a flat batch of one run

    print(f"search space: {instance.n_elements} elements, "
          f"{instance.iterations} amplification rounds")
    print(f"success probability over the phase grid (peak at pi):")
    print(f"  p(phi)    |{sparkline(pmap)}|")
    print(f"  uniform   |{sparkline(probabilities(chi))}|  <- initial |chi|^2")

    rng = np.random.default_rng(1)
    # condition on a failed first verification (the likely case)
    while True:
        outcome, filtered = measure(chi, rng)
        if outcome == 1:
            break
    print(f"  after one failed trial   |{sparkline(probabilities(filtered))}|"
          "  <- dip at the good phases")

    kicked = invert_about_mean_batch(filtered)
    print(f"  after inversion kickstart|{sparkline(probabilities(kicked))}|"
          "  <- dip became the peak")

    # a couple of passed verifications sharpen the peak hard
    state = kicked
    passes = 0
    while passes < 3:
        outcome, state = measure(state, rng)
        if outcome == 0:
            passes += 1
            print(f"  after pass #{passes}            "
                  f"|{sparkline(probabilities(state))}|")

    weights = probabilities(state)
    expected = float(weights @ pmap)
    print(f"\nexpected deployed success is now {expected:.3f} "
          f"(ideal circuit: {pmap.max():.3f})")


if __name__ == "__main__":
    main()
