"""How measurement back-action sculpts the parameter wavefunction.

A 16-element search circuit runs with its oracle phase drawn from a
quantum register in a flat superposition.  Watch what single projective
outcomes do to |chi|^2: a passed verification concentrates weight near
the good phase values, a failed one digs a dip exactly there, and the
one-shot inversion about the mean turns that first dip into a peak.
"""

import numpy as np

from gatelearn import (
    GroverInstance,
    OutcomeAmplitudes,
    invert_about_mean,
    sample_and_update,
    success_probability_map,
    uniform_init,
)
from gatelearn.grover import _amplitudes_for_phases

CELLS = 64
BARS = " .:-=+*#%@"


def sparkline(weights):
    scaled = weights / weights.max()
    return "".join(BARS[int(v * (len(BARS) - 1))] for v in scaled)


def main():
    instance = GroverInstance.standard(16)
    chi = uniform_init(CELLS)
    pmap = success_probability_map(instance, chi)
    t, u = _amplitudes_for_phases(instance, chi.axis_values(0))
    amps = OutcomeAmplitudes.binary(t, u)

    print(f"search space: {instance.n_elements} elements, "
          f"{instance.iterations} amplification rounds")
    print(f"success probability over the phase grid (peak at pi):")
    print(f"  p(phi)    |{sparkline(pmap)}|")
    print(f"  uniform   |{sparkline(chi.probabilities())}|  <- initial |chi|^2")

    rng = np.random.default_rng(1)
    # condition on a failed first verification (the likely case)
    while True:
        outcome, filtered = sample_and_update(chi, amps, rng)
        if outcome == 1:
            break
    print(f"  after one failed trial   |{sparkline(filtered.probabilities())}|"
          "  <- dip at the good phases")

    kicked = invert_about_mean(filtered)
    print(f"  after inversion kickstart|{sparkline(kicked.probabilities())}|"
          "  <- dip became the peak")

    # a couple of passed verifications sharpen the peak hard
    state = kicked
    passes = 0
    while passes < 3:
        outcome, state = sample_and_update(state, amps, rng)
        if outcome == 0:
            passes += 1
            print(f"  after pass #{passes}            "
                  f"|{sparkline(state.probabilities())}|")

    weights = state.probabilities()
    expected = float(weights @ pmap)
    print(f"\nexpected deployed success is now {expected:.3f} "
          f"(ideal circuit: {pmap.max():.3f})")


if __name__ == "__main__":
    main()
