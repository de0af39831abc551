"""Input domains of the sampler, the Wilson interval and the signalling
targets, as one table: each entry point's valid call and, for each
parameter, values outside its domain.  Every probe replaces one argument
of the valid call and must raise a ValueError whose message starts with
the parameter's name, so a valid call that failed on its own would not
pass for a probe.

Before these checks, each probe ran or failed elsewhere: a NaN omega_exp
or delta_est never aborted and delta_est = -5 always did; trial 2.5 ran
trial 2, True trial 1, and -1 raised numpy's OverflowError; a block count
of 2.5 or True raised numpy's TypeError; wilson_interval(2.5, 10) and
SigTarget("AtoB", 1.5, 0, 0) returned.
"""

import math

import pytest

from di_toolkit import signalling as sig
from di_toolkit import simulate as sim
from di_toolkit.eat import BlockSpec

NAN, INF = math.nan, math.inf
DEVICE = sim.HonestDevice(omega_exp=0.81, q=0.05)
BLOCK = BlockSpec(0.3, 4)

ACCEPTANCE = {"omega_exp": [NAN, INF, -INF, -0.1, 1.5],
              "delta_est": [NAN, INF, -INF, -5.0, 0.0, 1.0, 1.5]}
TRIAL = [NAN, INF, 2.5, True, -1, 2**64]
BLOCK_COUNT = [NAN, INF, 2.5, True]
INDEX = [NAN, INF, 1.5, True]

# entry point: (the valid call's keyword arguments, {parameter: probes})
TABLE = {
    sim.run_protocol: (
        dict(n=100, gamma=0.5, omega_exp=0.81, delta_est=0.02,
             device=DEVICE, seed=1, trial=0),
        dict(ACCEPTANCE, n=BLOCK_COUNT, trial=TRIAL)),
    sim.run_protocol_blocks: (
        dict(m_blocks=20, block=BLOCK, omega_exp=0.81, delta_est=0.02,
             device=DEVICE, seed=1, trial=0),
        dict(ACCEPTANCE, m_blocks=BLOCK_COUNT, trial=TRIAL)),
    sim.round_count_statistics: (
        dict(m_blocks=20, block=BLOCK, device=DEVICE, trials=5, seed=1,
             tail_t=1.0),
        dict(m_blocks=BLOCK_COUNT)),
    sim.wilson_interval: (
        dict(successes=3, trials=10),
        dict(successes=[2.5, True])),
    sig.SigTarget: (
        dict(direction=sig.A_TO_B, x=0, y=0, outcome=0),
        dict(x=INDEX, y=INDEX, outcome=INDEX)),
}

PROBES = [pytest.param(fn, name, value,
                       id=f"{fn.__name__}-{name}={value!r}")
          for fn, (_, domains) in TABLE.items()
          for name, values in domains.items() for value in values]


@pytest.mark.parametrize("fn, name, value", PROBES)
def test_probe_raises_value_error(fn, name, value):
    kwargs = dict(TABLE[fn][0], **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must "):
        fn(**kwargs)
