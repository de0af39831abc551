"""Input domains of the sampler, the honest device, the abort estimators,
the Wilson interval, the signalling targets, eat's gamma and keyrates'
protocol parameters, as one table: each entry point's valid call and, for
each parameter, values outside its domain.  Every probe replaces one argument
of the valid call and must raise a ValueError whose message starts with
the parameter's name, so a valid call that failed on its own would not
pass for a probe.

Before these checks, each probe ran or failed elsewhere: a NaN omega_exp
or delta_est never aborted and delta_est = -5 always did; trial 2.5 ran
trial 2, True trial 1, and -1 raised numpy's OverflowError; a block count
of 2.5 or True raised numpy's TypeError; wilson_interval(2.5, 10) and
SigTarget("AtoB", 1.5, 0, 0) returned; HonestDevice(omega_exp=True)
constructed and an omega_exp of True was taken as the protocol's;
wilson_interval(3, 10**400) raised Python's OverflowError; and a gamma of
True or a q of False was taken as a number: BlockSpec(True, 3),
default_s_max(True) (returning 1), ProtocolParams and SimulationConfig
with gamma True, and HonestDevice, ProtocolParams and RateTarget with q
False all constructed.
"""

import math

import pytest

from di_toolkit import eat
from di_toolkit import keyrates as kr
from di_toolkit import signalling as sig
from di_toolkit import simulate as sim
from di_toolkit.eat import BlockSpec

NAN, INF = math.nan, math.inf
DEVICE = sim.HonestDevice(omega_exp=0.81, q=0.05)
BLOCK = BlockSpec(0.3, 4)

DELTA_EST = [NAN, INF, -INF, -5.0, 0.0, 1.0, 1.5, True, False]
ACCEPTANCE = {"omega_exp": [NAN, INF, -INF, -0.1, 1.5, True],
              "delta_est": DELTA_EST}
TRIAL = [NAN, INF, 2.5, True, -1, 2**64]
TRIALS = [NAN, INF, -INF, 0, 0.5, 2.5, True, False]
BLOCK_COUNT = [NAN, INF, 2.5, True]
INDEX = [NAN, INF, 1.5, True]
GAMMA = [NAN, INF, -INF, 0.0, -0.5, 1.5, True, False]
QBER = [NAN, INF, -INF, -0.1, 0.6, True, False]
ROUNDS = [NAN, INF, 0.5]
CONFIG = sim.SimulationConfig(n=100, gamma=0.5, omega_exp=0.81,
                              delta_est=0.01, device=DEVICE)

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
        dict(m_blocks=BLOCK_COUNT, trials=TRIALS)),
    sim.estimate_abort_probability: (
        dict(config=CONFIG, trials=5, master_seed=1),
        dict(trials=TRIALS)),
    sim.HonestDevice: (
        dict(omega_exp=0.81, q=0.05),
        dict(omega_exp=[NAN, INF, -INF, -0.1, 1.5, True], q=QBER)),
    sim.SimulationConfig: (
        dict(n=100, gamma=0.5, omega_exp=0.81, delta_est=0.01,
             device=DEVICE),
        dict(n=BLOCK_COUNT, gamma=GAMMA, delta_est=DELTA_EST)),
    sim.wilson_interval: (
        dict(successes=3, trials=10),
        dict(successes=[2.5, True], trials=TRIALS + [10**400, 2**2000])),
    sig.SigTarget: (
        dict(direction=sig.A_TO_B, x=0, y=0, outcome=0),
        dict(x=INDEX, y=INDEX, outcome=INDEX)),
    eat.TradeoffSpec: (
        dict(gamma=0.5, p_cut1=0.4),
        dict(gamma=GAMMA)),
    eat.default_s_max: (
        dict(gamma=0.5),
        dict(gamma=GAMMA)),
    eat.BlockSpec: (
        dict(gamma=0.3, s_max=4),
        dict(gamma=GAMMA, s_max=[NAN, 2.5, True, 0])),
    kr.ProtocolParams: (
        dict(n=1e6, gamma=0.5, omega_exp=0.82, delta_est=0.01, q=0.02),
        dict(n=ROUNDS, gamma=GAMMA, delta_est=DELTA_EST, q=QBER)),
    kr.RateTarget: (
        dict(n=1e6, q=0.02),
        dict(n=ROUNDS, q=QBER)),
}



def label(value):
    """A probe's repr in its test id; an integer of over 100 bits by its
    bit length."""
    if isinstance(value, int) and value.bit_length() > 100:
        return f"int-of-{value.bit_length()}-bits"
    return repr(value)


PROBES = [pytest.param(fn, name, value,
                       id=f"{fn.__name__}-{name}={label(value)}")
          for fn, (_, domains) in TABLE.items()
          for name, values in domains.items() for value in values]


@pytest.mark.parametrize("fn, name, value", PROBES)
def test_probe_raises_value_error(fn, name, value):
    kwargs = dict(TABLE[fn][0], **{name: value})
    with pytest.raises(ValueError, match=f"^{name} must "):
        fn(**kwargs)
