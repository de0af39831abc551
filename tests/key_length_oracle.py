"""Reference text of the finite-size key length, kept apart from the
package's private bodies: each term written once here, in the namespace
``xp`` (math for the scalar path, numpy for the grid kernel's oracle), and
the scalar key length built from them.

Over m blocks of at most s_max rounds, n expected rounds and n' = n + t
effective ones (t the round count's tail at error eps_t, 0 without a tail):

    l = m mu - leak(n') - log_correction - max_entropy(n') - pa_term,

the EAT entropy term (Arnon-Friedman, Renner, Vidick, arXiv:1607.01797)
less four non-negative costs.  Each term follows the package's operation order, so
that key_length's reports match keyrates.key_length_block bit for bit and
it raises the same exception type and message wherever the package does.  Nothing here reads a private name of the package
(tests/test_one_text.py checks this): the entropy rate comes from the
public eat.mu_block_opt, which tests/test_eat.py checks against
bound_oracle, and the tail from the public eat.round_count_tail.
"""

import math

from di_toolkit import eat
from di_toolkit.entropy import binary_entropy
from di_toolkit.keyrates import BLOCK, RateReport, completeness_error

LOG2_7 = math.log2(7.0)
LOG2_2SQRT2_PLUS_1 = math.log2(2.0 * math.sqrt(2.0) + 1.0)


def smoothing_root(eps_s, eps_e, xp):
    """sqrt(1 - 2 log2(eps_s eps_e)): the root of the penalty K and of the
    max-entropy term."""
    return xp.sqrt(1.0 - 2.0 * xp.log2(eps_s * eps_e))


def penalty(eps_s, eps_e, count, xp):
    """K = (2 / sqrt(count)) sqrt(1 - 2 log2(eps_s eps_e)), the EAT's
    second-order factor over ``count`` blocks (or rounds)."""
    return (2.0 / xp.sqrt(count)) * smoothing_root(eps_s, eps_e, xp)


def leak(n_eff, gamma, h_q, h_omega, eps_ec_prime, eps_ec, eps_t, xp):
    """Error-correction leakage over n_eff rounds: n_eff [(1 - gamma) h(Q)
    + gamma h(omega_exp)] + sqrt(n_eff) 4 log2(2 sqrt(2) + 1) sqrt(2
    log2(8 / e^2)) + log2(8 / eps_ec_prime^2 + 2 / (2 - eps_ec_prime)) +
    log2(1 / eps_ec), with e = eps_ec_prime - 2 sqrt(eps_t)."""
    shifted = eps_ec_prime - 2.0 * xp.sqrt(eps_t)
    return (n_eff * ((1.0 - gamma) * h_q + gamma * h_omega)
            + xp.sqrt(n_eff) * 4.0 * LOG2_2SQRT2_PLUS_1
            * xp.sqrt(2.0 * xp.log2(8.0 / shifted**2))
            + xp.log2(8.0 / eps_ec_prime**2 + 2.0 / (2.0 - eps_ec_prime))
            + xp.log2(1.0 / eps_ec))


def max_entropy(n_eff, gamma, eps_s, eps_e, xp):
    """gamma n_eff + sqrt(n_eff) 2 log2(7) sqrt(1 - 2 log2(eps_s eps_e)):
    the bound on the smooth max-entropy of the test outputs, eps_s the
    key length's smoothing less sqrt(eps_t)."""
    return (gamma * n_eff
            + xp.sqrt(n_eff) * 2.0 * LOG2_7 * smoothing_root(eps_s, eps_e, xp))


def log_correction(eps_s, xp):
    """-3 log2(1 - sqrt(1 - (eps_s/4)^2)) >= 0, the cost of the chain rule
    (Vitanov, Dupuis, Tomamichel, Renner, arXiv:1205.5231), whose
    correction lowers the min-entropy bound; log2(0) below eps_s of about
    4.2e-8."""
    return -3.0 * xp.log2(1.0 - xp.sqrt(1.0 - (eps_s / 4.0) ** 2))


def pa_term(eps_pa, xp):
    """2 log2(1 / eps_pa), the leftover hash lemma's cost."""
    return 2.0 * xp.log2(1.0 / eps_pa)


def total(entropy_term, leak_ec, log_corr, max_ent, pa):
    """The key length: the entropy term less the four costs."""
    return entropy_term - leak_ec - log_corr - max_ent - pa


def key_length(params, budget, s_max):
    """keyrates.key_length_block(params, budget, s_max): the checks, the
    budget's own terms, the entropy term from eat.mu_block_opt, then the
    terms of eps_t (0 without a tail: s_max = 1 or gamma = 1)."""
    eps_s, eps_e = budget.eps_s / 4.0, budget.eps_ea + budget.eps_ec
    eps = eat.EatEpsilons(eps_s, eps_e)
    block = eat.BlockSpec(params.gamma, s_max)
    log_corr = log_correction(budget.eps_s, math)
    pa = pa_term(budget.eps_pa, math)
    sbar = eat.expected_block_length(block)
    m = params.n / sbar
    mu_value, cut = eat.mu_block_opt(params.omega_exp, params.delta_est,
                                     block, m, eps)
    entropy_term = m * mu_value
    tail = s_max > 1 and params.gamma < 1
    eps_t = budget.eps_t if tail else 0.0
    shifted = eps_s - math.sqrt(eps_t)
    if not shifted > 0:
        raise ValueError("eps_t too large: sqrt(eps_t) >= eps_s/4")
    t = eat.round_count_tail(m, params.gamma, s_max, eps_t) if tail else 0.0
    n_eff = params.n + t
    if budget.eps_ec_prime - 2.0 * math.sqrt(eps_t) <= 0:
        raise ValueError("eps_t too large: eps_ec_prime - 2 sqrt(eps_t) <= 0")
    leak_ec = leak(n_eff, params.gamma, binary_entropy(params.q),
                   binary_entropy(params.omega_exp), budget.eps_ec_prime,
                   budget.eps_ec, eps_t, math)
    max_ent = max_entropy(n_eff, params.gamma, shifted, eps_e, math)
    ell = total(entropy_term, leak_ec, log_corr, max_ent, pa)
    return RateReport(
        key_length=ell, rate=ell / params.n, entropy_term=entropy_term,
        leak_ec=leak_ec, log_correction=log_corr, max_entropy_term=max_ent,
        pa_term=pa, soundness_error=budget.soundness_error,
        completeness_error=completeness_error(params, budget), best_cut=cut,
        params=params, budget=budget, mode=BLOCK, s_max=s_max,
        extras={"m_blocks": m, "tail_t": t, "s_bar": sbar})
