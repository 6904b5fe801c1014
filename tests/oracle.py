"""Reference locally informed proposal, in two steps: draw the move, then
price it from the potential, or price a given move from a fresh evaluation
of the site's conditionals.  The kernels use ``core.informed_rows``; the
tests check it against these."""

import numpy as np

from mixedhmc.core import DegenerateSiteError, _masked_logsumexp


def default_proposal_sample(j, x, q, model, rng):
    """Locally informed single-site proposal that never stays put.

    Draws ``x_tilde`` differing from ``x`` only at site ``j``, with the new
    value ``v != x[j]`` chosen with probability proportional to its conditional
    weight ``exp(-site_cond_neglogp(j, x, q)[v])``.

    Returns
    -------
    x_tilde : np.ndarray
        Proposed discrete state.
    log_fwd : float
        log Q_j(x_tilde | x).
    log_bwd : float
        log Q_j(x | x_tilde), from the same conditional weight vector with the
        respective current value masked out.
    """
    card = model.site_cardinality(j)
    if card < 2:
        raise DegenerateSiteError(f"degenerate site {j}: cardinality {card} "
                                  "admits no move")
    cur = int(x[j])
    neglogp = np.asarray(model.site_cond_neglogp(j, x, q), dtype=np.float64)

    if card == 2:
        # Binary site: the flip is the only legal move, with probability 1.
        new = 1 - cur
        log_fwd = 0.0
        log_bwd = 0.0
    else:
        logits, log_z_fwd, w = _masked_logsumexp(neglogp, cur)
        u = rng.uniform() * w.sum()
        new = int(np.searchsorted(np.cumsum(w), u, side="right"))
        log_fwd = logits[new] - log_z_fwd
        logits_b, log_z_bwd, _ = _masked_logsumexp(neglogp, new)
        log_bwd = logits_b[cur] - log_z_bwd

    x_tilde = x.copy()
    x_tilde[j] = new
    return x_tilde, log_fwd, log_bwd


def delta_E(x, x_tilde, q, log_fwd, log_bwd, model) -> float:
    """Energy cost of the discrete move ``x -> x_tilde`` at location ``q``.

    ``log [ pi(x, q) Q(x_tilde|x) / (pi(x_tilde, q) Q(x|x_tilde)) ]``,
    i.e. ``U(x_tilde, q) - U(x, q) + log_fwd - log_bwd``.
    """
    return (model.potential(x_tilde, q) - model.potential(x, q)
            + log_fwd - log_bwd)


def forced_delta(j, x, q, model, new_value) -> float:
    """Energy cost of moving site ``j`` to ``new_value`` under the locally
    informed proposal, with both normalizers evaluated in log space.

    Used to replay recorded proposal sequences and for deterministic moves.
    """
    cur = int(x[j])
    if new_value == cur:
        raise ValueError("forced proposal must differ from the current value")
    neglogp = np.asarray(model.site_cond_neglogp(j, x, q), dtype=np.float64)
    if neglogp.size == 2:
        return float(neglogp[new_value] - neglogp[cur])
    _, log_z_new, _ = _masked_logsumexp(neglogp, new_value)
    _, log_z_cur, _ = _masked_logsumexp(neglogp, cur)
    return float(log_z_new - log_z_cur)
