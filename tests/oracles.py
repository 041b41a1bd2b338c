"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch in plain scalar
Python (no shared code with src/): a bit-level shift-register encoder,
exhaustive a-posteriori / best-sequence LLR computations that enumerate
every information word, a 16-edge state-metric update that walks the
edge list directly, a sliding-window decoder that runs one window
after another, and a turbo loop built on it.
"""

import math

import numpy as np

# Shift register (r1, r2, r3), r1 newest.  Feedback taps D^2, D^3; the
# parity output XORs the new internal bit with taps D, D^3.
_FEEDBACK_TAPS = (0, 1, 1)
_FORWARD_TAPS = (1, 0, 1)


def _step(reg, bit):
    fb = sum(r * t for r, t in zip(reg, _FEEDBACK_TAPS)) % 2
    internal = (bit + fb) % 2
    parity = (internal + sum(r * t for r, t in zip(reg, _FORWARD_TAPS))) % 2
    return [internal, reg[0], reg[1]], parity


def _state_of(reg):
    return reg[0] * 4 + reg[1] * 2 + reg[2]


def ref_rsc_encode(bits):
    """Reference constituent encoder.

    Returns (parity, tail_info, tail_parity, states) where states lists
    the encoder state before each of the n + 3 steps plus the final one.
    """
    reg = [0, 0, 0]
    states = [0]
    parity = []
    for b in bits:
        reg, p = _step(reg, int(b))
        parity.append(p)
        states.append(_state_of(reg))
    tail_info, tail_parity = [], []
    for _ in range(3):
        b = (reg[1] + reg[2]) % 2
        reg, p = _step(reg, b)
        tail_info.append(b)
        tail_parity.append(p)
        states.append(_state_of(reg))
    return parity, tail_info, tail_parity, states


def _word_metric(bits, lu, lc1, lc2, tail_lu, tail_lc1, tail_lc2):
    """Log-likelihood exponent of one codeword path.

    With per-bit likelihoods P(b|L) ~ exp(x*L/2) for bipolar x, a word's
    joint exponent is half the sum of label-weighted LLRs along its path.
    """
    parity, tail_info, tail_parity, _ = ref_rsc_encode(bits)
    m = 0.0
    for k, (b, p) in enumerate(zip(bits, parity)):
        m += (1 - 2 * b) * (lu[k] + lc1[k]) + (1 - 2 * p) * lc2[k]
    for t, (b, p) in enumerate(zip(tail_info, tail_parity)):
        m += (1 - 2 * b) * (tail_lu[t] + tail_lc1[t]) + (1 - 2 * p) * tail_lc2[t]
    return 0.5 * m


def _logsumexp(values):
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def exhaustive_llrs(lu, lc2, tail_lu, tail_lc2, lc1=None, tail_lc1=None,
                    best_sequence=False):
    """True per-bit LLRs by enumerating all 2^n information words.

    best_sequence=False sums the path exponentials per bit hypothesis
    (a-posteriori); best_sequence=True takes the best path per hypothesis
    instead, which is what a max-only decoder converges to.
    """
    n = len(lu)
    lc1 = [0.0] * n if lc1 is None else list(lc1)
    tail_lc1 = [0.0, 0.0, 0.0] if tail_lc1 is None else list(tail_lc1)
    metrics = []
    words = []
    for w in range(1 << n):
        bits = [(w >> k) & 1 for k in range(n)]
        metrics.append(_word_metric(bits, lu, lc1, lc2, tail_lu, tail_lc1, tail_lc2))
        words.append(bits)
    llrs = []
    for k in range(n):
        m0 = [m for m, bits in zip(metrics, words) if bits[k] == 0]
        m1 = [m for m, bits in zip(metrics, words) if bits[k] == 1]
        if best_sequence:
            llrs.append(max(m0) - max(m1))
        else:
            llrs.append(_logsumexp(m0) - _logsumexp(m1))
    return np.array(llrs)


def naive_state_update(edges, prev_metrics, lu, lc2, direction, max_star_fn):
    """State-metric update looping over the given trellis edges (all 16);
    each edge's metric u*lu + c2*lc2 comes from its own labels."""
    best = [None] * len(prev_metrics)
    for edge in edges:
        if direction == "forward":
            src, dst = edge.start_state, edge.end_state
        else:
            src, dst = edge.end_state, edge.start_state
        cand = prev_metrics[src] + (edge.u * lu + edge.c2 * lc2)
        best[dst] = cand if best[dst] is None else max_star_fn(best[dst], cand)
    return np.array(best, dtype=float)


def dyadic(rng, shape, grid_bits=6, scale=4.0):
    """Random LLR-like values on a dyadic grid (exact float arithmetic)."""
    step = 2.0 ** -grid_bits
    return np.round(rng.normal(0.0, scale, shape) / step) * step


# Stands in for an unreachable state's metric: far below any real path.
_UNREACHABLE = -1.0e300


def _ref_max_star(x, y, mode, c, t, a, t_lin):
    """max* of two floats by kernel name; the correction is exactly 0.0
    when one argument is unreachable."""
    m, d = max(x, y), abs(x - y)
    if mode == "max-log":
        return m
    if mode == "log-map":
        return m + math.log1p(math.exp(-d))
    if mode == "constant":
        return m + (c if d <= t else 0.0)
    return m + max(0.0, a * (d - t_lin))


def window_reference_llrs(lu, lc2, tail_lu, tail_lc2, mode, window_len,
                          acquisition_len, normalize, c, t, a, t_lin):
    """Sliding-window max* decode of one block, one window at a time.

    The forward recursion runs over the whole block from state 0.  Each
    window [w0, w1) then acquires its backward boundary over up to
    acquisition_len stages past w1, from uniform metrics, or from the
    tail boundary when those stages reach the end of the block, and runs
    back over its own stages, forming each LLR as a left fold of max*
    over the eight u=0 edges minus that over the eight u=1 edges, edges
    taken by ascending start state.  Branch metrics are half-scale,
    u*lu/2 + c2*lc2/2 with bipolar labels; with normalize the state-0
    metric is subtracted after every stage.  c, t, a, t_lin are the
    correction constants of the constant and linear kernels.
    """
    n = len(lu)
    star = lambda x, y: _ref_max_star(x, y, mode, c, t, a, t_lin)
    edges = []   # (start, end, u, c2) by ascending start state, bit 0 first
    for s in range(8):
        reg = [(s >> 2) & 1, (s >> 1) & 1, s & 1]
        for bit in (0, 1):
            nreg, p = _step(reg, bit)
            edges.append((s, _state_of(nreg), 1 - 2 * bit, 1 - 2 * p))

    def step(metrics, hl, hp, forward):
        best = [None] * 8
        for s, e, u, c2 in edges:
            src, dst = (s, e) if forward else (e, s)
            cand = metrics[src] + (u * hl + c2 * hp)
            best[dst] = cand if best[dst] is None else star(best[dst], cand)
        return [m - best[0] for m in best] if normalize else best

    half_lu = [0.5 * x for x in lu]
    half_lc2 = [0.5 * x for x in lc2]
    alphas = []
    alpha = [0.0] + [_UNREACHABLE] * 7
    for k in range(n):
        alphas.append(alpha)
        alpha = step(alpha, half_lu[k], half_lc2[k], True)

    tail_beta = [0.0] + [_UNREACHABLE] * 7
    for k in (2, 1, 0):
        tail_beta = step(tail_beta, 0.5 * tail_lu[k], 0.5 * tail_lc2[k], False)

    llrs = [0.0] * n
    for w0 in range(0, n, window_len):
        w1 = min(w0 + window_len, n)
        acq_end = min(w1 + acquisition_len, n)
        beta = tail_beta if acq_end == n else [0.0] * 8
        for k in range(acq_end - 1, w1 - 1, -1):
            beta = step(beta, half_lu[k], half_lc2[k], False)
        for k in range(w1 - 1, w0 - 1, -1):
            folds = {}
            for s, e, u, c2 in edges:
                v = alphas[k][s] + (u * half_lu[k] + c2 * half_lc2[k]) + beta[e]
                folds[u] = v if u not in folds else star(folds[u], v)
            llrs[k] = folds[1] - folds[-1]
            beta = step(beta, half_lu[k], half_lc2[k], False)
    return np.array(llrs)


def turbo_reference_decode(lu, parity1, parity2, tail1_info, tail1_parity,
                           tail2_info, tail2_parity, f1, f2, iterations, mode,
                           normalize, c, t, a, t_lin):
    """Iterative turbo decode of one block with window_reference_llrs.

    Each constituent is decoded as one window; the interleaver is the QPP
    pi(i) = (f1*i + f2*i^2) mod n, computed here.  Per full iteration:
    decoder 1 sees lu + apriori and parity1, its extrinsic (output minus
    its lu input) is interleaved and added to the interleaved lu for
    decoder 2 on parity2, and decoder 2's extrinsic, deinterleaved, is
    the next a-priori input.  Returns (final LLRs, hard bits), the final
    LLRs being lu + extrinsic1 + apriori after the last iteration and a
    hard bit 1 where they are negative.
    """
    n = len(lu)
    pi = [(f1 * i + f2 * i * i) % n for i in range(n)]
    lu = [float(x) for x in lu]
    apriori = [0.0] * n
    for _ in range(iterations):
        in1 = [x + y for x, y in zip(lu, apriori)]
        out1 = window_reference_llrs(in1, list(parity1), list(tail1_info),
                                     list(tail1_parity), mode, n, 0, normalize,
                                     c, t, a, t_lin)
        ext1 = [float(o) - x for o, x in zip(out1, in1)]
        in2 = [lu[pi[i]] + ext1[pi[i]] for i in range(n)]
        out2 = window_reference_llrs(in2, list(parity2), list(tail2_info),
                                     list(tail2_parity), mode, n, 0, normalize,
                                     c, t, a, t_lin)
        for i in range(n):
            apriori[pi[i]] = float(out2[i]) - in2[i]
    final = np.array([x + e + p for x, e, p in zip(lu, ext1, apriori)])
    return final, (final < 0).astype(np.uint8)
