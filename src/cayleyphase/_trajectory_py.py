"""Pure-Python trajectory loop.  Each step compares the new state with the one
q steps back, q = 1 first: a return at q = 1 is a fixed direction (period 1),
at q >= 2 (from ``burn_in`` on) a cycle of period q; with no return the run is
aperiodic (period 0).  A candidate q >= 2 must first agree within ``tol`` in
one component, c1, or c2 when c1 is the max: the max is 1.0 in every state
where it leads, so it would pass many candidates.

Twin of the compiled loop in ``_trajectory.c``: the arithmetic is written
operation-for-operation identically so the two backends produce bit-identical
results.  Do not "simplify" expressions here without mirroring the change.
Bit-identity holds on the inputs ``dynamics.iterate`` passes: a, b > 0 in
``BoltzmannParams``' range and a start of max-norm 1.  There the component at
1 gives two weights whose product is at least 1 (up to rounding), so no step
divides by zero.
This module is the reference the backend test compares the C loop against, and
the backend that runs where no C compiler was available at install time.
"""

BACKEND = "python"

FIXED = 0
CYCLE = 1
APERIODIC = 2

# The state of step s sits in slot s & _RING_MASK.  Each step compares before
# it writes, so the state _P_MAX_CAP steps back is still there.
_P_MAX_CAP = 256
_RING_MASK = _P_MAX_CAP - 1


def _states(ring, first, count):
    return [ring[(first + k) & _RING_MASK] for k in range(count)]


def _distance(c1, c2, c3, c4, h):
    # max-norm of the difference between the state c1..c4 and h
    h1, h2, h3, h4 = h
    dq = abs(c1 - h1)
    e = abs(c2 - h2)
    if e > dq:
        dq = e
    e = abs(c3 - h3)
    if e > dq:
        dq = e
    e = abs(c4 - h4)
    if e > dq:
        dq = e
    return dq


def run_trajectory(a, b, u1, u2, u3, u4, max_iter, tol, burn_in, p_max):
    """Iterate step-and-renormalise from a unit-max-norm state.

    Returns (kind, period, iterations, residual, states) with period 1, q or
    0 and states a list of 4-tuples: the final state (kind FIXED/APERIODIC)
    or the final full period (kind CYCLE, oldest first).
    """
    ainv = 1.0 / a
    binv = 1.0 / b
    if not 0 <= p_max <= _P_MAX_CAP:
        raise ValueError("p_max must be between 0 and 256 for the ring")
    # slot 0 holds the start; every other slot is written before it is read
    ring = [None] * _P_MAX_CAP
    ring[0] = (u1, u2, u3, u4)
    c1, c2, c3, c4 = u1, u2, u3, u4
    d = 0.0
    for t in range(1, max_iter + 1):
        t1 = b * c1 + binv * c2
        t2 = b * c3 + binv * c4
        t3 = binv * c1 + b * c2
        t4 = binv * c3 + b * c4
        w1 = a * (t1 * t1)
        w2 = ainv * (t2 * t2)
        w3 = ainv * (t3 * t3)
        w4 = a * (t4 * t4)
        m = w1
        if w2 > m:
            m = w2
        if w3 > m:
            m = w3
        if w4 > m:
            m = w4
        c1 = w1 / m
        c2 = w2 / m
        c3 = w3 / m
        c4 = w4 / m
        q_hi = 1 if t < burn_in else max(1, min(p_max, t))
        # a negative index wraps: ring[slot - q] is slot (t - q) & _RING_MASK
        slot = t & _RING_MASK
        # q = 1 in full: its difference is an aperiodic run's residual
        q = 1
        d = dq = _distance(c1, c2, c3, c4, ring[slot - 1])
        if not d <= tol:
            j = 0 if c1 < 1.0 else 1
            cj = c2 if j else c1
            for q in range(2, q_hi + 1):
                h = ring[slot - q]
                # the max-norm is at least one component's difference
                if abs(cj - h[j]) > tol:
                    continue
                dq = _distance(c1, c2, c3, c4, h)
                if dq <= tol:
                    break
        ring[slot] = (c1, c2, c3, c4)
        if dq <= tol:
            return (FIXED if q == 1 else CYCLE, q, t, dq, _states(ring, t - q + 1, q))
    return (APERIODIC, 0, max_iter, d, _states(ring, max(max_iter, 0), 1))
