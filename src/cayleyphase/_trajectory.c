/* Compiled trajectory loop.  Each step compares the new state with the one q
 * steps back, q = 1 first: a return at q = 1 is a fixed direction (period 1),
 * at q >= 2 (from burn_in on) a cycle of period q; with no return the run is
 * aperiodic (period 0).  A candidate q >= 2 must first agree within tol in
 * one component, c1, or c2 when c1 is the max: the max is 1.0 in every state
 * where it leads, so it would pass many candidates, each at the cost of a
 * mispredicted branch.
 *
 * Twin of _trajectory_py.run_trajectory: the arithmetic is written
 * operation-for-operation identically, and setup.py compiles this file with
 * -ffp-contract=off so no multiply-add is fused, so both backends produce
 * bit-identical results.  Do not "simplify" expressions here without
 * mirroring the change.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

enum { FIXED = 0, CYCLE = 1, APERIODIC = 2 };

/* The state of step s sits in slot s & RING_MASK.  Each step compares before
 * it writes, so the state P_MAX_CAP steps back is still there and a
 * power-of-two ring of P_MAX_CAP slots needs no division. */
#define P_MAX_CAP 256
#define RING_MASK (P_MAX_CAP - 1)

static PyObject *
state_list(double ring[][4], Py_ssize_t first, Py_ssize_t count)
{
    PyObject *states = PyList_New(count);
    if (states == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < count; k++) {
        double *s = ring[(first + k) & RING_MASK];
        PyObject *item = Py_BuildValue("(dddd)", s[0], s[1], s[2], s[3]);
        if (item == NULL) {
            Py_DECREF(states);
            return NULL;
        }
        PyList_SET_ITEM(states, k, item);
    }
    return states;
}

/* max-norm of the difference between the state c1..c4 and h */
static inline double
distance(double c1, double c2, double c3, double c4, const double *h)
{
    double dq = fabs(c1 - h[0]), e;
    e = fabs(c2 - h[1]);
    if (e > dq)
        dq = e;
    e = fabs(c3 - h[2]);
    if (e > dq)
        dq = e;
    e = fabs(c4 - h[3]);
    if (e > dq)
        dq = e;
    return dq;
}

static PyObject *
run_trajectory(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"a", "b", "u1", "u2", "u3", "u4", "max_iter", "tol", "burn_in", "p_max", NULL};
    double a, b, u1, u2, u3, u4, tol;
    Py_ssize_t max_iter, burn_in, p_max;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "ddddddndnn", kwlist, &a, &b, &u1, &u2, &u3, &u4,
                                     &max_iter, &tol, &burn_in, &p_max))
        return NULL;
    if (a == 0.0 || b == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return NULL;
    }
    if (p_max < 0 || p_max > P_MAX_CAP) {
        PyErr_SetString(PyExc_ValueError, "p_max must be between 0 and 256 for the compiled ring");
        return NULL;
    }
    /* slot 0 holds the start; every other slot is written before it is read */
    double ring[P_MAX_CAP][4];
    ring[0][0] = u1;
    ring[0][1] = u2;
    ring[0][2] = u3;
    ring[0][3] = u4;
    double ainv = 1.0 / a;
    double binv = 1.0 / b;
    double c1 = u1, c2 = u2, c3 = u3, c4 = u4;
    double t1, t2, t3, t4, w1, w2, w3, w4, m, d, dq, cj, *h;
    Py_ssize_t t, q, q_hi;
    int j, kind = APERIODIC;

    d = 0.0;
    /* the loop touches no Python object, so other threads run meanwhile */
    Py_BEGIN_ALLOW_THREADS
    for (t = 1; t <= max_iter; t++) {
        t1 = b * c1 + binv * c2;
        t2 = b * c3 + binv * c4;
        t3 = binv * c1 + b * c2;
        t4 = binv * c3 + b * c4;
        w1 = a * (t1 * t1);
        w2 = ainv * (t2 * t2);
        w3 = ainv * (t3 * t3);
        w4 = a * (t4 * t4);
        m = w1;
        if (w2 > m)
            m = w2;
        if (w3 > m)
            m = w3;
        if (w4 > m)
            m = w4;
        if (m == 0.0) {
            kind = -1;
            break;
        }
        c1 = w1 / m;
        c2 = w2 / m;
        c3 = w3 / m;
        c4 = w4 / m;
        q_hi = t < burn_in ? 1 : (p_max < t ? p_max : t);
        if (q_hi < 1)
            q_hi = 1;
        /* q = 1 in full: its difference is an aperiodic run's residual */
        q = 1;
        d = dq = distance(c1, c2, c3, c4, ring[(t - 1) & RING_MASK]);
        if (!(d <= tol)) {
            j = c1 < 1.0 ? 0 : 1;
            cj = j ? c2 : c1;
            for (q = 2; q <= q_hi; q++) {
                h = ring[(t - q) & RING_MASK];
                /* the max-norm is at least one component's difference */
                if (fabs(cj - h[j]) > tol)
                    continue;
                dq = distance(c1, c2, c3, c4, h);
                if (dq <= tol)
                    break;
            }
        }
        h = ring[t & RING_MASK];
        h[0] = c1;
        h[1] = c2;
        h[2] = c3;
        h[3] = c4;
        if (dq <= tol) {
            kind = q == 1 ? FIXED : CYCLE;
            break;
        }
    }
    Py_END_ALLOW_THREADS
    if (kind < 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return NULL;
    }
    if (kind != APERIODIC)
        return Py_BuildValue("(inndN)", kind, q, t, dq, state_list(ring, t - q + 1, q));
    /* t - 1 is max_iter, or 0 when max_iter < 1 */
    return Py_BuildValue("(inndN)", APERIODIC, (Py_ssize_t)0, max_iter, d, state_list(ring, t - 1, 1));
}

static PyMethodDef methods[] = {
    {"run_trajectory", (PyCFunction)(void (*)(void))run_trajectory, METH_VARARGS | METH_KEYWORDS,
     "run_trajectory(a, b, u1, u2, u3, u4, max_iter, tol, burn_in, p_max)\n--\n\n"
     "Iterate step-and-renormalise from a unit-max-norm state.\n\n"
     "Returns (kind, period, iterations, residual, states) with period 1, q or\n"
     "0 and states a list of 4-tuples: the final state (kind FIXED/APERIODIC)\n"
     "or the final full period (kind CYCLE, oldest first)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_trajectory",
    .m_doc = "Compiled twin of the pure-Python trajectory loop.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__trajectory(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0 || PyModule_AddIntConstant(mod, "FIXED", FIXED) < 0
        || PyModule_AddIntConstant(mod, "CYCLE", CYCLE) < 0 || PyModule_AddIntConstant(mod, "APERIODIC", APERIODIC) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
