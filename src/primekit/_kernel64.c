/* Compiled 64-bit kernel: the hot paths of every test.
 *
 * Same functions as primekit._pykernel. The paper's two tests (ge, mrge),
 * its rejected first design (first_attempt) and the seven-base variant (mr7)
 * are rows of one table, run by one driver, run(), which runs the round of
 * each base, passes(), where the base is made. Baillie-PSW (bpsw), the
 * exact reference the others are checked against, shares no strong-round
 * code with them; its strong Lucas ladder is that of
 * primekit.sprp._strong_lucas. The reference semantics are the rich tests in
 * primekit.detprime64 and primekit.sprp: the verdicts are tested against
 * them, and each row against its rich test's trace. Products and square
 * comparisons go through 128-bit intermediates so the full uint64 range is
 * safe. Stage-carrying logic stays in the Python layer; these return bools.
 * Entry points take positional arguments only, and raise the pure kernel's
 * errors with its text.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <math.h>
#include <stdint.h>

typedef unsigned __int128 u128;

/* candidates per nonresidue walk; equal to primekit.residues.DEFAULT_SEARCH_CAP */
#define DEFAULT_SEARCH_CAP 1000

/* verdicts of run() and reciprocity(); PASSED means no stage has decided n
   yet, and run() returns CAP_EXCEEDED - i when the walk of form i ran out */
enum { CAP_EXCEEDED = -1, COMPOSITE = 0, PRIME = 1, PASSED = 2 };

static inline uint64_t mulmod64(uint64_t a, uint64_t b, uint64_t m)
{
    return (uint64_t)((u128)a * b % m);
}

static inline uint64_t powmod64(uint64_t a, uint64_t e, uint64_t m)
{
    uint64_t res = m > 1; /* 1 mod m; the first mulmod64 reduces a */
    while (e) {
        if (e & 1)
            res = mulmod64(res, a, m);
        a = mulmod64(a, a, m);
        e >>= 1;
    }
    return res;
}

static inline uint64_t isqrt64(uint64_t n)
{
    /* float seed, then exact correction; the seed can be off by a few ulps
       near 2^64 */
    uint64_t s = (uint64_t)sqrt((double)n);
    if (s > 4294967295ULL)
        s = 4294967295ULL;
    while ((u128)s * s > n)
        s--;
    while ((u128)(s + 1) * (s + 1) <= n)
        s++;
    return s;
}

static inline int is_small_prime(uint64_t p)
{
    uint64_t d, lim;
    if (p < 2)
        return 0;
    if (p % 2 == 0)
        return p == 2;
    lim = isqrt64(p);
    for (d = 3; d <= lim; d += 2)
        if (p % d == 0)
            return 0;
    return 1;
}

/* Smallest prime p = first + k*step with (n/p) = -1, checked by Euler's
   criterion, then the reciprocity check p^((n-1)/2) == (p/n) (mod n), where
   (p/n) = +1 only when p and n are both 4k+3. A candidate dividing n ends
   the search: PRIME when it is n itself, COMPOSITE otherwise. CAP_EXCEEDED
   after DEFAULT_SEARCH_CAP candidates without a decision. */
static int reciprocity(uint64_t n, uint64_t first, uint64_t step)
{
    uint64_t c = first, v;
    int seen;
    for (seen = 0; seen < DEFAULT_SEARCH_CAP; seen++, c += step) {
        if (!is_small_prime(c))
            continue;
        v = powmod64(n % c, (c - 1) >> 1, c);
        if (v == c - 1)
            return powmod64(c, (n - 1) >> 1, n) == ((c & n & 3) == 3 ? 1 : n - 1)
                       ? PASSED : COMPOSITE;
        if (v == 0)
            return c == n ? PRIME : COMPOSITE;
    }
    return CAP_EXCEEDED;
}

/* One row per test that runs sqrt-derived bases, read in this order: odd n
   below small_below is decided by is_small_prime; with squares, a perfect
   square is composite; base 2, then the literals up to the first 0 (one equal
   to n is skipped), then isqrt(n >> k) + j for each {k, j}, each give an Euler
   check (base 2 must give (2/n), the others +-1) with euler, else a strong
   round, run as soon as its base is made; then the reciprocity forms
   {first candidate, step} up to the first 0. tests/test_kernels.py checks
   each row against its rich test's trace. */
struct test {
    uint64_t small_below;
    int squares, euler;
    uint64_t literals[2];
    struct { int k, j; } roots[4];
    struct { uint64_t first, step; } forms[2];
};

static const struct test
    GE    = {100, 0, 1, {0},     {{0, 0}, {0, 1}, {1, 0}, {1, 1}},   {{5, 8}, {17, 8}}},
    MRGE  = {9,   1, 0, {0},     {{0, -1}, {0, 1}, {1, -1}, {1, 1}}, {{3, 4}}},
    FIRST = {9,   0, 0, {0},     {{0, 0}, {0, 1}, {1, 0}, {1, 1}},   {{5, 4}}},
    MR7   = {9,   0, 0, {5, 17}, {{0, 0}, {0, 1}, {1, 0}, {1, 1}},   {{0}}};

/* A round of odd n > 2 to base a: an Euler check a^((n-1)/2) = +-1, or a
   strong round over n - 1 = 2^s * d, d odd. 1 when n passes. */
static int passes(int euler, uint64_t n, uint64_t a)
{
    int s = __builtin_ctzll(n - 1), j;
    uint64_t b = powmod64(a, (n - 1) >> (euler ? 1 : s), n), k;
    if (euler)
        return b == 1 || b == n - 1;
    for (j = 0; j < s; j++) {
        k = mulmod64(b, b, n);
        if (k == 1 && b != 1 && b != n - 1)
            return 0;
        b = k;
    }
    return b == 1;
}

static int run(const struct test *t, uint64_t n)
{
    uint64_t root = 0;
    int k = -1, i, r;
    if (n < 2)
        return COMPOSITE;
    if (n % 2 == 0)
        return n == 2;
    if (n < t->small_below)
        return is_small_prime(n);
    if (t->squares) {
        root = isqrt64(n);
        k = 0;
        if (root * root == n)
            return COMPOSITE;
    }
    /* (2/n) = +1 exactly when n = 8k+1 or 8k+7 */
    if (t->euler ? powmod64(2, (n - 1) >> 1, n) != (n % 8 == 1 || n % 8 == 7 ? 1 : n - 1)
                 : !passes(0, n, 2))
        return COMPOSITE;
    for (i = 0; i < 2 && t->literals[i]; i++)
        if (t->literals[i] != n && !passes(t->euler, n, t->literals[i]))
            return COMPOSITE;
    for (i = 0; i < 4; i++) {
        if (t->roots[i].k != k)
            root = isqrt64(n >> (k = t->roots[i].k));
        if (!passes(t->euler, n, root + t->roots[i].j))
            return COMPOSITE;
    }
    for (i = 0; i < 2 && t->forms[i].first; i++)
        if ((r = reciprocity(n, t->forms[i].first, t->forms[i].step)) != PASSED)
            return r == CAP_EXCEEDED ? CAP_EXCEEDED - i : r;
    return PRIME;
}

/* --- Baillie-PSW: its own base-2 round and Lucas ladder, apart from
   passes(), so that it can referee the tests above ------------------------ */

/* every prime below 41, so that n < 41^2 with none of them as a factor is
   prime */
static const uint64_t TRIAL_PRIMES[12] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};

static inline uint64_t addmod64(uint64_t a, uint64_t b, uint64_t m)
{
    u128 s = (u128)a + b;
    return (uint64_t)(s >= m ? s - m : s);
}

static inline uint64_t submod64(uint64_t a, uint64_t b, uint64_t m)
{
    return a >= b ? a - b : a + (m - b);
}

static int base2_strong(uint64_t n)
{
    int s = __builtin_ctzll(n - 1);
    uint64_t b = powmod64(2, (n - 1) >> s, n);
    if (b == 1 || b == n - 1)
        return 1;
    while (--s > 0) {
        b = mulmod64(b, b, n);
        if (b == n - 1)
            return 1;
        if (b == 1)
            return 0;
    }
    return 0;
}

/* Jacobi symbol (a/n) for odd n >= 3, by binary reciprocity */
static int jacobi(uint64_t a, uint64_t n)
{
    uint64_t r;
    int j = 1;
    a %= n;
    while (a) {
        while (!(a & 1)) {
            a >>= 1;
            if ((n & 7) == 3 || (n & 7) == 5)
                j = -j;
        }
        r = a;
        a = n;
        n = r;
        if ((a & 3) == 3 && (n & 3) == 3)
            j = -j;
        a %= n;
    }
    return n == 1 ? j : 0;
}

/* Strong Lucas test of odd n with P = 1, Q = (1 - D)/4, where D = a, or
   D = -a when neg, and (D/n) = -1: the ladder of primekit.sprp._strong_lucas.
   With n + 1 = 2^s * t, t odd, n passes when U_t = 0 or V_(t*2^r) = 0
   (mod n) for some 0 <= r < s. The ladder carries (V_k, V_(k+1), Q^k) up the
   bits of t: V_2k = V_k^2 - 2Q^k and V_(2k+1) = V_k V_(k+1) - Q^k. U_t = 0 is
   tested as D U_t = 2 V_(t+1) - V_t = 0, since D is a unit mod n. */
static int strong_lucas(uint64_t n, uint64_t a, int neg)
{
    /* n + 1 overflows only at n = 2^64 - 1, a multiple of 3 that trial
       division has already refuted, and __builtin_ctzll(0) is undefined */
    int s = __builtin_ctzll(n + 1), bit;
    uint64_t t = (n + 1) >> s, qm, qk, q1, v = 1, w;
    /* Q = (1 - a)/4 <= 0 when D = a > 0, and (1 + a)/4 > 0 when D = -a */
    qm = neg ? (a + 1) >> 2 : n - ((a - 1) >> 2);
    qk = qm;
    w = submod64(1, addmod64(qm, qm, n), n); /* V_2 = 1 - 2Q */
    for (bit = 62 - __builtin_clzll(t); bit >= 0; bit--) {
        if (t >> bit & 1) {
            q1 = mulmod64(qk, qm, n); /* Q^(k+1) */
            v = submod64(mulmod64(v, w, n), qk, n);
            w = submod64(mulmod64(w, w, n), addmod64(q1, q1, n), n);
            qk = mulmod64(qk, q1, n);
        } else {
            w = submod64(mulmod64(v, w, n), qk, n);
            v = submod64(mulmod64(v, v, n), addmod64(qk, qk, n), n);
            qk = mulmod64(qk, qk, n);
        }
    }
    if (v == 0 || submod64(addmod64(w, w, n), v, n) == 0)
        return 1;
    while (--s > 0) {
        v = submod64(mulmod64(v, v, n), addmod64(qk, qk, n), n);
        if (v == 0)
            return 1;
        qk = mulmod64(qk, qk, n);
    }
    return 0;
}

static int bpsw(uint64_t n)
{
    uint64_t m, a;
    int i, j, neg;
    if (n < 2)
        return 0;
    for (i = 0; i < 12; i++)
        if (n % TRIAL_PRIMES[i] == 0)
            return n == TRIAL_PRIMES[i];
    if (n < 41 * 41)
        return 1;
    if (!base2_strong(n))
        return 0;
    m = isqrt64(n);
    if (m * m == n)
        return 0; /* the D search below would never end */
    /* Selfridge: the first D of 5, -7, 9, -11, ... with (D/n) = -1; a stays
       far below n >= 41^2, so n - a is -a mod n */
    for (a = 5, neg = 0;; a += 2, neg = !neg) {
        j = jacobi(neg ? n - a : a, n);
        if (j == -1)
            break;
        if (j == 0)
            return 0; /* 1 < gcd(a, n) < n */
    }
    return strong_lucas(n, a, neg);
}

/* --- argument conversion -------------------------------------------------- */

/* PyLong_AsUnsignedLongLong takes a slow path for multi-digit ints on
   CPython 3.11; PyLong_AsUnsignedLong does not, and is as wide where
   unsigned long has 64 bits. */
#if ULONG_MAX == UINT64_MAX
#define LONG_AS_U64 PyLong_AsUnsignedLong
#else
#define LONG_AS_U64 PyLong_AsUnsignedLongLong
#endif

/* Any object with __index__, in [0, 2^64); floats raise TypeError instead of
   truncating, and out-of-range values raise OverflowError with the pure
   kernel's text. */
static int as_u64(PyObject *o, uint64_t *out)
{
    uint64_t v;
    if (PyLong_CheckExact(o))
        v = LONG_AS_U64(o);
    else {
        if (!(o = PyNumber_Index(o)))
            return -1;
        v = LONG_AS_U64(o);
        Py_DECREF(o);
    }
    if (v == UINT64_MAX && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError))
            PyErr_SetString(PyExc_OverflowError, "n must fit in an unsigned 64-bit integer");
        return -1;
    }
    *out = v;
    return 0;
}

/* --- entry points --------------------------------------------------------- */

static PyObject *modular(const char *name, uint64_t (*op)(uint64_t, uint64_t, uint64_t),
                         PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t a, b, m;
    if (nargs != 3)
        return PyErr_Format(PyExc_TypeError, "%s expected 3 arguments, got %zd",
                            name, nargs);
    if (as_u64(args[0], &a) || as_u64(args[1], &b) || as_u64(args[2], &m))
        return NULL;
    if (m == 0) {
        PyErr_SetString(PyExc_ValueError, "modulus must be >= 1");
        return NULL;
    }
    return PyLong_FromUnsignedLongLong(op(a, b, m));
}

/* Raise the pure path's primekit.detprime64.SearchCapExceeded with its text,
   naming the form step*k + first % step whose walk ran out, so both backends
   raise the same error. The class is looked up when raised, not at module
   init: primekit.kernel loads this module while the package is still
   importing. */
static PyObject *search_cap_exceeded(uint64_t n, uint64_t first, uint64_t step)
{
    PyObject *module, *cls;
    if (!(module = PyImport_ImportModule("primekit.detprime64")))
        return NULL;
    cls = PyObject_GetAttrString(module, "SearchCapExceeded");
    Py_DECREF(module);
    if (!cls)
        return NULL;
    PyErr_Format(cls, "no %lluk+%llu prime with (n/p) = -1 within %d candidates for n=%llu",
                 (unsigned long long)step, (unsigned long long)(first % step),
                 DEFAULT_SEARCH_CAP, (unsigned long long)n);
    Py_DECREF(cls);
    return NULL;
}

/* The verdict of a row; only a row with forms can exceed the search cap. */
static PyObject *capped(const struct test *test, PyObject *arg)
{
    uint64_t n;
    int r;
    if (as_u64(arg, &n))
        return NULL;
    if ((r = run(test, n)) > CAP_EXCEEDED)
        return PyBool_FromLong(r);
    return search_cap_exceeded(n, test->forms[CAP_EXCEEDED - r].first,
                               test->forms[CAP_EXCEEDED - r].step);
}

static PyObject *py_mulmod(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    return modular("mulmod", mulmod64, args, nargs);
}

static PyObject *py_powmod(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    return modular("powmod", powmod64, args, nargs);
}

static PyObject *py_isqrt64(PyObject *Py_UNUSED(module), PyObject *arg)
{
    uint64_t n;
    return as_u64(arg, &n) ? NULL : PyLong_FromUnsignedLongLong(isqrt64(n));
}

static PyObject *py_ge_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return capped(&GE, arg);
}

static PyObject *py_mrge_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return capped(&MRGE, arg);
}

static PyObject *py_first_attempt_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return capped(&FIRST, arg);
}

static PyObject *py_mr7_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return capped(&MR7, arg);
}

static PyObject *py_bpsw_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    uint64_t n;
    return as_u64(arg, &n) ? NULL : PyBool_FromLong(bpsw(n));
}

#define FASTCALL(fn) (PyCFunction)(void (*)(void))(fn), METH_FASTCALL

static PyMethodDef methods[] = {
    {"mulmod", FASTCALL(py_mulmod),
     "mulmod($module, a, b, m, /)\n--\n\n"
     "(a * b) % m with a 128-bit product; exact over the full u64 range."},
    {"powmod", FASTCALL(py_powmod),
     "powmod($module, a, e, m, /)\n--\n\n"
     "a**e % m by square-and-multiply over 128-bit products."},
    {"isqrt64", py_isqrt64, METH_O,
     "isqrt64($module, n, /)\n--\n\nExact floor square root of a u64."},
    {"ge_is_prime", py_ge_is_prime, METH_O,
     "ge_is_prime($module, n, /)\n--\n\nThe Gauss-Euler test."},
    {"mrge_is_prime", py_mrge_is_prime, METH_O,
     "mrge_is_prime($module, n, /)\n--\n\nThe MR-GE test."},
    {"first_attempt_is_prime", py_first_attempt_is_prime, METH_O,
     "first_attempt_is_prime($module, n, /)\n--\n\n"
     "The rejected first design of MR-GE."},
    {"mr7_is_prime", py_mr7_is_prime, METH_O,
     "mr7_is_prime($module, n, /)\n--\n\nThe seven-base strong-round variant."},
    {"bpsw_is_prime", py_bpsw_is_prime, METH_O,
     "bpsw_is_prime($module, n, /)\n--\n\nThe Baillie-PSW test."},
    {NULL, NULL, 0, NULL},
};

static int exec_module(PyObject *module)
{
    return PyModule_AddStringConstant(module, "BACKEND_NAME", "c");
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef kernel_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "primekit._kernel64",
    .m_doc = "Compiled 64-bit kernel; verdicts of the rich tests in "
             "primekit.detprime64 and primekit.sprp.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__kernel64(void)
{
    return PyModuleDef_Init(&kernel_module);
}
