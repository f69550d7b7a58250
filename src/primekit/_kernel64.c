/* Compiled 64-bit kernel: the hot paths of every test.
 *
 * Same functions as primekit._pykernel: the paper's two tests (ge, mrge),
 * its rejected first design (first_attempt), the seven-base variant (mr7),
 * and Baillie-PSW (bpsw), the exact reference the others are checked
 * against, which shares no strong-round code with them. The reference
 * semantics are the rich tests in primekit.detprime64 and primekit.sprp,
 * and the verdicts are tested against them. Products and square
 * comparisons go through 128-bit intermediates so the full uint64 range is
 * safe. Stage-carrying logic stays in the Python layer; these return bools.
 * Entry points take positional arguments only.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <math.h>
#include <stdint.h>

typedef unsigned __int128 u128;

/* candidates per nonresidue walk; equal to primekit.residues.DEFAULT_SEARCH_CAP */
#define DEFAULT_SEARCH_CAP 1000

/* verdicts of the tests that walk the nonresidue search; PASSED means no
   stage has decided n yet */
enum { CAP_EXCEEDED = -1, COMPOSITE = 0, PRIME = 1, PASSED = 2 };

static inline uint64_t mulmod64(uint64_t a, uint64_t b, uint64_t m)
{
    return (uint64_t)((u128)a * b % m);
}

static inline uint64_t powmod64(uint64_t a, uint64_t e, uint64_t m)
{
    uint64_t res = 1 % m;
    a %= m;
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
    uint64_t s;
    if (n == 0)
        return 0;
    s = (uint64_t)sqrt((double)n);
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

/* Strong rounds of odd n > 2 to each of the bases; 1 when all pass. */
static int strong_rounds(uint64_t n, const uint64_t *bases, int count)
{
    uint64_t s = 0, t = n - 1, b, k, j;
    int i;
    while (!(t & 1)) {
        s++;
        t >>= 1;
    }
    for (i = 0; i < count; i++) {
        b = powmod64(bases[i], t, n);
        for (j = 0; j < s; j++) {
            k = mulmod64(b, b, n);
            if (k == 1 && b != 1 && b != n - 1)
                return 0;
            b = k;
        }
        if (b != 1)
            return 0;
    }
    return 1;
}

static int ge(uint64_t n)
{
    uint64_t e, want, m, h, q;
    int i, r;
    if (n < 2)
        return COMPOSITE;
    if (n % 2 == 0)
        return n == 2;
    if (n < 100)
        return is_small_prime(n);
    e = (n - 1) >> 1;
    want = (n % 8 == 1 || n % 8 == 7) ? 1 : n - 1;
    if (powmod64(2, e, n) != want)
        return COMPOSITE;
    m = isqrt64(n);
    h = isqrt64(n >> 1);
    const uint64_t bases[4] = {m, m + 1, h, h + 1};
    for (i = 0; i < 4; i++) {
        q = powmod64(bases[i], e, n);
        if (q != 1 && q != n - 1)
            return COMPOSITE;
    }
    /* smallest 8k+5 then 8k+1 prime p with (n/p) = -1 */
    if ((r = reciprocity(n, 5, 8)) != PASSED)
        return r;
    if ((r = reciprocity(n, 17, 8)) != PASSED)
        return r;
    return PRIME;
}

static int mrge(uint64_t n)
{
    uint64_t m, h;
    int r;
    if (n < 2)
        return COMPOSITE;
    if (n % 2 == 0)
        return n == 2;
    if (n < 9)
        return PRIME; /* 3, 5, 7 */
    m = isqrt64(n);
    if (m * m == n)
        return COMPOSITE;
    h = isqrt64(n >> 1);
    const uint64_t bases[5] = {2, m - 1, m + 1, h - 1, h + 1};
    if (!strong_rounds(n, bases, 5))
        return COMPOSITE;
    r = reciprocity(n, 3, 4);
    return r == PASSED ? PRIME : r;
}

static int first_attempt(uint64_t n)
{
    uint64_t m, h;
    int r;
    if (n < 2)
        return COMPOSITE;
    if (n % 2 == 0)
        return n == 2;
    if (n < 9)
        return PRIME;
    m = isqrt64(n);
    h = isqrt64(n >> 1);
    const uint64_t bases[5] = {2, m, m + 1, h, h + 1};
    if (!strong_rounds(n, bases, 5))
        return COMPOSITE;
    r = reciprocity(n, 5, 4);
    return r == PASSED ? PRIME : r;
}

static int mr7(uint64_t n)
{
    uint64_t m, h;
    if (n == 17)
        return 1;
    if (n < 9)
        return n == 2 || n == 3 || n == 5 || n == 7;
    if (n % 2 == 0)
        return 0;
    m = isqrt64(n);
    h = isqrt64(n >> 1);
    const uint64_t bases[7] = {2, 5, 17, m, m + 1, h, h + 1};
    return strong_rounds(n, bases, 7);
}

/* --- Baillie-PSW: its own base-2 round and Lucas ladder, apart from
   strong_rounds, so that it can referee the tests above ------------------- */

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

/* a / 2 mod odd m, for a < m */
static inline uint64_t halfmod64(uint64_t a, uint64_t m)
{
    return (uint64_t)(((a & 1) ? (u128)a + m : (u128)a) >> 1);
}

static int base2_strong(uint64_t n)
{
    uint64_t t = n - 1, b;
    int s = 0;
    while (!(t & 1)) {
        s++;
        t >>= 1;
    }
    b = powmod64(2, t, n);
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
   D = -a when neg, and (D/n) = -1. With n + 1 = 2^s * t, t odd, n passes
   when U_t = 0 or V_(t*2^r) = 0 (mod n) for some 0 <= r < s. The ladder
   walks the bits of t with U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k,
   U_(2k+1) = (U_2k + V_2k)/2 and V_(2k+1) = (D U_2k + V_2k)/2. */
static int strong_lucas(uint64_t n, uint64_t a, int neg)
{
    /* n + 1 overflows only at n = 2^64 - 1, a multiple of 3 that trial
       division has already refuted */
    uint64_t t = n + 1, dm, qm, u = 1, v = 1, qk, du;
    int s = 0, bit = 63;
    while (!(t & 1)) {
        s++;
        t >>= 1;
    }
    dm = neg ? n - a : a;
    /* Q = (1 - a)/4 <= 0 when D = a > 0, and (1 + a)/4 > 0 when D = -a */
    qm = neg ? (a + 1) >> 2 : n - ((a - 1) >> 2);
    qk = qm;
    while (!(t >> bit & 1))
        bit--;
    while (bit-- > 0) {
        u = mulmod64(u, v, n);
        v = submod64(mulmod64(v, v, n), addmod64(qk, qk, n), n);
        qk = mulmod64(qk, qk, n);
        if (t >> bit & 1) {
            du = mulmod64(dm, u, n);
            u = halfmod64(addmod64(u, v, n), n);
            v = halfmod64(addmod64(du, v, n), n);
            qk = mulmod64(qk, qm, n);
        }
    }
    if (u == 0 || v == 0)
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
    /* Selfridge: the first D of 5, -7, 9, -11, ... with (D/n) = -1; since
       (-1/n) = -1 exactly when n = 4k+3, (-a/n) = -(a/n) there */
    for (a = 5, neg = 0;; a += 2, neg = !neg) {
        j = jacobi(a, n);
        if (neg && (n & 3) == 3)
            j = -j;
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
   truncating, and out-of-range values raise OverflowError. */
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
    if (v == UINT64_MAX && PyErr_Occurred())
        return -1;
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

/* Raise the pure path's primekit.detprime64.SearchCapExceeded, so both
   backends raise the same error. The class is looked up when raised, not
   at module init: primekit.kernel loads this module while the package is
   still importing. */
static PyObject *search_cap_exceeded(uint64_t n)
{
    PyObject *module, *cls;
    if (!(module = PyImport_ImportModule("primekit.detprime64")))
        return NULL;
    cls = PyObject_GetAttrString(module, "SearchCapExceeded");
    Py_DECREF(module);
    if (!cls)
        return NULL;
    PyErr_Format(cls, "nonresidue search exceeded its cap of %d candidates for n=%llu",
                 DEFAULT_SEARCH_CAP, (unsigned long long)n);
    Py_DECREF(cls);
    return NULL;
}

/* The verdict of a test that walks the nonresidue search. */
static PyObject *capped(int (*test)(uint64_t), PyObject *arg)
{
    uint64_t n;
    int r;
    if (as_u64(arg, &n))
        return NULL;
    r = test(n);
    return r == CAP_EXCEEDED ? search_cap_exceeded(n) : PyBool_FromLong(r);
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
    return capped(ge, arg);
}

static PyObject *py_mrge_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return capped(mrge, arg);
}

static PyObject *py_first_attempt_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    return capped(first_attempt, arg);
}

static PyObject *py_mr7_is_prime(PyObject *Py_UNUSED(module), PyObject *arg)
{
    uint64_t n;
    return as_u64(arg, &n) ? NULL : PyBool_FromLong(mr7(n));
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
