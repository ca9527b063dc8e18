/* Kick-then-drift Langevin steps for one block of trajectories, the
   evaluation of the cubic splines they step through, the two streaming
   counts made of every recorded state (the position histogram and the tick
   crossings), the transport pole sums their coefficients come from, and,
   at the end, the CSV text of the artifacts.

   This is the compiled form of the NumPy step loop and spline evaluation in
   langevin.py, which alone loads it, and of the NumPy feeds of
   pipeline.HistogramAccumulator and readout.TickAccumulator.  It must agree
   with them bit for bit, so every floating-point operation below is the one
   NumPy performs, in the same order:

   - a spline is evaluated by the rule of scipy's PPoly, which the tests hold
     it to: the interval rule of find_interval (g[i] <= x < g[i+1], the last
     interval at and above g[nx-1], the first below g[0], NaN for NaN) and
     the cubic of _evaluate_numpy, left to right,
     0.0 + c[3] + c[2]*s + c[1]*(s*s) + c[0]*(s*s*s), whose leading 0.0 turns
     a -0.0 into 0.0 as PPoly's sum does;
   - the velocity update groups its terms as the NumPy expression does, and
     a crossing time as the tick feed's does;
   - it is compiled with -O2 -ffp-contract=off and without -ffast-math, so
     no product is fused into an add and no sum is reassociated, except by
     an explicit fma() where NumPy fuses: in the pole sums, whose section
     sets out the rules of transport._pole_rows.

   One call advances every row of the block over one noise chunk.  The
   noise is either the caller's or drawn here first, row by row, from each
   row's own NumPy Philox bit generator by NumPy's ziggurat: its fast path
   is inlined below with layer tables recovered from NumPy itself, and the
   rare rejected words are replayed into NumPy's own random_standard_normal,
   so the draws are Generator.standard_normal's bit for bit. */
#include <complex.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* NumPy's bit generator interface, numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* NumPy's random_standard_normal and its ziggurat layer tables: a word r
   is accepted on the fast path when (r >> 9) & (2^52 - 1) < ki[r & 0xff]. */
typedef struct {
    double (*normal)(bitgen_t *);
    uint64_t ki[256];
    double wi[256];
} ziggurat_t;

/* A bit generator that hands out `first` and then defers to `base`,
   counting the words and doubles it hands out. */
typedef struct {
    uint64_t first;
    long calls;
    bitgen_t *base;
} replay_t;

static uint64_t replay_uint64(void *st)
{
    replay_t *r = st;
    if (r->calls++ == 0)
        return r->first;
    return r->base->next_uint64(r->base->state);
}

static uint32_t replay_uint32(void *st)
{
    replay_t *r = st;
    r->calls++;
    return r->base->next_uint32(r->base->state);
}

static double replay_double(void *st)
{
    replay_t *r = st;
    r->calls++;
    return r->base->next_double(r->base->state);
}

/* NumPy's normal for the word `first` followed by base's stream; the number
   of draws it took goes to *calls. */
static double replayed_normal(const ziggurat_t *z, uint64_t first, bitgen_t *base,
                              long *calls)
{
    replay_t rep = {first, 0, base};
    bitgen_t g = {&rep, replay_uint64, replay_uint32, replay_double, replay_uint64};
    const double x = z->normal(&g);
    *calls = rep.calls;
    return x;
}

/* The script after a probe word: words that NumPy accepts on the fast path
   of layer 2 (rabs = 0) and doubles of 1/2, which end every rejection
   loop. */
static uint64_t script_uint64(void *st) { (void)st; return 2; }
static uint32_t script_uint32(void *st) { (void)st; return 2; }
static double script_double(void *st) { (void)st; return 0.5; }
static bitgen_t script = {0, script_uint64, script_uint32, script_double, script_uint64};

/* NumPy's normal for the scripted word `word`, and in *calls the number of
   draws it took: 1 exactly when the word is accepted on the fast path. */
double nemclock_scripted(const ziggurat_t *z, uint64_t word, long *calls)
{
    return replayed_normal(z, word, &script, calls);
}

/* Recover z->ki and z->wi from z->normal: ki[i] is the least rabs that
   layer i rejects, found by bisection over [0, 2^52], and wi[i] is the
   normal of rabs = 1, which is 1 * wi[i]. */
void nemclock_ziggurat(ziggurat_t *z)
{
    for (uint64_t i = 0; i < 256; i++) {
        uint64_t lo = 0, hi = (uint64_t)1 << 52;  /* ki in [lo, hi] */
        long calls;
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            nemclock_scripted(z, i | (mid << 9), &calls);
            if (calls == 1)
                lo = mid + 1;
            else
                hi = mid;
        }
        z->ki[i] = lo;
        z->wi[i] = lo > 1 ? nemclock_scripted(z, i | (1 << 9), &calls) : 0.0;
    }
}

/* One Generator.standard_normal draw from g; replays[0] and replays[1]
   count the words rejected in layer 0 (the tail) and in the others (the
   wedges). */
static inline double normal(const ziggurat_t *z, bitgen_t *g, long *replays)
{
    const uint64_t r = g->next_uint64(g->state);
    const uint64_t i = r & 0xff, rabs = (r >> 9) & 0x000fffffffffffff;
    if (rabs < z->ki[i]) {
        /* x, negated when bit 8 is set: a flip of the sign bit, which is
           IEEE negation, instead of a branch on a coin toss */
        double x = rabs * z->wi[i];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r << 55) & ((uint64_t)1 << 63);
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    long calls;
    replays[i != 0]++;
    return replayed_normal(z, r, g, &calls);
}

/* n draws from g into out, as Generator.standard_normal(n) makes them. */
void nemclock_normals(const ziggurat_t *z, bitgen_t *g, long n, double *out,
                      long *replays)
{
    for (long k = 0; k < n; k++)
        out[k] = normal(z, g, replays);
}

/* The polynomial interval of x, which lies in [g[0], g[nx-1]] and is not
   NaN.  The guess from the mean node spacing is exact on a uniform grid up
   to rounding; the two walks make the result exact on any increasing grid. */
static long find_interval(const double *g, long nx, double x, double scale)
{
    long i = (long)((x - g[0]) * scale);
    if (i > nx - 2)
        i = nx - 2;
    while (i > 0 && x < g[i])
        i--;
    while (i < nx - 2 && x >= g[i + 1])
        i++;
    return i;
}

/* The cubic at offset s, s2 = s*s and s3 = s2*s, of one column whose four
   coefficients sit stride apart from c, highest power first. */
static inline double cubic(const double *c, long stride, double s, double s2, double s3)
{
    return 0.0 + c[3 * stride] + c[2 * stride] * s + c[stride] * s2 + c[0] * s3;
}

/* Evaluate a spline with coefficients c of shape (4, nx-1, k) at the
   rows x cols points x[r*row_stride + q*col_stride] (strides in elements)
   into out, row-major, k values per point.  A point outside the grid takes
   the polynomial of the nearest end interval. */
void nemclock_eval(long rows, long cols, const double *x,
                   long row_stride, long col_stride,
                   const double *grid, long nx, const double *c, long k,
                   double *out)
{
    const double lo = grid[0], hi = grid[nx - 1];
    const double scale = (double)(nx - 1) / (hi - lo);
    const long power_stride = (nx - 1) * k;
    for (long r = 0; r < rows; r++) {
        for (long q = 0; q < cols; q++, out += k) {
            const double xv = x[r * row_stride + q * col_stride];
            if (xv != xv) {
                for (long j = 0; j < k; j++)
                    out[j] = NAN;
                continue;
            }
            const long i = find_interval(grid, nx, xv < lo ? lo : (xv > hi ? hi : xv),
                                         scale);
            const double s = xv - grid[i], s2 = s * s, s3 = s2 * s;
            const double *ci = c + i * k;
            for (long j = 0; j < k; j++)
                out[j] = cubic(ci + j, power_stride, s, s2, s3);
        }
    }
}

/* Add to counts[b] the number of the rows x cols samples
   x[r*row_stride + q*col_stride] that fall in bin b of the ne increasing
   edges e, by np.histogram's rule: bin b is [e[b], e[b+1]), the last bin
   also takes e[ne-1], and NaN and samples outside [e[0], e[ne-1]] are not
   counted.  The bin is guessed from the mean edge spacing and walked to,
   as in find_interval; the range test comes before any cast to long, and
   with the upper edge counted apart neither walk can leave the edges. */
void nemclock_bin_counts(long rows, long cols, const double *x,
                         long row_stride, long col_stride,
                         const double *e, long ne, double *counts)
{
    const double lo = e[0], hi = e[ne - 1];
    const double scale = (double)(ne - 1) / (hi - lo);
    for (long r = 0; r < rows; r++) {
        for (long q = 0; q < cols; q++) {
            const double xv = x[r * row_stride + q * col_stride];
            if (!(xv >= lo && xv < hi)) {
                if (xv == hi)
                    counts[ne - 2] += 1.0;
                continue;
            }
            /* >= 0, or NaN when hi - lo overflows */
            const double guess = (xv - lo) * scale;
            long b = guess < (double)(ne - 2) ? (long)guess : ne - 2;
            while (xv < e[b])
                b--;
            while (xv >= e[b + 1])
                b++;
            counts[b] += 1.0;
        }
    }
}

/* The first q from q on, below n, whose sample x[q*stride] lies on the
   other side of level than `above` says, or n; x >= level is above.  Four
   samples are tested at a time, so the long runs between crossings cost
   one branch per four. */
static long next_change(const double *x, long stride, long q, long n, double level,
                        int above)
{
    for (; q + 4 <= n; q += 4)
        if ((x[q * stride] >= level) + (x[(q + 1) * stride] >= level)
            + (x[(q + 2) * stride] >= level) + (x[(q + 3) * stride] >= level) != 4 * above)
            break;
    while (q < n && (x[q * stride] >= level) == above)
        q++;
    return q;
}

/* The crossings of level by the rows x n samples
   x[r*row_stride + k*col_stride] that the refractory window keeps, as
   TickAccumulator's NumPy feed finds and keeps them.

   state   3 x rows: each row's last sample before this feed (read only
           when it has one), the time of its first sample ever fed, and
           its last kept tick (read only when it has one)
   counts  2 x rows: each row's number of samples fed before, and in:
           nonzero when the row has kept a tick; out: the number of
           crossings kept by this call
   out     the kept times, row after row, at most rows x n of them

   A row with samples fed before starts its series with the last of them.
   A change of side between series samples j and j+1 is timed as
   origin + dt*(k + (level - x0)/(x1 - x0)), with k = max(seen - 1, 0) + j,
   and kept when the row has no kept tick or it lies at least refractory
   after the last one. */
void nemclock_crossings(long rows, long n, const double *x,
                        long row_stride, long col_stride,
                        const double *state, long *counts,
                        double level, double dt, double refractory, double *out)
{
    for (long r = 0; r < rows; r++) {
        const double *xr = x + r * row_stride;
        const long seen = counts[r];
        const double origin = state[rows + r];
        double *times = out;
        double tick = state[2 * rows + r];
        int has_last = counts[rows + r] != 0;
        long kept = 0;
        /* the change between sample q - 1 (the last one fed before, for
           q = 0) and sample q lies between the row's samples k and k + 1,
           k = seen - 1 + q, counted from its first feed */
        const long first = seen == 0 && n > 0;
        int above = (first ? xr[0] : state[r]) >= level;
        for (long q = next_change(xr, col_stride, first, n, level, above); q < n;
             q = next_change(xr, col_stride, q + 1, n, level, above)) {
            const double x0 = q > 0 ? xr[(q - 1) * col_stride] : state[r];
            const double x1 = xr[q * col_stride];
            const double t = origin + dt * ((double)(seen - 1 + q) + (level - x0) / (x1 - x0));
            if (!has_last || t - tick >= refractory) {
                times[kept++] = t;
                tick = t;
                has_last = 1;
            }
            above = !above;
        }
        counts[rows + r] = kept;
        out += kept;
    }
}

/* Advance rows 0..block-1 over n steps.  Steps run in the outer loop so
   the rows are independent chains the CPU can overlap; each row's
   arithmetic is the same in either order.

   x, v     state per row, updated in place
   noise    block x n standard normals, row-major
   gens     NULL, or each row's bit generator: row r of noise is then first
            filled with n draws from gens[r], through z
   buf_x/v  block x n: the state before each step, or NULL to record nothing
   grid     the nx spline breakpoints
   c        spline coefficients, shape (4, nx-1, 3), columns friction,
            diffusion, excess occupation
   w0sq     w0**2; fm = force / m

   Returns -1, or the lowest row that left the grid at the earliest failing
   step; that step goes to *fail_step and the row's x holds the position
   after it. */
long nemclock_steps(long block, long n,
                    double *x, double *v, double *noise,
                    bitgen_t *const *gens, const ziggurat_t *z,
                    double *buf_x, double *buf_v,
                    const double *grid, long nx, const double *c,
                    double dt, double w0sq, double fm, double m,
                    long *fail_step)
{
    const double lo = grid[0], hi = grid[nx - 1];
    const double scale = (double)(nx - 1) / (hi - lo);
    const long power_stride = (nx - 1) * 3;
    long bad = -1, replays[2] = {0, 0};

    if (gens)
        for (long r = 0; r < block; r++)
            nemclock_normals(z, gens[r], n, noise + r * n, replays);

    for (long k = 0; k < n; k++) {
        for (long r = 0; r < block; r++) {
            double xr = x[r], vr = v[r];
            if (buf_x) {
                buf_x[r * n + k] = xr;
                buf_v[r * n + k] = vr;
            }
            const double xe = xr < lo ? lo : (xr > hi ? hi : xr);
            double gam = NAN, dif = NAN, exc = NAN;
            if (xe == xe) {
                const long i = find_interval(grid, nx, xe, scale);
                const double s = xe - grid[i], s2 = s * s, s3 = s2 * s;
                const double *ci = c + 3 * i;
                gam = cubic(ci, power_stride, s, s2, s3);
                dif = cubic(ci + 1, power_stride, s, s2, s3);
                exc = cubic(ci + 2, power_stride, s, s2, s3);
            }
            vr = vr + ((-gam) * vr - w0sq * xr + fm * exc) * dt
                 + sqrt(dif * dt) * noise[r * n + k] / m;
            xr = xr + vr * dt;
            x[r] = xr;
            v[r] = vr;
            if (bad < 0 && !(xr >= lo && xr <= hi)) {
                *fail_step = k;
                bad = r;
            }
        }
        if (bad >= 0)
            break;
    }
    return bad;
}

/* ------------------------------------------------------------------------
   Transport pole sums: transport._pole_rows, one position at a time.

   The NumPy pass is the oracle, and every operation below is the one it
   performs, in its order, as NumPy performs it on an x86-64 CPU with FMA
   (transport checks the result against the NumPy pass before first use and
   keeps to NumPy on a mismatch):

   - a product of complex arrays, and **2, is fused: re = fma(ar, br,
     -(ai*bi)), im = fma(ar, bi, ai*br), with a the left operand;
   - **n for an integer n >= 3 is NumPy's nc_pow, with products that are not
     fused: a*(a*a) for n = 3, square and multiply above;
   - a quotient is Smith's algorithm as NumPy's complex divide loop has it;
   - |z| is NumPy's vector rule, larger * sqrt(fma(t, t, 1)) with t the
     smaller part over the larger;
   - log, sqrt and a non-integer power are glibc's clog, csqrt and cpow;
   - a real operand of a complex operation is x + 0i.

   Every scalar that depends only on the operating point is computed in
   Python by the NumPy pass's own expression and passed in pole_consts_t.

   With GCC on x86-64 this section is compiled for FMA, whose fused
   products the NumPy pass needs anyway, and called only on a CPU that has
   it; fma() is a library call otherwise, which triples the cost.  The SLP
   vectorizer is off here: for FMA it turns a pair of a*b + c and d*e - f
   into one fused add/subtract instruction despite -ffp-contract=off. */

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define POLE_SUMS_FOR_FMA 1
#pragma GCC push_options
#pragma GCC target("fma")
#pragma GCC optimize("fp-contract=off", "no-tree-slp-vectorize")
#endif

typedef struct {
    double re, im;
} cx;

/* transport._pole_constants, field by field */
typedef struct {
    double force, dot_energy;
    cx pl, pr;                 /* c_l - i W_l */
    double gl, gr;             /* Gamma_l W_l / 2 */
    cx pl_plus_pr, pl_times_pr, d_leads;  /* pl + pr, pl * pr, gl*pr + gr*pl */
    cx unity[3];               /* exp(2 pi i j / 3) */
    double kl, kr, kt;         /* the numerators of the residues of A_L, A_R, tau */
    double lc, rc, lw2, rw2;   /* band centres and squared bandwidths */
    cx s;                      /* i beta / 2 pi */
    double mu[2], mu_mid;      /* chemical potentials and their mean */
    cx s_pow[3];               /* s^n / n! */
    double near;               /* nonzero: psi's divided difference is a series */
    cx h, h2_24, h4_1920;      /* h = z_L - z_R, h*h/24, h**4/1920 */
    double two_qcoth;
    cx half_i_pi, minus_i_qcoth_pi;
    double two_pi, pi, thermal, partition, c4, beta, separation;
    double series[7][10];      /* transport._SERIES */
} pole_consts_t;

static inline cx cx_of(double x) { return (cx){x, 0.0}; }
static inline cx cx_add(cx a, cx b) { return (cx){a.re + b.re, a.im + b.im}; }
static inline cx cx_sub(cx a, cx b) { return (cx){a.re - b.re, a.im - b.im}; }
static inline cx cx_neg(cx a) { return (cx){-a.re, -a.im}; }
static inline cx cx_conj(cx a) { return (cx){a.re, -a.im}; }

static inline cx cx_mul(cx a, cx b)
{
    return (cx){fma(a.re, b.re, -(a.im * b.im)), fma(a.re, b.im, a.im * b.re)};
}

/* NumPy's nc_prod, not fused */
static inline cx cx_mul_plain(cx a, cx b)
{
    return (cx){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/* A divisor b, ready for Smith's algorithm: which part is larger in size
   (-1 when b is 0), and the ratio and scale, which depend on b alone. */
typedef struct {
    int real_larger;
    double rat, scl;
} divisor;

static inline divisor divisor_of(cx b)
{
    const double br = fabs(b.re), bi = fabs(b.im);
    if (br >= bi) {
        if (br == 0 && bi == 0)
            return (divisor){-1, 0.0, br};
        const double rat = b.im / b.re;
        return (divisor){1, rat, 1.0 / (b.re + b.im * rat)};
    }
    const double rat = b.re / b.im;
    return (divisor){0, rat, 1.0 / (b.im + b.re * rat)};
}

static inline cx cx_div_by(cx a, divisor d)
{
    if (d.real_larger < 0)
        return (cx){a.re / d.scl, a.im / d.scl};
    if (d.real_larger)
        return (cx){(a.re + a.im * d.rat) * d.scl, (a.im - a.re * d.rat) * d.scl};
    return (cx){(a.re * d.rat + a.im) * d.scl, (a.im * d.rat - a.re) * d.scl};
}

static inline cx cx_div(cx a, cx b) { return cx_div_by(a, divisor_of(b)); }

static double cx_abs(cx z)
{
    double re = fabs(z.re), im = fabs(z.im);
    const int re_inf = re == INFINITY, im_inf = im == INFINITY;
    if (re_inf)
        im = INFINITY;
    if (im_inf)
        re = INFINITY;
    const int re_nan = re != re, im_nan = im != im;
    if (re_nan)
        im = NAN;
    if (im_nan)
        re = NAN;
    const double larger = re > im ? re : im, smaller = im < re ? im : re;
    const double t = larger == 0.0 || smaller == INFINITY ? 0.0 : smaller / larger;
    return sqrt(fma(t, t, 1.0)) * larger;
}

/* a**n for an integer n >= 3 */
static cx cx_pow_int(cx a, long n)
{
    if (a.re == 0.0 && a.im == 0.0)
        return cx_of(0.0);
    if (n == 3)
        return cx_mul_plain(a, cx_mul_plain(a, a));
    cx out = cx_of(1.0), p = a;
    for (long mask = 1;;) {
        if (n & mask)
            out = cx_mul_plain(out, p);
        mask <<= 1;
        if (n < mask)
            break;
        p = cx_mul_plain(p, p);
    }
    return out;
}

static inline cx cx_from(double complex z) { return (cx){creal(z), cimag(z)}; }
static inline double complex cx_to(cx a) { return CMPLX(a.re, a.im); }

/* a**(1/3) */
static cx cx_cbrt(cx a)
{
    if (a.re == 0.0 && a.im == 0.0)
        return cx_of(0.0);
    return cx_from(cpow(cx_to(a), CMPLX(1.0 / 3.0, 0.0)));
}

/* psi^(n)(z) for n = 0 ... top into out: transport._polygammas */
static void polygammas(cx z, int top, const double (*series)[10], cx *out)
{
    static const double signed_factorial[7] = {1.0, -1.0, 2.0, -6.0, 24.0, -120.0, 720.0};
    for (int n = 0; n <= top; n++)
        out[n] = cx_of(0.0);
    for (int m = 0; m < 10; m++) {
        const cx inv = cx_div(cx_of(1.0), cx_add(z, cx_of(m)));
        cx power = inv;
        for (int n = 0; n <= top; n++) {
            out[n] = cx_sub(out[n], cx_mul(cx_of(signed_factorial[n]), power));
            power = cx_mul(power, inv);
        }
    }
    const cx inv = cx_div(cx_of(1.0), cx_add(z, cx_of(10.0)));
    const cx inv2 = cx_mul(inv, inv);
    for (int n = 0; n <= top; n++) {
        cx sum = cx_of(0.0);
        for (int t = 9; t >= 0; t--)
            sum = cx_add(cx_mul(sum, inv2), cx_of(series[n][t]));
        if (n == 0) {
            const cx log = cx_from(clog(cx_to(cx_add(z, cx_of(10.0)))));
            out[0] = cx_add(out[0], cx_sub(cx_sub(log, cx_mul(cx_of(0.5), inv)),
                                           cx_mul(sum, inv2)));
        } else {
            const cx lead = cx_add(cx_add(cx_of(fabs(signed_factorial[n - 1])),
                                          cx_mul(cx_of(0.5 * fabs(signed_factorial[n])), inv)),
                                   cx_mul(sum, inv2));
            const cx power = n == 1 ? inv : n == 2 ? cx_mul(inv, inv) : cx_pow_int(inv, n);
            out[n] = cx_add(out[n], cx_mul(cx_mul(cx_of(n % 2 ? 1.0 : -1.0), lead), power));
        }
    }
}

/* The three roots of N at the level shift F x: transport._poles */
static void poles(const pole_consts_t *k, double x, cx *e)
{
    const cx e0 = cx_of(k->dot_energy - k->force * x);
    const cx b = cx_neg(cx_add(cx_add(e0, k->pl), k->pr));
    const cx c = cx_sub(cx_sub(cx_add(cx_mul(e0, k->pl_plus_pr), k->pl_times_pr),
                               cx_of(k->gl)), cx_of(k->gr));
    const cx d = cx_sub(k->d_leads, cx_mul(cx_mul(e0, k->pl), k->pr));
    const cx p = cx_sub(c, cx_div(cx_mul(b, b), cx_of(3.0)));
    const cx q = cx_add(cx_sub(cx_div(cx_mul(cx_of(2.0), cx_pow_int(b, 3)), cx_of(27.0)),
                               cx_div(cx_mul(b, c), cx_of(3.0))), d);
    const cx root = cx_from(csqrt(cx_to(cx_add(cx_mul(cx_mul(cx_of(0.25), q), q),
                                               cx_div(cx_pow_int(p, 3), cx_of(27.0))))));
    const cx half_q = cx_mul(cx_of(0.5), q);
    const cx up = cx_sub(root, half_q);
    const cx u = cx_abs(up) >= cx_abs(cx_add(root, half_q)) ? up : cx_sub(cx_neg(root), half_q);
    const cx third = cx_cbrt(u);
    for (int j = 0; j < 3; j++) {
        const cx cube = cx_mul(k->unity[j], third);
        cx r = cx_sub(cx_sub(cube, cx_div(p, cx_mul(cx_of(3.0), cube))), cx_div(b, cx_of(3.0)));
        for (int step = 0; step < 2; step++) {
            const cx ql = cx_sub(r, k->pl), qr = cx_sub(r, k->pr), de = cx_sub(r, e0);
            const cx num = cx_sub(cx_sub(cx_mul(cx_mul(de, ql), qr), cx_mul(cx_of(k->gl), qr)),
                                  cx_mul(cx_of(k->gr), ql));
            const cx den = cx_sub(cx_sub(cx_add(cx_mul(ql, qr), cx_mul(de, cx_add(ql, qr))),
                                         cx_of(k->gl)), cx_of(k->gr));
            r = cx_sub(r, cx_div(num, den));
        }
        e[j] = r;
    }
}

/* sum_kn 2 Re[parts[n][k] s^n / n! values[n][k]] over n < orders: the
   NumPy pass's pole_sum */
static double pole_sum(const pole_consts_t *k, int orders, const cx (*parts)[3],
                       const cx (*values)[3])
{
    double total[3];
    for (int j = 0; j < 3; j++) {
        total[j] = 0.0;
        for (int n = 0; n < orders; n++) {
            const cx a = cx_mul(parts[n][j], k->s_pow[n]);
            total[j] = total[j] + fma(a.re, values[n][j].re, -(a.im * values[n][j].im));
        }
    }
    return 2.0 * (total[0] + total[1] + total[2]);
}

/* int R f_lead dE for the rational with Laurent coefficients parts, and
   psi^(n)(z_lead) in psi[n] */
static double filled(const pole_consts_t *k, int orders, const cx (*parts)[3],
                     const cx (*psi)[3])
{
    return pole_sum(k, orders, parts, psi)
           + k->pi * (parts[0][0].im + parts[0][1].im + parts[0][2].im);
}

/* int R f_lead' dE */
static double edge(const pole_consts_t *k, int orders, const cx (*parts)[3],
                   const cx (*psi)[3])
{
    cx values[2][3];
    for (int n = 0; n < orders; n++)
        for (int j = 0; j < 3; j++)
            values[n][j] = cx_mul(k->s, psi[n + 1][j]);
    return pole_sum(k, orders, parts, (const cx (*)[3])values);
}

/* The six rows at position x into row[0], row[stride], ...; returns 1 when
   two poles are closer than the separation or a pole is not below the
   real axis, 2 when a row is not finite, and 0 otherwise. */
static long pole_rows(const pole_consts_t *k, double x, double *row, long stride)
{
    cx r[3];
    poles(k, x, r);
    static const int one[3] = {0, 0, 1}, two[3] = {1, 2, 2};
    for (int i = 0; i < 3; i++) {
        const double a = -r[one[i]].im, b = -r[two[i]].im;
        const double deeper = a != a || b != b ? NAN : (a >= b ? a : b);
        if (!(cx_abs(cx_sub(r[one[i]], r[two[i]])) / deeper >= k->separation))
            return 1;
    }
    for (int j = 0; j < 3; j++)
        if (!(r[j].im < 0.0))
            return 1;

    /* [lead L, R, tau][pole] */
    cx alpha[3][3], c0[3][3], c1[3][3], mirror[3][3], ahead[3], behind[3];
    for (int j = 0; j < 3; j++) {
        for (int l = 0; l < 3; l++)
            mirror[j][l] = cx_sub(r[j], cx_conj(r[l]));
        ahead[j] = cx_sub(r[j], r[(j + 1) % 3]);
        behind[j] = cx_sub(r[j], r[(j + 2) % 3]);
    }
    for (int j = 0; j < 3; j++) {
        const cx to_r = cx_sub(r[j], cx_of(k->rc)), to_l = cx_sub(r[j], cx_of(k->lc));
        const divisor den = divisor_of(cx_mul(cx_mul(cx_mul(cx_mul(ahead[j], behind[j]),
                                                            mirror[j][0]), mirror[j][1]),
                                              mirror[j][2]));
        alpha[0][j] = cx_div_by(cx_mul(cx_of(k->kl), cx_add(cx_mul(to_r, to_r), cx_of(k->rw2))),
                                den);
        alpha[1][j] = cx_div_by(cx_mul(cx_of(k->kr), cx_add(cx_mul(to_l, to_l), cx_of(k->lw2))),
                                den);
        alpha[2][j] = cx_div_by(cx_of(k->kt), den);
    }
    for (int j = 0; j < 3; j++) {
        /* the divisors of the Taylor terms at r_j, each shared by the three
           rationals */
        const divisor d_ahead = divisor_of(ahead[j]), d_behind = divisor_of(behind[j]);
        const divisor d_ahead2 = divisor_of(cx_mul(ahead[j], ahead[j]));
        const divisor d_behind2 = divisor_of(cx_mul(behind[j], behind[j]));
        divisor d_mirror[3], d_mirror2[3];
        for (int l = 0; l < 3; l++) {
            d_mirror[l] = divisor_of(mirror[j][l]);
            d_mirror2[l] = divisor_of(cx_mul(mirror[j][l], mirror[j][l]));
        }
        for (int i = 0; i < 3; i++) {
            const cx next = alpha[i][(j + 1) % 3], far = alpha[i][(j + 2) % 3];
            cx s0 = cx_add(cx_div_by(next, d_ahead), cx_div_by(far, d_behind));
            cx s1 = cx_add(cx_div_by(next, d_ahead2), cx_div_by(far, d_behind2));
            for (int l = 0; l < 3; l++) {
                s0 = cx_add(s0, cx_div_by(cx_conj(alpha[i][l]), d_mirror[l]));
                s1 = cx_add(s1, cx_div_by(cx_conj(alpha[i][l]), d_mirror2[l]));
            }
            c0[i][j] = s0;
            c1[i][j] = cx_neg(s1);
        }
    }
    const cx *al = alpha[0], *ar = alpha[1], *at = alpha[2];

    /* psi[lead][order][pole], and the divided difference [order][pole] */
    cx psi[2][3][3], divided[2][3], out[7];
    for (int lead = 0; lead < 2; lead++)
        for (int j = 0; j < 3; j++) {
            const cx z = cx_add(cx_of(0.5), cx_mul(k->s, cx_sub(r[j], cx_of(k->mu[lead]))));
            polygammas(z, 2, k->series, out);
            for (int n = 0; n < 3; n++)
                psi[lead][n][j] = out[n];
        }
    for (int j = 0; j < 3; j++) {
        if (k->near != 0.0) {
            const cx z = cx_add(cx_of(0.5), cx_mul(k->s, cx_sub(r[j], cx_of(k->mu_mid))));
            polygammas(z, 6, k->series, out);
            for (int n = 0; n < 2; n++)
                divided[n][j] = cx_add(cx_add(out[1 + n], cx_mul(k->h2_24, out[3 + n])),
                                       cx_mul(k->h4_1920, out[5 + n]));
        } else {
            const divisor h = divisor_of(k->h);
            for (int n = 0; n < 2; n++)
                divided[n][j] = cx_div_by(cx_sub(psi[0][n][j], psi[1][n][j]), h);
        }
    }

    cx parts[3][3], values[2][3];
    double sums[2];
    /* occupation: A_L and A_R */
    memcpy(parts[0], al, sizeof parts[0]);
    sums[0] = filled(k, 1, parts, psi[0]);
    memcpy(parts[0], ar, sizeof parts[0]);
    sums[1] = filled(k, 1, parts, psi[1]);
    row[0] = (sums[0] + sums[1]) / k->two_pi;
    /* current: tau */
    memcpy(parts[0], at, sizeof parts[0]);
    for (int j = 0; j < 3; j++)
        values[0][j] = cx_mul(k->h, divided[0][j]);
    row[stride] = pole_sum(k, 1, parts, (const cx (*)[3])values) / k->pi;
    /* thermal noise */
    row[2 * stride] = (edge(k, 1, parts, psi[0]) + edge(k, 1, parts, psi[1])) * k->thermal;
    /* partition noise */
    for (int j = 0; j < 3; j++) {
        parts[0][j] = cx_sub(at[j], cx_mul(cx_mul(cx_of(2.0), at[j]), c0[2][j]));
        parts[1][j] = cx_mul(cx_neg(at[j]), at[j]);
        for (int n = 0; n < 2; n++)
            values[n][j] = cx_mul(k->half_i_pi,
                                  cx_sub(cx_add(psi[0][n + 1][j], psi[1][n + 1][j]),
                                         cx_mul(cx_of(k->two_qcoth), divided[n][j])));
    }
    row[3 * stride] = pole_sum(k, 2, parts, (const cx (*)[3])values) * k->partition;
    /* friction: sigma< A' */
    for (int lead = 0; lead < 2; lead++) {
        const cx *a_l = alpha[lead];
        for (int j = 0; j < 3; j++) {
            const cx a = cx_add(al[j], ar[j]), c1a = cx_add(c1[0][j], c1[1][j]);
            parts[0][j] = cx_sub(cx_mul(a_l[j], c1a), cx_mul(c1[lead][j], a));
            parts[1][j] = cx_mul(cx_neg(c0[lead][j]), a);
            parts[2][j] = cx_mul(cx_neg(a_l[j]), a);
        }
        sums[lead] = filled(k, 3, parts, psi[lead]);
    }
    row[4 * stride] = k->c4 * (sums[0] + sums[1]);
    /* S_x(0): sigma< sigma> */
    for (int j = 0; j < 3; j++) {
        parts[0][j] = cx_add(cx_mul(al[j], c0[1][j]), cx_mul(c0[0][j], ar[j]));
        parts[1][j] = cx_mul(al[j], ar[j]);
        for (int n = 0; n < 2; n++)
            values[n][j] = cx_mul(k->minus_i_qcoth_pi, divided[n][j]);
    }
    const double mixed = pole_sum(k, 2, parts, (const cx (*)[3])values);
    for (int lead = 0; lead < 2; lead++) {
        const cx *a_l = alpha[lead];
        for (int j = 0; j < 3; j++) {
            parts[0][j] = cx_mul(cx_mul(cx_of(2.0), a_l[j]), c0[lead][j]);
            parts[1][j] = cx_mul(a_l[j], a_l[j]);
        }
        sums[lead] = edge(k, 2, parts, psi[lead]);
    }
    row[5 * stride] = k->c4 * (mixed - (sums[0] + sums[1]) / k->beta);
    for (int i = 0; i < 6; i++)
        if (!isfinite(row[i * stride]))
            return 2;
    return 0;
}

#ifdef POLE_SUMS_FOR_FMA
#pragma GCC pop_options
#endif

/* The six rows of transport._pole_rows at the n positions xs into rows,
   shape (6, n), and each position's status into status (see pole_rows);
   returns the number of positions whose status is not 0, or -1, with
   nothing written, on a CPU without the FMA this section was built for. */
long nemclock_pole_rows(long n, const double *xs, const pole_consts_t *k, double *rows,
                        long *status)
{
#ifdef POLE_SUMS_FOR_FMA
    if (!__builtin_cpu_supports("fma"))
        return -1;
#endif
    long bad = 0;
    for (long i = 0; i < n; i++) {
        status[i] = pole_rows(k, xs[i], rows + i, n);
        bad += status[i] != 0;
    }
    return bad;
}

/* ------------------------------------------------------------------------
   CSV text: each double as CPython's repr(float) writes it, byte for byte,
   and each int64 as str(int).

   The digits are the shortest that read back to the same double and, of
   those, the closest to it, found by Ryu (Adams, PLDI 2018, "Ryu: fast
   float-to-string conversion").  The double is m2 * 2^e2 with its rounding
   interval [4*m2 - 1 - mm_shift, 4*m2 + 2] / 4; the interval's ends and its
   centre are scaled by a power of ten through one 64 x 125-bit product each,
   and digits are removed while the ends stay apart.  The products use two
   tables of 125-bit powers of five, which langevin.py computes exactly from
   Python integers and passes in, 2 words a row, low word first:

   pow5      326 rows: 5^i scaled by 2^(125 - bits(5^i)), truncated
   pow5_inv  342 rows: floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1

   repr's layout: with the digits d1..dn and the value 0.d1..dn x 10^decpt,
   fixed notation when -4 < decpt <= 16, an integral value ending in ".0",
   and otherwise d1.d2..dn e<sign><at least two digits>; nan, inf, -inf and
   -0.0 are written as such. */

#define POW5_BITS 125

__extension__ typedef unsigned __int128 u128;

/* ceil(log2(5^e)) for 1 <= e <= 3528, and 1 for e = 0: the bit count of 5^e */
static inline int32_t pow5_bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static inline uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913) >> 18;
}

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static inline uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923) >> 20;
}

/* whether 5^p divides v, for v > 0 */
static inline int divisible_by_pow5(uint64_t v, uint32_t p)
{
    uint32_t count = 0;
    while (count < p && v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

/* whether 2^p divides v, for p < 64 */
static inline int divisible_by_pow2(uint64_t v, uint32_t p)
{
    return (v & (((uint64_t)1 << p) - 1)) == 0;
}

/* floor(m * mul / 2^j) for the 128-bit mul, j >= 64 */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const u128 low = (u128)m * mul[0], high = (u128)m * mul[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* The shortest digits of the positive finite double with biased exponent
   `biased` and fraction bits `fraction`, as an integer whose value times
   10^*exp10 is closest to the double. */
static uint64_t shortest_digits(uint64_t fraction, uint32_t biased, const uint64_t *pow5,
                                const uint64_t *pow5_inv, int32_t *exp10)
{
    /* two more bits than the double's, for the interval's quarter steps */
    const int32_t e2 = (biased == 0 ? 1 : (int32_t)biased) - 1023 - 52 - 2;
    const uint64_t m2 = biased == 0 ? fraction : ((uint64_t)1 << 52) | fraction;
    /* round-half-even reading: an even m2 owns both ends of its interval */
    const int accept_ends = (m2 & 1) == 0;
    /* the lower gap is half as wide at a power of two, except the lowest */
    const uint32_t mm_shift = fraction != 0 || biased <= 1;
    const uint64_t mv = 4 * m2;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + (int32_t)q + POW5_BITS + pow5_bits((int32_t)q) - 1;
        const uint64_t *mul = pow5_inv + 2 * q;
        e10 = (int32_t)q;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 21) {
            /* at most one of mv, mv + 2 and the lower end is a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = divisible_by_pow5(mv, q);
            else if (accept_ends)
                vm_trailing_zeros = divisible_by_pow5(mv - 1 - mm_shift, q);
            else
                vp -= divisible_by_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        e10 = (int32_t)q + e2;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv has two trailing zero bits, mv + 2 one, and the lower end
               one exactly when mm_shift is 1 */
            vr_trailing_zeros = 1;
            if (accept_ends)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_trailing_zeros = divisible_by_pow2(mv, q);
        }
    }

    int32_t removed = 0;
    uint32_t last_removed = 0;
    uint64_t out;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        /* the rare case: an end or the centre may be exact in decimal */
        while (vp / 10 > vm / 10) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        /* an exact ...50..0 rounds to even */
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
            last_removed = 4;
        out = vr + ((vr == vm && (!accept_ends || !vm_trailing_zeros)) || last_removed >= 5);
    } else {
        int round_up = 0;
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        out = vr + (vr == vm || round_up);
    }
    *exp10 = e10 + removed;
    return out;
}

/* The decimal digits of v > 0 into d, most significant first; returns
   their count. */
static int decimal_digits(uint64_t v, char *d)
{
    char rev[20];
    int n = 0;
    do {
        rev[n++] = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    for (int k = 0; k < n; k++)
        d[k] = rev[n - 1 - k];
    return n;
}

static char *put(char *p, const char *s, int n)
{
    memcpy(p, s, (size_t)n);
    return p + n;
}

/* repr(x) at p, at most 24 bytes; returns the end. */
static char *put_double(char *p, double x, const uint64_t *pow5, const uint64_t *pow5_inv)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint32_t biased = (uint32_t)(bits >> 52) & 0x7ff;
    const uint64_t fraction = bits & (((uint64_t)1 << 52) - 1);
    if (biased == 0x7ff && fraction != 0)
        return put(p, "nan", 3);
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff)
        return put(p, "inf", 3);
    if (biased == 0 && fraction == 0)
        return put(p, "0.0", 3);

    int32_t exp10;
    char d[20];
    const int n = decimal_digits(shortest_digits(fraction, biased, pow5, pow5_inv, &exp10), d);
    const int decpt = n + exp10;
    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            p = put(p, "0.000", 2 - decpt);
            return put(p, d, n);
        }
        if (decpt < n) {
            p = put(p, d, decpt);
            *p++ = '.';
            return put(p, d + decpt, n - decpt);
        }
        p = put(p, d, n);
        memset(p, '0', (size_t)(decpt - n));
        p += decpt - n;
        return put(p, ".0", 2);
    }
    *p++ = d[0];
    if (n > 1) {
        *p++ = '.';
        p = put(p, d + 1, n - 1);
    }
    int e = decpt - 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e >= 100)
        *p++ = (char)('0' + e / 100);
    *p++ = (char)('0' + e / 10 % 10);
    *p++ = (char)('0' + e % 10);
    return p;
}

/* str(v) at p, at most 20 bytes; returns the end. */
static char *put_long(char *p, int64_t v)
{
    if (v < 0)
        *p++ = '-';
    const uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    return p + decimal_digits(u, p);
}

/* Rows start..stop-1 of cols columns as CSV text at out: cells joined by
   ',' and each row ended by '\n'.  Column k is data[k], read as double when
   kinds[k] is 'd' and as int64 otherwise.  A cell takes at most 25 bytes
   with its separator; returns the bytes written. */
long nemclock_format_csv(long start, long stop, long cols, const void *const *data,
                         const char *kinds, const uint64_t *pow5, const uint64_t *pow5_inv,
                         char *out)
{
    char *p = out;
    for (long r = start; r < stop; r++) {
        for (long k = 0; k < cols; k++) {
            if (kinds[k] == 'd')
                p = put_double(p, ((const double *)data[k])[r], pow5, pow5_inv);
            else
                p = put_long(p, ((const int64_t *)data[k])[r]);
            *p++ = k + 1 < cols ? ',' : '\n';
        }
    }
    return (long)(p - out);
}
