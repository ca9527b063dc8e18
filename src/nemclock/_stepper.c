/* Kick-then-drift Langevin steps for one block of trajectories and the
   evaluation of the cubic splines they step through.

   This is the compiled form of the NumPy step loop and spline evaluation in
   langevin.py, which alone loads it, and must agree with them bit for bit,
   so every floating-point operation below is the one NumPy performs, in the
   same order:

   - a spline is evaluated by the rule of scipy's PPoly, which the tests hold
     it to: the interval rule of find_interval (g[i] <= x < g[i+1], the last
     interval at and above g[nx-1], the first below g[0], NaN for NaN) and
     the cubic of _evaluate_numpy, left to right,
     0.0 + c[3] + c[2]*s + c[1]*(s*s) + c[0]*(s*s*s), whose leading 0.0 turns
     a -0.0 into 0.0 as PPoly's sum does;
   - the velocity update groups its terms as the NumPy expression does;
   - it is compiled with -O2 -ffp-contract=off and without -ffast-math, so
     no product is fused into an add and no sum is reassociated.

   One call advances every row of the block over one noise chunk.  The
   noise is either the caller's or drawn here first, row by row, from each
   row's own NumPy Philox bit generator by NumPy's ziggurat: its fast path
   is inlined below with layer tables recovered from NumPy itself, and the
   rare rejected words are replayed into NumPy's own random_standard_normal,
   so the draws are Generator.standard_normal's bit for bit. */
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
