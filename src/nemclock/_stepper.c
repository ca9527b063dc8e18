/* Kick-then-drift Langevin steps for one block of trajectories, the
   evaluation of the cubic splines they step through, and the per-position
   rows of the transport integrand the splines' tables are built from.

   This is the compiled form of the NumPy step loop and spline evaluation in
   langevin.py and of the integrand rows in transport.py, and must agree
   with them bit for bit, so every floating-point operation below is the one
   NumPy performs, in the same order:

   - a spline is evaluated by the rule of scipy's PPoly, which the tests hold
     it to: the interval rule of find_interval (g[i] <= x < g[i+1], the last
     interval at and above g[nx-1], the first below g[0], NaN for NaN) and
     the power sum of evaluate_poly1;
   - the velocity update and every integrand row group their terms as the
     NumPy expressions do;
   - it is compiled with -O2 -ffp-contract=off and without -ffast-math, so
     no product is fused into an add and no sum is reassociated.

   The Philox noise is drawn by the caller; one call advances every row of
   the block over one noise chunk. */
#include <math.h>

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

/* scipy's evaluate_poly1 power sum at offset s for one column, whose four
   coefficients sit stride apart from c, highest power first. */
static inline double evaluate_poly1(const double *c, long stride, double s)
{
    double res = 0.0, z = 1.0;
    for (int kp = 0; kp < 4; kp++) {
        res = res + c[(3 - kp) * stride] * z;
        if (kp < 3)
            z *= s;
    }
    return res;
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
            const double s = xv - grid[i];
            for (long j = 0; j < k; j++)
                out[j] = evaluate_poly1(c + i * k + j, power_stride, s);
        }
    }
}

/* Advance rows 0..block-1 over n steps.  Steps run in the outer loop so
   the rows are independent chains the CPU can overlap; each row's
   arithmetic is the same in either order.

   x, v     state per row, updated in place
   noise    block x n standard normals, row-major
   buf_x/v  block x n: the state before each step, or NULL to record nothing
   grid     the nx spline breakpoints
   c        spline coefficients, shape (4, nx-1, 3), columns friction,
            diffusion, excess occupation
   w0sq     w0**2; fm = force / m

   Returns -1, or the lowest row that left the grid at the earliest failing
   step; that step goes to *fail_step and the row's x holds the position
   after it. */
long nemclock_steps(long block, long n,
                    double *x, double *v, const double *noise,
                    double *buf_x, double *buf_v,
                    const double *grid, long nx, const double *c,
                    double dt, double w0sq, double fm, double m,
                    long *fail_step)
{
    const double lo = grid[0], hi = grid[nx - 1];
    const double scale = (double)(nx - 1) / (hi - lo);
    const long power_stride = (nx - 1) * 3;
    long bad = -1;

    for (long k = 0; k < n; k++) {
        for (long r = 0; r < block; r++) {
            double xr = x[r], vr = v[r];
            if (buf_x) {
                buf_x[r * n + k] = xr;
                buf_v[r * n + k] = vr;
            }
            const double xe = xr < lo ? lo : (xr > hi ? hi : xr);
            double coeff[3] = {NAN, NAN, NAN};
            if (xe == xe) {
                const long i = find_interval(grid, nx, xe, scale);
                const double s = xe - grid[i];
                for (int j = 0; j < 3; j++)
                    coeff[j] = evaluate_poly1(c + i * 3 + j, power_stride, s);
            }
            vr = vr + ((-coeff[0]) * vr - w0sq * xr + fm * coeff[2]) * dt
                 + sqrt(coeff[1] * dt) * noise[r * n + k] / m;
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

/* Energies per pass of nemclock_rows: the energy-only factors of one pass
   stay in L1 while every position's rows are written. */
#define ROW_TILE 256
#define PI 3.141592653589793

/* The six per-position rows of the transport integrand at omega = 0, for
   nx positions at ne energies: occupation, current, the thermal and
   partition shot noise, the friction slope and the spectrum, written into
   out as (6, nx, ne), row-major.

   absden        nx x ne: |D| of the shifted denominator D = base + fx[i], as
                 NumPy's abs computes it
   fx            nx: force * x
   base          ne complex (re, im pairs): E - eps - chi_L - chi_R
   kl, kr        ne: the leads' rates, and dkl, dkr their slopes
   fl, fr        ne: the leads' Fermi functions
   dchi_l/r      ne complex: the self-energy slopes
   beta          inverse temperature; c4 = force**2 / 2pi

   A complex operand with a real one is taken as NumPy takes it, with a
   0.0 imaginary part: 1.0 - dchi_l has Im 0.0 - Im dchi_l, and D has
   Im base + 0.0. */
void nemclock_rows(long nx, long ne, const double *absden, const double *fx,
                   const double *base, const double *kl, const double *kr,
                   const double *dkl, const double *dkr,
                   const double *fl, const double *fr,
                   const double *dchi_l, const double *dchi_r,
                   double beta, double c4, double *out)
{
    double rates[ROW_TILE], w_less[ROW_TILE], w_more[ROW_TILE], dw_more[ROW_TILE];
    double dden_re[ROW_TILE], dden_im[ROW_TILE], occ_f[ROW_TILE], cur_f[ROW_TILE];
    double therm_f[ROW_TILE], part_f[ROW_TILE];
    const long plane = nx * ne;
    for (long j0 = 0; j0 < ne; j0 += ROW_TILE) {
        const long n = ne - j0 < ROW_TILE ? ne - j0 : ROW_TILE;
        for (long t = 0; t < n; t++) {
            const long j = j0 + t;
            const double el = 1.0 - fl[j], er = 1.0 - fr[j];
            const double fwin = fl[j] - fr[j];
            rates[t] = kl[j] * kr[j];
            w_less[t] = kl[j] * fl[j] + kr[j] * fr[j];
            w_more[t] = kl[j] * el + kr[j] * er;
            dw_more[t] = dkl[j] * el + dkr[j] * er
                         + beta * (kl[j] * fl[j] * el + kr[j] * fr[j] * er);
            dden_re[t] = 1.0 - dchi_l[2 * j] - dchi_r[2 * j];
            dden_im[t] = 0.0 - dchi_l[2 * j + 1] - dchi_r[2 * j + 1];
            occ_f[t] = w_less[t] / (2.0 * PI);
            cur_f[t] = fwin / PI;
            therm_f[t] = (fl[j] * el + fr[j] * er) * (2.0 / PI);
            part_f[t] = (fwin * fwin) * (2.0 / PI);
        }
        for (long i = 0; i < nx; i++) {
            const double *a = absden + i * ne + j0;
            double *occ = out + i * ne + j0, *cur = occ + plane, *therm = cur + plane;
            double *part = therm + plane, *slope = part + plane, *spec = slope + plane;
            for (long t = 0; t < n; t++) {
                const double g2 = 1.0 / (a[t] * a[t]);
                const double tau = rates[t] * g2;
                const double sigma_less = g2 * w_less[t];
                const double re = base[2 * (j0 + t)] + fx[i];
                const double im = base[2 * (j0 + t) + 1] + 0.0;
                const double dg2 = (-2.0 * (re * dden_re[t] + im * dden_im[t])) * (g2 * g2);
                occ[t] = g2 * occ_f[t];
                cur[t] = tau * cur_f[t];
                therm[t] = tau * therm_f[t];
                part[t] = (tau * (1.0 - tau)) * part_f[t];
                slope[t] = (sigma_less * (dg2 * w_more[t] + g2 * dw_more[t])) * c4;
                spec[t] = (sigma_less * (g2 * w_more[t])) * c4;
            }
        }
    }
}
