/* Kick-then-drift Langevin steps for one block of trajectories, the
   evaluation of the cubic splines they step through, and the Gauss-Kronrod
   panel sums of the transport integrand the splines' tables are built from.

   This is the compiled form of the NumPy step loop and spline evaluation in
   langevin.py and of quadrature.kronrod over the integrand rows of
   transport.py, and must agree with them bit for bit, so every
   floating-point operation below is the one NumPy performs, in the same
   order:

   - a spline is evaluated by the rule of scipy's PPoly, which the tests hold
     it to: the interval rule of find_interval (g[i] <= x < g[i+1], the last
     interval at and above g[nx-1], the first below g[0], NaN for NaN) and
     the power sum of evaluate_poly1;
   - the velocity update and every integrand row group their terms as the
     NumPy expressions do;
   - a panel sum adds its node values in node order, one at a time, as
     quadrature.kronrod does, never as a BLAS dot product would;
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

/* The Gauss-Kronrod 15(7) weights of quadrature.py, Kronrod in node order
   and Gauss on the odd nodes. */
static const double KRONROD_W[15] = {
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
};
static const double GAUSS_W[7] = {
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
};

#define NODES 15
#define ROWS 6
#define PI 3.141592653589793

/* The energy-only factors of the transport rows at one panel's 15 nodes. */
struct node_factors {
    double rates[NODES], w_less[NODES], w_more[NODES], dw_more[NODES];
    double dden_re[NODES], dden_im[NODES], occ_f[NODES], cur_f[NODES];
    double therm_f[NODES], part_f[NODES], base_re[NODES], base_im[NODES];
};

/* Positions per pass.  The position loops run over an even width, 8 or 2
   for the rest, so -O2 vectorises them in pairs with no scalar tail; a
   ragged pass repeats its last position and stores nothing for the copy.
   Positions are independent, so the width changes no result. */
#define X_TILE 8

/* One panel's Kronrod estimates and errors of the six rows for the n
   (<= width) positions whose force * x start at fx.  Row r of position t
   is stored at out[r * row_stride + t * pos_stride], and likewise in err. */
static inline void panel_tile(const struct node_factors *q, const double *fx,
                              long n, int width, double c4, double half,
                              long row_stride, long pos_stride,
                              double *out, double *err)
{
    double shift[X_TILE], kron[ROWS][X_TILE], gauss[ROWS][X_TILE];
    for (int t = 0; t < width; t++)
        shift[t] = fx[t < n ? t : n - 1];
    for (int r = 0; r < ROWS; r++)
        for (int t = 0; t < width; t++)
            kron[r][t] = gauss[r][t] = 0.0;
    for (int k = 0; k < NODES; k++) {
        double v[ROWS][X_TILE];
        for (int t = 0; t < width; t++) {
            const double re = q->base_re[k] + shift[t], im = q->base_im[k];
            const double g2 = 1.0 / (re * re + im * im);
            const double tau = q->rates[k] * g2;
            const double sigma_less = g2 * q->w_less[k];
            const double dg2 = (-2.0 * (re * q->dden_re[k] + im * q->dden_im[k])) * (g2 * g2);
            v[0][t] = g2 * q->occ_f[k];
            v[1][t] = tau * q->cur_f[k];
            v[2][t] = tau * q->therm_f[k];
            v[3][t] = (tau * (1.0 - tau)) * q->part_f[k];
            v[4][t] = (sigma_less * (dg2 * q->w_more[k] + g2 * q->dw_more[k])) * c4;
            v[5][t] = (sigma_less * (g2 * q->w_more[k])) * c4;
        }
        for (int r = 0; r < ROWS; r++)
            for (int t = 0; t < width; t++)
                kron[r][t] = kron[r][t] + v[r][t] * KRONROD_W[k];
        if (k & 1)
            for (int r = 0; r < ROWS; r++)
                for (int t = 0; t < width; t++)
                    gauss[r][t] = gauss[r][t] + v[r][t] * GAUSS_W[k >> 1];
    }
    for (int r = 0; r < ROWS; r++) {
        for (long t = 0; t < n; t++) {
            const double k_est = kron[r][t] * half;
            out[r * row_stride + t * pos_stride] = k_est;
            err[r * row_stride + t * pos_stride] = fabs(k_est - gauss[r][t] * half);
        }
    }
}

/* The Kronrod estimate and |Kronrod - Gauss| of the six rows of the
   transport integrand at omega = 0 (occupation, current, the thermal and
   partition shot noise, the friction slope and the spectrum) for nx
   positions on npan panels, written into out as (2, 6, nx, npan): the
   estimates, then the errors.

   fx     nx: force * x
   real   (6, 15 npan): the leads' rates kl, kr, their slopes dkl, dkr and
          their Fermi functions fl, fr at the 15 nodes of every panel
   cplx   (3, 15 npan) complex (re, im pairs): base = E - eps - chi_L - chi_R
          and the self-energy slopes dchi_l, dchi_r
   half   npan: each panel's half width
   beta   inverse temperature; c4 = force**2 / 2pi

   Each row is the NumPy expression of transport._integrand_rows, with
   D = base + fx and |D|^2 = re^2 + im^2.  A complex operand with a real
   one is taken as NumPy takes it, with a 0.0 imaginary part: 1.0 - dchi_l
   has Im 0.0 - Im dchi_l, and D has Im base + 0.0.  Each (row, position)
   sum runs over the nodes in order from 0.0, one multiply and one add per
   node, and is then scaled by half, as quadrature.kronrod sums. */
void nemclock_panels(long nx, long npan, const double *fx, const double *real,
                     const double *cplx, const double *half,
                     double beta, double c4, double *out)
{
    const long ne = NODES * npan;
    const double *kl = real, *kr = kl + ne, *dkl = kr + ne, *dkr = dkl + ne;
    const double *fl = dkr + ne, *fr = fl + ne;
    const double *base = cplx, *dchi_l = base + 2 * ne, *dchi_r = dchi_l + 2 * ne;
    double *err = out + ROWS * nx * npan;

    for (long p = 0; p < npan; p++) {
        struct node_factors q;
        for (int k = 0; k < NODES; k++) {
            const long j = p * NODES + k;
            const double el = 1.0 - fl[j], er = 1.0 - fr[j];
            const double fwin = fl[j] - fr[j];
            q.rates[k] = kl[j] * kr[j];
            q.w_less[k] = kl[j] * fl[j] + kr[j] * fr[j];
            q.w_more[k] = kl[j] * el + kr[j] * er;
            q.dw_more[k] = dkl[j] * el + dkr[j] * er
                           + beta * (kl[j] * fl[j] * el + kr[j] * fr[j] * er);
            q.dden_re[k] = 1.0 - dchi_l[2 * j] - dchi_r[2 * j];
            q.dden_im[k] = 0.0 - dchi_l[2 * j + 1] - dchi_r[2 * j + 1];
            q.occ_f[k] = q.w_less[k] / (2.0 * PI);
            q.cur_f[k] = fwin / PI;
            q.therm_f[k] = (fl[j] * el + fr[j] * er) * (2.0 / PI);
            q.part_f[k] = (fwin * fwin) * (2.0 / PI);
            q.base_re[k] = base[2 * j];
            q.base_im[k] = base[2 * j + 1] + 0.0;
        }
        long i = 0;
        for (; i + X_TILE <= nx; i += X_TILE)
            panel_tile(&q, fx + i, X_TILE, X_TILE, c4, half[p], nx * npan, npan,
                       out + i * npan + p, err + i * npan + p);
        for (; i < nx; i += 2)
            panel_tile(&q, fx + i, nx - i < 2 ? nx - i : 2, 2, c4, half[p], nx * npan, npan,
                       out + i * npan + p, err + i * npan + p);
    }
}
