/* Kick-then-drift Langevin steps for one block of trajectories and the
   evaluation of the cubic splines they step through.

   This is the compiled form of the NumPy step loop and spline evaluation in
   langevin.py, which alone loads it, and must agree with them bit for bit,
   so every floating-point operation below is the one NumPy performs, in the
   same order:

   - a spline is evaluated by the rule of scipy's PPoly, which the tests hold
     it to: the interval rule of find_interval (g[i] <= x < g[i+1], the last
     interval at and above g[nx-1], the first below g[0], NaN for NaN) and
     the power sum of evaluate_poly1;
   - the velocity update groups its terms as the NumPy expression does;
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
