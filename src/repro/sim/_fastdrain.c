/* Fluid-pipe drain: C hot loop.
 *
 * One flow event advances every flow's remaining-byte counter by
 * rate * dt, collects the flows that finished (remaining <= 1e-6,
 * in original flow order), and compacts the survivors down over the
 * holes with a write cursor.  This is bit-for-bit the arithmetic of
 * FluidPipe._advance's NumPy fallback:
 *
 *   - `remaining - rate * dt` is one IEEE-754 double multiply and one
 *     subtract per flow, the exact per-element sequence the NumPy
 *     fallback (`rem -= rate * dt`) performs;
 *   - the finish test `<= 1e-6` compares the identical double;
 *   - compaction only moves values, never recomputes them, and is
 *     order-preserving, so same-timestamp completions keep the FIFO
 *     order the determinism contract requires.
 *
 * Compile with strict FP semantics only: no -ffast-math, and
 * -ffp-contract=off so no FMA contraction changes the rounding of
 * rate * dt before the subtract.  The loader (fastdrain.py) passes
 * those flags; FluidPipe falls back to the vectorized NumPy drain
 * when no C toolchain is available.
 */

#include <math.h>
#include <stdint.h>

/* Advance n flows by dt.  `remaining` and `rate` are parallel arrays;
 * both are compacted in place (survivors keep relative order).
 * Pre-compaction indices of finished flows are written to `finished`
 * (caller provides capacity >= n) in ascending order.  Returns the
 * number of finished flows.
 */
int64_t repro_fluid_drain(int64_t n, double dt,
                          double *remaining, double *rate,
                          int64_t *finished)
{
    int64_t i, w = 0, k = 0;

    for (i = 0; i < n; i++) {
        double left = remaining[i] - rate[i] * dt;
        if (left <= 1e-6) {
            finished[k++] = i;
        } else {
            remaining[w] = left;
            rate[w] = rate[i];
            w++;
        }
    }
    return k;
}

/* Max-min fair allocation + completion horizon, fused.
 *
 * Bit-for-bit the Python fair_share loop in repro.sim.fluid: process
 * flows in the caller's precomputed ascending-cap `order`, give each
 * the min of its cap and remaining/unfixed (remaining/unfixed is one
 * IEEE-754 double divide; `unfixed` < 2^53 converts exactly), and
 * subtract the grant.  On ties min() returns an equal double either
 * way, so the branch direction cannot change the stored value.
 *
 * The second pass is FluidPipe._reallocate's horizon scan: the min
 * over remaining[i]/out_rates[i] for positive rates, in flow order
 * (min is order-independent at the bit level, but we keep flow order
 * anyway).  Returns +inf when no flow has a positive rate.
 */
double repro_fair_share(double capacity, int64_t n,
                        const double *caps, const int64_t *order,
                        const double *remaining, double *out_rates)
{
    int64_t i, unfixed = n;
    double left = capacity, horizon = INFINITY;

    for (i = 0; i < n; i++) {
        int64_t idx = order[i];
        double share = left / (double)unfixed;
        double cap = caps[idx];
        double give = cap < share ? cap : share;
        out_rates[idx] = give;
        left -= give;
        unfixed--;
    }
    for (i = 0; i < n; i++) {
        if (out_rates[i] > 0.0) {
            double h = remaining[i] / out_rates[i];
            if (h < horizon)
                horizon = h;
        }
    }
    return horizon;
}
