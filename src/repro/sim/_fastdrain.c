/* Fluid-core kernels: the flow-table drain and the pipe's fair share.
 *
 * repro_flow_drain is the one drain of every fluid resource
 * (FlowTable.drain).  One flow event advances every flow's
 * remaining-byte counter by rate * dt, collects the flows that
 * finished (remaining <= 1e-6, in original flow order), and compacts
 * the survivors down over the holes.  This is bit-for-bit the
 * arithmetic of the NumPy fallback (`remaining -= rate * dt`, then
 * FlowTable.remove):
 *
 *   - `remaining - rate * dt` is one IEEE-754 double multiply and one
 *     subtract per flow, the exact per-element sequence of the
 *     fallback's in-place `remaining -= rate * dt`;
 *   - the finish test `<= 1e-6` compares the identical double;
 *   - compaction only moves values, never recomputes them, and is
 *     order-preserving, so same-timestamp completions keep the FIFO
 *     order the determinism contract requires.  Columns after
 *     `remaining` and `rate` move as raw 8-byte words, so int64 and
 *     float64 columns compact bit for bit.
 *
 * Compile with strict FP semantics only: no -ffast-math, and
 * -ffp-contract=off so no FMA contraction changes the rounding of
 * rate * dt before the subtract.  The loader (perfmode.py) passes
 * those flags; the fluid core falls back to NumPy when no C
 * toolchain is available.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Advance the n live rows of a flow table by dt.  `cols` holds the
 * ncols >= 2 column addresses: cols[0] is `remaining` and cols[1]
 * `rate` (double); the rest are 8-byte words.  Every column is
 * compacted in place (survivors keep relative order).  Pre-compaction
 * indices of finished rows are written to `finished` (capacity >= n)
 * in ascending order.  Returns the number of finished rows; n minus
 * that is the new row count.
 */
int64_t repro_flow_drain(int64_t n, double dt, int64_t ncols,
                         void *const *cols, int64_t *finished)
{
    double *remaining = cols[0], *rate = cols[1];
    int64_t i, c, w = 0, k = 0;

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
    if (k == 0 || k == n)
        return k;
    /* Close each hole by moving the run of survivors behind it. */
    for (c = 2; c < ncols; c++) {
        uint64_t *col = cols[c];
        int64_t j, to = finished[0];
        for (j = 0; j < k; j++) {
            int64_t from = finished[j] + 1;
            int64_t end = j + 1 < k ? finished[j + 1] : n;
            memmove(col + to, col + from,
                    (size_t)(end - from) * sizeof *col);
            to += end - from;
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
 * subtract the grant.  The ternary is Python's min(cap, share): the
 * share only if it is less, so the cap on ties and when the share is
 * NaN (an infinite capacity leaves inf - inf = NaN after the first
 * uncapped grant).
 *
 * The second pass is FlowTable.horizon: the min over
 * remaining[i]/out_rates[i] for positive rates (min is
 * order-independent at the bit level).  Returns +inf when no flow has
 * a positive rate.
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
        double give = share < cap ? share : cap;
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
