/* Fabric reallocation kernel.
 *
 * A fabric reallocation is one native call: repro_fabric_realloc
 * compresses the channel set, runs the progressive-filling max-min
 * water-fill and returns the completion horizon.  The flow table is
 * Fabric._tab: five parallel columns remaining, rate (float64), src,
 * dst (int64) and cap (float64), passed in that order.  (The drain is
 * the fluid core's, in sim/_fastdrain.c.)
 *
 * It is bit-for-bit the arithmetic of the NumPy fallback in fabric.py
 * (Fabric._assign_rates_numpy and FlowTable.horizon; the algorithm is
 * stated in Fabric._assign_rates_fast's docstring, and DESIGN.md
 * sections 8 and 12 give the equivalence argument):
 *
 *   - every floating-point operation here is the identical IEEE-754
 *     double operation NumPy applies elementwise, in the same
 *     per-element sequence;
 *   - the only reductions are minimums, which are order-independent at
 *     the bit level, so neither loop order nor channel numbering can
 *     perturb any intermediate;
 *   - all still-active flows share one accumulated water `level` (the
 *     fold ((0 + inc_1) + inc_2) + ... that an elementwise
 *     rates[active] += inc performs), so a flow's final rate is the
 *     level at its freeze round.
 *
 * Compile with strict FP semantics only: no -ffast-math, and
 * -ffp-contract=off so no FMA contraction changes the rounding of
 * inc * cnt before the head update.  The loader (perfmode.py) passes
 * those flags; the fabric falls back to the NumPy path when no C
 * toolchain is available.
 */

#include <math.h>
#include <stdint.h>

/* Fused reallocation: max-min fair rates for m >= 1 flows, then the
 * completion horizon.
 *
 * Channels are the 2 * n_nodes NIC directions: tx of node v is channel
 * v, rx of node v is channel n_nodes + v.  `ids` (2 * n_nodes int64,
 * every entry -1 on entry, restored to -1 on return) stamps each
 * channel some flow uses with a compressed id, assigned in first-seen
 * order, so the water-fill runs over the nch <= 2 * m channels that
 * carry flows, whatever the fabric size.  Dropping idle channels is
 * bit-identical: in the dense form an idle channel has count 0, so it
 * never enters the increment's min, its head never moves, and no flow
 * tests it for saturation.  Renumbering the rest cannot change a bit,
 * because each channel's arithmetic is its own and the only reduction
 * across channels is min.
 *
 * Scratch (caller-owned, sized to the flow table's capacity cap >= m):
 * `iw` holds 8 * cap int64, `dw` 4 * cap double.  Rates land in
 * `rate`.  Returns min(remaining / rate) over flows with rate > 0 (the
 * fallback's horizon expression), or +inf when no flow has a positive
 * rate.
 */
double repro_fabric_realloc(int64_t m, int64_t n_nodes,
                            const double *remaining, double *rate,
                            const int64_t *src, const int64_t *dst,
                            const double *caps,
                            double nic_bw, double bisection_bw,
                            int64_t has_core, int64_t *ids,
                            int64_t *iw, double *dw)
{
    int64_t *s = iw, *d = iw + m, *idx = iw + 2 * m, *fin = iw + 3 * m;
    int64_t *cnt = iw + 4 * m, *used = iw + 6 * m;
    double *c = dw, *ctol = dw + m, *heads = dw + 2 * m;
    int64_t i, ch, mc, w, nch = 0;
    double nic_tol, level, core_head, core_ref, horizon = INFINITY;

    for (i = 0; i < m; i++) {
        int64_t tx = src[i], rx = n_nodes + dst[i];
        if (ids[tx] < 0) {
            ids[tx] = nch;
            used[nch++] = tx;
        }
        if (ids[rx] < 0) {
            ids[rx] = nch;
            used[nch++] = rx;
        }
        s[i] = ids[tx];
        d[i] = ids[rx];
        idx[i] = i;
        c[i] = caps[i];
        fin[i] = isfinite(caps[i]);
        /* Matches np.where(finite, 1e-7 * caps + 1e-12, 0.0). */
        ctol[i] = fin[i] ? 1e-7 * caps[i] + 1e-12 : 0.0;
    }
    for (ch = 0; ch < nch; ch++) {
        ids[used[ch]] = -1;
        heads[ch] = nic_bw;
    }
    nic_tol = 1e-7 * nic_bw;
    level = 0.0;
    core_head = bisection_bw;
    /* Matches 1e-7 * (bisection_bw or 1.0): Python `or` treats 0.0 as
     * falsy. */
    core_ref = 1e-7 * (bisection_bw != 0.0 ? bisection_bw : 1.0);
    mc = m;

    while (mc > 0) {
        double inc = INFINITY, mm = INFINITY;
        int core_exhausted;
        int64_t frozen_any = 0;

        for (ch = 0; ch < nch; ch++)
            cnt[ch] = 0;
        for (i = 0; i < mc; i++) {
            cnt[s[i]]++;
            cnt[d[i]]++;
        }
        /* Water-level increment: min head/cnt over used channels, the
         * core share, and the smallest remaining cap margin. */
        for (ch = 0; ch < nch; ch++) {
            if (cnt[ch] > 0) {
                double q = heads[ch] / (double)cnt[ch];
                if (q < inc)
                    inc = q;
            }
        }
        if (has_core) {
            double t = core_head / (double)mc;
            if (t < inc)
                inc = t;
        }
        for (i = 0; i < mc; i++) {
            double mg = c[i] - level;
            if (mg < mm)
                mm = mg;
        }
        if (mm < inc)
            inc = mm;
        if (!isfinite(inc) || inc < 0.0)
            inc = 0.0;
        level += inc;
        for (ch = 0; ch < nch; ch++)
            heads[ch] -= inc * (double)cnt[ch];
        if (has_core)
            core_head -= inc * (double)mc;
        core_exhausted = has_core && core_head <= core_ref;

        /* Freeze flows that hit their cap or a saturated channel, and
         * compact the survivors in place (write cursor w). */
        w = 0;
        for (i = 0; i < mc; i++) {
            int fr;
            if (core_exhausted) {
                fr = 1;
            } else {
                fr = (fin[i] && c[i] - level <= ctol[i])
                    || heads[s[i]] <= nic_tol
                    || heads[d[i]] <= nic_tol;
            }
            if (fr) {
                rate[idx[i]] = level;
                frozen_any = 1;
            } else {
                s[w] = s[i];
                d[w] = d[i];
                idx[w] = idx[i];
                c[w] = c[i];
                ctol[w] = ctol[i];
                fin[w] = fin[i];
                w++;
            }
        }
        if (!frozen_any)
            break; /* no progress possible: freeze the rest as-is */
        mc = w;
    }
    /* Flows still active at exit keep the final water level. */
    for (i = 0; i < mc; i++)
        rate[idx[i]] = level;

    /* Completion horizon: one double divide per positive-rate flow;
     * min is order-independent at the bit level. */
    for (i = 0; i < m; i++) {
        if (rate[i] > 0.0) {
            double h = remaining[i] / rate[i];
            if (h < horizon)
                horizon = h;
        }
    }
    return horizon;
}
