/* Fabric reallocation kernel.
 *
 * A fabric reallocation is one native call: repro_fabric_realloc
 * numbers the channels that carry flows, runs the progressive-filling
 * max-min water-fill over classes of them and returns the completion
 * horizon.  The flow table is Fabric._tab: five parallel columns
 * remaining, rate (float64), src, dst (int64) and cap (float64),
 * passed in that order.  (The drain is the fluid core's, in
 * sim/_fastdrain.c.)
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
 * Channel classes.  A channel's per-round arithmetic reads only its
 * head and its count of unfrozen flows: q = head / cnt enters the
 * increment's min, head -= inc * cnt, and head <= nic_tol saturates
 * it.  Channels whose heads are bit-equal and whose counts are equal
 * therefore get bit-equal results from all three, so the water-fill
 * keeps one class record (head, count) per such group and does each
 * round's channel work once per class:
 *
 *   - the initial classes are keyed by count, since every head starts
 *     at nic_bw;
 *   - when freezes lower some members' counts, each of those members
 *     moves to the child class keyed (parent class, new count), which
 *     inherits the parent's head bits; a member whose count reaches 0
 *     just leaves (no flow reads it again);
 *   - no two classes are ever merged by comparing floats, so
 *     bit-equality holds by construction, and the min over live
 *     classes (those with members) is the min over used channels: the
 *     same multiset of values.
 *
 * Class-count bound: at most 2 * m classes exist in one call.  The
 * initial classes number at most nch (the channels carrying flows),
 * and each child is created by a member moving to a nonzero count; a
 * channel that starts with k flows can do that at most k - 1 times,
 * and the counts sum to 2 * m, so children number at most 2 * m - nch.
 *
 * Counts are kept, not recounted: each channel is counted once per
 * call, and a freeze decrements its two channels.  The cap-margin min
 * runs only while some live flow has a finite cap (an infinite cap
 * gives margin +inf, which cannot lower the min).
 *
 * The horizon takes one division per freeze round instead of one per
 * flow: the flows frozen in a round share the rate `level`, and
 * correctly rounded division by a positive number is monotone in the
 * numerator, so min(remaining) / level equals min(remaining / level)
 * bit for bit.
 *
 * Compile with strict FP semantics only: no -ffast-math, and
 * -ffp-contract=off so no FMA contraction changes the rounding of
 * inc * cnt before the head update.  The loader (perfmode.py) passes
 * those flags; the fabric falls back to the NumPy path when no C
 * toolchain is available.
 */

#include <math.h>
#include <stdint.h>

#define NONE UINT32_MAX

/* Fused reallocation: max-min fair rates for m >= 1 flows, then the
 * completion horizon.
 *
 * Channels are the 2 * n_nodes NIC directions: tx of node v is channel
 * v, rx of node v is channel n_nodes + v.  `ids` (2 * n_nodes int64,
 * every entry -1 on entry, restored to -1 on return) stamps each
 * channel some flow uses with a compressed id, assigned in first-seen
 * order, so the water-fill runs over the nch <= 2 * m channels that
 * carry flows, whatever the fabric size.  Dropping idle channels is
 * bit-identical: an idle channel has count 0, so it never enters the
 * increment's min, its head never moves, and no flow tests it for
 * saturation.  Renumbering the rest cannot change a bit, because each
 * channel's arithmetic is its own and the only reduction across
 * channels is min.
 *
 * Scratch (caller-owned, sized to the flow table's capacity cap >= m,
 * cap < 2^31 so every channel and class id fits 32 bits): `iw` holds
 * 20 * cap uint32 words, `dw` 4 * cap doubles, of which only the first
 * 20 * m and 4 * m are written.  Rates land in `rate`.  Returns
 * min(remaining / rate) over flows with rate > 0 (the fallback's
 * horizon expression), or +inf when no flow has a positive rate.
 */
double repro_fabric_realloc(int64_t m, int64_t n_nodes,
                            const double *remaining, double *rate,
                            const int64_t *src, const int64_t *dst,
                            const double *caps,
                            double nic_bw, double bisection_bw,
                            int64_t has_core, int64_t *ids,
                            uint32_t *iw, double *dw)
{
    /* Per class: count, members, and this round's children (first
     * child, next sibling); the live class list. */
    uint32_t *ccnt = iw, *nmem = iw + 2 * m;
    uint32_t *kid = iw + 4 * m, *sib = iw + 6 * m, *live = iw + 8 * m;
    /* This round's frozen flows as (tx, rx, row) triples, then the
     * queue of channels whose count fell (and the count -> class
     * lookup while the classes are set up). */
    uint32_t *touch = iw + 10 * m;
    /* Per channel: class and count of unfrozen flows. */
    uint32_t *chcls = iw + 13 * m, *chcnt = iw + 15 * m;
    /* Per flow (compacted each round): channels and table row, last,
     * so the words every call writes end the scratch. */
    uint32_t *s = iw + 17 * m, *d = iw + 18 * m, *idx = iw + 19 * m;
    double *head = dw, *c = dw + 2 * m, *ctol = dw + 3 * m;
    int64_t i, mc, w, nfin = 0;
    uint32_t nch = 0, ncls = 0, nlive = 0, j, k;
    double nic_tol, level, core_head, core_ref, rmin, horizon = INFINITY;

    /* Channel numbering and counts: each used channel is stamped in
     * `ids` with a compressed id in first-seen order, and the stamps
     * are cleared again after the pass. */
    for (i = 0; i < m; i++) {
        int64_t tx = src[i], rx = n_nodes + dst[i];
        int64_t a = ids[tx], b = ids[rx];

        if (a < 0) {
            a = ids[tx] = nch;
            chcnt[nch++] = 0;
        }
        if (b < 0) {
            b = ids[rx] = nch;
            chcnt[nch++] = 0;
        }
        s[i] = (uint32_t)a;
        d[i] = (uint32_t)b;
        idx[i] = (uint32_t)i;
        chcnt[a]++;
        chcnt[b]++;
        nfin += isfinite(caps[i]);
    }
    for (i = 0; i < m; i++) {
        ids[src[i]] = -1;
        ids[n_nodes + dst[i]] = -1;
    }
    /* Cap columns, only when some cap is finite.  Matches
     * np.where(finite, 1e-7 * caps + 1e-12, 0.0) & finite: NaN compares
     * false, so an infinite cap never freezes its flow. */
    if (nfin) {
        for (i = 0; i < m; i++) {
            double cp = caps[i], tol = 1e-7 * cp + 1e-12;
            c[i] = cp;
            ctol[i] = isfinite(cp) ? tol : NAN;
        }
    }

    /* Initial classes: one per distinct count, head nic_bw.  Counts
     * lie in 1..m, so the count -> class lookup fits in touch; an entry
     * is trusted only if it names an existing class of that count, so
     * the lookup needs no clearing. */
    for (k = 0; k < nch; k++) {
        uint32_t n = chcnt[k], q = touch[n];
        if (n == 0)
            continue;
        if (q >= ncls || ccnt[q] != n) {
            q = touch[n] = ncls++;
            head[q] = nic_bw;
            ccnt[q] = n;
            nmem[q] = 0;
            kid[q] = NONE;
            live[nlive++] = q;
        }
        chcls[k] = q;
        nmem[q]++;
    }

    nic_tol = 1e-7 * nic_bw;
    level = 0.0;
    core_head = bisection_bw;
    /* Matches 1e-7 * (bisection_bw or 1.0): Python `or` treats 0.0 as
     * falsy. */
    core_ref = 1e-7 * (bisection_bw != 0.0 ? bisection_bw : 1.0);
    mc = m;

    while (mc > 0) {
        double inc = INFINITY;
        int any_sat = 0;
        int64_t caps_live = nfin;
        int64_t nt = 0, nf;
        uint32_t base;

        /* Water-level increment: min head/cnt over live classes, the
         * core share, and the smallest remaining cap margin. */
        for (j = 0; j < nlive; j++) {
            double q;
            k = live[j];
            q = head[k] / (double)ccnt[k];
            if (q < inc)
                inc = q;
        }
        if (has_core) {
            double t = core_head / (double)mc;
            if (t < inc)
                inc = t;
        }
        if (caps_live) {
            double mm = INFINITY;
            for (i = 0; i < mc; i++) {
                double mg = c[i] - level;
                if (mg < mm)
                    mm = mg;
            }
            if (mm < inc)
                inc = mm;
        }
        if (!isfinite(inc) || inc < 0.0)
            inc = 0.0;
        level += inc;
        for (j = 0; j < nlive; j++) {
            k = live[j];
            head[k] -= inc * (double)ccnt[k];
            any_sat |= head[k] <= nic_tol;
        }
        if (has_core) {
            core_head -= inc * (double)mc;
            if (core_head <= core_ref)
                break; /* core exhausted: every flow freezes here */
        }
        if (!any_sat && !caps_live)
            break; /* nothing can freeze: the rest keep this level */

        /* Freeze flows that hit their cap or a saturated channel:
         * compact the survivors in place (write cursor w) and list the
         * frozen ones in touch, without a branch per flow. */
        w = 0;
        for (i = 0; i < mc; i++) {
            uint32_t a = s[i], b = d[i], r = idx[i];
            int fr = (head[chcls[a]] <= nic_tol)
                | (head[chcls[b]] <= nic_tol);

            if (caps_live) {
                double ci = c[i], ti = ctol[i];
                fr |= ci - level <= ti;
                nfin -= fr & (ti == ti);
                c[w] = ci;
                ctol[w] = ti;
            }
            touch[3 * nt] = a;
            touch[3 * nt + 1] = b;
            touch[3 * nt + 2] = r;
            nt += fr;
            s[w] = a;
            d[w] = b;
            idx[w] = r;
            w += !fr;
        }
        if (w == mc)
            break; /* no progress possible: freeze the rest as-is */
        mc = w;

        /* Rate the frozen flows and decrement their channels, queueing
         * each channel on its first decrement this round (when its
         * count still equals its class's); the queue overwrites the
         * triples behind the read cursor.  The frozen flows share one
         * rate, so their least remaining over it is their horizon. */
        nf = nt;
        nt = 0;
        rmin = INFINITY;
        for (i = 0; i < nf; i++) {
            uint32_t a = touch[3 * i], b = touch[3 * i + 1];
            uint32_t r = touch[3 * i + 2];
            double rv = remaining[r];
            rate[r] = level;
            if (rv < rmin)
                rmin = rv;
            touch[nt] = a;
            nt += chcnt[a] == ccnt[chcls[a]];
            chcnt[a]--;
            touch[nt] = b;
            nt += chcnt[b] == ccnt[chcls[b]];
            chcnt[b]--;
        }
        if (level > 0.0 && rmin / level < horizon)
            horizon = rmin / level;

        /* Move each queued channel to its child class (or out, at
         * count 0), then rebuild the live list: the classes that kept
         * members and this round's children. */
        base = ncls;
        for (j = 0; j < nt; j++) {
            uint32_t ch = touch[j], p = chcls[ch], n = chcnt[ch], q;
            nmem[p]--;
            if (n == 0)
                continue;
            for (q = kid[p]; q != NONE && ccnt[q] != n; q = sib[q])
                ;
            if (q == NONE) {
                q = ncls++;
                head[q] = head[p];
                ccnt[q] = n;
                nmem[q] = 0;
                kid[q] = NONE;
                sib[q] = kid[p];
                kid[p] = q;
            }
            nmem[q]++;
            chcls[ch] = q;
        }
        for (j = 0, k = 0; j < nlive; j++) {
            uint32_t p = live[j];
            kid[p] = NONE;
            live[k] = p;
            k += nmem[p] != 0;
        }
        for (j = base; j < ncls; j++)
            live[k++] = j;
        nlive = k;
    }
    /* Flows still active at exit (core exhausted, or no progress)
     * keep the final water level. */
    rmin = INFINITY;
    for (i = 0; i < mc; i++) {
        double rv = remaining[idx[i]];
        rate[idx[i]] = level;
        if (rv < rmin)
            rmin = rv;
    }
    if (level > 0.0 && rmin / level < horizon)
        horizon = rmin / level;
    return horizon;
}
