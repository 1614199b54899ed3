/* One BatchedMesh step (one VC, per-lane rr/age arbiters, wormhole
 * locks) on the kernel's own flat int64 arrays.
 *
 * Compiled on first use by repro.noc.mesh.onevc_step and called through
 * ctypes.  It must leave every array exactly as the NumPy step
 * (fastmesh.BatchedMesh._numpy_step followed by _flush_stats) leaves
 * it; the loader checks that in lockstep before it installs a build.
 * The rules that make it exact (DESIGN.md section 12, "Compiled step"):
 *
 *  - every grant is computed from pre-cycle state (buffer lengths, head
 *    caches, locks) before any flit moves;
 *  - grants are applied in ascending output-slot order, so tails are
 *    recorded in the NumPy step's order;
 *  - injections read the local buffers' lengths after the pops
 *    (forwards never target a local port);
 *  - deferred packets are enqueued one at a time in inject order, the
 *    i-th with age key b0 + i: the same queues as the stable sort;
 *  - latencies are folded as doubles: they are integer-valued and far
 *    below 2**53, so no summation order changes a sum.
 *
 * The source-queue flush runs first: it touches only the queues, the
 * moves only the router buffers, so the order swap changes nothing and
 * a ring that must grow is reported before anything is written.
 */

#include <stdint.h>

typedef int64_t i64;

/* The flit and packed-code layout is repro.noc.mesh.lanes's: the loader
 * passes it as -D flags (onevc_step._flags), never copied here. */
#if !defined(NUM_PORTS) || !defined(F_HEAD) || !defined(F_TAIL) \
    || !defined(A_DST_SHIFT) || !defined(A_SRC_SHIFT) \
    || !defined(A_SRC_MASK) || !defined(A_FLG_MASK) \
    || !defined(PEND_SIZE_SHIFT) || !defined(PEND_Q_SHIFT) \
    || !defined(STEP_GROW)
#error "build through repro.noc.mesh.onevc_step: it supplies the layout"
#endif

#define PEND_A_MASK ((((i64)1) << PEND_SIZE_SHIFT) - 1)
#define PEND_SIZE_MASK ((((i64)1) << (PEND_Q_SHIFT - PEND_SIZE_SHIFT)) - 1)

/* STEP_GROW (a -D flag): a source ring must grow first */
#define STEP_BAD_QUEUE (-2) /* a deferred packet names no queue */

/* Field order mirrors onevc_step._Context (that module's text enters
 * the build's name). */
typedef struct {
    i64 slots, n, batch, depth, queues, cap;
    /* router state, G = batch * slots input/output slots */
    i64 *rf_a, *rf_b;       /* rings, G * depth */
    i64 *hd, *ln;           /* ln has G + 1 entries: ln[G] stays 0 */
    i64 *h_a, *h_b, *h_out; /* head caches */
    i64 *lock, *body_out, *arb_row;
    /* topology (per slot: downstream slot, node, node * n, lane) and
     * the arbitration tables */
    const i64 *nbr_g, *node_f, *rtbase_f, *lane_f, *route, *pick, *next_row;
    /* source queues */
    i64 *qa, *qb, *qhd, *qln;
    /* per-lane delivery statistics */
    i64 *d_count;
    double *d_lat_sum, *d_lat_min, *d_lat_max;
    i64 *d_by_src;
    double *d_lat_by_src;
    i64 *flits_delivered;
    /* scratch: per-queue flit counts (zero between calls), grants (G),
     * their masks (G), touched slots (2G + queues) and the ejected
     * tails (4 rows of G: lane, node, source node, flags) */
    i64 *need, *grants, *gmask, *touched, *tails;
} onevc_ctx;

/* ``pos % size`` for 0 <= pos < 2 * size: every ring index here is a
 * head (< size) plus a length (<= size), or a head plus one */
static i64 wrap(i64 pos, i64 size)
{
    return pos >= size ? pos - size : pos;
}

static i64 flush(onevc_ctx *c, const i64 *codes, i64 k, i64 b0)
{
    i64 i, q, size;
    int grow = 0;
    for (i = 0; i < k; i++) {
        q = codes[i] >> PEND_Q_SHIFT;
        if (q < 0 || q >= c->queues)
            return STEP_BAD_QUEUE;
    }
    for (i = 0; i < k; i++)
        c->need[codes[i] >> PEND_Q_SHIFT] +=
            ((codes[i] >> PEND_SIZE_SHIFT) & PEND_SIZE_MASK) + 1;
    for (i = 0; i < k; i++) {
        q = codes[i] >> PEND_Q_SHIFT;
        if (c->need[q]) {
            if (c->qln[q] + c->need[q] > c->cap)
                grow = 1;
            c->need[q] = 0;
        }
    }
    if (grow)
        return STEP_GROW;
    for (i = 0; i < k; i++) {
        i64 a = codes[i] & PEND_A_MASK, f, pos;
        q = codes[i] >> PEND_Q_SHIFT;
        size = ((codes[i] >> PEND_SIZE_SHIFT) & PEND_SIZE_MASK) + 1;
        for (f = 0; f < size; f++) {
            pos = q * c->cap + wrap(c->qhd[q] + c->qln[q], c->cap);
            c->qa[pos] = a | (f == 0 ? F_HEAD : 0)
                         | (f == size - 1 ? F_TAIL : 0);
            c->qb[pos] = b0 + i;
            c->qln[q] += 1;
        }
    }
    return 0;
}

static void push(onevc_ctx *c, i64 g, i64 a, i64 b)
{
    i64 pos = g * c->depth + wrap(c->hd[g] + c->ln[g], c->depth);
    c->rf_a[pos] = a;
    c->rf_b[pos] = b;
    c->ln[g] += 1;
}

/* Advance every lane one cycle.  ``codes`` holds the ``k`` deferred
 * packets in inject order; the i-th gets age key ``b0 + i``.  Returns
 * the number of tails ejected (written to ``tails``), or STEP_GROW /
 * STEP_BAD_QUEUE with nothing changed. */
i64 onevc_step(onevc_ctx *c, i64 cycle, i64 wormhole, const i64 *codes,
               i64 k, i64 b0)
{
    const i64 slots = c->slots, n = c->n, depth = c->depth;
    const i64 G = c->batch * slots;
    i64 ng = 0, nt = 0, ntails = 0, r, i, q;
    i64 *tl = c->tails, *tn = c->tails + G, *ts = c->tails + 2 * G,
        *tf = c->tails + 3 * G;

    if (k) {
        i64 err = flush(c, codes, k, b0);
        if (err)
            return err;
    }

    /* ---- schedule: contenders per output, credit from pre-cycle ln */
    for (r = 0; r < G; r += NUM_PORTS) {
        i64 mask[NUM_PORTS] = {0, 0, 0, 0, 0};
        int any = 0, p;
        for (p = 0; p < NUM_PORTS; p++) {
            i64 g = r + p, out;
            if (!c->ln[g])
                continue;
            out = c->h_out[g];
            if (wormhole) {
                i64 lv = c->lock[r + out];
                if (lv != -1 && lv != c->h_b[g])
                    continue;
            }
            mask[out] |= (i64)1 << p;
            any = 1;
        }
        if (!any)
            continue;
        for (p = 0; p < NUM_PORTS; p++) {
            if (mask[p] && c->ln[c->nbr_g[r + p]] < depth) {
                c->grants[ng] = r + p;
                c->gmask[ng] = mask[p];
                ng++;
            }
        }
    }

    /* ---- apply the grants in output-slot order ---------------------- */
    for (i = 0; i < ng; i++) {
        i64 og = c->grants[i], mg = c->gmask[i];
        i64 port = og % NUM_PORTS, base = og - port;
        i64 row = c->arb_row[og] + mg, win = c->pick[row];
        i64 src, fa, fb, down;
        c->arb_row[og] = c->next_row[row];
        if (win < 0) {
            /* contended age output: the oldest head (min B) wins */
            i64 best = INT64_MAX, p;
            win = 0;
            for (p = 0; p < NUM_PORTS; p++) {
                if (mg >> p & 1 && c->h_b[base + p] < best) {
                    best = c->h_b[base + p];
                    win = p;
                }
            }
        }
        src = base + win;
        fa = c->h_a[src];
        fb = c->h_b[src];
        if (wormhole) {
            c->lock[og] = (fa & F_TAIL) ? -1 : fb;
            c->body_out[src] = port;
        }
        c->hd[src] = wrap(c->hd[src] + 1, depth);
        c->ln[src] -= 1;
        c->touched[nt++] = src;
        down = c->nbr_g[og];
        if (down == G) {
            i64 lane = c->lane_f[og];
            c->flits_delivered[lane] += 1;
            if (!wormhole || (fa & F_TAIL)) {
                i64 sn = (fa >> A_SRC_SHIFT) & A_SRC_MASK;
                double lat = (double)(cycle - (fb >> 32));
                c->d_count[lane] += 1;
                c->d_lat_sum[lane] += lat;
                if (lat < c->d_lat_min[lane])
                    c->d_lat_min[lane] = lat;
                if (lat > c->d_lat_max[lane])
                    c->d_lat_max[lane] = lat;
                c->d_by_src[lane * n + sn] += 1;
                c->d_lat_by_src[lane * n + sn] += lat;
                tl[ntails] = lane;
                tn[ntails] = c->node_f[og];
                ts[ntails] = sn;
                tf[ntails] = fa & A_FLG_MASK;
                ntails++;
            }
        } else {
            push(c, down, fa, fb);
            c->touched[nt++] = down;
        }
    }

    /* ---- injection: one flit per node, on post-pop local lengths ---- */
    for (q = 0; q < c->queues; q++) {
        i64 g = q * NUM_PORTS, qi;
        if (!c->qln[q] || c->ln[g] >= depth)
            continue;
        qi = q * c->cap + c->qhd[q];
        push(c, g, c->qa[qi], c->qb[qi]);
        c->qhd[q] = wrap(c->qhd[q] + 1, c->cap);
        c->qln[q] -= 1;
        c->touched[nt++] = g;
    }

    /* ---- head caches of every slot a flit left or entered ----------- */
    for (i = 0; i < nt; i++) {
        i64 g = c->touched[i], ri = g * depth + c->hd[g], na, rt;
        na = c->rf_a[ri];
        c->h_a[g] = na;
        c->h_b[g] = c->rf_b[ri];
        rt = c->route[c->rtbase_f[g] + (na >> A_DST_SHIFT)];
        c->h_out[g] = (!wormhole || (na & F_HEAD)) ? rt : c->body_out[g];
    }
    return ntails;
}
