/* One BatchedMesh step (one VC, per-lane rr/age arbiters, wormhole
 * locks) on the kernel's own flat int64 arrays, and the run around it.
 *
 * Compiled on first use by repro.noc.mesh.onevc_step and called through
 * ctypes.  The step must leave every array exactly as the NumPy step
 * (fastmesh.BatchedMesh._numpy_step followed by _flush_stats) leaves
 * it, and the run exactly as fastmesh's Python loop (the feeds, the
 * memory controllers and the collect around that step) leaves it; the
 * loader checks both in lockstep before it installs a build.  The rules
 * that make the step exact (DESIGN.md section 12, "Compiled step"):
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
 * a ring that must grow is reported before anything is written.  The
 * run's rules are at onevc_run below.
 */

#include <stdint.h>

typedef int64_t i64;

/* The flit and packed-code layout is repro.noc.mesh.lanes's: the loader
 * passes it as -D flags (onevc_step._flags), never copied here. */
#if !defined(NUM_PORTS) || !defined(F_HEAD) || !defined(F_TAIL) \
    || !defined(A_DST_SHIFT) || !defined(A_SRC_SHIFT) \
    || !defined(A_SRC_MASK) || !defined(A_FLG_MASK) \
    || !defined(PEND_SIZE_SHIFT) || !defined(PEND_Q_SHIFT) \
    || !defined(STEP_GROW) || !defined(F_REPLY) || !defined(PID_LIMIT) \
    || !defined(RUN_NO_IDS)
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
static i64 step(onevc_ctx *c, i64 cycle, i64 wormhole, const i64 *codes,
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

i64 onevc_step(onevc_ctx *c, i64 cycle, i64 wormhole, const i64 *codes,
               i64 k, i64 b0)
{
    return step(c, cycle, wormhole, codes, k, b0);
}

/* ------------------------------------------------------------------------
 * The compiled run: traffic sources, memory controllers and the cycle
 * loop around the step (DESIGN.md section 12, "Compiled run").
 * ---------------------------------------------------------------------- */

typedef uint64_t u64;

/* A lane's traffic stream is numpy's PCG64 (128-bit LCG, XSL-RR output)
 * as six words: state high, state low, increment high, increment low,
 * and the bit generator's 32-bit buffer (has_uint32, uinteger). */
enum { S_HI, S_LO, S_INC_HI, S_INC_LO, S_HAS32, S_BUF32, STREAM_WORDS };

#define PCG_MUL_HI 0x2360ED051FC65DA4ULL
#define PCG_MUL_LO 0x4385DF649FCCF645ULL

/* the high 64 bits of a * b */
static u64 mulhi(u64 a, u64 b)
{
    u64 a0 = a & 0xFFFFFFFFULL, a1 = a >> 32;
    u64 b0 = b & 0xFFFFFFFFULL, b1 = b >> 32;
    u64 p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    u64 mid = (p00 >> 32) + (p01 & 0xFFFFFFFFULL) + (p10 & 0xFFFFFFFFULL);
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* bit_generator.random_raw(): step the LCG, then output from the new
 * state */
static u64 next64(u64 *s)
{
    u64 lo = s[S_LO] * PCG_MUL_LO;
    u64 hi = mulhi(s[S_LO], PCG_MUL_LO) + s[S_LO] * PCG_MUL_HI
             + s[S_HI] * PCG_MUL_LO;
    u64 sum = lo + s[S_INC_LO], x;
    unsigned rot;
    hi += s[S_INC_HI] + (sum < lo);
    s[S_HI] = hi;
    s[S_LO] = sum;
    x = hi ^ sum;
    rot = (unsigned)(hi >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* Generator.random(): one raw word, bypassing the 32-bit buffer */
static double next_double(u64 *s)
{
    return (double)(next64(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* the low half of a fresh word first, the stashed high half next */
static u64 next32(u64 *s)
{
    u64 word;
    if (s[S_HAS32]) {
        s[S_HAS32] = 0;
        return s[S_BUF32];
    }
    word = next64(s);
    s[S_HAS32] = 1;
    s[S_BUF32] = word >> 32;
    return word & 0xFFFFFFFFULL;
}

/* Generator.integers(n) for 1 <= n <= 2**32: numpy's buffered 32-bit
 * Lemire sampler (n == 1 draws nothing) */
static i64 next_below(u64 *s, u64 n)
{
    u64 m, leftover, threshold;
    if (n == 1)
        return 0;
    m = next32(s) * n;
    leftover = m & 0xFFFFFFFFULL;
    if (leftover < n) {
        threshold = (0x100000000ULL - n) % n;
        while (leftover < threshold) {
            m = next32(s) * n;
            leftover = m & 0xFFFFFFFFULL;
        }
    }
    return (i64)(m >> 32);
}

/* Replay ``count`` draws on one stream: ``ns[i]`` 0 is random(), else
 * integers(ns[i]).  The stream check uses it. */
void onevc_draws(i64 *stream, const i64 *ns, i64 count, double *out)
{
    u64 *s = (u64 *)stream;
    i64 i;
    for (i = 0; i < count; i++)
        out[i] = ns[i] ? (double)next_below(s, (u64)ns[i]) : next_double(s);
}

#define RUN_NO_ROOM (-4) /* a scratch bound was wrong: nothing is run */

/* Field order mirrors onevc_step._RunContext. */
typedef struct {
    /* position: the next cycle, and whether its feeds already ran (a
     * ring grew after them); the k codes of that cycle and their first
     * age key; the packet-id counter and the wormhole flag */
    i64 cycle, fed, k, b0, next_pid, wormhole, ntails;
    /* traffic sources, fed in order every cycle */
    i64 nsrc, codes_cap;
    /* the reply pair: nmc controllers (0: none) ticking every cycle;
     * request tails on request_lane become work */
    i64 nmc, window, reply_flits, service, limit, reply_base, request_lane,
        pcap, busy_in_window, nsamples;
    const i64 *src_maxb;
    const double *src_rate;         /* < 0: a greedy source */
    const i64 *src_node_off, *node_q, *node_code, *src_mc_off, *mc_code;
    i64 *stream;                    /* STREAM_WORDS per source */
    const i64 *mc_node, *mc_of_node;
    i64 *mc_cool, *mc_busy, *mc_served, *mc_head, *mc_tail, *mc_pend;
    double *samples;
    /* this cycle's codes, and this cycle's deferred flits per queue
     * (zero between cycles) */
    i64 *codes, *qpend;
} onevc_run_ctx;

static i64 defer(onevc_run_ctx *r, i64 code, i64 size)
{
    if (r->k == r->codes_cap)
        return RUN_NO_ROOM;
    r->codes[r->k++] = code;
    r->qpend[code >> PEND_Q_SHIFT] += size;
    return 0;
}

/* One cycle of every source, then one tick of every controller. */
static i64 feed(onevc_ctx *c, onevc_run_ctx *r, i64 cycle)
{
    i64 s, m, i;
    r->k = 0;
    for (s = 0; s < r->nsrc; s++) {
        u64 *st = (u64 *)r->stream + s * STREAM_WORDS;
        const i64 *mc = r->mc_code + r->src_mc_off[s];
        u64 n_mc = (u64)(r->src_mc_off[s + 1] - r->src_mc_off[s]);
        double rate = r->src_rate[s];
        i64 maxb = r->src_maxb[s];
        for (i = r->src_node_off[s]; i < r->src_node_off[s + 1]; i++) {
            /* start-of-cycle backlog: a node is visited once a cycle */
            i64 have = c->qln[r->node_q[i]];
            if (rate < 0) {
                for (; have < maxb; have++)
                    if (defer(r, r->node_code[i] | mc[next_below(st, n_mc)],
                              1))
                        return RUN_NO_ROOM;
            } else if (next_double(st) < rate && have < maxb) {
                if (defer(r, r->node_code[i] | mc[next_below(st, n_mc)], 1))
                    return RUN_NO_ROOM;
            }
        }
    }
    if (r->nmc) {
        i64 probe = r->mc_busy[0];
        for (m = 0; m < r->nmc; m++) {
            i64 node = r->mc_node[m], q = r->reply_base + node, requester;
            if (r->mc_cool[m] > 0) {
                r->mc_cool[m] -= 1;
                r->mc_busy[m] += 1;
                continue;
            }
            if (r->mc_head[m] == r->mc_tail[m])
                continue;
            /* backpressure: the reply queue, this cycle's replies too */
            if ((c->qln[q] + r->qpend[q]) / r->reply_flits >= r->limit)
                continue;
            requester = r->mc_pend[m * r->pcap + r->mc_head[m]];
            if (defer(r, (q << PEND_Q_SHIFT)
                      | ((r->reply_flits - 1) << PEND_SIZE_SHIFT)
                      | (requester << A_DST_SHIFT) | (node << A_SRC_SHIFT)
                      | F_REPLY, r->reply_flits))
                return RUN_NO_ROOM;
            r->mc_head[m] += 1;
            if (r->reply_flits > 1)
                r->wormhole = 1;
            r->mc_served[m] += 1;
            r->mc_cool[m] = r->service - 1;
            r->mc_busy[m] += 1;
        }
        r->busy_in_window += r->mc_busy[0] - probe;
    }
    for (i = 0; i < r->k; i++)
        r->qpend[r->codes[i] >> PEND_Q_SHIFT] = 0;
    return 0;
}

/* Request tails delivered at a controller become its work, in eject
 * order; a finished window becomes one utilisation sample. */
static i64 collect(onevc_ctx *c, onevc_run_ctx *r, i64 cycle)
{
    const i64 G = c->batch * c->slots;
    const i64 *tl = c->tails, *tn = c->tails + G, *ts = c->tails + 2 * G,
              *tf = c->tails + 3 * G;
    i64 t, m;
    for (t = 0; t < r->ntails; t++) {
        if (tl[t] != r->request_lane || tf[t] & F_REPLY)
            continue;
        m = r->mc_of_node[tn[t]];
        if (m < 0)
            continue;
        if (r->mc_tail[m] == r->pcap)
            return RUN_NO_ROOM;
        r->mc_pend[m * r->pcap + r->mc_tail[m]] = ts[t];
        r->mc_tail[m] += 1;
    }
    if ((cycle + 1) % r->window == 0) {
        r->samples[r->nsamples++] =
            (double)r->busy_in_window / (double)r->window;
        r->busy_in_window = 0;
    }
    return 0;
}

/* Run cycles r->cycle .. stop-1 as fastmesh's Python loop does:
 *
 *  - the sources in list order, each node in order: a Bernoulli source
 *    draws one random() per node and, on accept below the backlog cap,
 *    one integers(n_mc); a greedy one tops its queue up, one integers()
 *    per packet.  The backlog is the queue's length at the start of the
 *    cycle (queues change only inside the step);
 *  - then every controller once, in placement order: cooldown, the FIFO
 *    of pending requests, and backpressure on its reply queue counting
 *    this cycle's replies; the first controller's busy cycles feed the
 *    window samples;
 *  - the step, with this cycle's codes in append order;
 *  - the collect: request tails delivered at a controller join its FIFO
 *    in eject order.
 *
 * Returns 0 at ``stop``; STEP_GROW when a source ring must grow (the
 * cycle's feeds and ids are kept, so the next call resumes at its step);
 * RUN_NO_IDS when the packet ids run out; another negative code on an
 * error. */
i64 onevc_run(onevc_ctx *c, onevc_run_ctx *r, i64 stop)
{
    while (r->cycle < stop) {
        i64 cycle = r->cycle, res;
        if (!r->fed) {
            res = feed(c, r, cycle);
            if (res)
                return res;
            if (r->next_pid + r->k > PID_LIMIT)
                return RUN_NO_IDS;
            r->b0 = (cycle << 32) | r->next_pid;
            r->next_pid += r->k;
            r->fed = 1;
        }
        res = step(c, cycle, r->wormhole, r->codes, r->k, r->b0);
        if (res < 0)
            return res;
        r->fed = 0;
        r->ntails = res;
        if (r->nmc) {
            res = collect(c, r, cycle);
            if (res)
                return res;
        }
        r->cycle = cycle + 1;
    }
    return 0;
}
