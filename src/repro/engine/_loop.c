/*
 * The simulator's event loop for a declared pairwise rule, compiled.
 *
 * repro.engine.compiled builds this file into a shared library on first
 * use and Simulator.run drives it through ctypes, one call per clock
 * batch.  It must stay bit-identical to the generic on_tick loop in
 * Simulator.run: the same float expressions in the same order, the
 * variance recomputed only on applied updates, and per event the
 * crossing, target, divergence and max-time checks in that order.  It
 * is built with -ffp-contract=off, so no multiply-add is fused.
 *
 * The exact refresh of the running sums every recompute_every updates
 * stays in Python (numpy's pairwise sum and the BLAS dot): run_batch
 * returns LOOP_REFRESH with the event's position saved, and the next
 * call resumes at that event's variance step.
 */

#include <stdint.h>

/* Op codes: SparseCutRule's edge classes, then the other rules. */
enum {
    OP_SILENCED = 0,
    OP_MEAN = 1,
    OP_DESIGNATED = 2,
    OP_CONVEX = 3,
    OP_PUSH = 4,
    OP_SECOND_ORDER = 5,
    OP_RANDOM_CONVEX = 6,
    OP_SLOW = 7
};

/* What run_batch returns. */
enum {
    LOOP_BATCH_DONE = 0,
    LOOP_REFRESH = 1,
    LOOP_TARGET = 2,
    LOOP_DIVERGED = 3,
    LOOP_MAX_TIME = 4
};

/* Field order and types must match repro.engine.compiled.LoopState. */
typedef struct {
    /* The graph and the rule, fixed for the run. */
    const int8_t *ops;              /* op code per edge */
    const int64_t *edges_u;
    const int64_t *edges_v;
    double *x;                      /* the values, updated in place */
    double alpha;                   /* convex */
    double momentum;                /* second-order beta */
    double slow_step;               /* two-timescale */
    double tau;
    int64_t harmonic;
    const int64_t *swap_a;          /* per designated edge, else unused */
    const int64_t *swap_b;
    const double *swap_gain;
    const int64_t *swap_epoch;
    int64_t *swap_ticks;
    int64_t *swaps_fired;
    double *mass;                   /* push-sum */
    double *weight;
    double *previous;               /* second-order */
    /* Crossings and stop rules. */
    int64_t n_thresholds;
    const double *thr_abs;          /* descending */
    double *first_below;
    int8_t *below_seen;             /* first_below[i] is set */
    double *last_above;
    int64_t has_target;
    double target_abs;
    int64_t has_divergence;
    double divergence_abs;
    int64_t has_max_time;
    double max_time;
    double inv_n;
    /* Progress, carried from call to call. */
    int64_t n_events;
    int64_t n_updates;
    int64_t next_recompute;
    int64_t cut_ticks;
    int64_t position;               /* batch index to start at */
    int64_t resume;                 /* start at position's variance step */
    double total;
    double square_sum;
    double variance;
    double now;
} LoopState;

/*
 * Run events times[position:length] / edges[position:length].  draws
 * holds one value per event of the batch for a rule that draws per tick
 * (push-sum's coin, random convex's alpha), else it is NULL.  Returns at
 * the batch's end, at a refresh boundary or at a stop, with the state
 * saved; now is the last event's time.
 */
int run_batch(LoopState *s, const double *times, const int64_t *edges,
              int64_t length, const double *draws)
{
    const int8_t *ops = s->ops;
    const int64_t *edges_u = s->edges_u;
    const int64_t *edges_v = s->edges_v;
    double *x = s->x;
    const double alpha = s->alpha;
    const double beta = 1.0 - s->alpha;
    const double momentum = s->momentum;
    const double memory = 1.0 - s->momentum;
    const double slow_step = s->slow_step;
    const double tau = s->tau;
    const int64_t harmonic = s->harmonic;
    double *mass = s->mass;
    double *weight = s->weight;
    double *previous = s->previous;
    const int64_t n_thresholds = s->n_thresholds;
    const double *thr_abs = s->thr_abs;
    double *first_below = s->first_below;
    int8_t *below_seen = s->below_seen;
    double *last_above = s->last_above;
    const int64_t has_target = s->has_target;
    const double target_abs = s->target_abs;
    const int64_t has_divergence = s->has_divergence;
    const double divergence_abs = s->divergence_abs;
    const int64_t has_max_time = s->has_max_time;
    const double max_time = s->max_time;
    const double inv_n = s->inv_n;
    const int64_t next_recompute = s->next_recompute;
    int64_t n_events = s->n_events;
    int64_t n_updates = s->n_updates;
    int64_t cut_ticks = s->cut_ticks;
    double total = s->total;
    double square_sum = s->square_sum;
    double variance = s->variance;
    double t = s->now;
    int64_t i = s->position;
    int status = LOOP_BATCH_DONE;

    if (s->resume) {
        s->resume = 0;
        t = times[i];
        goto refreshed;
    }
    for (; i < length; i++) {
        const int64_t e = edges[i];
        const int64_t u = edges_u[e];
        const int64_t v = edges_v[e];
        const double old_u = x[u];
        const double old_v = x[v];
        double new_u, new_v;
        t = times[i];
        n_events++;
        switch (ops[e]) {
        case OP_MEAN:
            new_u = new_v = 0.5 * (old_u + old_v);
            break;
        case OP_CONVEX:
            new_u = alpha * old_u + beta * old_v;
            new_v = alpha * old_v + beta * old_u;
            break;
        case OP_PUSH: {
            int64_t sender, receiver;
            if (draws[i] < 0.5) {
                sender = u;
                receiver = v;
            } else {
                sender = v;
                receiver = u;
            }
            const double half_mass = 0.5 * mass[sender];
            const double half_weight = 0.5 * weight[sender];
            mass[sender] = half_mass;
            weight[sender] = half_weight;
            mass[receiver] += half_mass;
            weight[receiver] += half_weight;
            new_u = mass[u] / weight[u];
            new_v = mass[v] / weight[v];
            break;
        }
        case OP_SECOND_ORDER: {
            const double pair_mean = 0.5 * (old_u + old_v);
            new_u = momentum * pair_mean + memory * previous[u];
            new_v = momentum * pair_mean + memory * previous[v];
            previous[u] = old_u;
            previous[v] = old_v;
            break;
        }
        case OP_RANDOM_CONVEX: {
            const double a = draws[i];
            const double b = 1.0 - a;
            new_u = a * old_u + b * old_v;
            new_v = a * old_v + b * old_u;
            break;
        }
        case OP_SLOW: {
            double step = slow_step;
            cut_ticks++;
            if (harmonic)
                step = slow_step / (1.0 + (double)(cut_ticks - 1) / tau);
            new_u = old_u + step * (old_v - old_u);
            new_v = old_v + step * (old_u - old_v);
            break;
        }
        case OP_DESIGNATED: {
            const int64_t count = ++s->swap_ticks[e];
            if (count % s->swap_epoch[e] != 0)
                goto checks;
            s->swaps_fired[e]++;
            const int64_t a = s->swap_a[e];
            const int64_t b = s->swap_b[e];
            const double transfer = s->swap_gain[e] * (x[b] - x[a]);
            const double new_a = x[a] + transfer;
            const double new_b = x[b] - transfer;
            if (u == a) {
                new_u = new_a;
                new_v = new_b;
            } else {
                new_u = new_b;
                new_v = new_a;
            }
            break;
        }
        default: /* OP_SILENCED */
            goto checks;
        }
        square_sum += new_u * new_u + new_v * new_v - old_u * old_u - old_v * old_v;
        total += new_u + new_v - old_u - old_v;
        x[u] = new_u;
        x[v] = new_v;
        n_updates++;
        if (n_updates >= next_recompute) {
            status = LOOP_REFRESH;
            s->resume = 1;
            break;
        }
    refreshed: {
            const double mean = total * inv_n;
            variance = square_sum * inv_n - mean * mean;
            if (variance < 0.0) /* floating-point undershoot near 0 */
                variance = 0.0;
        }
    checks:
        for (int64_t k = 0; k < n_thresholds; k++) {
            if (variance > thr_abs[k]) {
                last_above[k] = t;
            } else if (!below_seen[k]) {
                below_seen[k] = 1;
                first_below[k] = t;
            }
        }
        if (has_target && variance <= target_abs) {
            status = LOOP_TARGET;
            break;
        }
        if (has_divergence && (variance > divergence_abs || variance != variance)) {
            status = LOOP_DIVERGED;
            break;
        }
        if (has_max_time && t >= max_time) {
            status = LOOP_MAX_TIME;
            break;
        }
    }
    s->n_events = n_events;
    s->n_updates = n_updates;
    s->cut_ticks = cut_ticks;
    s->total = total;
    s->square_sum = square_sum;
    s->variance = variance;
    s->position = i;
    s->now = t;
    return status;
}
