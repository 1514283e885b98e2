/* Hop 3's leaf-bound sweep over a candidate set in kd-tree leaf order, and
 * the kd-tree order itself.
 *
 * emb is the (dim, n) block of the set, ids its entity ids, found[i] 0 where
 * member i has no embedding (it scores -inf). Leaf l holds members l * leaf
 * up to (l + 1) * leaf, the last leaf fewer; lo, hi (leaves, dim) are the
 * per-dimension min and max of its found members, +inf and -inf when it has
 * none. comps is (rows, dim). The caller's worker takes leaves first,
 * first + step, ...; pos, out (rows, kk) get each row's best kk of them by
 * (score desc, id asc).
 *
 * A score is gamma - sum_j |x_j - c_j|, summed j ascending like the numpy
 * kernel's; a vector lane holds one member, so the bits match.
 *
 * The bound. For member x of a leaf, lo_j <= x_j <= hi_j, so
 *   |x_j - c_j| >= g_j = max(0, lo_j - c_j, c_j - hi_j)
 * also after rounding: rounded subtraction is monotone in each argument, and
 * fabs(x - c) is c - x rounded when x < c. Rounded addition is monotone too,
 * so the L1 sum, taken j ascending, is >= the sum of the g_j taken j
 * ascending, and gamma minus it <= the bound gamma - sum_j g_j. A leaf with
 * no found member has g_j = +inf and bound -inf, which its -inf scores meet.
 *
 * Two rules keep the sweep exact:
 *  - A (leaf, row) pair is skipped only when the row is full and the bound
 *    is strictly below the row's k-th score: a member scoring equal to the
 *    k-th may still enter by a lower id.
 *  - A member enters a full row when its score is above the worst, or ties
 *    it with a lower id, and is inserted by (score desc, id asc). Leaf order
 *    is not id order, so ids, never positions, break ties.
 *
 * The leaf test. Once a leaf's members are scored against a full row, one
 * branch-free pass takes their least L1 sum; when gamma minus it is below
 * the row's k-th score, no member can enter and the row is left as it was.
 * gamma minus a sum is monotone in the sum, so that is the leaf's best
 * score, rounding included. A member with no embedding counts by its zero
 * column, which can only overstate its -inf. A member equal to the k-th
 * score may still enter by a lower id, so the test keeps it: >=, not >.
 *
 * Buffers. score_leaf's pointers are restrict: the layout (emb, found, ids),
 * the composite, the scratch scores, the row's fill and the row (pos, sc)
 * never overlap one another. leaf_topk's caller passes pos and out apart
 * from the layout and the composites, and its scratch is its own malloc,
 * so each call, and each thread, has its own.
 *
 * The sweep is leaf-major: each row first scores its SEEDS best-bound
 * leaves, best first and only while their bound reaches its k-th score,
 * which fills it and sets its threshold; then each leaf is visited
 * once and scored for every row whose threshold its bound reaches, while
 * its block stays in cache. The bounds and the seeded marks are stored leaf
 * by leaf, so the rows of one leaf sit side by side.
 *
 * SEEDS sets how close the threshold starts to the row's final k-th score,
 * and so how many pairs the sweep scores. On paper-scale generator data
 * (50 composites, 40,000 candidates, 60 queries per seed, seeds 1-10 and
 * 201-205) 4 seeds scored 0.360-0.494 of the pairs, depending on the seed,
 * and 32 scored 0.336-0.368, against 0.323-0.351 for the leaves whose bound
 * reaches the final k-th score. Scoring 32 seeds per row costs no more than
 * it saves. */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#define SEEDS 32
#define SPREAD_SAMPLE 512

static double leaf_bound(const double *lo, const double *hi, const double *c, int64_t dim,
                         double gamma)
{
    double gap = 0.0;
    for (int64_t j = 0; j < dim; j++) {
        double below = lo[j] - c[j], above = c[j] - hi[j];
        double g = below > above ? below : above;
        gap += g > 0.0 ? g : 0.0;
    }
    return gamma - gap;
}

/* Score members a .. a + m of the block against c into row (pos, sc) of fill
 * *cnt; acc is scratch for their m sums. No buffer overlaps another (see the
 * header), so restrict lets the loops run without alias checks and keep *cnt
 * and the k-th score in registers. */
static void score_leaf(const double *restrict emb, const uint8_t *restrict found,
                       const uint64_t *restrict ids, int64_t n, int64_t a, int64_t m,
                       const double *restrict c, int64_t dim, double gamma,
                       double *restrict acc, int64_t kk, int64_t *restrict cnt,
                       int64_t *restrict pos, double *restrict sc)
{
    for (int64_t i = 0; i < m; i++)
        acc[i] = fabs(emb[a + i] - c[0]);
    for (int64_t j = 1; j < dim; j++)
        for (int64_t i = 0; i < m; i++)
            acc[i] += fabs(emb[j * n + a + i] - c[j]);
    if (*cnt == kk) { /* the leaf test, as the header states it */
        double near = INFINITY;
        for (int64_t i = 0; i < m; i++)
            near = acc[i] < near ? acc[i] : near;
        if (!(gamma - near >= sc[kk - 1]))
            return;
    }
    for (int64_t i = 0; i < m; i++) {
        int64_t cand = a + i, p = *cnt;
        uint64_t id = ids[cand];
        double s = found[cand] ? gamma - acc[i] : -INFINITY;
        if (p == kk) {
            if (!(s > sc[kk - 1] || (s == sc[kk - 1] && id < ids[pos[kk - 1]])))
                continue;
            p = kk - 1;
        } else {
            (*cnt)++;
        }
        for (; p > 0 && (sc[p - 1] < s || (sc[p - 1] == s && ids[pos[p - 1]] > id)); p--) {
            sc[p] = sc[p - 1];
            pos[p] = pos[p - 1];
        }
        sc[p] = s;
        pos[p] = cand;
    }
}

/* Returns the number of (member, row) pairs skipped, or -1 when scratch
 * memory cannot be had. */
int64_t leaf_topk(const double *emb, const uint8_t *found, const uint64_t *ids, int64_t n,
                  int64_t leaf, const double *lo, const double *hi, int64_t first, int64_t step,
                  const double *comps, int64_t rows, int64_t dim, double gamma, int64_t kk,
                  int64_t *pos, double *out)
{
    int64_t leaves = (n + leaf - 1) / leaf;
    int64_t mine = first < leaves ? (leaves - first + step - 1) / step : 0;
    if (kk <= 0 || mine == 0)
        return 0;
    double *bound = malloc(sizeof(double) * (rows * mine + leaf));
    int64_t *seed = malloc(sizeof(int64_t) * rows * (SEEDS + 1));
    uint8_t *seeded = calloc(rows * mine, 1);
    if (bound == NULL || seed == NULL || seeded == NULL) {
        free(bound);
        free(seed);
        free(seeded);
        return -1;
    }
    double *acc = bound + rows * mine;
    int64_t *cnt = seed + rows * SEEDS, pruned = 0;

    /* Bound every (leaf, row) pair, and keep each row's SEEDS best leaves by
     * bound, the first among equal bounds; cnt counts them for now. */
    for (int64_t r = 0; r < rows; r++)
        cnt[r] = 0;
    for (int64_t t = 0; t < mine; t++) {
        int64_t l = first + t * step;
        double *b = bound + t * rows;
        for (int64_t r = 0; r < rows; r++) {
            int64_t *sd = seed + r * SEEDS, p;
            b[r] = leaf_bound(lo + l * dim, hi + l * dim, comps + r * dim, dim, gamma);
            if (cnt[r] == SEEDS && !(b[r] > bound[sd[SEEDS - 1] * rows + r]))
                continue;
            p = cnt[r] < SEEDS ? cnt[r]++ : SEEDS - 1;
            for (; p > 0 && bound[sd[p - 1] * rows + r] < b[r]; p--)
                sd[p] = sd[p - 1];
            sd[p] = t;
        }
    }
    for (int64_t r = 0; r < rows; r++) {
        const int64_t *sd = seed + r * SEEDS;
        int64_t ns = cnt[r];
        cnt[r] = 0;
        for (int64_t s = 0; s < ns; s++) {
            int64_t a = (first + sd[s] * step) * leaf;
            if (cnt[r] == kk && bound[sd[s] * rows + r] < out[r * kk + kk - 1])
                break; /* so are the seeds after it: the sweep skips them */
            seeded[sd[s] * rows + r] = 1;
            score_leaf(emb, found, ids, n, a, n - a < leaf ? n - a : leaf, comps + r * dim, dim,
                       gamma, acc, kk, cnt + r, pos + r * kk, out + r * kk);
        }
    }
    for (int64_t t = 0; t < mine; t++) {
        int64_t a = (first + t * step) * leaf, m = n - a < leaf ? n - a : leaf;
        const double *b = bound + t * rows;
        for (int64_t r = 0; r < rows; r++) {
            if (seeded[t * rows + r])
                continue;
            if (cnt[r] == kk && b[r] < out[r * kk + kk - 1]) {
                pruned += m;
                continue;
            }
            score_leaf(emb, found, ids, n, a, m, comps + r * dim, dim, gamma, acc, kk, cnt + r,
                       pos + r * kk, out + r * kk);
        }
    }
    free(seeded);
    free(bound);
    free(seed);
    return pruned;
}

/* Move the members of key[a .. b) that pass the test to its front, perm
 * alongside, without a branch on the keys; w ends past that front. */
#define PARTITION(test)                                                        \
    for (int64_t i = a; i < b; i++) {                                          \
        double k = key[i];                                                     \
        int64_t q = perm[i], take = (test);                                    \
        key[i] = key[w];                                                       \
        perm[i] = perm[w];                                                     \
        key[w] = k;                                                            \
        perm[w] = q;                                                           \
        w += take;                                                             \
    }

/* Reorder key[a .. b), and perm[a .. b) alongside, so that key[nth] holds the
 * value of rank nth - a, none before it greater and none after it smaller.
 * Quickselect with a median-of-three pivot value p: one pass moves the keys
 * below p to the front; when nth falls past them, a second pass over the
 * rest moves the keys equal to p next. Each round keeps a part without the
 * pivot's key, so it ends even when every key is equal. */
static void select_nth(double *key, int64_t *perm, int64_t a, int64_t b, int64_t nth)
{
    while (b - a > 1) {
        double p0 = key[a], p1 = key[a + (b - a) / 2], p2 = key[b - 1];
        double p = p0 < p1 ? (p1 < p2 ? p1 : (p0 < p2 ? p2 : p0))
                           : (p0 < p2 ? p0 : (p1 < p2 ? p2 : p1));
        int64_t w = a;
        PARTITION(k < p)
        if (nth < w) {
            b = w;
            continue;
        }
        a = w;
        PARTITION(k == p)
        if (nth < w)
            return;
        a = w;
    }
}
#undef PARTITION

/* Reorder perm[a .. b), members whose rows of x are rows[perm[i]], into
 * kd-tree leaf order (Bentley, CACM 1975): a segment of more than leaf
 * members is split along its widest dimension after half its leaves, rounded
 * up, so every leaf but the last is full. The widest dimension (the first,
 * among equals) is taken over about SPREAD_SAMPLE evenly spaced members; it
 * steers how tight the leaves are, never which members are scored exactly.
 * key, lo and hi are scratch: as long as perm, and dim long. */
static void kd_split(const double *restrict x, int64_t dim, const int64_t *restrict rows,
                     int64_t *restrict perm, int64_t a, int64_t b, int64_t leaf,
                     double *restrict key, double *restrict lo, double *restrict hi)
{
    while (b - a > leaf) {
        for (int64_t j = 0; j < dim; j++) {
            lo[j] = INFINITY;
            hi[j] = -INFINITY;
        }
        for (int64_t i = a; i < b; i += 1 + (b - a) / SPREAD_SAMPLE) {
            const double *v = x + rows[perm[i]] * dim;
            for (int64_t j = 0; j < dim; j++) {
                lo[j] = v[j] < lo[j] ? v[j] : lo[j];
                hi[j] = v[j] > hi[j] ? v[j] : hi[j];
            }
        }
        int64_t d = 0;
        for (int64_t j = 1; j < dim; j++)
            if (hi[j] - lo[j] > hi[d] - lo[d])
                d = j;
        for (int64_t i = a; i < b; i++)
            key[i] = x[rows[perm[i]] * dim + d];
        int64_t mid = a + leaf * (((b - a + leaf - 1) / leaf + 1) / 2);
        select_nth(key, perm, a, b, mid);
        kd_split(x, dim, rows, perm, a, mid, leaf, key, lo, hi);
        a = mid;
    }
}

/* Fill perm[0 .. m) with the kd-tree leaf order of the m members whose
 * embeddings are rows rows[0 .. m) of x: perm[i] is the member at position i.
 * Returns -1 when scratch memory cannot be had, else 0. */
int64_t kd_order(const double *x, int64_t dim, const int64_t *rows, int64_t m, int64_t leaf,
                 int64_t *perm)
{
    double *key = malloc(sizeof(double) * (m + 2 * dim + 1));
    if (key == NULL)
        return -1;
    for (int64_t i = 0; i < m; i++)
        perm[i] = i;
    kd_split(x, dim, rows, perm, 0, m, leaf, key, key + m, key + m + dim);
    free(key);
    return 0;
}
