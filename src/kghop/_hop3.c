/* Hop 3's fused kernel. emb is the (dim, n) transposed block, found[i] is 0
 * for a missing embedding (-inf), comps is (rows, dim). Each L1 sum runs j
 * ascending like the numpy kernel's; a vector lane holds one candidate, so the
 * bits match. idx, out (rows, kk) get each row's best kk by (score desc, index
 * asc): a candidate enters a full row only above its worst, so ties keep the
 * lower index. */
#include <math.h>
#include <stdint.h>
#define BLOCK 512

void hop3_topk(const double *emb, const uint8_t *found, int64_t n,
               const double *comps, int64_t rows, int64_t dim, double gamma,
               int64_t kk, int64_t *idx, double *out)
{
    double acc[BLOCK];
    for (int64_t b0 = 0; kk > 0 && b0 < n; b0 += BLOCK) {
        int64_t m = n - b0 < BLOCK ? n - b0 : BLOCK;
        for (int64_t r = 0; r < rows; r++) {
            const double *c = comps + r * dim;
            int64_t *ix = idx + r * kk;
            double *sc = out + r * kk;
            for (int64_t i = 0; i < m; i++)
                acc[i] = fabs(emb[b0 + i] - c[0]);
            for (int64_t j = 1; j < dim; j++)
                for (int64_t i = 0; i < m; i++)
                    acc[i] += fabs(emb[j * n + b0 + i] - c[j]);
            for (int64_t i = 0; i < m; i++) {
                int64_t cand = b0 + i, p = cand < kk ? cand : kk - 1;
                double s = found[cand] ? gamma - acc[i] : -INFINITY;
                if (cand >= kk && !(s > sc[kk - 1]))
                    continue;
                for (; p > 0 && sc[p - 1] < s; p--) {
                    sc[p] = sc[p - 1];
                    ix[p] = ix[p - 1];
                }
                sc[p] = s;
                ix[p] = cand;
            }
        }
    }
}
