/* Native AlgAU kernels over CSR neighborhoods.
 *
 * This is the C lane of repro.core.algau_native: the same three kernels
 * the module also ships as numba-jittable Python, compiled lazily with
 * the host C compiler when numba is not importable (see the module
 * docstring for the backend resolution order).  The two lanes must stay
 * semantically identical — the kernel-level agreement tests compare
 * them against VectorKernel.delta_rows (and run_sequence against a
 * per-activation delta_one + goodness_counts reference) on random codes
 * x random CSR neighborhoods.
 *
 * Conventions shared with the Python lane:
 *   - codes/indptr/indices/rows/order arrays are int64, C-contiguous;
 *   - boolean tables (masks, has_twin, is_faulty) are uint8;
 *   - pair_bad is int8 (so deltas live in {-1, 0, 1} without wrapping);
 *   - 2-D tables are row-major with row stride k2 (masks) or size
 *     (pair_bad);
 *   - rows == NULL means "all n rows".
 */

#include <stdint.h>

/* delta_code: the Table 1 transition of node v (current code c) from
 * its inclusive CSR row [lo, hi) — the per-lane body of delta_rows and
 * run_sequence.  Tests sensed clocks against the per-code window masks
 * inline; no per-node signal is ever materialized. */
static inline int64_t
delta_code(const int64_t *codes, const int64_t *indices, int64_t lo,
           int64_t hi, int64_t c, const int64_t *clock_of,
           const int64_t *aa_succ, const int64_t *fa_succ,
           const int64_t *af_code, const int64_t *af_sense,
           const uint8_t *is_faulty, const uint8_t *has_twin,
           const uint8_t *adjacent_mask, const uint8_t *aa_mask,
           const uint8_t *outwards_mask, int64_t k2, int32_t cautious)
{
    if (!is_faulty[c]) {
        const uint8_t *adj = adjacent_mask + c * k2;
        const uint8_t *aa = aa_mask + c * k2;
        int64_t sense = af_sense[c];
        int not_protected = 0, any_faulty = 0, outside_aa = 0;
        int senses_af = 0;
        for (int64_t e = lo; e < hi; e++) {
            int64_t cu = codes[indices[e]];
            int64_t cl = clock_of[cu];
            if (is_faulty[cu])
                any_faulty = 1;
            if (!adj[cl])
                not_protected = 1;
            if (!aa[cl])
                outside_aa = 1;
            if (cu == sense)
                senses_af = 1;
        }
        if (!not_protected && !any_faulty && !outside_aa)
            return aa_succ[c]; /* AA */
        if (has_twin[c] &&
            (not_protected || (cautious && sense >= 0 && senses_af)))
            return af_code[c]; /* AF */
        return c;
    }
    const uint8_t *outw = outwards_mask + c * k2;
    for (int64_t e = lo; e < hi; e++)
        if (outw[clock_of[codes[indices[e]]]])
            return c;
    return fa_succ[c]; /* FA */
}

/* delta_rows: batched Table 1 transition for the lanes in `rows`.
 * out[i] receives the next code of node rows[i]; unmoved lanes copy
 * their current code. */
void delta_rows(const int64_t *codes, const int64_t *indptr,
                const int64_t *indices, const int64_t *rows, int64_t nrows,
                int64_t *out, const int64_t *clock_of, const int64_t *aa_succ,
                const int64_t *fa_succ, const int64_t *af_code,
                const int64_t *af_sense, const uint8_t *is_faulty,
                const uint8_t *has_twin, const uint8_t *adjacent_mask,
                const uint8_t *aa_mask, const uint8_t *outwards_mask,
                int64_t k2, int32_t cautious)
{
    for (int64_t i = 0; i < nrows; i++) {
        int64_t v = rows ? rows[i] : i;
        out[i] = delta_code(codes, indices, indptr[v], indptr[v + 1],
                            codes[v], clock_of, aa_succ, fa_succ, af_code,
                            af_sense, is_faulty, has_twin, adjacent_mask,
                            aa_mask, outwards_mask, k2, cautious);
    }
}

/* run_sequence: apply the single-node activations order[0..norder) in
 * turn, each under the configuration its predecessors left — a
 * sequential daemon's round.  Per activation: δ from the CSR row, the
 * code written in place, the goodness counts folded (faulty nodes, and
 * unprotected ordered pairs with the weight-2 convention of a single
 * moved node; the self pair is skipped) and the move counted.
 * counts3 = {faulty, bad, moves} is read and updated.  Stops right
 * after the first activation that leaves (faulty, bad) == (0, 0);
 * returns the number of activations applied. */
int64_t run_sequence(int64_t *codes, const int64_t *indptr,
                     const int64_t *indices, const int64_t *order,
                     int64_t norder, const int64_t *clock_of,
                     const int64_t *aa_succ, const int64_t *fa_succ,
                     const int64_t *af_code, const int64_t *af_sense,
                     const uint8_t *is_faulty, const uint8_t *has_twin,
                     const uint8_t *adjacent_mask, const uint8_t *aa_mask,
                     const uint8_t *outwards_mask, int64_t k2,
                     int32_t cautious, const int8_t *pair_bad, int64_t size,
                     int64_t *counts3)
{
    int64_t faulty = counts3[0], bad = counts3[1], moves = counts3[2];
    int64_t i = 0;
    while (i < norder) {
        int64_t v = order[i++];
        int64_t lo = indptr[v], hi = indptr[v + 1];
        int64_t c = codes[v];
        int64_t cn = delta_code(codes, indices, lo, hi, c, clock_of, aa_succ,
                                fa_succ, af_code, af_sense, is_faulty,
                                has_twin, adjacent_mask, aa_mask,
                                outwards_mask, k2, cautious);
        if (cn != c) {
            const int8_t *row_old = pair_bad + c * size;
            const int8_t *row_new = pair_bad + cn * size;
            int64_t delta = 0;
            for (int64_t e = lo; e < hi; e++) {
                int64_t u = indices[e];
                if (u != v)
                    delta += row_new[codes[u]] - row_old[codes[u]];
            }
            faulty += is_faulty[cn] - is_faulty[c];
            bad += 2 * delta;
            moves++;
            codes[v] = cn;
        }
        if (faulty == 0 && bad == 0)
            break;
    }
    counts3[0] = faulty;
    counts3[1] = bad;
    counts3[2] = moves;
    return i;
}

/* goodness_counts: full O(n + m) scan of (faulty nodes, unprotected
 * ordered pairs).  out2 = {faulty, bad}.  Self pairs contribute 0 by
 * construction of pair_bad, so the inclusive CSR needs no special
 * casing. */
void goodness_counts(const int64_t *codes, const int64_t *indptr,
                     const int64_t *indices, int64_t n,
                     const uint8_t *is_faulty, const int8_t *pair_bad,
                     int64_t size, int64_t *out2)
{
    int64_t faulty = 0, bad = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t cv = codes[v];
        if (is_faulty[cv])
            faulty++;
        const int8_t *row = pair_bad + cv * size;
        for (int64_t e = indptr[v]; e < indptr[v + 1]; e++)
            bad += row[codes[indices[e]]];
    }
    out2[0] = faulty;
    out2[1] = bad;
}
