/* Eventor hot-stage kernels: compiled counterparts of the numpy hot path.
 *
 * The contract of every kernel here is *bit-compatibility* with the numpy
 * reference implementation (see docs/NATIVE.md for the ABI); there is
 * no epsilon anywhere:
 *
 *   - eventor_phi_batch        == repro.geometry.homography
 *                                 .proportional_coefficients_batch (bit-exact:
 *                                 same elementwise operation order, no FMA)
 *   - eventor_canonical_q_batch
 *                              == BackProjector.canonical_batch under a
 *                                 quantized schema whose MACs are exact in
 *                                 float64 (bit-exact: exact sums in any
 *                                 order, correctly rounded division)
 *   - eventor_vote_nearest_batch
 *                              == proportional map + nearest_vote_indices
 *                                 + integer scatter (bit-exact)
 *   - eventor_vote_bilinear_batch_{f64,i64}
 *                              == proportional map + bilinear_vote_terms
 *                                 + in-order scatter (bit-exact; the i64
 *                                 variant truncates each corner weight
 *                                 toward zero per addition, matching
 *                                 np.add.at into an int64 buffer)
 *   - eventor_argmax_projection_i32
 *                              == DSI.argmax_projection over the int32
 *                                 count window (bit-exact: integer work)
 *   - eventor_median_reject    == repro.core.detection.median_reject
 *                                 (bit-exact: numpy's median arithmetic
 *                                 and the same 15 % test)
 *   - eventor_ingest_events    == EventArray.from_arrays' record packing
 *                                 and EventArray's validation checks
 *                                 (bit-exact: byte copies and IEEE
 *                                 compares, no arithmetic)
 *
 * Bit-exactness relies on compiling WITHOUT floating-point contraction:
 * build with -ffp-contract=off (a fused multiply-add would round once
 * where numpy rounds twice).  No -ffast-math, ever.
 *
 * The two per-event kernels (canonical_q_batch, vote_nearest_batch) and
 * the per-voxel argmax projection are compiled as ISA clones
 * (VECTOR_CLONES below); every clone performs the same operations, so
 * the contract holds for whichever one the loader picks.
 *
 * The library is pure C99 + libm with a flat extern "C" ABI (no Python.h),
 * so it can be loaded through ctypes, cffi, or linked from any other
 * provider (e.g. a future Rust crate re-exporting the same symbols).
 * All arrays are dense row-major (C-contiguous) float64 / int64 / uint8,
 * except the event records P(Z0) reads in place (float32 x/y fields at
 * any record stride) and the event columns ingest reads (any signed byte
 * stride, unaligned).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(_MSC_VER)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

typedef long long ll;

/* ISA clones of the per-event kernels: GCC emits an x86-64-v4 (AVX-512),
 * an x86-64-v3 (AVX2) and a baseline body, and the dynamic loader binds
 * the best one for the running host through an ifunc when the library
 * loads.  No -march flag is involved, so the library still runs on any
 * x86-64.  The guard admits only toolchains known to compile this (GCC
 * 12+ on x86-64 with glibc, which provides ifunc); everywhere else the
 * macro is empty and the kernels build exactly as plain C99.  Defining
 * it on the command line (e.g. -DVECTOR_CLONES=) overrides the guard,
 * which lets the tests build one fixed code shape per -march. */
#ifndef VECTOR_CLONES
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 \
    && defined(__x86_64__) && defined(__GLIBC__)
#define VECTOR_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define VECTOR_CLONES
#endif
#endif

/* Per-frame proportional coefficient tables (paper sub-task "Compute
 * Proportional Back-Projection Parameters").
 *
 *   centers: (B, 3)  event camera centres in the virtual frame
 *   depths:  (nz,)   DSI depth planes
 *   phi:     (B, nz, 3) output rows (alpha_i, beta_i, gamma_i)
 *
 * Returns 1 when any |denom| < 1e-12 (degenerate geometry: camera centre
 * on the canonical plane) -- the caller raises, output is unspecified.
 * NaN inputs are NOT flagged (NaN < 1e-12 is false), matching numpy.
 */
EXPORT int eventor_phi_batch(
    const double *centers, const double *depths,
    ll B, ll nz,
    double z0, double fx, double fy, double cx, double cy,
    double *phi)
{
    int degenerate = 0;
    for (ll b = 0; b < B; ++b) {
        const double c0 = centers[3 * b];
        const double c1 = centers[3 * b + 1];
        const double c2 = centers[3 * b + 2];
        double *out = phi + b * nz * 3;
        for (ll z = 0; z < nz; ++z) {
            const double d = depths[z];
            const double denom = d * (z0 - c2);
            if (fabs(denom) < 1e-12)
                degenerate = 1;
            const double alpha = z0 * (d - c2) / denom;
            const double beta_n = c0 * (z0 - d) / denom;
            const double gamma_n = c1 * (z0 - d) / denom;
            out[3 * z] = alpha;
            out[3 * z + 1] = fx * beta_n + cx * (1.0 - alpha);
            out[3 * z + 2] = fy * gamma_n + cy * (1.0 - alpha);
        }
    }
    return degenerate;
}

/* Round-half-away-from-zero narrowing to a raw fixed-point integer with
 * saturation: QFormat.to_raw (NEAREST, SATURATE) operation for operation.
 * numpy rounds with floor(s + 0.5) / ceil(s - 0.5); the shifted value t
 * is the same double here, and truncating it toward zero equals that
 * floor (t >= 0.5) or ceil (t < 0) -- with no libm call, and through the
 * integer, so (-1/2 LSB, 0) yields raw 0 (+0.0 after scaling, never the
 * -0.0 a double ceil returns).  NaN maps to 0; values past the int64
 * range saturate instead of taking C's undefined conversion. */
static inline ll to_raw_nearest(double v, double scale, ll raw_min, ll raw_max)
{
    const double s = v * scale;
    const double t = s >= 0.0 ? s + 0.5 : s - 0.5;
    ll q;
    if (t != t)
        q = 0;
    else if (t >= 0x1p63)
        q = INT64_MAX;
    else if (t <= -0x1p63)
        q = INT64_MIN;
    else
        q = (ll)t;
    return q < raw_min ? raw_min : (q > raw_max ? raw_max : q);
}

/* Canonical projection P(Z0) under a fixed-point schema, over a frame
 * batch: PE_Z0's per-event work.  Per event:
 *
 *   1. read x/y in place from the frame's event records (float32
 *      fields) and quantize them to the event format;
 *   2. run the three H_Z0 row MACs (x*h0 + y*h1 + h2);
 *   3. divide by the scale row and mark a miss when w <= 0 (behind the
 *      plane) or either quotient falls outside [c_lo, c_hi] (not
 *      representable in the canonical format; NaN fails the test too);
 *   4. zero miss rows, quantize uv0 to the canonical format and write
 *      uv0/valid.
 *
 * The caller guarantees the schema's formats keep every MAC product and
 * sum inside float64's 53-bit significand (QuantizationSchema
 * .canonical_mac_exact), so the MACs are exact in any order and the
 * result is bit-identical to BackProjector.canonical_batch: the
 * divisions are correctly rounded on both sides.
 *
 *   records:  (B,) address of each frame's first event record
 *   strides:  (B,) byte stride between consecutive records of a frame
 *   x_off, y_off: byte offsets of the float32 x / y fields in a record
 *   H:        (B, 3, 3) quantized H_Z0 stack
 *   e_*:      event format (scale = 2^frac, raw bounds)
 *   c_*:      canonical format, plus its overflow bounds lo/hi
 *   uv0:      (B, N, 2) output canonical pixels
 *   valid:    (B, N) output uint8 hit mask
 *
 * Returns the number of misses.
 */
EXPORT VECTOR_CLONES ll eventor_canonical_q_batch(
    const ll *records, const ll *strides, ll x_off, ll y_off,
    ll B, ll N, const double *H,
    double e_scale, ll e_min, ll e_max,
    double c_scale, ll c_min, ll c_max, double c_lo, double c_hi,
    double *uv0, unsigned char *valid)
{
    /* Scales are powers of two: multiplying by the reciprocal is exact,
     * so it equals numpy's raw / scale bit for bit. */
    const double e_inv = 1.0 / e_scale;
    const double c_inv = 1.0 / c_scale;
    ll misses = 0;
    for (ll b = 0; b < B; ++b) {
        const char *px = (const char *)(intptr_t)records[b] + x_off;
        const char *py = (const char *)(intptr_t)records[b] + y_off;
        const ll stride = strides[b];
        const double *h = H + 9 * b;
        double *o = uv0 + b * N * 2;
        unsigned char *ok_out = valid + b * N;
        for (ll i = 0; i < N; ++i) {
            float fx, fy;
            /* records are packed (17-byte events): unaligned-safe loads */
            memcpy(&fx, px + i * stride, sizeof fx);
            memcpy(&fy, py + i * stride, sizeof fy);
            const double x = (double)to_raw_nearest(fx, e_scale, e_min, e_max) * e_inv;
            const double y = (double)to_raw_nearest(fy, e_scale, e_min, e_max) * e_inv;
            const double w = x * h[6] + y * h[7] + h[8];
            const double u = (x * h[0] + y * h[1] + h[2]) / w;
            const double v = (x * h[3] + y * h[4] + h[5]) / w;
            /* & not &&: every test is cheap, and misses arrive unpredictably */
            const int ok = (w > 0.0) & (u >= c_lo) & (u <= c_hi) & (v >= c_lo) & (v <= c_hi);
            misses += !ok;
            o[2 * i] = (double)to_raw_nearest(ok ? u : 0.0, c_scale, c_min, c_max) * c_inv;
            o[2 * i + 1] = (double)to_raw_nearest(ok ? v : 0.0, c_scale, c_min, c_max) * c_inv;
            ok_out[i] = (unsigned char)ok;
        }
    }
    return misses;
}

/* Events per address/execute chunk of the nearest vote kernel: two
 * 4 KiB int32 stack arrays, L1-resident next to the plane's counts. */
#define VOTE_CHUNK 1024

/* Fused proportional back-projection + nearest voting over a frame batch,
 * as PE_Zi's two steps (Sec. 3.2): an address pass and a vote-execute
 * pass.
 *
 * Per (event, plane) pair: u = u0*alpha + beta, v = v0*alpha + gamma,
 * round half-up (floor(x + 0.5)), bounds-check, count.  The bounds test
 * runs on doubles BEFORE any integer cast, so NaN/inf coordinates (which
 * numpy masks via its finiteness pass) simply fail the comparison -- no
 * undefined float->int casts.  Rows with valid == 0 are projection
 * misses and cast no votes.  Integer counts are order-independent, so
 * the plane-major loop (cache-resident count window) is bit-exact with
 * the reference's row-major scatter.
 *
 *   phi:    (B, nz, 3)
 *   uv0:    (B, N, 2) canonical pixels (miss rows zeroed, as produced)
 *   valid:  (B, N) uint8 projection-miss mask
 *   counts: (nz*h*w,) int32, accumulated in place; h*w < 2^31
 *
 * A cell's count is bounded by the events of one reference segment, far
 * below 2^31, and the caller widens on materialization.  Returns the
 * number of votes cast (in-bounds hits), matching the reference vote
 * accounting.
 */
EXPORT VECTOR_CLONES ll eventor_vote_nearest_batch(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    int32_t *counts)
{
    ll votes = 0;
    const double wD = (double)w;
    const double hD = (double)h;
    const int32_t w32 = (int32_t)w;
    int32_t idx[VOTE_CHUNK];
    int32_t inc[VOTE_CHUNK];
    /* Plane-major over the whole batch: one plane's count window stays
     * cache-resident while every frame scatters into it (the batched
     * numpy voter walks planes for the same reason).  Counts are
     * integers, so the reordering cannot change the result. */
    for (ll z = 0; z < nz; ++z) {
        int32_t *cz = counts + z * h * w;
        for (ll b = 0; b < B; ++b) {
            const double *phib = phi + b * nz * 3;
            const double a = phib[3 * z];
            const double beta = phib[3 * z + 1];
            const double gamma = phib[3 * z + 2];
            for (ll i0 = 0; i0 < N; i0 += VOTE_CHUNK) {
                const int n = (int)(N - i0 < VOTE_CHUNK ? N - i0 : VOTE_CHUNK);
                const double *uvc = uv0 + (b * N + i0) * 2;
                const unsigned char *vc = valid + b * N + i0;
                int hits = 0;
                /* Address pass, branch-free so it vectorizes.  floor(x+0.5)
                 * >= 0 iff x+0.5 >= 0; floor(x+0.5) < w iff x+0.5 < w (w
                 * integral); NaN fails every comparison.  A miss selects
                 * 0.0 before the cast, so every cast is in range and
                 * truncation == floor; it votes 0 into cell 0. */
                for (int i = 0; i < n; ++i) {
                    const double tu = (uvc[2 * i] * a + beta) + 0.5;
                    const double tv = (uvc[2 * i + 1] * a + gamma) + 0.5;
                    const int ok = (vc[i] != 0) & (tu >= 0.0) & (tu < wD)
                                   & (tv >= 0.0) & (tv < hD);
                    const double su = ok ? tu : 0.0;
                    const double sv = ok ? tv : 0.0;
                    idx[i] = (int32_t)sv * w32 + (int32_t)su;
                    inc[i] = ok;
                    hits += ok;
                }
                /* Vote-execute pass: no branch, so a miss-heavy chunk
                 * costs what a hit-heavy one does. */
                for (int i = 0; i < n; ++i)
                    cz[idx[i]] += inc[i];
                votes += hits;
            }
        }
    }
    return votes;
}

/* Shared bilinear corner machinery.  Exactly one of flat_f64 / flat_i64
 * is non-NULL and selects the accumulation mode.  Scratch buffers (all
 * (N*nz,), caller-provided so concurrent engines never share state):
 * su/sv hold floor(u)/floor(v), sfu/sfv the fractional parts, voted the
 * per-(event, plane) did-any-corner-land flags.
 *
 * Corner order is the reference's fixed (00, 10, 01, 11): all votes of a
 * corner scatter before the next corner, rows in (event-major, plane)
 * order within a corner, frames sequentially -- reproducing the float
 * accumulation order of numpy's concatenated scatter bit for bit.
 */
static ll bilinear_core(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    double *flat_f64, ll *flat_i64,
    double *su, double *sv, double *sfu, double *sfv, unsigned char *voted)
{
    const double wD = (double)w;
    const double hD = (double)h;
    static const double DU[4] = {0.0, 1.0, 0.0, 1.0};
    static const double DV[4] = {0.0, 0.0, 1.0, 1.0};
    ll n_points = 0;
    for (ll b = 0; b < B; ++b) {
        const double *uvb = uv0 + b * N * 2;
        const unsigned char *vb = valid + b * N;
        const double *phib = phi + b * nz * 3;
        /* stage 1: proportional map + floor/fraction decomposition */
        for (ll i = 0; i < N; ++i) {
            const double x0 = uvb[2 * i];
            const double y0 = uvb[2 * i + 1];
            const int ok = vb[i] != 0;
            for (ll z = 0; z < nz; ++z) {
                const ll k = i * nz + z;
                voted[k] = 0;
                if (!ok) {
                    /* miss row: NaN fails every corner test below */
                    su[k] = NAN;
                    sv[k] = NAN;
                    sfu[k] = NAN;
                    sfv[k] = NAN;
                    continue;
                }
                const double u = x0 * phib[3 * z] + phib[3 * z + 1];
                const double v = y0 * phib[3 * z] + phib[3 * z + 2];
                const double u0f = floor(u);
                const double v0f = floor(v);
                su[k] = u0f;
                sv[k] = v0f;
                sfu[k] = u - u0f;
                sfv[k] = v - v0f;
            }
        }
        /* stage 2: four corner passes in reference order */
        for (int c = 0; c < 4; ++c) {
            const double du = DU[c];
            const double dv = DV[c];
            for (ll k = 0; k < N * nz; ++k) {
                const double cu = su[k] + du;
                const double cv = sv[k] + dv;
                if (!(cu >= 0.0) || !(cu < wD) || !(cv >= 0.0) || !(cv < hD))
                    continue;
                const double fu = sfu[k];
                const double fv = sfv[k];
                double weight;
                switch (c) {
                case 0:
                    weight = (1.0 - fu) * (1.0 - fv);
                    break;
                case 1:
                    weight = fu * (1.0 - fv);
                    break;
                case 2:
                    weight = (1.0 - fu) * fv;
                    break;
                default:
                    weight = fu * fv;
                    break;
                }
                if (!(weight > 0.0))
                    continue;
                const ll z = k % nz;
                const ll idx = (z * h + (ll)cv) * w + (ll)cu;
                if (flat_f64)
                    flat_f64[idx] += weight;
                else
                    flat_i64[idx] += (ll)weight; /* per-add truncation */
                voted[k] = 1;
            }
        }
        for (ll k = 0; k < N * nz; ++k)
            n_points += voted[k];
    }
    return n_points;
}

/* Bilinear voting into a float64 DSI; returns the number of points that
 * cast a (full or partial) vote.  See bilinear_core for semantics. */
EXPORT ll eventor_vote_bilinear_batch_f64(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    double *flat,
    double *su, double *sv, double *sfu, double *sfv, unsigned char *voted)
{
    return bilinear_core(phi, uv0, valid, B, N, nz, h, w,
                         flat, (ll *)0, su, sv, sfu, sfv, voted);
}

/* Bilinear voting into an int64 DSI (integer-score policies): each
 * corner weight is truncated toward zero per addition, matching
 * np.add.at(int64_buffer, idx, float_weights). */
EXPORT ll eventor_vote_bilinear_batch_i64(
    const double *phi, const double *uv0, const unsigned char *valid,
    ll B, ll N, ll nz, ll h, ll w,
    ll *flat,
    double *su, double *sv, double *sfu, double *sfv, unsigned char *voted)
{
    return bilinear_core(phi, uv0, valid, B, N, nz, h, w,
                         (double *)0, flat, su, sv, sfu, sfv, voted);
}

/* Pixels per tile of the argmax projection: three int32 running arrays
 * (12 KiB) stay L1-resident while every plane streams past them. */
#define ARGMAX_TILE 1024

/* Stage D's tie-centred argmax projection, straight from the int32 count
 * window (DSI.argmax_projection).
 *
 * One plane-major pass per tile of pixels keeps each pixel's saturated
 * maximum and the first and last plane that reach it.  A plane ties when
 * min(count, limit) equals the saturated maximum -- the same set as
 * numpy's raw >= saturate(max), since saturation is monotone -- and an
 * all-zero column ties everywhere, giving (nz-1)/2.  All integer work,
 * so it is exact; restrict lets every clone vectorize the select loop.
 *
 *   counts:     (nz, hw) int32, plane-major
 *   limit:      saturation bound (INT32_MAX for an unbounded DSI)
 *   confidence: (hw,) output saturated maximum as float64
 *   mid:        (hw,) output (first + last) / 2 as int64
 */
EXPORT VECTOR_CLONES void eventor_argmax_projection_i32(
    const int32_t *restrict counts, ll nz, ll hw, int32_t limit,
    double *restrict confidence, ll *restrict mid)
{
    int32_t best[ARGMAX_TILE];
    int32_t first[ARGMAX_TILE];
    int32_t last[ARGMAX_TILE];
    for (ll p0 = 0; p0 < hw; p0 += ARGMAX_TILE) {
        const int n = (int)(hw - p0 < ARGMAX_TILE ? hw - p0 : ARGMAX_TILE);
        const int32_t *restrict c0 = counts + p0;
        for (int i = 0; i < n; ++i) {
            best[i] = c0[i] < limit ? c0[i] : limit;
            first[i] = 0;
            last[i] = 0;
        }
        for (ll z = 1; z < nz; ++z) {
            const int32_t *restrict cz = counts + z * hw + p0;
            const int32_t zi = (int32_t)z;
            for (int i = 0; i < n; ++i) {
                const int32_t c = cz[i] < limit ? cz[i] : limit;
                const int32_t b = best[i];
                first[i] = c > b ? zi : first[i];
                last[i] = c >= b ? zi : last[i];
                best[i] = c > b ? c : b;
            }
        }
        for (int i = 0; i < n; ++i) {
            confidence[p0 + i] = (double)best[i];
            mid[p0 + i] = ((ll)first[i] + (ll)last[i]) / 2;
        }
    }
}

/* Stage D's median rejection (repro.core.detection.median_reject).
 *
 * Per masked pixel: insertion-sort the depths of the masked neighbours
 * in its (2r+1)^2 window, clipped at the border (NaN depths stand for
 * missing pixels, as numpy's NaN padding does), take numpy's median
 * (lo + hi) / 2.0 of the two middle values -- one value twice for an
 * odd count, as numpy's masked median computes it -- and keep the pixel
 * when fabs(d - m) <= 0.15 * fabs(m).  A lone pixel's window is itself.
 * Radius 0 copies the mask (numpy returns it unfiltered).
 *
 *   depth:  (h, w) float64
 *   mask:   (h, w) uint8 detected pixels
 *   window: (2r+1)^2 float64 caller-owned scratch
 *   out:    (h, w) uint8 surviving pixels
 */
EXPORT void eventor_median_reject(
    const double *depth, const unsigned char *mask, ll h, ll w, ll radius,
    double *window, unsigned char *out)
{
    if (radius <= 0) {
        memcpy(out, mask, (size_t)(h * w));
        return;
    }
    for (ll y = 0; y < h; ++y) {
        const ll y0 = y - radius < 0 ? 0 : y - radius;
        const ll y1 = y + radius >= h ? h - 1 : y + radius;
        for (ll x = 0; x < w; ++x) {
            const ll p = y * w + x;
            if (!mask[p]) {
                out[p] = 0;
                continue;
            }
            const ll x0 = x - radius < 0 ? 0 : x - radius;
            const ll x1 = x + radius >= w ? w - 1 : x + radius;
            int n = 0;
            for (ll yy = y0; yy <= y1; ++yy) {
                for (ll xx = x0; xx <= x1; ++xx) {
                    const ll q = yy * w + xx;
                    const double v = depth[q];
                    if (!mask[q] || v != v)
                        continue;
                    int j = n++;
                    while (j > 0 && window[j - 1] > v) {
                        window[j] = window[j - 1];
                        --j;
                    }
                    window[j] = v;
                }
            }
            if (n == 0) {
                out[p] = 0; /* a NaN depth alone: numpy's NaN median fails */
                continue;
            }
            const double m = (window[(n - 1) / 2] + window[n / 2]) / 2.0;
            out[p] = (unsigned char)(fabs(depth[p] - m) <= 0.15 * fabs(m));
        }
    }
}

/* Event ingest: pack EventArray's 17-byte records and validate them in
 * one read of the columns (EventArray.from_arrays + EventArray.__init__).
 *
 * Record layout (EVENT_DTYPE, packed): float64 t at byte 0, float32 x at
 * 8, float32 y at 12, int8 p at 16.  Column i's element k is read at
 * col + k * stride for any signed byte stride (a strided field view of
 * another record array, a reversed view, a broadcast column with stride
 * 0); every load and store goes through memcpy, so no alignment is
 * assumed.  Casting (float64 -> float32 rounding, int8 wrap, byte order)
 * happened in numpy before the call: the kernel only copies bytes, so
 * -0.0, NaN payloads and infinities pass through bit for bit.
 *
 * The returned mask ORs, over all n events:
 *   INGEST_T_NONFINITE   t is NaN or +-inf
 *   INGEST_XY_NONFINITE  x or y is NaN or +-inf (the float32 values)
 *   INGEST_T_DECREASING  some t[k] < t[k-1] (numpy's diff(t) < 0 on
 *                        finite values: a - b < 0 iff a < b under IEEE
 *                        gradual underflow)
 *   INGEST_P_INVALID     some p is neither +1 nor -1
 * out == NULL validates without packing (records already packed: the
 * four columns are their field addresses at the record stride).
 */
#define INGEST_T_NONFINITE 1
#define INGEST_XY_NONFINITE 2
#define INGEST_T_DECREASING 4
#define INGEST_P_INVALID 8
#define EVENT_RECORD_BYTES 17

static inline int ingest_columns(
    const char *t, ll t_stride, const char *x, ll x_stride,
    const char *y, ll y_stride, const char *p, ll p_stride,
    ll n, unsigned char *out)
{
    int bad_t = 0, bad_xy = 0, decreasing = 0, bad_p = 0;
    double prev = -INFINITY;
    for (ll k = 0; k < n; ++k) {
        double tv;
        float xv, yv;
        int8_t pv;
        memcpy(&tv, t + k * t_stride, sizeof tv);
        memcpy(&xv, x + k * x_stride, sizeof xv);
        memcpy(&yv, y + k * y_stride, sizeof yv);
        memcpy(&pv, p + k * p_stride, sizeof pv);
        bad_t |= !isfinite(tv);
        bad_xy |= !isfinite(xv) | !isfinite(yv);
        decreasing |= tv < prev;
        prev = tv;
        bad_p |= (pv != 1) & (pv != -1);
        if (out) {
            unsigned char *rec = out + k * EVENT_RECORD_BYTES;
            memcpy(rec, &tv, sizeof tv);
            memcpy(rec + 8, &xv, sizeof xv);
            memcpy(rec + 12, &yv, sizeof yv);
            memcpy(rec + 16, &pv, sizeof pv);
        }
    }
    return (bad_t ? INGEST_T_NONFINITE : 0) | (bad_xy ? INGEST_XY_NONFINITE : 0)
        | (decreasing ? INGEST_T_DECREASING : 0) | (bad_p ? INGEST_P_INVALID : 0);
}

/*   t, x, y, p: column base addresses (float64, float32, float32, int8)
 *   *_stride:   signed byte strides
 *   n:          events
 *   out:        (n * 17) bytes of packed records, or NULL to validate only
 */
EXPORT int eventor_ingest_events(
    const char *t, ll t_stride, const char *x, ll x_stride,
    const char *y, ll y_stride, const char *p, ll p_stride,
    ll n, unsigned char *out)
{
    /* Two instantiations, so neither loop tests out per event. */
    if (out)
        return ingest_columns(t, t_stride, x, x_stride, y, y_stride,
                              p, p_stride, n, out);
    return ingest_columns(t, t_stride, x, x_stride, y, y_stride,
                          p, p_stride, n, NULL);
}
