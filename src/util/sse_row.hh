/**
 * @file
 * One cache set's byte row in an SSE2 register.
 *
 * The packed replay model (sim/fastpath) and the flat MIN replay
 * (policies/belady) keep a byte per line — a tag signature, a recency
 * position, an RRPV or a protection counter — and at 8 and 16 ways
 * compare or update a set's whole row in one instruction; other widths
 * take generic loops.
 *
 * -DGIPPR_PORTABLE_KERNELS compiles the rows out even on x86-64, so CI
 * can prove the portable generic loops (the permanent fallback for
 * hosts without SSE2) stay bit-identical at every width without
 * needing such a machine.
 */

#ifndef GIPPR_UTIL_SSE_ROW_HH_
#define GIPPR_UTIL_SSE_ROW_HH_

#include <cstdint>

#if defined(__SSE2__) && !defined(GIPPR_PORTABLE_KERNELS)
#define GIPPR_SSE_ROWS 1
#include <emmintrin.h>
#endif

namespace gippr
{

#if GIPPR_SSE_ROWS
/**
 * One set's byte row of @p Ways lanes in an SSE register: a 16-way row
 * fills it, an 8-way row is its low half (64-bit load, upper lanes
 * zero, 64-bit store), so the upper lanes never reach memory and
 * mask() cuts them off.
 */
template <unsigned Ways>
struct SseRow
{
    static_assert(Ways == 8 || Ways == 16);

    static __m128i
    load(const uint8_t *row)
    {
        const auto *p = reinterpret_cast<const __m128i *>(row);
        if constexpr (Ways == 16)
            return _mm_loadu_si128(p);
        else
            return _mm_loadl_epi64(p);
    }

    static void
    store(uint8_t *row, __m128i v)
    {
        auto *p = reinterpret_cast<__m128i *>(row);
        if constexpr (Ways == 16)
            _mm_storeu_si128(p, v);
        else
            _mm_storel_epi64(p, v);
    }

    /** Way bitmask of the lanes where @p cmp is all-ones. */
    static unsigned
    mask(__m128i cmp)
    {
        return static_cast<unsigned>(_mm_movemask_epi8(cmp)) &
               ((1u << Ways) - 1);
    }

    /** Way bitmask of the lanes of @p row equal to @p value. */
    static unsigned
    equal(const uint8_t *row, uint8_t value)
    {
        return mask(_mm_cmpeq_epi8(
            load(row), _mm_set1_epi8(static_cast<char>(value))));
    }

    /**
     * Largest unsigned lane of @p v, broadcast to every lane.  An
     * 8-way row's zero upper lanes never win against a real lane.
     */
    static __m128i
    max(__m128i v)
    {
        if constexpr (Ways == 16)
            v = _mm_max_epu8(v, _mm_srli_si128(v, 8));
        v = _mm_max_epu8(v, _mm_srli_si128(v, 4));
        v = _mm_max_epu8(v, _mm_srli_si128(v, 2));
        v = _mm_max_epu8(v, _mm_srli_si128(v, 1));
        return _mm_set1_epi8(static_cast<char>(_mm_cvtsi128_si32(v)));
    }
};
#endif

} // namespace gippr

#endif // GIPPR_UTIL_SSE_ROW_HH_
