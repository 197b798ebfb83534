// Galloping search over sorted id arrays, shared by the sorted-set
// intersections of the MCE kernels and the merge-based subgraph induction.

#ifndef MCE_UTIL_GALLOP_H_
#define MCE_UTIL_GALLOP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace mce {

/// A side is "much shorter" past this ratio; galloping then beats the
/// linear merge (O(short * log(long/short)) vs O(short + long)).
inline constexpr size_t kGallopRatio = 8;

/// First position in sorted [begin, end) with *pos >= key, found by
/// exponential probing followed by binary search over the bracketed run.
inline const uint32_t* GallopLowerBound(const uint32_t* begin,
                                        const uint32_t* end, uint32_t key) {
  const size_t n = static_cast<size_t>(end - begin);
  size_t bound = 1;
  while (bound < n && begin[bound] < key) bound <<= 1;
  const size_t lo = bound >> 1;
  const size_t hi = std::min(bound + 1, n);
  return std::lower_bound(begin + lo, begin + hi, key);
}

}  // namespace mce

#endif  // MCE_UTIL_GALLOP_H_
