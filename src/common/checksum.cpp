#include "common/checksum.hpp"

#include <bit>
#include <cstring>

namespace tfo {

std::uint16_t ones_complement_sum(BytesView data, std::uint32_t initial) {
  // Hot path: every TCP segment passes through here at least once (send
  // compute, receive verify). Two RFC 1071 identities make a wide
  // host-order accumulator legal: 2^16 ≡ 1 (mod 2^16 - 1), so a 64-bit
  // end-around-carry sum is congruent to the 16-bit word sum, and
  // byte-swapping every addend byte-swaps the result (swap is ×2^8 mod
  // 2^16-1), so little-endian loads need just one swap at the end.
  constexpr bool kLittle = std::endian::native == std::endian::little;
  std::uint32_t init = initial;
  while (init >> 16) init = (init & 0xffff) + (init >> 16);
  std::uint64_t sum =
      kLittle ? (((init >> 8) | (init << 8)) & 0xffff) : init;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    sum += w;
    if (sum < w) ++sum;  // end-around carry
    p += 8;
    n -= 8;
  }
  if (n >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    sum += w;
    if (sum < w) ++sum;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    std::uint16_t w;
    std::memcpy(&w, p, 2);
    sum += w;
    if (sum < w) ++sum;
    p += 2;
    n -= 2;
  }
  if (n > 0) {
    // The dangling byte is the high half of its padded word in network
    // order; in the little-endian convention that is the low half.
    const std::uint64_t w = kLittle ? p[0] : (std::uint64_t{p[0]} << 8);
    sum += w;
    if (sum < w) ++sum;
  }
  sum = (sum & 0xffffffffull) + (sum >> 32);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  auto folded = static_cast<std::uint16_t>(sum);
  if constexpr (kLittle) {
    folded = static_cast<std::uint16_t>((folded >> 8) | (folded << 8));
  }
  return folded;
}

std::uint16_t inet_checksum(BytesView data) {
  return static_cast<std::uint16_t>(~ones_complement_sum(data) & 0xffff);
}

std::uint16_t checksum_update16(std::uint16_t old_ck, std::uint16_t old_word,
                                std::uint16_t new_word) {
  // RFC 1624: HC' = ~(~HC + ~m + m'), all in one's-complement arithmetic.
  std::uint32_t sum = static_cast<std::uint16_t>(~old_ck);
  sum += static_cast<std::uint16_t>(~old_word);
  sum += new_word;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  const std::uint16_t ck = static_cast<std::uint16_t>(~sum & 0xffff);
  // One's-complement zero has two encodings; the incremental formula can
  // produce 0x0000 where a full recompute yields 0xFFFF (the checksum of
  // all-zero data). Receivers verify by summing to -0, and 0xFFFF passes
  // wherever 0x0000 does but not vice versa — so never emit 0x0000.
  // (UDP makes the same normalization for its it-is-zero sentinel.)
  return ck == 0 ? 0xffff : ck;
}

std::uint16_t checksum_update32(std::uint16_t old_ck, std::uint32_t old_val,
                                std::uint32_t new_val) {
  std::uint16_t ck = checksum_update16(old_ck, static_cast<std::uint16_t>(old_val >> 16),
                                       static_cast<std::uint16_t>(new_val >> 16));
  return checksum_update16(ck, static_cast<std::uint16_t>(old_val & 0xffff),
                           static_cast<std::uint16_t>(new_val & 0xffff));
}

}  // namespace tfo
