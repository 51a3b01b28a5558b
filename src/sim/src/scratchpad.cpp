#include "ftm/sim/scratchpad.hpp"

#include <cstring>
#include <new>

namespace ftm::sim {

Scratchpad::Scratchpad(std::string name, std::size_t capacity_bytes)
    : name_(std::move(name)),
      capacity_(capacity_bytes),
      bytes_(static_cast<std::uint8_t*>(
          std::calloc(capacity_bytes == 0 ? 1 : capacity_bytes, 1))) {
  if (!bytes_) throw std::bad_alloc();
}

Region Scratchpad::alloc(std::size_t bytes) {
  const std::size_t aligned = (top_ + 63) & ~std::size_t{63};
  if (aligned + bytes > capacity()) {
    throw ContractViolation("Scratchpad '" + name_ + "' overflow: need " +
                            std::to_string(bytes) + " bytes at offset " +
                            std::to_string(aligned) + ", capacity " +
                            std::to_string(capacity()));
  }
  top_ = aligned + bytes;
  return Region{aligned, bytes};
}

void Scratchpad::reset() { top_ = 0; }

std::uint8_t* Scratchpad::raw(std::size_t offset, std::size_t len) {
  FTM_EXPECTS(offset + len <= capacity());
  return bytes_.get() + offset;
}

const std::uint8_t* Scratchpad::raw(std::size_t offset, std::size_t len) const {
  FTM_EXPECTS(offset + len <= capacity());
  return bytes_.get() + offset;
}

float* Scratchpad::f32(std::size_t byte_offset, std::size_t count) {
  FTM_EXPECTS(byte_offset % sizeof(float) == 0);
  return reinterpret_cast<float*>(raw(byte_offset, count * sizeof(float)));
}

const float* Scratchpad::f32(std::size_t byte_offset, std::size_t count) const {
  FTM_EXPECTS(byte_offset % sizeof(float) == 0);
  return reinterpret_cast<const float*>(
      raw(byte_offset, count * sizeof(float)));
}

std::uint32_t Scratchpad::load_u32(std::size_t byte_offset) const {
  std::uint32_t v;
  std::memcpy(&v, raw(byte_offset, 4), 4);
  return v;
}

std::uint64_t Scratchpad::load_u64(std::size_t byte_offset) const {
  std::uint64_t v;
  std::memcpy(&v, raw(byte_offset, 8), 8);
  return v;
}

}  // namespace ftm::sim
