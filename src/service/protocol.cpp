#include "service/protocol.hpp"

#include <bit>
#include <cstring>
#include <type_traits>

namespace hpac::service {

namespace {

/// Byte order on the wire is little-endian. This maps a host value to its
/// wire representation — and, being an involution, the wire value back to
/// host order. On little-endian hosts it compiles to nothing.
template <typename T>
constexpr T to_wire_order(T value) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    return value;
  } else {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>(out << 8) |
            static_cast<T>((value >> (8 * i)) & 0xffu);
    }
    return out;
  }
}

/// Append `value` little-endian. memcpy from an object of the right type —
/// no per-byte shifting into char, no aliasing or alignment assumptions;
/// UBSan-clean by construction and byte-identical on the wire to the old
/// hand-packed form.
template <typename T>
void store_le(std::string& out, T value) {
  const T wire = to_wire_order(value);
  char raw[sizeof(T)];
  std::memcpy(raw, &wire, sizeof(T));
  out.append(raw, sizeof(T));
}

/// Read a little-endian scalar at `offset`, advancing it. The guard is
/// written subtraction-first so a hostile offset can never overflow.
template <typename T>
T load_le(std::string_view body, std::size_t& offset, const char* label) {
  if (offset > body.size() || body.size() - offset < sizeof(T)) {
    throw ProtocolError(std::string("truncated ") + label);
  }
  T wire;
  std::memcpy(&wire, body.data() + offset, sizeof(T));
  offset += sizeof(T);
  return to_wire_order(wire);
}

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

std::uint8_t get_u8(std::string_view body, std::size_t& offset) {
  return load_le<std::uint8_t>(body, offset, "u8");
}

void put_i32(std::string& out, int value) {
  put_u32(out, static_cast<std::uint32_t>(value));
}

int get_i32(std::string_view body, std::size_t& offset) {
  return static_cast<int>(get_u32(body, offset));
}

}  // namespace

// --- primitive scalars -------------------------------------------------------

void put_u16(std::string& out, std::uint16_t value) { store_le(out, value); }

void put_u32(std::string& out, std::uint32_t value) { store_le(out, value); }

void put_u64(std::string& out, std::uint64_t value) { store_le(out, value); }

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

void put_string(std::string& out, std::string_view value) {
  if (value.size() > kMaxPayload) throw ProtocolError("string exceeds frame bound");
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out.append(value);
}

std::uint16_t get_u16(std::string_view body, std::size_t& offset) {
  return load_le<std::uint16_t>(body, offset, "u16");
}

std::uint32_t get_u32(std::string_view body, std::size_t& offset) {
  return load_le<std::uint32_t>(body, offset, "u32");
}

std::uint64_t get_u64(std::string_view body, std::size_t& offset) {
  return load_le<std::uint64_t>(body, offset, "u64");
}

double get_f64(std::string_view body, std::size_t& offset) {
  return std::bit_cast<double>(get_u64(body, offset));
}

std::string get_string(std::string_view body, std::size_t& offset) {
  const std::uint32_t length = get_u32(body, offset);
  if (length > kMaxPayload || offset + length > body.size()) {
    throw ProtocolError("truncated string");
  }
  std::string value(body.substr(offset, length));
  offset += length;
  return value;
}

// --- framing -----------------------------------------------------------------

std::string encode_frame(MessageType type, std::string_view body) {
  std::string payload;
  payload.reserve(4 + body.size());
  put_u16(payload, kProtocolVersion);
  put_u16(payload, static_cast<std::uint16_t>(type));
  payload.append(body);
  if (payload.size() > kMaxPayload) throw ProtocolError("frame exceeds payload bound");
  std::string frame;
  frame.reserve(4 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

Frame decode_frame(std::string_view payload) {
  std::size_t offset = 0;
  const std::uint16_t version = get_u16(payload, offset);
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " + std::to_string(version) +
                        " (speaking " + std::to_string(kProtocolVersion) + ")");
  }
  const std::uint16_t raw_type = get_u16(payload, offset);
  if (raw_type < static_cast<std::uint16_t>(MessageType::kQueryRequest) ||
      raw_type > static_cast<std::uint16_t>(MessageType::kShutdownReply)) {
    throw ProtocolError("unknown message type " + std::to_string(raw_type));
  }
  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.body = std::string(payload.substr(offset));
  return frame;
}

// --- message bodies ----------------------------------------------------------

std::string encode_query(const harness::TuningQuery& query) {
  std::string body;
  put_string(body, query.benchmark);
  put_string(body, query.device);
  put_string(body, query.spec_text);
  put_u64(body, query.items_per_thread);
  put_u32(body, query.deadline_ms);
  return body;
}

harness::TuningQuery decode_query(std::string_view body) {
  std::size_t offset = 0;
  harness::TuningQuery query;
  query.benchmark = get_string(body, offset);
  query.device = get_string(body, offset);
  query.spec_text = get_string(body, offset);
  query.items_per_thread = get_u64(body, offset);
  query.deadline_ms = get_u32(body, offset);
  return query;
}

namespace {

// The record travels field-by-field (not as a CSV row) so the wire format
// is governed by the protocol version alone, independent of how the store
// happens to serialize its journal. RunRecord::for_each_field fixes the
// field order; this file fixes only each C++ type's wire encoding.
void put_field(std::string& out, const std::string& value) { put_string(out, value); }
void put_field(std::string& out, double value) { put_f64(out, value); }
void put_field(std::string& out, int value) { put_i32(out, value); }
void put_field(std::string& out, std::uint64_t value) { put_u64(out, value); }
void put_field(std::string& out, bool value) { put_u8(out, value ? 1 : 0); }
template <typename Enum>
  requires std::is_enum_v<Enum>
void put_field(std::string& out, Enum value) {
  put_u16(out, static_cast<std::uint16_t>(value));
}

void get_field(std::string_view body, std::size_t& offset, std::string& out) {
  out = get_string(body, offset);
}
void get_field(std::string_view body, std::size_t& offset, double& out) {
  out = get_f64(body, offset);
}
void get_field(std::string_view body, std::size_t& offset, int& out) {
  out = get_i32(body, offset);
}
void get_field(std::string_view body, std::size_t& offset, std::uint64_t& out) {
  out = get_u64(body, offset);
}
void get_field(std::string_view body, std::size_t& offset, bool& out) {
  out = get_u8(body, offset) != 0;
}
template <typename Enum>
  requires std::is_enum_v<Enum>
void get_field(std::string_view body, std::size_t& offset, Enum& out) {
  out = static_cast<Enum>(get_u16(body, offset));
}

void put_record(std::string& out, const harness::RunRecord& record) {
  harness::RunRecord::for_each_field(
      record, [&out](const char*, const auto& field) { put_field(out, field); });
}

harness::RunRecord get_record(std::string_view body, std::size_t& offset) {
  harness::RunRecord record;
  harness::RunRecord::for_each_field(
      record, [&](const char*, auto& field) { get_field(body, offset, field); });
  return record;
}

}  // namespace

std::string encode_answer(const harness::TuningAnswer& answer) {
  std::string body;
  put_u8(body, static_cast<std::uint8_t>(answer.status));
  put_u8(body, answer.memoized ? 1 : 0);
  put_string(body, answer.error);
  // A degraded answer carries the nearest-known record (whose identity
  // fields differ from the query — that is the point).
  const bool has_record = answer.status == harness::TuningStatus::kOk ||
                          answer.status == harness::TuningStatus::kDegraded;
  put_u8(body, has_record ? 1 : 0);
  if (has_record) put_record(body, answer.record);
  return body;
}

harness::TuningAnswer decode_answer(std::string_view body) {
  std::size_t offset = 0;
  harness::TuningAnswer answer;
  const std::uint8_t raw_status = get_u8(body, offset);
  if (raw_status > static_cast<std::uint8_t>(harness::TuningStatus::kDegraded)) {
    throw ProtocolError("unknown answer status " + std::to_string(raw_status));
  }
  answer.status = static_cast<harness::TuningStatus>(raw_status);
  answer.memoized = get_u8(body, offset) != 0;
  answer.error = get_string(body, offset);
  if (get_u8(body, offset) != 0) answer.record = get_record(body, offset);
  return answer;
}

std::string encode_stats(const harness::TuningService::Stats& stats) {
  std::string body;
  put_u64(body, stats.queries);
  put_u64(body, stats.memoized);
  put_u64(body, stats.evaluated);
  put_u64(body, stats.coalesced);
  put_u64(body, stats.rejected);
  put_u64(body, stats.degraded);
  put_u64(body, stats.deadline_exceeded);
  put_u64(body, stats.eval_failures);
  put_u64(body, stats.quarantined);
  return body;
}

harness::TuningService::Stats decode_stats(std::string_view body) {
  std::size_t offset = 0;
  harness::TuningService::Stats stats;
  stats.queries = get_u64(body, offset);
  stats.memoized = get_u64(body, offset);
  stats.evaluated = get_u64(body, offset);
  stats.coalesced = get_u64(body, offset);
  stats.rejected = get_u64(body, offset);
  stats.degraded = get_u64(body, offset);
  stats.deadline_exceeded = get_u64(body, offset);
  stats.eval_failures = get_u64(body, offset);
  stats.quarantined = get_u64(body, offset);
  return stats;
}

}  // namespace hpac::service
