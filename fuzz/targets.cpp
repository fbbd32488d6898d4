#include "targets.hpp"

#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fileops.hpp"
#include "common/strings.hpp"
#include "harness/lease_journal.hpp"
#include "harness/record.hpp"
#include "pragma/parser.hpp"
#include "service/protocol.hpp"

namespace hpac::fuzz {

namespace {

/// Inputs past this are truncated-by-ignoring: the parsers are all linear,
/// but a fuzzer exploring multi-megabyte inputs wastes its budget.
constexpr std::size_t kMaxInput = 1u << 20;

void check(bool invariant_held) {
  if (!invariant_held) std::abort();
}

std::string_view as_text(const std::uint8_t* data, std::size_t size) {
  return {reinterpret_cast<const char*>(data), size};
}

}  // namespace

int run_protocol(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size > kMaxInput) return 0;
  const std::string_view body = as_text(data + 1, size - 1);
  try {
    switch (data[0] & 3) {
      case 0: {
        const service::Frame frame = service::decode_frame(body);
        // encode_frame prepends the u32 length prefix decode_frame never
        // sees; strip it again for the round trip.
        const std::string encoded = service::encode_frame(frame.type, frame.body);
        const service::Frame again =
            service::decode_frame(std::string_view(encoded).substr(4));
        check(again.type == frame.type && again.body == frame.body);
        break;
      }
      case 1: {
        // Idempotence, not inversion: the decoder may ignore trailing
        // bytes, so encode(decode(x)) need not equal x — but it must be a
        // fixed point of decode-then-encode.
        const std::string once = service::encode_query(service::decode_query(body));
        check(once == service::encode_query(service::decode_query(once)));
        break;
      }
      case 2: {
        const std::string once = service::encode_answer(service::decode_answer(body));
        check(once == service::encode_answer(service::decode_answer(once)));
        break;
      }
      case 3: {
        const std::string once = service::encode_stats(service::decode_stats(body));
        check(once == service::encode_stats(service::decode_stats(once)));
        break;
      }
    }
  } catch (const service::ProtocolError&) {
    // Rejecting malformed input with a clean error is the contract.
  }
  return 0;
}

int run_csv(const std::uint8_t* data, std::size_t size) {
  if (size == 0 || size > kMaxInput) return 0;
  const bool drop_torn_tail = (data[0] & 1) != 0;
  const std::string input(as_text(data + 1, size - 1));
  const auto csv_text = [](const harness::ResultDb& db) {
    std::ostringstream out;
    db.to_csv().write(out);
    return out.str();
  };
  std::istringstream in{input};
  try {
    const harness::ResultDb db = harness::ResultDb::read(in, drop_torn_tail);
    // Whatever read accepted must re-serialize stably: write -> read ->
    // write is byte-identical (the property the result-store journal and
    // its canonical rewrite rely on).
    const std::string first = csv_text(db);
    std::istringstream again{first};
    check(first == csv_text(harness::ResultDb::read(again)));
    if (drop_torn_tail) {
      // read leaves the stream after the last row it accepted; that
      // prefix — what a result store keeps of its journal — must re-read
      // strictly to the same records.
      const std::streamoff accepted = in.tellg();
      check(accepted >= 0 && static_cast<std::size_t>(accepted) <= input.size());
      if (accepted == 0) {
        check(db.size() == 0);
      } else {
        std::istringstream prefix{input.substr(0, static_cast<std::size_t>(accepted))};
        check(first == csv_text(harness::ResultDb::read(prefix)));
      }
    }
  } catch (const Error&) {
  }
  return 0;
}

int run_lease_journal(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInput) return 0;
  using harness::LeaseJournal;
  const std::string_view bytes = as_text(data, size);
  // inspect_bytes is tolerant by contract: it never throws, it skips and
  // counts what it cannot parse.
  const LeaseJournal::Inspection out = LeaseJournal::inspect_bytes(bytes);
  check(out.tuples.size() == out.domain);
  check(out.valid_records ==
        out.claims + out.heartbeats + out.releases + out.reclaims);
  // Determinism: the same bytes replay to the same state.
  check(LeaseJournal::inspect_bytes(bytes) == out);
  // A live journal reads the file in refreshes that end anywhere: two
  // replays split at an arbitrary point, each resuming where the last
  // stopped, give the state of one inspect.
  const std::size_t cut = fileops::fnv1a64(bytes) % (bytes.size() + 1);
  LeaseJournal::Inspection live;
  std::size_t offset = LeaseJournal::replay(bytes.substr(0, cut), live);
  check(offset <= cut);
  offset += LeaseJournal::replay(bytes.substr(offset), live);
  if (offset < bytes.size()) ++live.invalid_lines;  // the unterminated tail
  check(live == out);
  return 0;
}

int run_spec(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxInput) return 0;
  const std::string text(as_text(data, size));
  // The primitives under every CLI flag: must classify, never crash.
  long long integer = 0;
  double real = 0.0;
  (void)strings::parse_int(text, integer);
  (void)strings::parse_double(text, real);
  try {
    const pragma::ApproxSpec spec = pragma::parse_approx(text);
    // The canonical form reads back to equal fields, and is a fixed point.
    const std::string canonical = spec.to_string();
    const pragma::ApproxSpec again = pragma::parse_approx(canonical);
    check(again == spec);
    check(canonical == again.to_string());
  } catch (const Error&) {
  }
  return 0;
}

}  // namespace hpac::fuzz
