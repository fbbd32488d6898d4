#pragma once

#include <cstddef>
#include <cstdint>

/// The four untrusted-input parser entry points, packaged with their
/// round-trip invariant checks as plain functions. Each is the body of one
/// libFuzzer harness (fuzz_*.cpp wraps it as LLVMFuzzerTestOneInput), and
/// the same functions are linked into the regular test suite, which
/// replays the checked-in seed corpora through them in every build — so a
/// corpus input that once crashed a parser keeps failing loudly even in
/// configurations that cannot run libFuzzer at all.
///
/// Contract (inherited from libFuzzer): return 0, never crash, never
/// leak, and treat any parse failure as an expected, catchable error. The
/// functions abort() on a violated round-trip invariant so the fuzzer
/// registers it as a finding.
namespace hpac::fuzz {

/// service/protocol.cpp: frame + query/answer/stats body decoding. The
/// first input byte selects the decoder; the rest is the payload.
int run_protocol(const std::uint8_t* data, std::size_t size);

/// harness/record.cpp: ResultDb::read over the record schema (first byte
/// selects drop_torn_tail), checking write/read round-trip stability of
/// whatever is accepted and, under drop_torn_tail, that the prefix read
/// accepted re-reads to the same records.
int run_csv(const std::uint8_t* data, std::size_t size);

/// harness/lease_journal.cpp: LeaseJournal::inspect_bytes over a raw
/// journal image — torn tails, mangled checksums, glued lines — checking
/// that two replays split at an arbitrary point reach the same state.
int run_lease_journal(const std::uint8_t* data, std::size_t size);

/// pragma/parser.cpp + common/strings.cpp: the `#pragma approx` clause
/// grammar behind every --spec CLI flag, plus the int/double primitives
/// under flag parsing, checking that parse(to_string(s)) has s's fields.
int run_spec(const std::uint8_t* data, std::size_t size);

}  // namespace hpac::fuzz
