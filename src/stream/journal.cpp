#include "stream/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/binary_io.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs::stream {
namespace {

namespace fp = util::failpoint;

constexpr std::uint32_t kFrameMagic = 0x464A4C31;  // "1LJF" on disk
constexpr char kJournalHeader[8] = {'F', 'S', 'J', 'R', 'N', 'L', '1', '\0'};
constexpr std::size_t kFrameHeaderBytes = 3 * sizeof(std::uint32_t);

// The RawEvent field list, shared by journal frames and snapshots.
void put_event(util::BinaryWriter& w, const RawEvent& e) {
  w.u64(e.seq);
  w.u64(e.event_id);
  w.u64(e.has_explicit_id ? 1 : 0);
  w.i64(e.user);
  w.i64(e.time);
  w.f64(e.location.lat);
  w.f64(e.location.lng);
  w.i64(e.poi);
  w.str(e.line);
}

// Eight fixed-width fields plus the line's length prefix.
constexpr std::size_t kMinEventBytes = 9 * sizeof(std::uint64_t);

void get_event(util::BinaryReader& r, RawEvent& e) {
  e.seq = r.u64();
  e.event_id = r.u64();
  e.has_explicit_id = r.u64() != 0;
  e.user = r.i64();
  e.time = r.i64();
  e.location.lat = r.f64();
  e.location.lng = r.f64();
  e.poi = r.i64();
  e.line = r.str();
}

std::string encode_payload(const JournalRecord& record) {
  std::string payload;
  util::BinaryWriter w(payload);
  w.u64(static_cast<std::uint64_t>(record.type));
  w.u64(record.source_index);
  switch (record.type) {
    case FrameType::kAccepted:
      put_event(w, record.event);
      break;
    case FrameType::kQuarantined:
      w.u64(static_cast<std::uint64_t>(record.reason));
      w.str(record.line);
      break;
    case FrameType::kShed:
      w.str(record.line);
      break;
  }
  return payload;
}

/// Decodes one payload; throws on any malformed field (the caller treats
/// that like a CRC failure: the prefix before this frame is the valid one).
JournalRecord decode_payload(const std::string& payload) {
  util::BinaryReader r(payload);
  JournalRecord record;
  const auto type = r.u64();
  if (type < 1 || type > 3)
    throw CorruptCheckpoint("journal frame with unknown type " +
                            std::to_string(type));
  record.type = static_cast<FrameType>(type);
  record.source_index = r.u64();
  switch (record.type) {
    case FrameType::kAccepted:
      get_event(r, record.event);
      break;
    case FrameType::kQuarantined: {
      const auto reason = r.u64();
      if (reason >= kRejectReasonCount)
        throw CorruptCheckpoint("journal quarantine frame with unknown reason");
      record.reason = static_cast<RejectReason>(reason);
      record.line = r.str();
      break;
    }
    case FrameType::kShed:
      record.line = r.str();
      break;
  }
  r.expect_end();
  return record;
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path) : path_(path) {
  std::error_code ec;
  const auto existing = std::filesystem::file_size(path_, ec);
  const bool fresh = ec || existing < sizeof(kJournalHeader);
  const int flags = O_WRONLY | O_CREAT | (fresh ? O_TRUNC : O_APPEND);
  fd_ = ::open(path_.c_str(), flags, 0644);
  if (fd_ < 0) throw IoError("cannot open journal for writing: " + path_);
  if (fresh) {
    // New (or hopelessly short) file: start from a clean header.
    if (!util::write_all_eintr(fd_, kJournalHeader, sizeof(kJournalHeader)))
      throw IoError("journal header write failed: " + path_);
    bytes_ = sizeof(kJournalHeader);
  } else {
    bytes_ = existing;
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append_frame(const std::string& payload) {
  std::string frame;
  frame.resize(kFrameHeaderBytes);
  const std::uint32_t magic = kFrameMagic;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  std::memcpy(frame.data(), &magic, sizeof(magic));
  std::memcpy(frame.data() + 4, &len, sizeof(len));
  std::memcpy(frame.data() + 8, &crc, sizeof(crc));
  frame += payload;

  const std::size_t writable =
      fp::truncate("stream.journal.torn_write", frame.size());
  if (!util::write_all_eintr(fd_, frame.data(), writable))
    throw IoError("journal append failed: " + path_);
  bytes_ += writable;
  if (writable != frame.size())
    throw IoError("journal torn write injected at " + path_ + " (wrote " +
                  std::to_string(writable) + "/" +
                  std::to_string(frame.size()) + " bytes)");
}

void JournalWriter::append_accepted(std::uint64_t source_index,
                                    const RawEvent& event) {
  JournalRecord record;
  record.type = FrameType::kAccepted;
  record.source_index = source_index;
  record.event = event;
  append_frame(encode_payload(record));
}

void JournalWriter::append_quarantined(std::uint64_t source_index,
                                       RejectReason reason,
                                       std::string_view line) {
  JournalRecord record;
  record.type = FrameType::kQuarantined;
  record.source_index = source_index;
  record.reason = reason;
  record.line.assign(line);
  append_frame(encode_payload(record));
}

void JournalWriter::append_shed(std::uint64_t source_index,
                                std::string_view line) {
  JournalRecord record;
  record.type = FrameType::kShed;
  record.source_index = source_index;
  record.line.assign(line);
  append_frame(encode_payload(record));
}

void JournalWriter::flush() {
  // Appends are unbuffered write(2) calls: nothing userspace-side to flush.
  // Kept as the semantic point where a tick's frames are "handed off".
}

void JournalWriter::sync() {
  if (!util::fsync_eintr(fd_)) throw IoError("journal fsync failed: " + path_);
}

RecoveredJournal recover_journal(const std::string& path) {
  RecoveredJournal result;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.missing = true;
    return result;
  }
  char header[sizeof(kJournalHeader)];
  in.read(header, sizeof(header));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(header)) ||
      std::memcmp(header, kJournalHeader, sizeof(header)) != 0) {
    // Unrecognised or torn header: nothing in this file is trustworthy.
    result.truncated_tail = true;
    return result;
  }
  in.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(sizeof(header));
  result.valid_bytes = sizeof(header);
  while (true) {
    char frame_header[kFrameHeaderBytes];
    in.read(frame_header, sizeof(frame_header));
    if (in.gcount() == 0) break;  // clean end of journal
    if (in.gcount() != static_cast<std::streamsize>(sizeof(frame_header))) {
      result.truncated_tail = true;
      break;
    }
    std::uint32_t magic = 0, len = 0, crc = 0;
    std::memcpy(&magic, frame_header, sizeof(magic));
    std::memcpy(&len, frame_header + 4, sizeof(len));
    std::memcpy(&crc, frame_header + 8, sizeof(crc));
    // Check the length against the bytes left before allocating for it: a
    // torn or forged header is a torn tail, not a multi-GiB allocation.
    if (magic != kFrameMagic ||
        len > file_bytes - result.valid_bytes - kFrameHeaderBytes) {
      result.truncated_tail = true;
      break;
    }
    std::string payload(len, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(len));
    if (in.gcount() != static_cast<std::streamsize>(len)) {
      result.truncated_tail = true;
      break;
    }
    if (util::crc32(payload.data(), payload.size()) != crc) {
      result.truncated_tail = true;
      break;
    }
    try {
      result.records.push_back(decode_payload(payload));
    } catch (const std::runtime_error&) {
      result.truncated_tail = true;
      break;
    }
    result.valid_bytes += kFrameHeaderBytes + len;
  }
  return result;
}

void truncate_journal(const std::string& path, std::uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec)
    throw IoError("cannot truncate journal " + path + " to " +
                  std::to_string(valid_bytes) + " bytes: " + ec.message());
}

void reset_journal(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot reset journal: " + path);
  out.write(kJournalHeader, sizeof(kJournalHeader));
  out.flush();
  if (!out) throw IoError("journal reset write failed: " + path);
}

// ---- snapshots ---------------------------------------------------------

// Version 2 widened quarantine_counts for the transport-level reject
// reasons (frame_corrupt/frame_malformed). v1 snapshots are refused by
// load_snapshot, which falls back to a full journal replay.
constexpr std::uint64_t kSnapshotVersion = 2;

void save_snapshot(const std::string& path, const Snapshot& snapshot) {
  std::string body;
  util::BinaryWriter w(body);
  w.u64(snapshot.config_fingerprint);
  w.u64(snapshot.consumed_lines);
  w.u64(snapshot.shed_total);
  for (const auto count : snapshot.quarantine_counts) w.u64(count);
  w.u64(snapshot.events.size());
  for (const auto& e : snapshot.events) put_event(w, e);
  util::atomic_write(path, util::seal("FSSN", kSnapshotVersion, body));
}

std::optional<Snapshot> load_snapshot(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  try {
    const std::string bytes = util::read_file(path);
    util::BinaryReader r(util::unseal(bytes, "FSSN", kSnapshotVersion));
    Snapshot snapshot;
    snapshot.config_fingerprint = r.u64();
    if (snapshot.config_fingerprint != expected_fingerprint)
      return std::nullopt;
    snapshot.consumed_lines = r.u64();
    snapshot.shed_total = r.u64();
    for (auto& count : snapshot.quarantine_counts) count = r.u64();
    snapshot.events.resize(r.count(kMinEventBytes));
    for (auto& e : snapshot.events) get_event(r, e);
    r.expect_end();
    return snapshot;
  } catch (const std::runtime_error&) {
    // Missing, torn, corrupt, or wrong-format snapshot: recovery replays
    // the journal.
    return std::nullopt;
  }
}

}  // namespace fs::stream
