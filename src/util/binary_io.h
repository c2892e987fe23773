// Tagged little-endian binary records, sealed files, and the one way this
// repo publishes a file.
//
// BinaryWriter appends records to a byte string; every record kind starts
// with a 4-byte tag so version/type mismatches fail loudly at the exact
// field, not as corrupted numbers downstream. BinaryReader parses them back
// from a byte span and checks every length against the bytes left before
// it allocates for it. Host endianness is assumed (the project targets a
// single machine; files are a cache, not an interchange format).
//
// Durable artifacts (pipeline checkpoints, stream snapshots) are sealed:
//
//   [4-byte tag][u64 version][body][u64 CRC-32 of the body]
//
// unseal() checks the size, tag, version and CRC of the whole body before
// the caller parses a single field, so truncation and bit rot fail loudly
// instead of deserializing (or allocating for) garbage.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace fs::util {

// ---- EINTR-safe POSIX I/O ----------------------------------------------
// Raw read/write/accept return EINTR whenever a signal lands mid-call —
// which, in a process that installs SIGINT/SIGTERM handlers (the CLI does),
// means every unwrapped syscall is a latent truncated read or lost accept.
// All fd-based I/O in this repo (stream journal, tail source, fs::net
// sockets) goes through these helpers.

/// read(2), retried on EINTR. Returns bytes read (0 = EOF) or -1 with errno
/// set to the first non-EINTR error.
ssize_t read_eintr(int fd, void* buf, std::size_t bytes);

/// write(2), retried on EINTR. May still write short (not an error);
/// callers that need the full buffer use write_all_eintr.
ssize_t write_eintr(int fd, const void* buf, std::size_t bytes);

/// Writes the whole buffer, looping over short writes and EINTR. Returns
/// false (errno set) on the first hard error.
bool write_all_eintr(int fd, const void* buf, std::size_t bytes);

/// accept(2), retried on EINTR. Returns the new fd or -1 with errno set to
/// the first non-EINTR error (EAGAIN/EWOULDBLOCK included — callers on
/// non-blocking listeners check for it).
int accept_eintr(int fd, struct sockaddr* addr, socklen_t* addr_len);

/// Flushes the file's data to stable storage, retried on EINTR. Returns
/// false (errno set) on hard error.
bool fsync_eintr(int fd);

// ---- whole files -------------------------------------------------------

/// The whole file as bytes. Throws fs::IoError if it cannot be opened or
/// read.
std::string read_file(const std::string& path);

/// Publishes `bytes` at `path` all-or-nothing: writes `<path>.tmp`, syncs
/// it, runs `before_rename` (a fault-injection hook), renames the tmp over
/// `path` and syncs the parent directory, so after a crash `path` holds
/// either the old file or the whole new one. Throws fs::IoError on any
/// failure and removes the tmp first — except for
/// failpoint::InjectedKill, which leaves the tmp exactly as a crash would.
void atomic_write(const std::string& path, std::string_view bytes,
                  const std::function<void()>& before_rename = {});

// ---- checksums and sealed files ----------------------------------------

/// CRC-32 (IEEE 802.3, the zlib polynomial), one-shot over a buffer.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

/// Frames `body` as a sealed file (layout above).
std::string seal(const char (&tag)[5], std::uint64_t version,
                 std::string_view body);

/// The verified body of a sealed file (a view into `bytes`). Throws
/// fs::CorruptCheckpoint if the file is too short or its tag, version or
/// CRC does not match.
std::string_view unseal(std::string_view bytes, const char (&tag)[5],
                        std::uint64_t version);

// ---- records -----------------------------------------------------------

class BinaryWriter {
 public:
  explicit BinaryWriter(std::string& out) : out_(out) {}

  void tag(const char (&name)[5]);  // 4 chars + NUL
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void f64(double value);
  void str(std::string_view value);
  void f64_vector(const std::vector<double>& values);
  void i32_vector(const std::vector<int>& values);

 private:
  void raw(const void* data, std::size_t bytes);
  std::string& out_;
};

/// Every failure (truncation, tag mismatch, a length past the end) throws
/// std::runtime_error.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}
  BinaryReader(std::string&&) = delete;  // the view would dangle

  void expect_tag(const char (&name)[5]);

  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  std::vector<double> f64_vector();
  std::vector<int> i32_vector();

  /// Reads a u64 element count and checks that that many elements of at
  /// least `min_element_bytes` each fit in the bytes left.
  std::size_t count(std::size_t min_element_bytes);

  /// Throws unless every byte has been read: a body with bytes its decoder
  /// did not consume is not the body that was written.
  void expect_end() const;

 private:
  void raw(void* data, std::size_t bytes);
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace fs::util
