#include "util/binary_io.h"

#include <errno.h>
#include <fcntl.h>
#include <libgen.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/error.h"
#include "util/failpoint.h"

namespace fs::util {

ssize_t read_eintr(int fd, void* buf, std::size_t bytes) {
  while (true) {
    const ssize_t n = ::read(fd, buf, bytes);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t write_eintr(int fd, const void* buf, std::size_t bytes) {
  while (true) {
    const ssize_t n = ::write(fd, buf, bytes);
    if (n >= 0 || errno != EINTR) return n;
  }
}

bool write_all_eintr(int fd, const void* buf, std::size_t bytes) {
  const char* cursor = static_cast<const char*>(buf);
  std::size_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t n = write_eintr(fd, cursor, remaining);
    if (n < 0) return false;
    cursor += n;
    remaining -= static_cast<std::size_t>(n);
  }
  return true;
}

int accept_eintr(int fd, struct sockaddr* addr, socklen_t* addr_len) {
  while (true) {
    const int conn = ::accept(fd, addr, addr_len);
    if (conn >= 0 || errno != EINTR) return conn;
  }
}

bool fsync_eintr(int fd) {
  while (true) {
    if (::fsync(fd) == 0) return true;
    if (errno != EINTR) return false;
  }
}

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path,
                              int error) {
  throw IoError(what + " '" + path + "': " + std::strerror(error));
}

/// Makes a just-renamed entry durable: rename alone only updates the
/// in-memory dirent.
bool fsync_parent_dir(const std::string& path) {
  // dirname may modify its argument; give it a scratch copy.
  std::string scratch = path;
  const int fd = ::open(::dirname(scratch.data()), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = fsync_eintr(fd);
  ::close(fd);
  return ok;
}

}  // namespace

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open", path, errno);
  std::string bytes;
  char chunk[1 << 16];
  ssize_t n;
  while ((n = read_eintr(fd, chunk, sizeof chunk)) > 0)
    bytes.append(chunk, static_cast<std::size_t>(n));
  const int error = errno;
  ::close(fd);
  if (n < 0) throw_errno("cannot read", path, error);
  return bytes;
}

void atomic_write(const std::string& path, std::string_view bytes,
                  const std::function<void()>& before_rename) {
  const std::string tmp = path + ".tmp";
  try {
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw_errno("cannot create", tmp, errno);
    const bool written =
        write_all_eintr(fd, bytes.data(), bytes.size()) && fsync_eintr(fd);
    const int error = errno;
    ::close(fd);
    if (!written) throw_errno("cannot write", tmp, error);
    if (before_rename) before_rename();
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw_errno("cannot rename onto", path, errno);
    if (!fsync_parent_dir(path))
      throw_errno("cannot sync the directory of", path, errno);
  } catch (const failpoint::InjectedKill&) {
    throw;  // a simulated crash leaves what a real one would
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::size_t kSealHead = 4 + sizeof(std::uint64_t);  // tag, version
constexpr std::size_t kSealTail = sizeof(std::uint64_t);       // CRC

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes_ptr = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i)
    c = table[(c ^ bytes_ptr[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string seal(const char (&tag)[5], std::uint64_t version,
                 std::string_view body) {
  std::string sealed;
  sealed.reserve(kSealHead + body.size() + kSealTail);
  BinaryWriter writer(sealed);
  writer.tag(tag);
  writer.u64(version);
  sealed.append(body);
  writer.u64(crc32(body.data(), body.size()));
  return sealed;
}

std::string_view unseal(std::string_view bytes, const char (&tag)[5],
                        std::uint64_t version) {
  const std::string name = std::string("sealed ") + tag + " file: ";
  if (bytes.size() < kSealHead + kSealTail)
    throw CorruptCheckpoint(name + "only " + std::to_string(bytes.size()) +
                            " bytes");
  if (bytes.substr(0, 4) != std::string_view(tag, 4))
    throw CorruptCheckpoint(name + "found tag '" +
                            std::string(bytes.substr(0, 4)) + "'");
  std::uint64_t found_version = 0, stored_crc = 0;
  std::memcpy(&found_version, bytes.data() + 4, sizeof found_version);
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - kSealTail,
              sizeof stored_crc);
  if (found_version != version)
    throw CorruptCheckpoint(name + "unsupported version " +
                            std::to_string(found_version));
  const std::string_view body =
      bytes.substr(kSealHead, bytes.size() - kSealHead - kSealTail);
  const std::uint32_t computed = crc32(body.data(), body.size());
  if (stored_crc != computed)
    throw CorruptCheckpoint(name + "CRC mismatch (stored " +
                            std::to_string(stored_crc) + ", computed " +
                            std::to_string(computed) + ")");
  return body;
}

void BinaryWriter::raw(const void* data, std::size_t bytes) {
  out_.append(static_cast<const char*>(data), bytes);
}

void BinaryWriter::tag(const char (&name)[5]) { raw(name, 4); }

void BinaryWriter::u64(std::uint64_t value) { raw(&value, sizeof value); }
void BinaryWriter::i64(std::int64_t value) { raw(&value, sizeof value); }
void BinaryWriter::f64(double value) { raw(&value, sizeof value); }

void BinaryWriter::str(std::string_view value) {
  u64(value.size());
  out_.append(value);
}

void BinaryWriter::f64_vector(const std::vector<double>& values) {
  u64(values.size());
  raw(values.data(), values.size() * sizeof(double));
}

void BinaryWriter::i32_vector(const std::vector<int>& values) {
  u64(values.size());
  raw(values.data(), values.size() * sizeof(int));
}

void BinaryReader::raw(void* data, std::size_t bytes) {
  if (bytes > bytes_.size() - pos_)
    throw std::runtime_error("BinaryReader: truncated input");
  if (bytes) std::memcpy(data, bytes_.data() + pos_, bytes);
  pos_ += bytes;
}

std::size_t BinaryReader::count(std::size_t min_element_bytes) {
  const std::uint64_t n = u64();
  if (n > (bytes_.size() - pos_) / min_element_bytes)
    throw std::runtime_error("BinaryReader: count " + std::to_string(n) +
                             " overruns the input");
  return static_cast<std::size_t>(n);
}

void BinaryReader::expect_end() const {
  if (pos_ != bytes_.size())
    throw std::runtime_error("BinaryReader: " +
                             std::to_string(bytes_.size() - pos_) +
                             " unread trailing bytes");
}

void BinaryReader::expect_tag(const char (&name)[5]) {
  char found[4];
  raw(found, 4);
  if (std::memcmp(found, name, 4) != 0)
    throw std::runtime_error(std::string("BinaryReader: expected tag '") +
                             name + "', found '" +
                             std::string(found, 4) + "'");
}

std::uint64_t BinaryReader::u64() {
  std::uint64_t value;
  raw(&value, sizeof value);
  return value;
}

std::int64_t BinaryReader::i64() {
  std::int64_t value;
  raw(&value, sizeof value);
  return value;
}

double BinaryReader::f64() {
  double value;
  raw(&value, sizeof value);
  return value;
}

std::string BinaryReader::str() {
  std::string value(count(1), '\0');
  raw(value.data(), value.size());
  return value;
}

std::vector<double> BinaryReader::f64_vector() {
  std::vector<double> values(count(sizeof(double)));
  raw(values.data(), values.size() * sizeof(double));
  return values;
}

std::vector<int> BinaryReader::i32_vector() {
  std::vector<int> values(count(sizeof(int)));
  raw(values.data(), values.size() * sizeof(int));
  return values;
}

}  // namespace fs::util
