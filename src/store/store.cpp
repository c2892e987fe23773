#include "store/store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "util/binary_io.h"
#include "util/error.h"

namespace fs::store {

namespace {

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw CorruptStore(path + ": " + what);
}

}  // namespace

std::uint64_t sort_fingerprint(std::span<const std::uint32_t> cells,
                               std::span<const std::uint32_t> slots) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (v >> shift) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    mix(cells[i]);
    mix(slots[i]);
  }
  return h;
}

MappedStore MappedStore::open(const std::string& path, Verify verify) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    throw IoError("store open '" + path + "': " + std::strerror(errno));
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("store fstat '" + path + "': " + std::strerror(err));
  }
  const auto bytes = static_cast<std::size_t>(st.st_size);
  if (bytes < kHeaderBytes) {
    ::close(fd);
    corrupt(path, "file shorter than the fixed header (" +
                      std::to_string(bytes) + " bytes)");
  }
  void* base = mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping outlives the descriptor; closing now keeps the fd budget
  // flat no matter how many stores a process opens.
  ::close(fd);
  if (base == MAP_FAILED)
    throw IoError("store mmap '" + path + "': " + std::strerror(errno));

  MappedStore out;
  out.base_ = base;
  out.bytes_ = bytes;
  out.path_ = path;
  const StoreHeader& h = out.header();
  // Layout can only be computed once the counts are trusted; the header CRC
  // check inside validate() runs before anything derived is used.
  out.layout_ = StoreLayout::compute(h.row_count, h.poi_count, h.edge_count);
  try {
    out.validate(verify);
  } catch (...) {
    // `out` would unmap on destruction anyway, but rethrow explicitly to
    // keep the error the caller sees (CorruptStore), not a move surprise.
    throw;
  }
  return out;
}

void MappedStore::validate(Verify verify) const {
  const StoreHeader& h = header();
  if (h.magic != kMagic) corrupt(path_, "bad magic (not a store file)");
  if (h.endian != kEndianMarker)
    corrupt(path_, "foreign endianness (store written on another machine?)");
  if (h.layout_version != kLayoutVersion)
    corrupt(path_, "layout version " + std::to_string(h.layout_version) +
                       " != supported " + std::to_string(kLayoutVersion));
  if (h.header_bytes != kHeaderBytes)
    corrupt(path_, "header size mismatch");
  const std::uint32_t got = util::crc32(base_, kHeaderBytes - sizeof(std::uint32_t));
  if (got != h.header_crc)
    corrupt(path_, "header CRC mismatch (bit rot or torn write)");
  if (h.block_bytes != kBlockBytes)
    corrupt(path_, "unsupported checksum block size");
  // Counts are now trusted; the exact-size equation catches truncation and
  // trailing garbage alike.
  if (bytes_ != layout_.file_bytes)
    corrupt(path_, "file is " + std::to_string(bytes_) + " bytes, layout says " +
                       std::to_string(layout_.file_bytes) + " (truncated?)");
  if (verify == Verify::kHeaderOnly) return;

  // Checksum section first (it vouches for the block CRCs), then each
  // payload block against its CRC, then the semantic sort fingerprint.
  const auto* crcs = ptr<std::uint32_t>(layout_.crc_off);
  const std::uint32_t section_crc =
      util::crc32(crcs, layout_.block_count * sizeof(std::uint32_t));
  if (section_crc != crcs[layout_.block_count])
    corrupt(path_, "checksum-section CRC mismatch");
  const char* payload = static_cast<const char*>(base_) + kHeaderBytes;
  const std::size_t payload_bytes = layout_.payload_end - kHeaderBytes;
  for (std::size_t b = 0; b < layout_.block_count; ++b) {
    const std::size_t off = b * kBlockBytes;
    const std::size_t len = std::min(kBlockBytes, payload_bytes - off);
    if (util::crc32(payload + off, len) != crcs[b])
      corrupt(path_, "payload block " + std::to_string(b) + " CRC mismatch");
  }
  const auto cell_col = cells();
  const auto slot_col = slots();
  for (std::size_t i = 1; i < cell_col.size(); ++i) {
    if (cell_col[i] < cell_col[i - 1] ||
        (cell_col[i] == cell_col[i - 1] && slot_col[i] < slot_col[i - 1]))
      corrupt(path_, "rows not sorted by (cell, slot) at row " +
                         std::to_string(i));
  }
  if (sort_fingerprint(cell_col, slot_col) != h.sort_fingerprint)
    corrupt(path_, "sort fingerprint mismatch");
}

MappedStore::MappedStore(MappedStore&& other) noexcept
    : base_(other.base_), bytes_(other.bytes_), layout_(other.layout_),
      path_(std::move(other.path_)) {
  other.base_ = nullptr;
  other.bytes_ = 0;
}

MappedStore& MappedStore::operator=(MappedStore&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) munmap(base_, bytes_);
    base_ = other.base_;
    bytes_ = other.bytes_;
    layout_ = other.layout_;
    path_ = std::move(other.path_);
    other.base_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

MappedStore::~MappedStore() {
  if (base_ != nullptr) munmap(base_, bytes_);
}

data::LoadReport MappedStore::load_report() const {
  const StoreHeader& h = header();
  data::LoadReport r;
  std::size_t i = 0;
  const auto next = [&] { return static_cast<std::size_t>(h.census[i++]); };
  r.checkin_lines = next();
  r.accepted_checkins = next();
  r.short_lines = next();
  r.bad_timestamps = next();
  r.bad_numbers = next();
  r.out_of_range_coords = next();
  r.edge_lines = next();
  r.accepted_edges = next();
  r.short_edge_lines = next();
  r.bad_edge_numbers = next();
  r.users_below_activity_floor = next();
  r.users_dropped_by_cap = next();
  return r;
}

data::Dataset MappedStore::to_dataset() const {
  const std::size_t n = row_count();
  const std::size_t p = poi_count();
  std::vector<data::Poi> poi_table(p);
  const auto plat = poi_lats();
  const auto plng = poi_lngs();
  const auto pcat = poi_categories();
  for (std::size_t i = 0; i < p; ++i)
    poi_table[i] = {{plat[i], plng[i]}, pcat[i]};

  std::vector<data::CheckIn> rows(n);
  const auto user_col = users();
  const auto poi_col = pois();
  const auto time_col = times();
  const auto lat_col = lats();
  const auto lng_col = lngs();
  for (std::size_t i = 0; i < n; ++i)
    rows[i] = {user_col[i], poi_col[i], time_col[i], {lat_col[i], lng_col[i]}};

  graph::Graph friendships(user_count());
  const auto edge_ids = edges();
  for (std::size_t i = 0; i < edge_ids.size(); i += 2)
    friendships.add_edge(edge_ids[i], edge_ids[i + 1]);
  return data::Dataset::build(user_count(), std::move(poi_table),
                              std::move(rows), std::move(friendships));
}

std::size_t MappedStore::resident_bytes() const {
  const long page_long = sysconf(_SC_PAGESIZE);
  const std::size_t page = page_long > 0 ? static_cast<std::size_t>(page_long)
                                         : 4096;
  const std::size_t pages = (bytes_ + page - 1) / page;
  std::vector<unsigned char> vec(pages);
  if (mincore(base_, bytes_, vec.data()) != 0) return bytes_;
  std::size_t resident = 0;
  for (unsigned char flags : vec) resident += (flags & 1u);
  return resident * page;
}

void MappedStore::release_pages() const {
  // Best effort: MAP_PRIVATE read-only pages are clean, so DONTNEED just
  // drops them; a failure (old kernel, locked memory) only costs accuracy
  // of the resident estimate, never correctness.
  madvise(base_, bytes_, MADV_DONTNEED);
}

}  // namespace fs::store
