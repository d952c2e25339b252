#include "core/sharing_pairs.hpp"

#include <algorithm>
#include <utility>

#include "io/checkpoint.hpp"
#include "io/checkpoint_tags.hpp"
#include "util/parallel.hpp"

namespace losstomo::core {

PartnerFinder::PartnerFinder(
    const linalg::SparseBinaryMatrix& r,
    const std::vector<std::vector<std::uint32_t>>& columns)
    : r_(&r), columns_(&columns), stamp_(r.rows(), 0) {}

void PartnerFinder::partners_of(std::size_t i, std::vector<std::uint32_t>& out) {
  out.clear();
  // A fresh tag per query invalidates every previous stamp without a clear.
  // Tag 0 is the vector's initial value, so skip it on wrap-around.
  if (++tag_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    tag_ = 1;
  }
  for (const auto link : r_->row(i)) {
    const auto& paths = (*columns_)[link];
    // Column lists are sorted, so partners >= i occupy a suffix.
    const auto from = std::lower_bound(paths.begin(), paths.end(),
                                       static_cast<std::uint32_t>(i));
    for (auto it = from; it != paths.end(); ++it) {
      if (stamp_[*it] != tag_) {
        stamp_[*it] = tag_;
        out.push_back(*it);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

SharingPairStore SharingPairStore::build(const linalg::SparseBinaryMatrix& r,
                                         std::size_t threads) {
  const std::size_t np = r.rows();
  SharingPairStore store;
  store.row_offsets_.assign(np + 1, 0);
  store.row_live_.assign(np, 1);
  store.columns_ = r.column_lists();
  if (np == 0) return store;
  const auto& columns = store.columns_;

  // Per-chunk local buffers, stitched in ascending chunk order afterwards:
  // chunk boundaries depend only on (np, grain), so the stored pair
  // sequence is identical at any thread count.
  struct ChunkOut {
    std::vector<std::size_t> pairs_per_row;
    std::vector<std::uint32_t> partner;
    std::vector<std::size_t> link_counts;
    std::vector<std::uint32_t> links;
  };
  const std::size_t grain = std::max<std::size_t>(1, np / 256);
  const std::size_t chunks = util::chunk_count(np, grain);
  std::vector<ChunkOut> outs(chunks);
  util::ThreadPool::global().run(
      chunks,
      [&](std::size_t c) {
        const auto [begin, end] = util::chunk_range(np, chunks, c);
        ChunkOut& out = outs[c];
        out.pairs_per_row.assign(end - begin, 0);
        PartnerFinder finder(r, columns);
        std::vector<std::uint32_t> partners;
        std::vector<std::uint32_t> shared;
        for (std::size_t i = begin; i < end; ++i) {
          finder.partners_of(i, partners);
          const auto ri = r.row(i);
          for (const auto j : partners) {
            linalg::intersect_sorted(ri, r.row(j), shared);
            // Candidates share a link by construction, but keep the guard:
            // the invariant is cheap to check and load-bearing downstream.
            if (shared.empty()) continue;
            ++out.pairs_per_row[i - begin];
            out.partner.push_back(j);
            out.link_counts.push_back(shared.size());
            out.links.insert(out.links.end(), shared.begin(), shared.end());
          }
        }
      },
      threads);

  std::size_t total_pairs = 0, total_links = 0;
  for (const auto& out : outs) {
    total_pairs += out.partner.size();
    total_links += out.links.size();
  }
  store.partner_.reserve(total_pairs);
  store.link_offsets_.reserve(total_pairs + 1);
  store.link_offsets_.push_back(0);
  store.links_.reserve(total_links);
  std::size_t row = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const ChunkOut& out = outs[c];
    for (const auto count : out.pairs_per_row) {
      store.row_offsets_[row + 1] = store.row_offsets_[row] + count;
      ++row;
    }
    store.partner_.insert(store.partner_.end(), out.partner.begin(),
                          out.partner.end());
    for (const auto count : out.link_counts) {
      store.link_offsets_.push_back(store.link_offsets_.back() + count);
    }
    store.links_.insert(store.links_.end(), out.links.begin(),
                        out.links.end());
  }
  return store;
}

std::size_t SharingPairStore::add_row(const linalg::SparseBinaryMatrix& r) {
  if (r.rows() != path_count() + 1) {
    throw std::invalid_argument(
        "add_row: routing matrix must contain exactly one new trailing row");
  }
  return add_rows(r);
}

std::size_t SharingPairStore::add_rows(const linalg::SparseBinaryMatrix& r) {
  if (r.rows() < path_count()) {
    throw std::invalid_argument(
        "add_rows: routing matrix has fewer rows than the store");
  }
  // Growing from an empty store (default-constructed, or built over a
  // 0-row matrix): establish the CSR leading offsets the loops below
  // extend via back().
  if (row_offsets_.empty()) row_offsets_.push_back(0);
  if (link_offsets_.empty()) link_offsets_.push_back(0);
  const std::size_t first_pair = pair_count();
  std::vector<std::uint32_t> partners;
  std::vector<std::uint32_t> shared;
  for (std::size_t i_new = path_count(); i_new < r.rows(); ++i_new) {
    const auto row = r.row(i_new);
    // Keep the transpose incidence current first, so the new path is its
    // own partner candidate (diagonal pair) like every build()-time row —
    // and earlier rows of this very batch partner with later ones.
    for (const auto link : row) {
      if (link >= columns_.size()) {
        columns_.resize(link + 1);  // links unseen by any earlier path
      }
      columns_[link].push_back(static_cast<std::uint32_t>(i_new));
    }
    partners.clear();
    for (const auto link : row) {
      const auto& paths = columns_[link];
      partners.insert(partners.end(), paths.begin(), paths.end());
    }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());

    for (const auto j : partners) {
      linalg::intersect_sorted(row, r.row(j), shared);
      if (shared.empty()) continue;
      const std::size_t p = partner_.size();
      partner_.push_back(j);
      link_offsets_.push_back(link_offsets_.back() + shared.size());
      links_.insert(links_.end(), shared.begin(), shared.end());
      if (reverse_built_ && j != i_new) partner_pairs_[j].push_back(p);
    }
    row_offsets_.push_back(partner_.size());
    row_live_.push_back(1);
    if (reverse_built_) partner_pairs_.emplace_back();
  }
  return first_pair;
}

void SharingPairStore::set_row_live(std::size_t i, bool live) {
  row_live_[i] = live ? 1 : 0;
}

void SharingPairStore::ensure_reverse_index() const {
  if (reverse_built_) return;
  partner_pairs_.assign(path_count(), {});
  for (std::size_t i = 0; i < path_count(); ++i) {
    for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      const std::uint32_t j = partner_[p];
      if (j != i) partner_pairs_[j].push_back(p);
    }
  }
  reverse_built_ = true;
}

std::size_t SharingPairStore::find_pair(std::size_t i, std::size_t j) const {
  const auto in_row = [&](std::size_t row, std::uint32_t want) {
    std::size_t lo = row_offsets_[row], hi = row_offsets_[row + 1];
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (partner_[mid] < want) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < row_offsets_[row + 1] && partner_[lo] == want) return lo;
    return kNoPair;
  };
  const std::size_t p = in_row(i, static_cast<std::uint32_t>(j));
  if (p != kNoPair) return p;
  return in_row(j, static_cast<std::uint32_t>(i));
}

void SharingPairStore::pairs_of_path(std::size_t i,
                                     std::vector<std::size_t>& out) const {
  ensure_reverse_index();
  out.clear();
  for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
    out.push_back(p);
  }
  out.insert(out.end(), partner_pairs_[i].begin(), partner_pairs_[i].end());
  std::sort(out.begin(), out.end());
}

void SharingPairStore::save_state(io::CheckpointWriter& writer) const {
  writer.begin_section(io::tags::kSharingPairs);
  writer.sizes(row_offsets_);
  writer.u32s(partner_);
  writer.sizes(link_offsets_);
  writer.u32s(links_);
  writer.u8s(row_live_);
  writer.usize(columns_.size());
  for (const auto& column : columns_) writer.u32s(column);
  writer.end_section();
}

void SharingPairStore::restore_state(io::CheckpointReader& reader) {
  reader.expect_section(io::tags::kSharingPairs);
  SharingPairStore tmp;
  tmp.row_offsets_ = reader.sizes();
  tmp.partner_ = reader.u32s();
  tmp.link_offsets_ = reader.sizes();
  tmp.links_ = reader.u32s();
  tmp.row_live_ = reader.u8s();
  const std::size_t column_count = reader.usize();
  if (column_count > reader.remaining() / 8) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "pair store column count exceeds the payload");
  }
  tmp.columns_.resize(column_count);
  for (auto& column : tmp.columns_) column = reader.u32s();
  reader.end_section();
  // Structural consistency: offsets monotone within bounds, partner and
  // link ids in range — everything the unchecked readers rely on.
  const std::size_t paths = tmp.path_count();
  bool ok = !tmp.row_offsets_.empty() && tmp.row_offsets_.front() == 0 &&
            tmp.row_offsets_.back() == tmp.partner_.size() &&
            tmp.row_live_.size() == paths &&
            tmp.link_offsets_.size() == tmp.partner_.size() + 1 &&
            !tmp.link_offsets_.empty() && tmp.link_offsets_.front() == 0 &&
            tmp.link_offsets_.back() == tmp.links_.size();
  for (std::size_t i = 0; ok && i + 1 < tmp.row_offsets_.size(); ++i) {
    ok = tmp.row_offsets_[i] <= tmp.row_offsets_[i + 1];
  }
  for (std::size_t p = 0; ok && p + 1 < tmp.link_offsets_.size(); ++p) {
    ok = tmp.link_offsets_[p] <= tmp.link_offsets_[p + 1];
  }
  for (std::size_t p = 0; ok && p < tmp.partner_.size(); ++p) {
    ok = tmp.partner_[p] < paths;
  }
  for (std::size_t e = 0; ok && e < tmp.links_.size(); ++e) {
    ok = tmp.links_[e] < tmp.columns_.size();
  }
  for (std::size_t c = 0; ok && c < tmp.columns_.size(); ++c) {
    for (std::size_t k = 0; ok && k < tmp.columns_[c].size(); ++k) {
      ok = tmp.columns_[c][k] < paths;
    }
  }
  if (!ok) {
    throw io::CheckpointError(io::CheckpointErrorKind::kCorrupt,
                              "pair store CSR structure is inconsistent");
  }
  *this = std::move(tmp);
}

std::size_t SharingPairStore::bytes() const {
  std::size_t total = row_offsets_.capacity() * sizeof(std::size_t) +
                      partner_.capacity() * sizeof(std::uint32_t) +
                      link_offsets_.capacity() * sizeof(std::size_t) +
                      links_.capacity() * sizeof(std::uint32_t) +
                      row_live_.capacity();
  for (const auto& column : columns_) {
    total += column.capacity() * sizeof(std::uint32_t);
  }
  total += columns_.capacity() * sizeof(std::vector<std::uint32_t>);
  for (const auto& pairs : partner_pairs_) {
    total += pairs.capacity() * sizeof(std::size_t);
  }
  total += partner_pairs_.capacity() * sizeof(std::vector<std::size_t>);
  return total;
}

}  // namespace losstomo::core
