#include "warehouse/catalog.h"

#include <atomic>
#include <stdexcept>

namespace loam::warehouse {

std::uint64_t Catalog::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Catalog::Catalog() : generation_(next_generation()) {}

Catalog::Catalog(const Catalog& other)
    : generation_(next_generation()),
      tables_(other.tables_),
      stats_(other.stats_),
      by_name_(other.by_name_) {}

Catalog::Catalog(Catalog&& other) noexcept
    : generation_(next_generation()),
      tables_(std::move(other.tables_)),
      stats_(std::move(other.stats_)),
      by_name_(std::move(other.by_name_)) {
  other.generation_ = next_generation();
}

Catalog& Catalog::operator=(const Catalog& other) {
  if (this != &other) {
    tables_ = other.tables_;
    stats_ = other.stats_;
    by_name_ = other.by_name_;
  }
  generation_ = next_generation();
  return *this;
}

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this != &other) {
    tables_ = std::move(other.tables_);
    stats_ = std::move(other.stats_);
    by_name_ = std::move(other.by_name_);
    other.generation_ = next_generation();
  }
  generation_ = next_generation();
  return *this;
}

Table& Catalog::mutable_table(int id) {
  Table& t = tables_.at(static_cast<std::size_t>(id));
  generation_ = next_generation();
  return t;
}

int Catalog::add_table(Table table) {
  const int id = static_cast<int>(tables_.size());
  if (by_name_.contains(table.name)) {
    throw std::invalid_argument("duplicate table name: " + table.name);
  }
  by_name_[table.name] = id;
  // Until statistics are collected the optimizer falls back to metadata.
  TableStats stats;
  stats.available = false;
  stats.observed_rows = table.row_count;
  tables_.push_back(std::move(table));
  stats_.push_back(stats);
  generation_ = next_generation();
  return id;
}

int Catalog::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : it->second;
}

void Catalog::set_stats(int id, TableStats stats) {
  stats_.at(static_cast<std::size_t>(id)) = stats;
  generation_ = next_generation();
}

std::string Catalog::column_identifier(int table_id, int column) const {
  const Table& t = table(table_id);
  return t.name + "." + t.columns.at(static_cast<std::size_t>(column)).name;
}

}  // namespace loam::warehouse
