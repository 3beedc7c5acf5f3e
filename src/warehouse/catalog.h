// Catalog: tables, columns, partitions and the (possibly missing or stale)
// statistics view the native optimizer sees.
//
// MaxCompute does not automatically maintain input statistics (NDVs,
// histograms) because of data scale and update frequency (Challenge 2).
// We model this as a per-table statistics record that is either absent or
// stale by a multiplicative drift factor; the *true* data properties live in
// Table/Column and are visible only to the execution simulator, never to the
// optimizers or to LOAM.
#ifndef LOAM_WAREHOUSE_CATALOG_H_
#define LOAM_WAREHOUSE_CATALOG_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace loam::warehouse {

struct Column {
  std::string name;
  long long ndv = 1;        // true number of distinct values
  double zipf_skew = 0.0;   // skew of the value distribution (0 = uniform)
};

struct Table {
  std::string name;
  long long row_count = 0;  // true row count
  int num_partitions = 1;
  double row_width = 64.0;  // bytes per row, drives operator work
  std::vector<Column> columns;
  int created_day = 0;
  int dropped_day = std::numeric_limits<int>::max();
  bool is_temp = false;
  // Snapshot/view twin of another table (used by day-over-day self-join
  // templates); shares the underlying storage, which is what makes spool
  // reuse across the two scans legal.
  int alias_of = -1;
  // Bumped by every schema migration (column add/drop, reload, repartition).
  // Scan nodes stamp it into the plan, and Plan::signature() hashes it, so a
  // plan built before a migration can NEVER share a cache key with a plan
  // built after it — even when the migration leaves the plan shape intact.
  int schema_epoch = 0;

  int lifespan_days() const {
    if (dropped_day == std::numeric_limits<int>::max()) {
      return std::numeric_limits<int>::max();
    }
    return dropped_day - created_day;
  }
  bool live_on(int day) const { return day >= created_day && day < dropped_day; }
};

// What the native optimizer's cost model can see about a table.
struct TableStats {
  bool available = false;
  // Row count as recorded the last time statistics were collected; drifts
  // away from the truth as the table is updated.
  long long observed_rows = 0;
  // Multiplicative error on recorded NDVs (1.0 = fresh).
  double ndv_drift = 1.0;
};

class Catalog {
 public:
  Catalog();
  // A copy or an assigned-to catalog takes a fresh generation, as does the
  // source of a move (its contents are gone).
  Catalog(const Catalog& other);
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(const Catalog& other);
  Catalog& operator=(Catalog&& other) noexcept;

  int add_table(Table table);

  int table_count() const { return static_cast<int>(tables_.size()); }
  const Table& table(int id) const { return tables_.at(static_cast<std::size_t>(id)); }
  // Draws a new generation when the reference is handed out: finish writing
  // through it before planning against the catalog again.
  Table& mutable_table(int id);
  // Returns -1 when not found.
  int find(const std::string& name) const;

  void set_stats(int id, TableStats stats);
  const TableStats& stats(int id) const {
    return stats_.at(static_cast<std::size_t>(id));
  }

  // Fully qualified column identifier used for hash encoding ("table.col").
  std::string column_identifier(int table_id, int column) const;

  // Identifies the catalog's current contents. Every value comes from one
  // process-wide counter and a new one is drawn on every mutation path
  // (add_table, set_stats, mutable_table) and on copy, move and assignment,
  // so no two states of any catalogs in the process ever share a value and
  // a state that was left can never come back. Memos of work planned
  // against the catalog key on it.
  std::uint64_t generation() const { return generation_; }

 private:
  static std::uint64_t next_generation();

  std::uint64_t generation_;
  std::vector<Table> tables_;
  std::vector<TableStats> stats_;
  std::unordered_map<std::string, int> by_name_;
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_CATALOG_H_
