// Shared plumbing for the benchmark harnesses: problem construction from a
// (benchmark, length, pipelining, spare registers) tuple, the standard
// traditional-vs-SALSA allocation pair used by the table generators, and
// the pool-aware row generators behind bench_table2_ewf / bench_table3_dct.
//
// The SALSA run always additionally refines the traditional winner with the
// extended move set and keeps the better result — the extended binding model
// strictly subsumes the traditional one, so reporting anything worse would
// be a search artifact, not a model property.
//
// The table generators fan their config-grid rows out over the shared
// thread pool (util/thread_pool.h:parallel_map). Each row is seeded by its
// grid position alone and parallel_map collects in index order, so row
// ordering and every table value are identical for any thread count —
// tests/test_benchmarks.cpp pins this.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baseline/traditional.h"
#include "core/allocator.h"
#include "sched/asap_alap.h"
#include "sched/fu_search.h"
#include "util/thread_pool.h"

namespace salsa::benchharness {

struct ProblemBundle {
  std::unique_ptr<Cdfg> graph;
  std::unique_ptr<Schedule> schedule;
  std::unique_ptr<AllocProblem> problem;
  FuBudget fus;
  int min_regs = 0;
};

ProblemBundle make_problem(Cdfg graph, int length, bool pipelined,
                           int extra_regs);

struct Comparison {
  AllocationResult traditional;
  AllocationResult salsa;
  bool traditional_feasible = true;
};

ImproveParams standard_improve(uint64_t seed);

Comparison run_comparison(const AllocProblem& prob, uint64_t seed);

/// Search effort for one table row; the defaults reproduce the historical
/// (sequential) tables. Tests shrink these to keep the par-invariance
/// regression fast.
struct TableBudget {
  int max_trials = 12;
  int moves_per_trial = 5000;
  int restarts = 2;
};

/// One rendered-table row of bench_table2_ewf / bench_table3_dct, fully
/// determined by its grid position and the budget (never by thread count).
struct TableRow {
  int steps = 0;
  bool pipelined = false;
  int alus = 0;
  int muls = 0;
  int regs = 0;
  bool traditional_feasible = false;
  int trad_muxes = 0;   ///< meaningful only when traditional_feasible
  int trad_merged = 0;  ///< meaningful only when traditional_feasible
  int salsa_muxes = 0;
  int salsa_merged = 0;
  std::string winner;

  friend bool operator==(const TableRow&, const TableRow&) = default;
};

/// The paper's Table 2 grid (EWF: schedule lengths x pipelining x spare
/// registers), one allocation comparison per row, fanned out over the pool.
std::vector<TableRow> table2_rows(const TableBudget& budget,
                                  Parallelism parallelism = {});

/// The paper's Table 3 grid (DCT: four schedules x spare registers).
std::vector<TableRow> table3_rows(const TableBudget& budget,
                                  Parallelism parallelism = {});

/// One row of the throughput record bench_runtime emits
/// (BENCH_throughput.json): a benchmark's move rate. The record also
/// stamps the host's hardware thread count next to each rate.
struct ThroughputRow {
  std::string benchmark;
  double moves_per_sec = 0;
};

/// One row of the large-design scaling record bench_runtime emits
/// (BENCH_scaling.json): sequential engine-move throughput and memory
/// high-water mark at one design size. `peak_rss_mb` is the process-wide
/// resident high-water (getrusage ru_maxrss) sampled after the run — the
/// sweep executes sizes in ascending order, so each row's value bounds the
/// memory needed up to and including its design.
struct ScalingRow {
  std::string benchmark;
  std::string family;  ///< generator family ("cascade", "dag", ...) or "ewf"
  int ops = 0;         ///< operator count of the measured design
  int length = 0;      ///< schedule length in control steps
  int regs = 0;        ///< register budget
  double moves_per_sec = 0;
  double peak_rss_mb = 0;
};

/// One row of the initial-allocation record bench_runtime emits
/// (BENCH_initial.json): the constructive start's cost per storage placed on
/// one design.
struct InitialRow {
  std::string benchmark;
  std::string family;  ///< generator family ("cascade", ...) or "ewf"
  int ops = 0;         ///< operator count of the measured design
  int storages = 0;    ///< storages placed per initial_allocation call
  int regs = 0;        ///< register budget
  double ns_per_storage = 0;
};

/// `git describe --always --dirty --tags` of the tree the benchmark runs
/// in, or `fallback` when git (or a repository) is unavailable — bench
/// binaries run from arbitrary build directories.
std::string git_describe(std::string fallback = "unknown");

/// Writes the rows to `path` as a JSON array of {benchmark, moves_per_sec,
/// host_cores, git} objects. Overwrites; fails hard on I/O errors so CI
/// artifact uploads never silently archive a stale record.
void write_throughput_json(const std::string& path,
                           const std::vector<ThroughputRow>& rows,
                           const std::string& git_version);

/// Writes the scaling rows to `path` as a JSON array of {benchmark, family,
/// ops, length, regs, moves_per_sec, ns_per_move, peak_rss_mb, git}
/// objects (ns_per_move is derived from moves_per_sec at write time).
/// Overwrites; fails hard on I/O errors like write_throughput_json.
void write_scaling_json(const std::string& path,
                        const std::vector<ScalingRow>& rows,
                        const std::string& git_version);

/// Writes the initial-allocation rows to `path` as a JSON array of
/// {benchmark, family, ops, storages, regs, ns_per_storage, git} objects.
/// Overwrites; fails hard on I/O errors like write_throughput_json.
void write_initial_json(const std::string& path,
                        const std::vector<InitialRow>& rows,
                        const std::string& git_version);

}  // namespace salsa::benchharness
