/// \file sql_shell.cpp
/// \brief A tiny interactive SQL shell over the analytic stack (parser ->
/// rewriter -> learning optimizer -> executor). Reads statements from
/// stdin; `EXPLAIN <select>` shows the plan with cardinality estimates,
/// `\store` dumps the plan store (Table I style), `\q` quits.
///
///   echo "CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (1),(2); \
///         SELECT COUNT(*) FROM t;" | ./example_sql_shell
///
/// With `--distributed[=N]` the session runs on a simulated N-DN MPP
/// cluster (default 3): tables are hash-sharded, SELECTs are lowered onto
/// the distributed physical-operator layer when the shape allows (EXPLAIN
/// then prints the physical tree — scan paths, join strategy, partial/final
/// aggregation), and fall back single-node with a reason otherwise. Extra
/// meta-commands: `\analyze` refreshes optimizer statistics, `\columnar t`
/// registers a columnar copy of t, `\refresh t` force-merges the delta
/// tails so the next scan runs on freshly sealed chunks. Columnar scans are
/// always fresh regardless (sealed chunks union with the delta tail);
/// `--delta-merge-threshold=N` sets the tail length that triggers a
/// background merge (default 4096 records) and `--no-auto-merge` leaves
/// merging entirely to `\refresh`.
///
/// Exchange overflow knobs (distributed only): `--exchange-cap=N` bounds
/// each exchange channel's in-memory window to N bytes (overflow spills to
/// disk and is reported after the query), `--spill-dir=PATH` picks the temp
/// directory, `--spill-budget=N` caps live on-disk spill bytes,
/// and `--build-cap=N` caps the per-DN join build partition; a query whose
/// spill outgrows the budget fails with ResourceExhausted. `--pipeline`
/// picks the pipelined exchange schedule: a join's consumers decode
/// batches as they land in simulated time instead of waiting for every
/// producer to close.
/// `--no-index` disables the optimizer's secondary-index fast path
/// (every SELECT scans) — the escape hatch for comparing plans.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "cluster/distributed_sql.h"
#include "optimizer/sql_session.h"

using namespace ofi;  // NOLINT

int main(int argc, char** argv) {
  int num_dns = 0;  // 0 = single-node session
  size_t exchange_cap = 0, spill_budget = 0, build_cap = 0;
  std::string spill_dir;
  bool pipeline = false;
  long long delta_merge_threshold = -1;  // -1 = keep the cluster default
  bool no_auto_merge = false;
  bool no_index = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--distributed") == 0) {
      num_dns = 3;
    } else if (std::strncmp(argv[i], "--distributed=", 14) == 0) {
      num_dns = std::atoi(argv[i] + 14);
      if (num_dns < 1) {
        std::fprintf(stderr, "bad --distributed=N value\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--exchange-cap=", 15) == 0) {
      exchange_cap = static_cast<size_t>(std::atoll(argv[i] + 15));
    } else if (std::strncmp(argv[i], "--spill-dir=", 12) == 0) {
      spill_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--spill-budget=", 15) == 0) {
      spill_budget = static_cast<size_t>(std::atoll(argv[i] + 15));
    } else if (std::strncmp(argv[i], "--build-cap=", 12) == 0) {
      build_cap = static_cast<size_t>(std::atoll(argv[i] + 12));
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      pipeline = true;
    } else if (std::strncmp(argv[i], "--delta-merge-threshold=", 24) == 0) {
      delta_merge_threshold = std::atoll(argv[i] + 24);
      if (delta_merge_threshold < 1) {
        std::fprintf(stderr, "bad --delta-merge-threshold=N value\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--no-auto-merge") == 0) {
      no_auto_merge = true;
    } else if (std::strcmp(argv[i], "--no-index") == 0) {
      no_index = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--distributed[=N]] [--exchange-cap=BYTES] "
                   "[--spill-dir=PATH] [--spill-budget=BYTES] "
                   "[--build-cap=BYTES] [--pipeline] "
                   "[--delta-merge-threshold=N] "
                   "[--no-auto-merge] [--no-index]\n",
                   argv[0]);
      return 1;
    }
  }
  if (num_dns == 0 && (exchange_cap || spill_budget || build_cap ||
                       !spill_dir.empty() || pipeline ||
                       delta_merge_threshold >= 0 || no_auto_merge ||
                       no_index)) {
    std::fprintf(stderr, "exchange/spill knobs need --distributed\n");
    return 1;
  }

  optimizer::SqlSession local;
  std::unique_ptr<cluster::DistributedSqlSession> dist;
  if (num_dns > 0) {
    dist = std::make_unique<cluster::DistributedSqlSession>(num_dns);
    dist->exec_options().max_channel_bytes = exchange_cap;
    dist->exec_options().spill_dir = spill_dir;
    dist->exec_options().max_spill_bytes = spill_budget;
    dist->exec_options().max_build_bytes = build_cap;
    dist->exec_options().pipeline = pipeline;
    dist->exec_options().use_index = !no_index;
    if (delta_merge_threshold >= 0) {
      dist->cluster().set_delta_merge_threshold(
          static_cast<size_t>(delta_merge_threshold));
    }
    if (no_auto_merge) dist->cluster().set_auto_merge(false);
    printf("openfidb sql shell — distributed over %d DNs, end statements "
           "with ';', \\q to quit\n", num_dns);
  } else {
    printf("openfidb sql shell — end statements with ';', \\q to quit\n");
  }

  std::string buffer;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "\\q") break;
    if (line == "\\store") {
      printf("%s", local.plan_store().ToTableString().c_str());
      continue;
    }
    if (line == "\\analyze") {
      if (dist) dist->Analyze(); else local.Analyze();
      printf("ok\n");
      continue;
    }
    if (line.rfind("\\columnar ", 0) == 0 || line.rfind("\\refresh ", 0) == 0) {
      if (!dist) {
        printf("error: columnar copies need --distributed\n");
        continue;
      }
      bool refresh = line[1] == 'r';
      std::string table = line.substr(line.find(' ') + 1);
      if (refresh) {
        auto n = dist->RefreshColumnar(table);
        if (n.ok()) printf("ok (%zu shards merged)\n", *n);
        else printf("error: %s\n", n.status().ToString().c_str());
      } else {
        Status s = dist->RegisterColumnar(table);
        if (s.ok()) printf("ok\n");
        else printf("error: %s\n", s.ToString().c_str());
      }
      continue;
    }
    buffer += line + "\n";
    auto pos = buffer.find(';');
    while (pos != std::string::npos) {
      std::string stmt = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      pos = buffer.find(';');
      // Trim whitespace-only statements.
      if (stmt.find_first_not_of(" \t\n\r") == std::string::npos) continue;

      if (stmt.find("EXPLAIN") == stmt.find_first_not_of(" \t\n\r")) {
        std::string inner = stmt.substr(stmt.find("EXPLAIN") + 7);
        auto plan = dist ? dist->Explain(inner) : local.Explain(inner);
        if (plan.ok()) {
          printf("%s", plan->c_str());
        } else {
          printf("error: %s\n", plan.status().ToString().c_str());
        }
        continue;
      }
      auto result = dist ? dist->Execute(stmt) : local.Execute(stmt);
      if (!result.ok()) {
        printf("error: %s\n", result.status().ToString().c_str());
        continue;
      }
      if (result->schema().num_columns() > 0) {
        if (dist) {
          const auto& info = dist->last();
          if (info.distributed) {
            printf("%s(%zu rows, distributed over %d DNs, "
                   "sim_latency_us=%lld)\n",
                   result->ToString(50).c_str(), result->num_rows(),
                   info.stats.num_serving,
                   (long long)info.stats.sim_latency_us);
            std::string scans = dist->LastScanReport();
            if (!scans.empty()) printf("%s", scans.c_str());
            if (pipeline) {
              printf("pipeline: overlap_us=%lld batches_streamed=%zu\n",
                     (long long)info.stats.pipeline_overlap_us,
                     info.stats.batches_streamed);
            }
            if (info.stats.spill_bytes + info.stats.build_spill_bytes > 0) {
              printf("spill: exchange=%zuB (%zu segments) build=%zuB\n",
                     info.stats.spill_bytes, info.stats.spill_segments,
                     info.stats.build_spill_bytes);
            }
          } else {
            printf("%s(%zu rows, single-node fallback: %s)\n",
                   result->ToString(50).c_str(), result->num_rows(),
                   info.fallback_reason.c_str());
          }
        } else {
          printf("%s(%zu rows, max q-error %.2f)\n",
                 result->ToString(50).c_str(), result->num_rows(),
                 local.last_max_qerror());
        }
      } else {
        printf("ok\n");
      }
    }
  }
  return 0;
}
