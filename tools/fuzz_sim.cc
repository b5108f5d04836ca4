// fuzz_sim — deterministic model-based simulation fuzzer.
//
// From each 64-bit seed, generates a random schema + interleaved op
// stream (DML, link rewires, checkpoints, reopens, power cuts, vacuums)
// and a random query mix — some queries governed by random deadlines, a
// cancel from a second thread, or injected transient read EIOs the
// retry policy absorbs — then executes everything against the real
// Database (3 storage strategies x parallelism {1,4}) and the in-memory
// reference model, comparing results, error codes, vacuum counts, id
// allocation, integrity and trace counters at every step. Divergences
// are minimized with a built-in delta-debugging shrinker.
//
// stdout carries exactly one deterministic JSON summary line per seed
// (bit-identical across runs of the same seed); progress and failure
// traces go to stderr and --artifact_dir.
//
//   fuzz_sim --seed=42                 # one seed, full matrix
//   fuzz_sim --seeds=0:1000 --ops=40   # smoke sweep
//   fuzz_sim --seed=7 --plant_bug      # self-test: must catch the bug
//
// Exit code: 0 = all seeds passed (with --plant_bug: the bug was
// caught), 1 = divergence found (with --plant_bug: missed), 2 = usage.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include "sim/harness.h"
#include "sim/shrink.h"
#include "sim/workload.h"

namespace {

struct Args {
  uint64_t seed_begin = 0;
  uint64_t seed_end = 1;  // exclusive
  size_t ops = 300;
  bool cuts = true;
  bool vacuum = true;
  bool tiering = true;
  bool cancel = true;
  bool transient_io = true;
  bool txns = true;
  bool shrink = true;
  bool cursor_check = true;
  bool plant_bug = false;
  std::string artifact_dir;
};

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: fuzz_sim [--seed=N | --seeds=A:B] [--ops=N] [--no_cuts]\n"
      "                [--no_vacuum] [--no_tiering] [--no_cancel]\n"
      "                [--no_transient_io] [--no_txns] [--no_shrink]\n"
      "                [--no_cursor_check] [--plant_bug]\n"
      "                [--artifact_dir=DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--seed=", 7) == 0) {
      if (!ParseUint(a + 7, &args->seed_begin)) return false;
      args->seed_end = args->seed_begin + 1;
    } else if (std::strncmp(a, "--seeds=", 8) == 0) {
      std::string range(a + 8);
      size_t colon = range.find(':');
      if (colon == std::string::npos) return false;
      if (!ParseUint(range.substr(0, colon).c_str(), &args->seed_begin) ||
          !ParseUint(range.substr(colon + 1).c_str(), &args->seed_end)) {
        return false;
      }
      if (args->seed_end <= args->seed_begin) return false;
    } else if (std::strncmp(a, "--ops=", 6) == 0) {
      uint64_t n;
      if (!ParseUint(a + 6, &n) || n == 0) return false;
      args->ops = static_cast<size_t>(n);
    } else if (std::strcmp(a, "--no_cuts") == 0) {
      args->cuts = false;
    } else if (std::strcmp(a, "--no_vacuum") == 0) {
      args->vacuum = false;
    } else if (std::strcmp(a, "--no_tiering") == 0) {
      args->tiering = false;
    } else if (std::strcmp(a, "--no_cancel") == 0) {
      args->cancel = false;
    } else if (std::strcmp(a, "--no_transient_io") == 0) {
      args->transient_io = false;
    } else if (std::strcmp(a, "--no_txns") == 0) {
      args->txns = false;
    } else if (std::strcmp(a, "--no_shrink") == 0) {
      args->shrink = false;
    } else if (std::strcmp(a, "--no_cursor_check") == 0) {
      args->cursor_check = false;
    } else if (std::strcmp(a, "--plant_bug") == 0) {
      args->plant_bug = true;
    } else if (std::strncmp(a, "--artifact_dir=", 15) == 0) {
      args->artifact_dir = a + 15;
    } else {
      return false;
    }
  }
  return true;
}

void WriteArtifact(const Args& args, const tcob::sim::ShrinkResult& shrunk) {
  if (args.artifact_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(args.artifact_dir, ec);
  if (ec) {
    std::fprintf(stderr,
                 "fuzz_sim: cannot create artifact directory %s: %s\n",
                 args.artifact_dir.c_str(), ec.message().c_str());
    return;
  }
  std::string path = args.artifact_dir + "/seed-" +
                     std::to_string(shrunk.workload.seed) + ".trace";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fuzz_sim: cannot write artifact %s\n",
                 path.c_str());
    return;
  }
  std::string body = "divergence: " + shrunk.failure.divergence + "\n\n" +
                     tcob::sim::WorkloadToString(shrunk.workload) +
                     "\nreproduce: fuzz_sim --seed=" +
                     std::to_string(shrunk.workload.seed) +
                     " --ops=" + std::to_string(args.ops) +
                     (args.cuts ? "" : " --no_cuts") +
                     (args.vacuum ? "" : " --no_vacuum") +
                     (args.tiering ? "" : " --no_tiering") +
                     (args.cancel ? "" : " --no_cancel") +
                     (args.transient_io ? "" : " --no_transient_io") +
                     (args.txns ? "" : " --no_txns") +
                     (args.cursor_check ? "" : " --no_cursor_check") + "\n";
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "fuzz_sim: artifact written to %s\n", path.c_str());

  // The failing instance's flight-recorder dump rides along: open it in
  // Perfetto / chrome://tracing to see what the engine was doing when
  // the divergence surfaced.
  if (!shrunk.failure.failure_trace_json.empty()) {
    std::string trace_path = args.artifact_dir + "/seed-" +
                             std::to_string(shrunk.workload.seed) +
                             "-trace.json";
    FILE* tf = std::fopen(trace_path.c_str(), "w");
    if (tf == nullptr) {
      std::fprintf(stderr, "fuzz_sim: cannot write trace dump %s\n",
                   trace_path.c_str());
      return;
    }
    std::fwrite(shrunk.failure.failure_trace_json.data(), 1,
                shrunk.failure.failure_trace_json.size(), tf);
    std::fclose(tf);
    std::fprintf(stderr, "fuzz_sim: trace dump written to %s\n",
                 trace_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  tcob::sim::GenOptions gen;
  gen.num_ops = args.ops;
  gen.enable_cuts = args.cuts;
  gen.enable_vacuum = args.vacuum;
  gen.enable_tiering = args.tiering;
  gen.enable_cancel = args.cancel;
  gen.enable_transient_io = args.transient_io;
  gen.enable_txns = args.txns;

  tcob::sim::RunOptions run;
  run.bug = args.plant_bug ? tcob::sim::ModelBug::kIgnoreDeletes
                           : tcob::sim::ModelBug::kNone;
  run.check_cursors = args.cursor_check;

  uint64_t failures = 0;
  for (uint64_t seed = args.seed_begin; seed < args.seed_end; ++seed) {
    tcob::sim::SimWorkload w = tcob::sim::GenerateWorkload(seed, gen);
    tcob::sim::RunResult result = tcob::sim::RunWorkload(w, run);
    std::printf("%s\n", result.summary_json.c_str());
    std::fflush(stdout);
    if (result.ok) continue;
    ++failures;
    std::fprintf(stderr, "fuzz_sim: seed %" PRIu64 " DIVERGED: %s\n", seed,
                 result.divergence.c_str());
    if (args.shrink) {
      tcob::sim::RunOptions shrink_run = run;
      tcob::sim::ShrinkResult shrunk =
          tcob::sim::ShrinkWorkload(w, shrink_run);
      std::fprintf(stderr,
                   "fuzz_sim: shrunk to %zu op(s) in %zu harness run(s)\n",
                   shrunk.workload.ops.size(), shrunk.harness_runs);
      std::fprintf(stderr, "%s",
                   tcob::sim::WorkloadToString(shrunk.workload).c_str());
      std::fprintf(stderr, "fuzz_sim: minimized divergence: %s\n",
                   shrunk.failure.divergence.c_str());
      WriteArtifact(args, shrunk);
    }
  }

  if (args.plant_bug) {
    // Self-test inversion: the harness MUST catch the planted model bug
    // (at least one seed diverging proves the oracle has teeth).
    if (failures > 0) {
      std::fprintf(stderr,
                   "fuzz_sim: planted bug caught on %" PRIu64 " seed(s)\n",
                   failures);
      return 0;
    }
    std::fprintf(stderr, "fuzz_sim: planted bug NOT caught\n");
    return 1;
  }
  return failures == 0 ? 0 : 1;
}
