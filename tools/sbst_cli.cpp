// sbst — command-line driver for the SBST library.
//
//   sbst inventory                     component classification table
//   sbst generate <cut>                emit a self-test routine's assembly
//   sbst program                       emit the full SBST program assembly
//   sbst listing                       disassembled program listing
//   sbst export <cut> [verilog|blif]   gate-level netlist export
//   sbst evaluate                      run + fault-grade the full program
//   sbst campaign [<cut>...]           guarded injection campaign with the
//                                      RunOutcome taxonomy table
//   sbst serve                         long-running line-protocol daemon:
//                                      evaluate / campaign / conform run /
//                                      stats requests over one warm session
//   sbst conform generate --seed N --count M --out DIR
//                                      write a randomized conformance corpus
//   sbst conform run DIR               three-executor differential replay of
//                                      a corpus directory
//
// <cut> is one of: mul div rf mem shifter alu ctrl
//
// Global options:
//   --threads N / -j N   fault-simulation worker threads, 1..256 (also
//                        SBST_THREADS env var; default: hardware
//                        concurrency)
//   --store DIR          persistent content-addressed artifact store; "auto"
//                        = $XDG_CACHE_HOME/sbst or ~/.cache/sbst (also
//                        SBST_STORE env var; results are identical with the
//                        store on, off, cold, or warm)
//   --no-store           ignore SBST_STORE; no persistent store
//   --fault-model M[,M...]
//                        fault models for evaluate/campaign: stuck-at |
//                        transition | transient | intermittent, comma
//                        separated (also SBST_FAULT_MODEL env var; default
//                        stuck-at keeps the legacy output; any other
//                        selection adds a Model column)
//   --budget-factor K    watchdog budget for faulty runs: K x the good
//                        machine's instructions/cycles/stores (default 8;
//                        0 = legacy unlimited 1<<24 instruction cap)
//   --max-faults N       cap the per-CUT fault list of `campaign`
//                        (default 32; 0 = the full collapsed universe)
//   --store-budget BYTES total-size budget for the persistent store; after
//                        each save the store evicts least-recently-used
//                        entries (oldest mtime first) until it fits
//                        (default 0 = unlimited)
//
// Grading always runs the event engine at W=4 (critical-path tracing for
// combinational CUTs, 255 faults per lane-packed pass for sequential ones),
// with the netlist-compile optimization passes and the session artifact
// cache on. Unknown options and stray arguments are usage errors (exit 2).
//
// Serve options (the hardened daemon):
//   --serve-threads N    request workers for `serve`, 1..256 (default 1);
//                        a reader thread admits requests ahead of them and
//                        responses are emitted in admission order, so the
//                        byte stream is identical for every N
//   --serve-queue N      bounded admission queue depth; excess work
//                        requests shed with `err overloaded retry-after=MS`
//                        (default 16)
//   --request-deadline MS|auto
//                        per-request wall-clock deadline; exceeded requests
//                        answer `err timeout deadline=MSms`. "auto" derives
//                        each verb's deadline from its last good run
//                        (default: unlimited)
//   --journal FILE       write-ahead request journal: work requests are
//                        journaled before execution and sealed after their
//                        response is flushed
//   --replay-journal     on startup, re-run unsealed journal entries (crash
//                        recovery) and verify sealed ones, then serve
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/tablefmt.hpp"
#include "conform/gen.hpp"
#include "conform/runner.hpp"
#include "core/evaluate.hpp"
#include "fault/thread_pool.hpp"
#include "isa/disasm.hpp"
#include "netlist/export.hpp"
#include "serve/serve.hpp"
#include "store/artifact_store.hpp"

using namespace sbst;
using namespace sbst::core;

namespace {

int usage() {
  std::fputs(
      "usage: sbst <command> [args]\n"
      "  inventory                     component classification table\n"
      "  generate <cut>                self-test routine assembly\n"
      "  program                       full SBST program assembly\n"
      "  listing                       disassembled program listing\n"
      "  export <cut> [verilog|blif]   netlist export (default verilog)\n"
      "  evaluate                      run + fault-grade the program\n"
      "  campaign [<cut>...]           guarded injection campaign outcome\n"
      "                                table (default: alu shifter mul)\n"
      "  serve                         line-protocol daemon on stdin/stdout\n"
      "                                (evaluate | campaign [<cut>...] |\n"
      "                                conform run DIR | stats | ping | "
      "quit)\n"
      "  conform generate --seed N --count M --out DIR\n"
      "                                write a randomized conformance "
      "corpus\n"
      "                                (defaults: seed 1, count 500)\n"
      "  conform run DIR               replay a corpus through all three\n"
      "                                executors, diff bitwise\n"
      "cuts: mul div rf mem shifter alu ctrl\n"
      "options: --threads N | -j N   fault-sim worker threads, 1..256 (env "
      "SBST_THREADS;\n"
      "                              default: hardware concurrency)\n"
      "         --store DIR          persistent artifact store; \"auto\" = \n"
      "                              ~/.cache/sbst (env SBST_STORE; "
      "identical\n"
      "                              results cold or warm)\n"
      "         --no-store           ignore SBST_STORE; no persistent "
      "store\n"
      "         --fault-model M[,M...]\n"
      "                              evaluate/campaign fault models: "
      "stuck-at |\n"
      "                              transition | transient | intermittent\n"
      "                              (env SBST_FAULT_MODEL; default "
      "stuck-at)\n"
      "         --cpu-stats          print the CPU-time-equation breakdown\n"
      "                              (cycles, stalls, miss rates) to "
      "stderr\n"
      "         --budget-factor K    faulty-run watchdog budget: K x the\n"
      "                              good run (default 8; 0 = legacy cap)\n"
      "         --max-faults N       per-CUT fault cap for campaign\n"
      "                              (default 32; 0 = full universe)\n"
      "         --store-budget BYTES LRU size budget for the persistent "
      "store\n"
      "                              (default 0 = unlimited)\n"
      "serve options:\n"
      "         --serve-threads N    request workers, 1..256 (default 1; "
      "any N\n"
      "                              emits identical response bytes)\n"
      "         --serve-queue N      admission queue depth before shedding\n"
      "                              (default 16)\n"
      "         --request-deadline MS|auto\n"
      "                              per-request deadline -> `err timeout`\n"
      "                              (auto = 8 x last good run; default "
      "off)\n"
      "         --journal FILE       write-ahead request journal\n"
      "         --replay-journal     recover/verify the journal, then "
      "serve\n",
      stderr);
  return 2;
}

// Parses the whole of `text` as a decimal no smaller than `min`.
bool parse_size(const char* text, std::size_t min, std::size_t& out) {
  std::size_t v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end || v < min) return false;
  out = v;
  return true;
}

bool parse_cut(const char* arg, CutId& out) {
  return serve::parse_cut_name(arg, out);
}

Routine make_routine(const ProcessorModel& model, CutId cut) {
  switch (cut) {
    case CutId::kMultiplier: return make_multiplier_routine();
    case CutId::kDivider: return make_divider_routine();
    case CutId::kRegisterFile: return make_regfile_routine();
    case CutId::kMemCtrl: return make_memctrl_routine();
    case CutId::kShifter: return make_shifter_routine(model);
    case CutId::kAlu: return make_alu_routine();
    default: return make_control_routine();
  }
}

int cmd_inventory(const ProcessorModel& model) {
  Table t({"Component", "Class", "GE", "Strategy", "Priority",
           "Periodic", "Excited by"});
  for (const ComponentInfo* c : model.by_priority()) {
    t.add_row({c->name, class_name(c->cls),
               Table::num(static_cast<std::uint64_t>(c->gate_equivalents())),
               strategy_name(c->default_strategy),
               Table::num(static_cast<std::uint64_t>(c->test_priority)),
               c->periodic_suitable ? "yes" : "no", c->excite});
  }
  t.print();
  std::printf("total: %s gate equivalents, D-VC share %.1f%%\n",
              Table::num(static_cast<std::uint64_t>(
                             model.total_gate_equivalents()))
                  .c_str(),
              100 * model.class_area_fraction(ComponentClass::kDataVisible));
  return 0;
}

int cmd_generate(const ProcessorModel& model, CutId cut) {
  const Routine r = make_routine(model, cut);
  std::printf("# routine %s  style %s  target %s  signature slot %u\n",
              r.name.c_str(), r.style.c_str(),
              model.component(cut).name.c_str(), r.sig_slot);
  std::fputs(r.assembly.c_str(), stdout);
  if (!r.data_assembly.empty()) {
    std::puts("# data");
    std::fputs(r.data_assembly.c_str(), stdout);
  }
  return 0;
}

int cmd_program(const ProcessorModel& model, bool listing) {
  TestProgramBuilder builder;
  builder.add_default_routines(model);
  const TestProgram program = builder.build();
  if (listing) {
    std::fputs(isa::listing(program.image.words, program.image.base).c_str(),
               stdout);
  } else {
    for (const Routine& r : program.routines) {
      std::printf("# ---- %s (%s) ----\n", r.name.c_str(), r.style.c_str());
      std::fputs(r.assembly.c_str(), stdout);
    }
    std::fputs("  break\n", stdout);
    std::fputs(misr_subroutines().c_str(), stdout);
    std::fputs("signatures:\n  .word 0, 0, 0, 0, 0, 0, 0, 0\n", stdout);
    for (const Routine& r : program.routines) {
      std::fputs(r.data_assembly.c_str(), stdout);
    }
  }
  std::fprintf(stderr, "# %zu words, %zu routines\n",
               program.image.size_words(), program.routines.size());
  return 0;
}

int cmd_export(const ProcessorModel& model, CutId cut, bool blif) {
  const netlist::Netlist& nl = model.component(cut).netlist;
  std::fputs((blif ? netlist::to_blif(nl) : netlist::to_verilog(nl)).c_str(),
             stdout);
  return 0;
}

// `conform generate`: write a randomized corpus directory. The summary on
// stdout (count, classes, content hash) is deterministic for a given
// (seed, count); wall-clock goes to stderr.
int cmd_conform_generate(std::uint64_t seed, std::size_t count,
                         const char* out_dir) {
  const auto t0 = std::chrono::steady_clock::now();
  const conform::CaseGen gen({.seed = seed, .count = count});
  const conform::Corpus corpus = gen.generate();
  conform::save_corpus(corpus, out_dir);
  std::size_t traps = 0;
  for (const conform::ConformCase& c : corpus.cases) {
    if (!c.trap.empty()) ++traps;
  }
  std::printf("conform: generated %zu cases, %zu classes, %zu trap cases, "
              "seed %llu\n",
              corpus.cases.size(),
              conform::corpus_class_names(corpus).size(), traps,
              static_cast<unsigned long long>(corpus.seed));
  std::printf("corpus %s content hash %016llx\n", corpus.version.c_str(),
              static_cast<unsigned long long>(
                  conform::corpus_content_hash(corpus)));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fprintf(stderr, "# conform: generated in %.3f s, wrote %s\n", wall,
               out_dir);
  return 0;
}

int cmd_conform(const ProcessorModel& model,
                const serve::ServeOptions& options,
                std::shared_ptr<store::ArtifactStore> store,
                const std::vector<const char*>& args) {
  if (args.size() < 2) return usage();
  const std::string sub = args[1];
  if (sub == "generate") {
    std::uint64_t seed = 1;
    std::size_t count = 500;
    const char* out_dir = nullptr;
    for (std::size_t k = 2; k < args.size(); ++k) {
      const char* a = args[k];
      if (std::strcmp(a, "--seed") == 0 && k + 1 < args.size()) {
        char* end = nullptr;
        seed = std::strtoull(args[++k], &end, 10);
        if (end == args[k] || *end != '\0') return usage();
      } else if (std::strcmp(a, "--count") == 0 && k + 1 < args.size()) {
        if (!parse_size(args[++k], 1, count)) return usage();
      } else if (std::strcmp(a, "--out") == 0 && k + 1 < args.size()) {
        out_dir = args[++k];
      } else {
        return usage();
      }
    }
    if (!out_dir) return usage();
    return cmd_conform_generate(seed, count, out_dir);
  }
  if (sub == "run") {
    if (args.size() != 3) return usage();
    GradingSession session(model, serve::session_options(options, store));
    const int status =
        serve::render_conform_run(session, args[2], stdout, stderr);
    serve::print_store_summary(session, store.get(), stderr);
    return status;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip global options; everything else stays positional.
  serve::ServeOptions options;
  const char* store_spec = std::getenv("SBST_STORE");
  const char* model_spec = std::getenv("SBST_FAULT_MODEL");
  std::size_t store_budget = 0;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--threads") == 0 || std::strcmp(a, "-j") == 0) {
      if (i + 1 >= argc ||
          !fault::parse_thread_count(argv[++i], options.sim.num_threads)) {
        return usage();
      }
    } else if (std::strcmp(a, "--cpu-stats") == 0) {
      options.cpu_stats = true;
    } else if (std::strcmp(a, "--budget-factor") == 0) {
      if (i + 1 >= argc) return usage();
      char* end = nullptr;
      options.budget_factor = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' ||
          !std::isfinite(options.budget_factor)) {
        return usage();
      }
    } else if (std::strcmp(a, "--max-faults") == 0) {
      if (i + 1 >= argc || !parse_size(argv[++i], 0, options.max_faults)) {
        return usage();
      }
    } else if (std::strcmp(a, "--serve-threads") == 0) {
      if (i + 1 >= argc ||
          !fault::parse_thread_count(argv[++i], options.serve_threads)) {
        return usage();
      }
    } else if (std::strcmp(a, "--serve-queue") == 0) {
      if (i + 1 >= argc || !parse_size(argv[++i], 1, options.queue_depth)) {
        return usage();
      }
    } else if (std::strcmp(a, "--request-deadline") == 0) {
      if (i + 1 >= argc) return usage();
      const char* value = argv[++i];
      if (std::strcmp(value, "auto") == 0) {
        options.request_deadline_ms = -1;  // derive from cached good runs
      } else {
        char* end = nullptr;
        options.request_deadline_ms = std::strtod(value, &end);
        if (end == value || *end != '\0' || options.request_deadline_ms < 0) {
          return usage();
        }
      }
    } else if (std::strcmp(a, "--journal") == 0) {
      if (i + 1 >= argc) return usage();
      options.journal_path = argv[++i];
    } else if (std::strcmp(a, "--replay-journal") == 0) {
      options.replay_journal = true;
    } else if (std::strcmp(a, "--store-budget") == 0) {
      if (i + 1 >= argc || !parse_size(argv[++i], 0, store_budget)) {
        return usage();
      }
    } else if (std::strcmp(a, "--store") == 0 ||
               std::strncmp(a, "--store=", 8) == 0) {
      const char* value = a[7] == '=' ? a + 8 : nullptr;
      if (!value) {
        if (i + 1 >= argc) return usage();
        value = argv[++i];
      }
      store_spec = value;
    } else if (std::strcmp(a, "--no-store") == 0) {
      store_spec = nullptr;
    } else if (std::strcmp(a, "--fault-model") == 0 ||
               std::strncmp(a, "--fault-model=", 14) == 0) {
      const char* value = a[13] == '=' ? a + 14 : nullptr;
      if (!value) {
        if (i + 1 >= argc) return usage();
        value = argv[++i];
      }
      model_spec = value;
    } else if (a[0] == '-' &&
               !(args.size() >= 2 && std::strcmp(args[0], "conform") == 0 &&
                 std::strcmp(args[1], "generate") == 0)) {
      // Only `conform generate` has options of its own.
      std::fprintf(stderr, "sbst: unknown option \"%s\"\n", a);
      return usage();
    } else {
      args.push_back(a);
    }
  }
  if (args.empty()) return usage();
  if (model_spec &&
      !serve::parse_fault_model_list(model_spec, options.fault_models)) {
    std::fprintf(stderr,
                 "sbst: bad fault-model list \"%s\" (stuck-at | transition "
                 "| transient | intermittent, comma separated)\n",
                 model_spec);
    return usage();
  }

  std::shared_ptr<store::ArtifactStore> store;
  if (store_spec) {
    const std::string dir = store::ArtifactStore::resolve_dir(store_spec);
    if (dir.empty()) {
      // "auto" with neither $XDG_CACHE_HOME nor $HOME set: fail soft. Warn
      // once and run storeless rather than scribbling into the working
      // directory or refusing to run at all.
      std::fprintf(stderr,
                   "sbst: store \"auto\" has no cache root ($XDG_CACHE_HOME "
                   "and $HOME unset); running without a persistent store\n");
    } else {
      store = std::make_shared<store::ArtifactStore>(dir);
      if (store_budget > 0) store->set_budget(store_budget);
      options.sim.store = store.get();
    }
  }

  const std::string cmd = args[0];
  const bool bare = args.size() == 1;  // no positional arguments
  ProcessorModel model;
  if (cmd == "inventory" && bare) return cmd_inventory(model);
  if (cmd == "program" && bare) return cmd_program(model, false);
  if (cmd == "listing" && bare) return cmd_program(model, true);
  if (cmd == "evaluate" && bare) {
    GradingSession session(model, serve::session_options(options, store));
    const int status =
        serve::render_evaluate(session, options.sim, options.cpu_stats,
                               stdout, stderr, options.fault_models);
    serve::print_store_summary(session, store.get(), stderr);
    return status;
  }
  if (cmd == "campaign") {
    std::vector<CutId> cuts;
    for (std::size_t k = 1; k < args.size(); ++k) {
      CutId cut;
      if (!parse_cut(args[k], cut)) return usage();
      if (!serve::injectable_cut(cut)) {
        std::fprintf(stderr,
                     "campaign: %s is not an injectable CUT "
                     "(alu / shifter / mul)\n",
                     args[k]);
        return 2;
      }
      cuts.push_back(cut);
    }
    if (cuts.empty()) {
      cuts = {CutId::kAlu, CutId::kShifter, CutId::kMultiplier};
    }
    GradingSession session(model, serve::session_options(options, store));
    const int status = serve::render_campaign(session, options.sim,
                                              options.max_faults, cuts,
                                              stdout, stderr,
                                              options.fault_models);
    serve::print_store_summary(session, store.get(), stderr);
    return status;
  }
  if (cmd == "serve" && bare) {
    return serve::run_serve(model, options, store, stdin, stdout, stderr);
  }
  if (cmd == "conform") {
    try {
      return cmd_conform(model, options, store, args);
    } catch (const conform::ConformError& e) {
      std::fprintf(stderr, "conform: %s\n", e.what());
      return 1;
    }
  }
  if (cmd == "generate" || cmd == "export") {
    CutId cut;
    if (args.size() < 2 || !parse_cut(args[1], cut)) return usage();
    if (cmd == "generate") {
      return args.size() == 2 ? cmd_generate(model, cut) : usage();
    }
    const std::string format = args.size() > 2 ? args[2] : "verilog";
    if (args.size() > 3 || (format != "verilog" && format != "blif")) {
      return usage();
    }
    return cmd_export(model, cut, format == "blif");
  }
  return usage();
}
