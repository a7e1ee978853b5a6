#include "fault/sim_parallel.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/sim_detail.hpp"

namespace sbst::fault {

namespace {

// Faults per fault-partitioned task: a multiple of the context's lane-packed
// batch size (64 * lanes - 1), so grade_seq's batches start full and
// repacking has several batches to merge; small enough that claim-next
// scheduling can even out fault dropping and the few whole-cone chunks,
// large enough to amortize per-task evaluator construction.
// Depends only on the context (never the thread count), so chunk
// boundaries stay deterministic (flags would not move anyway: each lane is
// an independent machine).
std::size_t chunk_faults(const EngineContext& ctx) {
  const std::size_t batch = 64 * ctx.lanes() - 1;
  return batch * std::max<std::size_t>(1, 1008 / batch);
}

/// Runs a plan on the external pool if one was lent in, else on a per-call
/// pool sized by the usual num_threads resolution.
void run_plan(GradingPlan& plan, const SimOptions& options) {
  if (options.pool) {
    plan.run(*options.pool);
  } else {
    ThreadPool pool(resolve_thread_count(options.num_threads));
    plan.run(pool);
  }
}

}  // namespace

void GradingPlan::add_comb(const EngineContext& ctx,
                           const std::vector<Fault>& faults,
                           const PatternSet& patterns, bool lane_parallel,
                           CoverageResult& out) {
  detail::require_combinational(ctx.netlist(), "GradingPlan::add_comb");
  out.total = faults.size();
  out.detected_flags.assign(faults.size(), 0);
  if (faults.empty()) return;
  std::uint8_t* flags = out.detected_flags.data();

  const detail::Activation act = detail::activation_of(faults);
  // Block PPSFP serves only the models it can grade; everything else, and
  // the production default, runs critical-path tracing.
  const detail::CptTables* cpt =
      lane_parallel || act == detail::Activation::kTransition
          ? &cpt_entry(ctx, patterns).tables
          : nullptr;
  const std::size_t chunk = chunk_faults(ctx);
  for (std::size_t begin = 0; begin < faults.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, faults.size());
    tasks_.push_back([&ctx, &faults, &patterns, cpt, flags, begin, end, act] {
      ctx.grade_with_evaluator([&](auto& ev) {
        if (!cpt) {
          detail::with_activation(act, [&](auto tag) {
            detail::grade_blocks<decltype(tag)::value>(
                ev, faults, begin, end, patterns, ctx.observe(), ctx.reach(),
                flags);
          });
          return;
        }
        detail::with_any_activation(act, [&](auto tag) {
          detail::grade_cpt<decltype(tag)::value>(ev, faults, begin, end,
                                                  patterns, ctx.observe(),
                                                  *cpt, ctx.reach(), flags);
        });
      });
    });
  }
}

GradingPlan::CptEntry& GradingPlan::cpt_entry(const EngineContext& ctx,
                                              const PatternSet& patterns) {
  for (CptEntry& e : cpt_storage_) {
    if (e.ctx == &ctx && e.patterns == &patterns) return e;
  }
  return cpt_storage_.emplace_back(&ctx, &patterns);
}

void GradingPlan::add_seq(const EngineContext& ctx,
                          const std::vector<Fault>& faults,
                          const SeqStimulus& stimulus, CoverageResult& out) {
  out.total = faults.size();
  out.detected_flags.assign(faults.size(), 0);
  if (faults.empty()) return;
  std::uint8_t* flags = out.detected_flags.data();

  const detail::Activation act = detail::activation_of(faults);
  if (act == detail::Activation::kTransition) {
    throw std::invalid_argument(
        "sequential fault sim: transition faults are combinational-only "
        "(launch/capture pattern pairs); grade them with add_comb or "
        "simulate_comb");
  }
  const detail::SeqTrace* trace = &seq_entry(ctx, stimulus).trace;
  const std::size_t chunk = chunk_faults(ctx);
  for (std::size_t begin = 0; begin < faults.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, faults.size());
    tasks_.push_back(
        [&ctx, &faults, &stimulus, trace, flags, begin, end, act] {
          ctx.grade_with_evaluator([&](auto& ev) {
            detail::with_activation(act, [&](auto tag) {
              detail::grade_seq<decltype(tag)::value>(
                  ev, faults, begin, end, stimulus, ctx.observe(), *trace,
                  ctx.reach(), flags);
            });
          });
        });
  }
}

GradingPlan::SeqEntry& GradingPlan::seq_entry(const EngineContext& ctx,
                                              const SeqStimulus& stimulus) {
  for (SeqEntry& e : seq_storage_) {
    if (e.ctx == &ctx && e.stimulus == &stimulus) return e;
  }
  return seq_storage_.emplace_back(&ctx, &stimulus);
}

void GradingPlan::run(ThreadPool& pool) {
  std::vector<ThreadPool::TaskFailure> failures = run_capture(pool);
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
}

std::vector<ThreadPool::TaskFailure> GradingPlan::run_capture(
    ThreadPool& pool) {
  // First batch: one task per registered entry builds its tables or trace.
  // The builders only read the context's immutable artifacts (the netlist's
  // topological order was warmed by the EngineContext).
  const std::function<void(std::size_t)> prepare = [this](std::size_t i) {
    if (i < cpt_storage_.size()) {
      CptEntry& e = cpt_storage_[i];
      e.tables = detail::make_cpt_tables(e.ctx->netlist(), *e.patterns,
                                         e.ctx->observe());
    } else {
      SeqEntry& e = seq_storage_[i - cpt_storage_.size()];
      e.trace = detail::make_seq_trace(e.ctx->netlist(), e.ctx->compiled(),
                                       *e.stimulus);
    }
  };
  std::vector<ThreadPool::TaskFailure> prep_failures = pool.run_capture(
      cpt_storage_.size() + seq_storage_.size(), prepare);
  // Second batch: the chunk tasks, indexed in add order.
  std::vector<ThreadPool::TaskFailure> failures;
  if (prep_failures.empty()) {
    const std::function<void(std::size_t)> task = [this](std::size_t t) {
      tasks_[t]();
    };
    failures = pool.run_capture(tasks_.size(), task);
  }
  tasks_.clear();
  cpt_storage_.clear();
  seq_storage_.clear();
  if (!prep_failures.empty()) {
    std::rethrow_exception(prep_failures.front().error);
  }
  return failures;
}

CoverageResult simulate_comb_parallel(const netlist::Netlist& nl,
                                      const std::vector<Fault>& faults,
                                      const PatternSet& patterns,
                                      const ObserveSet& observe,
                                      const SimOptions& options) {
  detail::require_combinational(nl, "simulate_comb_parallel");
  const EngineContext ctx(options.engine, nl, observe, options.compiled,
                          options.reach, options.lanes, options.netlist_opt,
                          options.store);
  CoverageResult res;
  GradingPlan plan;
  plan.add_comb(ctx, faults, patterns, options.lane_parallel, res);
  run_plan(plan, options);
  res.recount();
  return res;
}

CoverageResult simulate_seq_parallel(const netlist::Netlist& nl,
                                     const std::vector<Fault>& faults,
                                     const SeqStimulus& stimulus,
                                     const ObserveSet& observe,
                                     const SimOptions& options) {
  const EngineContext ctx(options.engine, nl, observe, options.compiled,
                          options.reach, options.lanes, options.netlist_opt,
                          options.store);
  CoverageResult res;
  GradingPlan plan;
  plan.add_seq(ctx, faults, stimulus, res);
  run_plan(plan, options);
  res.recount();
  return res;
}

}  // namespace sbst::fault
