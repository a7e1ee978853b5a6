#include "fault/sim_parallel.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/sim_detail.hpp"

namespace sbst::fault {

namespace {

// Faults per fault-partitioned task: a multiple of the context's lane-packed
// batch size (64 * lanes - 1), so grade_seq's batches start full and
// repacking has several batches to merge; small enough that static striding
// load-balances fault dropping, large enough to amortize per-task evaluator
// construction.
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
          ? &cpt_tables(ctx, patterns)
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

const detail::CptTables& GradingPlan::cpt_tables(const EngineContext& ctx,
                                                 const PatternSet& patterns) {
  for (const CptEntry& e : cpt_storage_) {
    if (e.ctx == &ctx && e.patterns == &patterns) return e.tables;
  }
  return cpt_storage_
      .emplace_back(&ctx, &patterns,
                    detail::make_cpt_tables(ctx.netlist(), patterns,
                                            ctx.observe()))
      .tables;
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
  const detail::SeqTrace* trace = &seq_trace(ctx, stimulus);
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

const detail::SeqTrace& GradingPlan::seq_trace(const EngineContext& ctx,
                                               const SeqStimulus& stimulus) {
  for (const SeqEntry& e : seq_storage_) {
    if (e.ctx == &ctx && e.stimulus == &stimulus) return e.trace;
  }
  return seq_storage_
      .emplace_back(&ctx, &stimulus,
                    detail::make_seq_trace(ctx.netlist(), ctx.compiled(),
                                           stimulus))
      .trace;
}

void GradingPlan::run(ThreadPool& pool) {
  std::vector<ThreadPool::TaskFailure> failures = run_capture(pool);
  if (!failures.empty()) std::rethrow_exception(failures.front().error);
}

std::vector<ThreadPool::TaskFailure> GradingPlan::run_capture(
    ThreadPool& pool) {
  std::vector<ThreadPool::TaskFailure> failures;
  if (!tasks_.empty()) {
    const std::function<void(std::size_t)> task = [this](std::size_t t) {
      tasks_[t]();
    };
    failures = pool.run_static_capture(tasks_.size(), task);
  }
  tasks_.clear();
  cpt_storage_.clear();
  seq_storage_.clear();
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
