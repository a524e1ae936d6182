// Workflow USD-conservation audit: clean runs (including a ≥20-seed chaos
// sweep) pass at full level, and corrupting any single field of the public
// result fires the matching invariant. Follows the audit_rules_test idiom:
// one corruption per test, exact invariant name asserted.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "src/billing/catalog.h"
#include "src/billing/model.h"
#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/common/units.h"
#include "src/integrity/audit_rules.h"
#include "src/integrity/integrity.h"
#include "src/workflow/dag.h"
#include "src/workflow/workflow_sim.h"

namespace faascost {
namespace {

constexpr uint64_t kSeed = 3;

WorkflowSimConfig ChaosConfig() {
  WorkflowSimConfig cfg;
  HopSpec proto;
  cfg.dags.push_back(MakeChainDag("c", 4, proto, /*spread_zones=*/true));
  cfg.dags.push_back(MakeFanOutDag("f", 4, 3, proto));
  cfg.workflows = 60;
  cfg.wps = 4.0;
  cfg.failure_rate = 0.08;
  cfg.init_failure_rate = 0.02;
  cfg.zones = 3;
  ZonalOutageSpec outage;
  outage.zone = 1;
  outage.start = 4 * kMicrosPerSec;
  outage.duration = 6 * kMicrosPerSec;
  cfg.outages.push_back(outage);
  cfg.policy.retry.max_attempts = 3;
  cfg.policy.retry.breaker_threshold = 4;
  cfg.policy.hedge.hedge_after = 600 * kMicrosPerMilli;
  cfg.pricing = MakeWorkflowPricing(Platform::kAwsLambda);
  return cfg;
}

WorkflowSimResult RunChaos(uint64_t seed = kSeed) {
  return SimulateWorkflows(ChaosConfig(), MakeBillingModel(Platform::kAwsLambda), seed);
}

// A non-empty `entity` must match the violation's entity exactly, and a
// non-empty `detail` must appear in its detail text.
template <typename Fn>
void ExpectViolation(const std::string& invariant, Fn&& audit,
                     const std::string& entity = "", const std::string& detail = "") {
  try {
    audit();
    FAIL() << "expected IntegrityViolation " << invariant << ", none thrown";
  } catch (const IntegrityViolation& e) {
    EXPECT_EQ(e.invariant(), invariant) << e.what();
    if (!entity.empty()) {
      EXPECT_EQ(e.entity(), entity) << e.what();
    }
    if (!detail.empty()) {
      EXPECT_NE(e.detail().find(detail), std::string::npos) << e.what();
    }
  }
}

void Audit(const WorkflowSimResult& res, uint64_t seed = kSeed) {
  Auditor auditor(AuditLevel::kFull);
  AuditWorkflowRun(res, ChaosConfig(), seed, auditor,
                   MakeBillingModel(Platform::kAwsLambda));
}

TEST(WorkflowAudit, CleanRunCheckCountPinned) {
  Auditor auditor(AuditLevel::kFull);
  AuditWorkflowRun(RunChaos(), ChaosConfig(), kSeed, auditor,
                   MakeBillingModel(Platform::kAwsLambda));
  // Pinned: a dropped or duplicated end-of-run check moves the count.
  EXPECT_EQ(auditor.checks_run(), 1292);
}

// The acceptance sweep: the full-level workflow audit passes on ≥20 chaos
// seeds, with both in-run and end-of-run auditors attached.
TEST(WorkflowAudit, CleanChaosSweepPassesTwentySeeds) {
  const BillingModel aws = MakeBillingModel(Platform::kAwsLambda);
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    WorkflowSimConfig cfg = ChaosConfig();
    Auditor in_run(AuditLevel::kFull);
    cfg.auditor = &in_run;
    const WorkflowSimResult res = SimulateWorkflows(cfg, aws, seed);
    EXPECT_GT(in_run.checks_run(), 0);
    Auditor post(AuditLevel::kFull);
    AuditWorkflowRun(res, cfg, seed, post, aws);
    EXPECT_GT(post.checks_run(), 0) << "seed " << seed;
  }
}

TEST(WorkflowAudit, InflatedAttemptUsdFiresReconciliation) {
  WorkflowSimResult res = RunChaos();
  for (HopAttempt& att : res.attempts) {
    if (att.platform_dispatched) {
      att.usd += 1.0;
      break;
    }
  }
  ExpectViolation("workflow.usd_reconciliation", [&] { Audit(res); });
}

// USD details print shortest round-trip doubles: a 1e-8 discrepancy on a
// micro-dollar attempt shows as two different numbers, and each parses back
// to the exact double the audit compared.
TEST(WorkflowAudit, UsdDetailRoundTripsExactly) {
  const WorkflowSimConfig cfg = ChaosConfig();
  WorkflowSimResult res = RunChaos();
  size_t k = res.attempts.size();
  for (size_t i = 0; i < res.attempts.size(); ++i) {
    if (res.attempts[i].platform_dispatched) {
      k = i;
      break;
    }
  }
  ASSERT_LT(k, res.attempts.size());
  HopAttempt& att = res.attempts[k];
  const HopSpec& spec =
      cfg.dags[static_cast<size_t>(att.dag)].hops[static_cast<size_t>(att.hop)];
  const Usd want = ComputeInvoice(MakeBillingModel(Platform::kAwsLambda),
                                  BillableRecord(att.attempt, spec.vcpus, spec.mem_mb))
                       .total;
  att.usd += 1e-8;
  try {
    Audit(res);
    FAIL() << "expected workflow.usd_reconciliation, none thrown";
  } catch (const IntegrityViolation& e) {
    EXPECT_EQ(e.invariant(), "workflow.usd_reconciliation") << e.what();
    EXPECT_EQ(e.entity(), "attempt " + std::to_string(k)) << e.what();
    const std::string& detail = e.detail();
    const size_t got_at = detail.find("got=");
    const size_t want_at = detail.find(" want=");
    ASSERT_EQ(got_at, 0u) << detail;
    ASSERT_NE(want_at, std::string::npos) << detail;
    const std::string got_text = detail.substr(4, want_at - 4);
    const std::string want_text = detail.substr(want_at + 6);
    EXPECT_NE(got_text, want_text) << detail;
    EXPECT_EQ(std::bit_cast<uint64_t>(ParseJson(got_text).GetDouble()),
              std::bit_cast<uint64_t>(att.usd))
        << detail;
    EXPECT_EQ(std::bit_cast<uint64_t>(ParseJson(want_text).GetDouble()),
              std::bit_cast<uint64_t>(want))
        << detail;
  }
}

TEST(WorkflowAudit, BilledCircuitOpenFiresNeverBilled) {
  WorkflowSimResult res = RunChaos();
  bool corrupted = false;
  for (HopAttempt& att : res.attempts) {
    if (att.attempt.outcome == Outcome::kCircuitOpen) {
      att.platform_dispatched = true;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "chaos run produced no circuit-open rows";
  ExpectViolation("workflow.never_billed", [&] { Audit(res); });
}

TEST(WorkflowAudit, UsdOnUndispatchedRowFiresNeverBilled) {
  WorkflowSimResult res = RunChaos();
  bool corrupted = false;
  for (HopAttempt& att : res.attempts) {
    if (!att.platform_dispatched) {
      att.usd = 0.001;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted) << "chaos run produced no undispatched rows";
  ExpectViolation("workflow.never_billed", [&] { Audit(res); });
}

TEST(WorkflowAudit, DroppedCounterFiresAttemptConservation) {
  WorkflowSimResult res = RunChaos();
  res.counters.dispatched_attempts -= 1;
  ExpectViolation("workflow.attempt_conservation", [&] { Audit(res); });
}

TEST(WorkflowAudit, InflatedWorkflowRowFiresUsdConservation) {
  WorkflowSimResult res = RunChaos();
  ASSERT_GE(res.workflows.size(), 2u);
  res.workflows[1].usd += 0.01;
  ExpectViolation("workflow.usd_conservation", [&] { Audit(res); }, "wf 1",
                  "got=" + JsonWriter::FormatDouble(res.workflows[1].usd) + " ");
}

TEST(WorkflowAudit, MiscountedSuccessesFiresOutcomePartition) {
  WorkflowSimResult res = RunChaos();
  res.counters.workflows_succeeded += 1;
  ExpectViolation("workflow.outcome_partition", [&] { Audit(res); });
}

TEST(WorkflowAudit, BackwardsAttemptTimeFiresMonotoneCheck) {
  WorkflowSimResult res = RunChaos();
  size_t corrupted = res.attempts.size();
  for (size_t i = 0; i < res.attempts.size(); ++i) {
    HopAttempt& att = res.attempts[i];
    if (att.platform_dispatched && att.attempt.dispatched > 0) {
      att.attempt.end = att.attempt.dispatched - 1;
      corrupted = i;
      break;
    }
  }
  ASSERT_LT(corrupted, res.attempts.size());
  ExpectViolation("workflow.monotone_attempt_time", [&] { Audit(res); },
                  "attempt " + std::to_string(corrupted),
                  " end=" + std::to_string(res.attempts[corrupted].attempt.end));
}

TEST(WorkflowAudit, InflatedRunTotalFiresUsdConservation) {
  WorkflowSimResult res = RunChaos();
  res.usd_total += 0.5;
  ExpectViolation("workflow.usd_conservation", [&] { Audit(res); });
}

TEST(WorkflowAudit, WasteDecompositionFires) {
  WorkflowSimResult res = RunChaos();
  res.usd_wasted += 0.25;
  ExpectViolation("workflow.usd_conservation", [&] { Audit(res); });
}

}  // namespace
}  // namespace faascost
