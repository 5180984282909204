// Runs a query the way the paper figures measure it: through Workbench::Run
// on the signature plan (Algorithm 1). The forced hint bypasses the L1
// result cache in both directions, so every call executes the engine and its
// response carries the answer, the engine counters and the page reads.
//
// Run answers a signature-plan failure on damaged storage with a degraded
// boolean-first answer; here that fallback is an error, so a test that goes
// through this helper still fails when the signature store is broken.
#pragma once

#include "workbench/workbench.h"

namespace pcube {

inline Result<QueryResponse> RunSignature(Workbench& wb, QueryRequest request) {
  request.hint = PlanHint::kSignature;
  auto resp = wb.Run(request);
  if (resp.ok() && (resp->degraded ||
                    resp->estimate.choice != PlanChoice::kSignature)) {
    return Status::Internal("signature plan fell back to boolean-first: " +
                            resp->degraded_reason);
  }
  return resp;
}

}  // namespace pcube
