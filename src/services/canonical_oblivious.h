// CanonicalObliviousService: the canonical f-resilient failure-oblivious
// service of Section 5.1 (Fig. 4), realized as the paper's own embedding
// into the general-service engine (Section 6.1): the transition functions
// simply never observe the failed set, and the ServiceMeta is marked as
// failure-oblivious so the analysis engine applies the Theorem-9 (rather
// than Theorem-10) similarity relations to it.
#pragma once

#include "services/canonical_general.h"

namespace boosting::services {

class CanonicalObliviousService : public CanonicalGeneralService {
 public:
  struct Options {
    DummyPolicy policy = DummyPolicy::PreferReal;
    bool coalesceResponses = false;
  };

  CanonicalObliviousService(const types::ServiceType& type, int id,
                            std::vector<int> endpoints, int resilience,
                            Options options);
  CanonicalObliviousService(const types::ServiceType& type, int id,
                            std::vector<int> endpoints, int resilience);
};

}  // namespace boosting::services
