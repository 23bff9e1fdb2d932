#include "services/canonical_oblivious.h"

namespace boosting::services {

namespace {
CanonicalGeneralService::Options lowerOptions(
    const CanonicalObliviousService::Options& o) {
  CanonicalGeneralService::Options out;
  out.policy = o.policy;
  out.coalesceResponses = o.coalesceResponses;
  out.failureAware = false;
  out.isRegister = false;
  return out;
}
}  // namespace

CanonicalObliviousService::CanonicalObliviousService(
    const types::ServiceType& type, int id, std::vector<int> endpoints,
    int resilience, Options options)
    : CanonicalGeneralService(types::liftOblivious(type), id,
                              std::move(endpoints), resilience,
                              lowerOptions(options)) {}

CanonicalObliviousService::CanonicalObliviousService(
    const types::ServiceType& type, int id, std::vector<int> endpoints,
    int resilience)
    : CanonicalObliviousService(type, id, std::move(endpoints), resilience,
                                Options{}) {}

}  // namespace boosting::services
