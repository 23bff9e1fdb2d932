#include "processes/relay_consensus.h"

#include <stdexcept>

#include "services/canonical_atomic.h"
#include "services/register.h"
#include "types/builtin_types.h"
#include "util/hashing.h"

namespace boosting::processes {

using ioa::Action;
using util::Value;
using util::sym;

namespace {

enum class Phase : int {
  Idle = 0,     // no input yet
  NeedInvoke,   // input received, service invocation pending
  Waiting,      // awaiting the service response
  NeedWrite,    // (bridge) outcome known, register write pending
  WaitingAck,   // (bridge) write issued, awaiting ack
  NeedRead,     // (reader) read invocation pending
  WaitingRead,  // (reader) awaiting read response
  NeedDecide,   // outcome known, decide output pending
  Done,
};

class RelayState final : public ProcessStateBase {
 public:
  Phase phase = Phase::Idle;
  Value outcome;  // the agreed value once known

  std::unique_ptr<ioa::AutomatonState> clone() const override {
    return std::make_unique<RelayState>(*this);
  }
  std::size_t hash() const override {
    std::size_t h = baseHash();
    util::hashValue(h, static_cast<int>(phase));
    util::hashCombine(h, outcome.hash());
    return h;
  }
  bool equals(const ioa::AutomatonState& other) const override {
    const auto* o = dynamic_cast<const RelayState*>(&other);
    return o != nullptr && baseEquals(*o) && phase == o->phase &&
           outcome == o->outcome;
  }
  std::string str() const override {
    return "relay phase=" + std::to_string(static_cast<int>(phase)) +
           (outcome.isNil() ? "" : " out=" + outcome.str()) + baseStr();
  }
};

RelayState& relayState(ProcessStateBase& s) {
  return dynamic_cast<RelayState&>(s);
}
const RelayState& relayState(const ProcessStateBase& s) {
  return dynamic_cast<const RelayState&>(s);
}

Value decodeDecide(const Value& resp) {
  if (resp.tag() != "decide") {
    throw std::logic_error("consensus service returned non-decide response " +
                           resp.str());
  }
  return resp.at(1);
}

}  // namespace

// ---------------------------------------------------------------------------
// RelayConsensusProcess
// ---------------------------------------------------------------------------

RelayConsensusProcess::RelayConsensusProcess(int endpoint,
                                             int consensusServiceId)
    : ProcessBase(endpoint), serviceId_(consensusServiceId) {}

std::string RelayConsensusProcess::name() const {
  return "P" + std::to_string(endpoint()) + "<relay:S" +
         std::to_string(serviceId_) + ">";
}

std::unique_ptr<ioa::AutomatonState> RelayConsensusProcess::initialState()
    const {
  return std::make_unique<RelayState>();
}

Action RelayConsensusProcess::chooseAction(const ProcessStateBase& s) const {
  const RelayState& st = relayState(s);
  switch (st.phase) {
    case Phase::NeedInvoke:
      return Action::invoke(endpoint(), serviceId_, sym("init", st.input));
    case Phase::NeedDecide:
      return Action::envDecide(endpoint(), sym("decide", st.outcome));
    default:
      return Action::procDummy(endpoint());
  }
}

void RelayConsensusProcess::onInit(ProcessStateBase& s) const {
  RelayState& st = relayState(s);
  if (st.phase == Phase::Idle) st.phase = Phase::NeedInvoke;
}

void RelayConsensusProcess::onRespond(ProcessStateBase& s, int serviceId,
                                      const Value& resp) const {
  RelayState& st = relayState(s);
  if (serviceId != serviceId_ || st.phase != Phase::Waiting) return;
  st.outcome = decodeDecide(resp);
  st.phase = Phase::NeedDecide;
}

void RelayConsensusProcess::onLocal(ProcessStateBase& s,
                                    const Action& a) const {
  RelayState& st = relayState(s);
  if (a.kind == ioa::ActionKind::Invoke) {
    st.phase = Phase::Waiting;
  } else if (a.kind == ioa::ActionKind::EnvDecide) {
    st.phase = Phase::Done;
  }
}

// ---------------------------------------------------------------------------
// BridgeWriterProcess
// ---------------------------------------------------------------------------

BridgeWriterProcess::BridgeWriterProcess(int endpoint, int consensusServiceId,
                                         int registerId)
    : ProcessBase(endpoint),
      serviceId_(consensusServiceId),
      registerId_(registerId) {}

std::string BridgeWriterProcess::name() const {
  return "P" + std::to_string(endpoint()) + "<bridge-writer>";
}

std::unique_ptr<ioa::AutomatonState> BridgeWriterProcess::initialState()
    const {
  return std::make_unique<RelayState>();
}

Action BridgeWriterProcess::chooseAction(const ProcessStateBase& s) const {
  const RelayState& st = relayState(s);
  switch (st.phase) {
    case Phase::NeedInvoke:
      return Action::invoke(endpoint(), serviceId_, sym("init", st.input));
    case Phase::NeedWrite:
      return Action::invoke(endpoint(), registerId_,
                            sym("write", st.outcome));
    case Phase::NeedDecide:
      return Action::envDecide(endpoint(), sym("decide", st.outcome));
    default:
      return Action::procDummy(endpoint());
  }
}

void BridgeWriterProcess::onInit(ProcessStateBase& s) const {
  RelayState& st = relayState(s);
  if (st.phase == Phase::Idle) st.phase = Phase::NeedInvoke;
}

void BridgeWriterProcess::onRespond(ProcessStateBase& s, int serviceId,
                                    const Value& resp) const {
  RelayState& st = relayState(s);
  if (serviceId == serviceId_ && st.phase == Phase::Waiting) {
    st.outcome = decodeDecide(resp);
    st.phase = Phase::NeedWrite;
  } else if (serviceId == registerId_ && st.phase == Phase::WaitingAck) {
    st.phase = Phase::NeedDecide;
  }
}

void BridgeWriterProcess::onLocal(ProcessStateBase& s, const Action& a) const {
  RelayState& st = relayState(s);
  if (a.kind == ioa::ActionKind::Invoke) {
    st.phase = (st.phase == Phase::NeedWrite) ? Phase::WaitingAck
                                              : Phase::Waiting;
  } else if (a.kind == ioa::ActionKind::EnvDecide) {
    st.phase = Phase::Done;
  }
}

// ---------------------------------------------------------------------------
// SpinReaderProcess
// ---------------------------------------------------------------------------

SpinReaderProcess::SpinReaderProcess(int endpoint, int registerId)
    : ProcessBase(endpoint), registerId_(registerId) {}

std::string SpinReaderProcess::name() const {
  return "P" + std::to_string(endpoint()) + "<spin-reader>";
}

std::unique_ptr<ioa::AutomatonState> SpinReaderProcess::initialState() const {
  return std::make_unique<RelayState>();
}

Action SpinReaderProcess::chooseAction(const ProcessStateBase& s) const {
  const RelayState& st = relayState(s);
  switch (st.phase) {
    case Phase::NeedRead:
      return Action::invoke(endpoint(), registerId_, sym("read"));
    case Phase::NeedDecide:
      return Action::envDecide(endpoint(), sym("decide", st.outcome));
    default:
      return Action::procDummy(endpoint());
  }
}

void SpinReaderProcess::onInit(ProcessStateBase& s) const {
  RelayState& st = relayState(s);
  if (st.phase == Phase::Idle) st.phase = Phase::NeedRead;
}

void SpinReaderProcess::onRespond(ProcessStateBase& s, int serviceId,
                                  const Value& resp) const {
  RelayState& st = relayState(s);
  if (serviceId != registerId_ || st.phase != Phase::WaitingRead) return;
  if (resp.isNil()) {
    st.phase = Phase::NeedRead;  // spin
  } else {
    st.outcome = resp;
    st.phase = Phase::NeedDecide;
  }
}

void SpinReaderProcess::onLocal(ProcessStateBase& s, const Action& a) const {
  RelayState& st = relayState(s);
  if (a.kind == ioa::ActionKind::Invoke) {
    st.phase = Phase::WaitingRead;
  } else if (a.kind == ioa::ActionKind::EnvDecide) {
    st.phase = Phase::Done;
  }
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

std::unique_ptr<ioa::System> buildRelayConsensusSystem(
    const RelaySystemSpec& spec) {
  auto sys = std::make_unique<ioa::System>();
  std::vector<int> all;
  for (int i = 0; i < spec.processCount; ++i) {
    all.push_back(i);
    sys->addProcess(std::make_shared<RelayConsensusProcess>(
        i, spec.consensusServiceId));
  }
  services::CanonicalAtomicObject::Options opts;
  opts.policy = spec.policy;
  auto object = std::make_shared<services::CanonicalAtomicObject>(
      types::binaryConsensusType(), spec.consensusServiceId, all,
      spec.objectResilience, opts);
  sys->addService(object, object->meta());
  if (spec.addScratchRegister) {
    auto reg =
        std::make_shared<services::CanonicalRegister>(spec.registerId, all);
    sys->addService(reg, reg->meta());
  }
  // Every process runs the same program, both services span all processes,
  // and relay states never mention process identities: the full S_n acts on
  // configurations by moving process slots and remapping service buffers.
  sys->declareProcessSymmetry();
  return sys;
}

std::unique_ptr<ioa::System> buildBridgeConsensusSystem(
    const BridgeSystemSpec& spec) {
  const int b = spec.bridgeEndpoint;
  if (b < 0 || b >= spec.processCount - 1) {
    throw std::logic_error(
        "bridge endpoint must leave at least one reader after it");
  }
  auto sys = std::make_unique<ioa::System>();
  std::vector<int> proposers;  // endpoints of the consensus object
  std::vector<int> registerEnds;  // bridge + readers
  for (int i = 0; i < spec.processCount; ++i) {
    if (i < b) {
      sys->addProcess(std::make_shared<RelayConsensusProcess>(
          i, spec.consensusServiceId));
    } else if (i == b) {
      sys->addProcess(std::make_shared<BridgeWriterProcess>(
          i, spec.consensusServiceId, spec.registerId));
    } else {
      sys->addProcess(
          std::make_shared<SpinReaderProcess>(i, spec.registerId));
    }
    if (i <= b) proposers.push_back(i);
    if (i >= b) registerEnds.push_back(i);
  }
  services::CanonicalAtomicObject::Options opts;
  opts.policy = spec.policy;
  auto object = std::make_shared<services::CanonicalAtomicObject>(
      types::binaryConsensusType(), spec.consensusServiceId, proposers,
      spec.objectResilience, opts);
  sys->addService(object, object->meta());
  auto reg = std::make_shared<services::CanonicalRegister>(spec.registerId,
                                                           registerEnds);
  sys->addService(reg, reg->meta());
  return sys;
}

}  // namespace boosting::processes
