// Flooding consensus over the message-passing fabric -- the classic
// synchronous-style algorithm dropped into an asynchronous system, and the
// message-passing member of the doomed-candidate family (the setting of
// the 2002 technical report the paper grew from).
//
// Protocol: on init(v), send v to every process (including yourself via
// local shortcut), wait until a value has been received from ALL n
// processes, decide the minimum. Failure-free this solves consensus; it
// tolerates ZERO failures, because a single crashed process (or a silenced
// fabric) leaves everyone waiting for its value forever. Claimed
// 1-resilient, the adversary engine refutes it through the standard
// pipeline -- with the channel fabric (a failure-oblivious service)
// playing the role of S_k, i.e. a Theorem-9 instance.
#pragma once

#include <memory>

#include "ioa/system.h"
#include "processes/process.h"
#include "services/canonical_general.h"

namespace boosting::processes {

class FloodingConsensusProcess : public ProcessBase {
 public:
  FloodingConsensusProcess(int endpoint, int processCount, int channelId);

  std::string name() const override;
  std::unique_ptr<ioa::AutomatonState> initialState() const override;
  ioa::Automaton::TaskStructure taskStructure() const override {
    ioa::Automaton::TaskStructure ts;
    ts.conformant = true;
    ts.mayInvoke = {channelId_};
    return ts;
  }

 protected:
  ioa::Action chooseAction(const ProcessStateBase& s) const override;
  void onInit(ProcessStateBase& s) const override;
  void onRespond(ProcessStateBase& s, int serviceId,
                 const util::Value& resp) const override;
  void onLocal(ProcessStateBase& s, const ioa::Action& a) const override;

 private:
  int n_;
  int channelId_;
};

struct FloodingConsensusSpec {
  int processCount = 2;
  int channelResilience = 0;  // f of the fabric
  int channelId = 700;
  services::DummyPolicy policy = services::DummyPolicy::PreferReal;
};

std::unique_ptr<ioa::System> buildFloodingConsensusSystem(
    const FloodingConsensusSpec& spec);

}  // namespace boosting::processes
