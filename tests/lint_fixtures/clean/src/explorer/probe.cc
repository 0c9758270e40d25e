// Fixture explorer: guarded scheduling, plus a raw Schedule that captures
// only shared state (allowed — see ExplorerModule::ScheduleGuarded).

struct Probe {
  void Start();
  void Fire();
  void ScheduleGuarded(int delay);
  int* queue = nullptr;
};

void Probe::Start() {
  ScheduleGuarded(5);
  // A string mentioning Schedule([this] { ... }) must not trip the rule.
  RegisterHint("call Schedule with care");
  queue->Schedule(1, [shared = counter]() { ++*shared; });
}
